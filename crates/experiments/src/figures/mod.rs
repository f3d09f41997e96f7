//! One function per paper figure/table, dispatched by name through
//! [`crate::registry`] (`flexserve run <name>`; `flexserve run all` runs
//! everything). Each function prints the series the paper plots, saves a
//! CSV under `results/`, and returns the table for programmatic inspection
//! (the golden tests pin the CSV bytes on quick profiles).

mod exemplary;
mod lambda_sweeps;
mod ratio;
mod rocketfuel;
mod size_sweeps;

pub use exemplary::{fig01, fig02, fig12};
pub use lambda_sweeps::{fig07, fig08, fig09, fig10};
pub use ratio::{fig11, fig13, fig14, fig15, fig16, fig17, fig18, fig19};
pub use rocketfuel::table1;
pub use size_sweeps::{fig03, fig04, fig05, fig06};

use crate::output::Table;

/// Prints `table` and saves it as `results/<name>.csv`: the last step of
/// every pipeline.
fn publish(name: &str, table: Table) -> Table {
    table.print();
    table.save_csv(name).expect("write csv");
    table
}

/// Experiment sizing profile. Sweeps shrink on smaller profiles so the
/// whole suite stays tractable on one core; the *parameters within a run*
/// (β, c, Ra, Ri, thresholds) never change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Tiny instances for tests (seconds).
    Quick,
    /// Default for the binaries: the paper's shapes at reduced sweep sizes
    /// (a few minutes on one core).
    Standard,
    /// The paper's exact sweep sizes (set `FLEXSERVE_FULL=1`; slow).
    Full,
}

/// Reads the profile from the environment: `FLEXSERVE_QUICK=1` →
/// [`Profile::Quick`], `FLEXSERVE_FULL=1` → [`Profile::Full`], otherwise
/// [`Profile::Standard`].
pub fn profile_from_env() -> Profile {
    if std::env::var("FLEXSERVE_QUICK").is_ok_and(|v| v == "1") {
        Profile::Quick
    } else if std::env::var("FLEXSERVE_FULL").is_ok_and(|v| v == "1") {
        Profile::Full
    } else {
        Profile::Standard
    }
}

impl Profile {
    /// Network sizes for the cost-vs-n sweeps (Figs 3–6).
    pub fn network_sizes(self) -> Vec<usize> {
        match self {
            Profile::Quick => vec![30, 60],
            Profile::Standard => vec![50, 100, 200, 350, 500],
            Profile::Full => vec![50, 100, 200, 400, 700, 1000],
        }
    }

    /// Seeds (runs to average over).
    pub fn seeds(self, paper_runs: usize) -> Vec<u64> {
        let n = match self {
            Profile::Quick => 2,
            Profile::Standard => 3.min(paper_runs),
            Profile::Full => paper_runs,
        };
        (0..n as u64).map(|s| 1000 + s).collect()
    }

    /// Scales a round count down on smaller profiles.
    pub fn rounds(self, paper_rounds: u64) -> u64 {
        match self {
            Profile::Quick => (paper_rounds / 10).max(20),
            Profile::Standard => paper_rounds.min(500),
            Profile::Full => paper_rounds,
        }
    }

    /// λ values for the λ sweeps (Figs 8–10, 13–17).
    pub fn lambdas(self) -> Vec<u64> {
        match self {
            Profile::Quick => vec![2, 10],
            Profile::Standard => vec![1, 2, 5, 10, 20, 40],
            Profile::Full => vec![1, 2, 5, 10, 20, 40, 80],
        }
    }

    /// T values for the T sweeps (Figs 7, 18, 19). Starting at `T = 2`
    /// exposes the rising region of the ratio-vs-T curves before the tiny
    /// OPT substrate saturates (all five nodes covered by `2^{T/2}`
    /// access points from `T = 6` on).
    pub fn t_values(self) -> Vec<u32> {
        match self {
            Profile::Quick => vec![2, 6],
            Profile::Standard => vec![2, 4, 6, 8, 10],
            Profile::Full => vec![2, 4, 6, 8, 10, 12, 14],
        }
    }

    /// Exemplary-run network size (Figs 1–2 use 1000/500 in the paper).
    pub fn exemplary_n(self, paper_n: usize) -> usize {
        match self {
            Profile::Quick => 60,
            Profile::Standard => paper_n.min(300),
            Profile::Full => paper_n,
        }
    }

    /// Exemplary-run length (paper: 1000 rounds).
    pub fn exemplary_rounds(self) -> u64 {
        match self {
            Profile::Quick => 60,
            Profile::Standard => 400,
            Profile::Full => 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_size() {
        assert!(Profile::Quick.network_sizes().len() <= Profile::Standard.network_sizes().len());
        assert!(Profile::Standard.network_sizes().last() <= Profile::Full.network_sizes().last());
        assert!(Profile::Quick.rounds(1000) < Profile::Full.rounds(1000));
        assert_eq!(Profile::Full.seeds(10).len(), 10);
        assert_eq!(Profile::Standard.seeds(10).len(), 3);
    }
}
