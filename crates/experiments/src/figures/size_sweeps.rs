//! Figures 3–6: cost as a function of network size.
//!
//! * Fig 3 — commuter scenario, dynamic load (500 rounds, λ=10, averaged
//!   over 5 runs; `T` grows with network size).
//! * Fig 4 — the same with static load.
//! * Fig 5 — the same for the time-zones scenario.
//! * Fig 6 — cost *breakdown* of ONBR in all three scenarios for the
//!   flipped regime β=400 > c=40 (where the three algorithms coincide and
//!   the paper considers ONBR with fixed threshold 2c).
//!
//! Figs 3–5 and 7–10 are all grouped ER sweeps, run by [`ErSweep`].

use std::fmt::Display;

use flexserve_sim::{CostParams, LoadModel};
use flexserve_workload::CommuterScenario;

use crate::output::Table;
use crate::runner::{grid, SeedSummary};
use crate::setup::ExperimentEnv;
use crate::spec::{StrategySpec, WorkloadSpec};

use super::{publish, Profile};

/// The time-zones demand of the ER figures: `p = 50%` hot traffic, 50
/// requests per round (docs/DESIGN.md §5: the paper leaves the volume
/// unspecified; 50 keeps volumes comparable to the commuter peaks).
pub(super) const TIME_ZONES: WorkloadSpec = WorkloadSpec::TimeZones {
    hot_percent: 50,
    requests: 50,
};

/// The strategies a grouped ER sweep compares, in column order.
const STRATEGIES: [StrategySpec; 3] = [
    StrategySpec::OnBrFixed,
    StrategySpec::OnBrDyn,
    StrategySpec::OnTh,
];

/// A grouped ER sweep: one table row per x value, holding the mean total
/// cost of ONBR-fixed, ONBR-dyn and ONTH over `seeds`. The substrate of
/// a seed is `er:<n>` at that seed; its workload seed is `seed ^ salt`.
pub(super) struct ErSweep<'a> {
    pub name: &'a str,
    pub title: String,
    pub x_label: &'a str,
    pub workload: WorkloadSpec,
    pub rounds: u64,
    pub seeds: Vec<u64>,
    pub salt: u64,
}

impl ErSweep<'_> {
    /// Runs one row per `x`; `cell(x)` gives the row's `er:<n>` size,
    /// `T` and `λ`. Every (row, seed) cell runs in one [`grid`] call.
    /// Per cell the demand is recorded once and all three strategies
    /// read it — values are bit-identical to per-strategy recordings
    /// (the golden CSVs pin this).
    pub fn run<X: Display + Copy + Sync>(
        self,
        xs: Vec<X>,
        cell: impl Fn(X) -> (usize, u32, u64),
    ) -> Table {
        let ErSweep {
            name,
            title,
            x_label,
            workload,
            rounds,
            seeds,
            salt,
        } = self;
        let rows: Vec<(X, (usize, u32, u64))> = xs.into_iter().map(|x| (x, cell(x))).collect();
        let summaries = grid(&rows, &seeds, |&(_, (n, t, lambda)), seed| {
            let env = ExperimentEnv::erdos_renyi(n, seed);
            let ctx = env.context(CostParams::default(), LoadModel::Linear);
            let demand = workload.record(&env, t, lambda, rounds, seed ^ salt);
            STRATEGIES.map(|s| s.run(&ctx, &demand, seed))
        });
        let mut table = Table::new(title, &[x_label, "ONBR-fixed", "ONBR-dyn", "ONTH"]);
        for ((x, _), row) in rows.iter().zip(&summaries) {
            table.row_f64(x, &row.each_ref().map(SeedSummary::mean_total));
        }
        publish(name, table)
    }
}

fn cost_vs_n(name: &str, title: &str, workload: WorkloadSpec, profile: Profile) -> Table {
    let rounds = profile.rounds(500);
    let lambda = 10u64;
    let seeds = profile.seeds(5);
    ErSweep {
        name,
        title: format!(
            "{title} ({rounds} rounds, lambda={lambda}, {} seeds)",
            seeds.len()
        ),
        x_label: "n",
        workload,
        rounds,
        seeds,
        salt: 0xABCD,
    }
    .run(profile.network_sizes(), |n| {
        (n, CommuterScenario::t_for_network_size(n), lambda)
    })
}

/// Figure 3: commuter / dynamic load, cost vs n.
pub fn fig03(profile: Profile) -> Table {
    cost_vs_n(
        "fig03",
        "Fig 3: cost vs network size, commuter dynamic load",
        WorkloadSpec::CommuterDynamic,
        profile,
    )
}

/// Figure 4: commuter / static load, cost vs n.
pub fn fig04(profile: Profile) -> Table {
    cost_vs_n(
        "fig04",
        "Fig 4: cost vs network size, commuter static load",
        WorkloadSpec::CommuterStatic,
        profile,
    )
}

/// Figure 5: time-zones scenario, cost vs n.
pub fn fig05(profile: Profile) -> Table {
    cost_vs_n(
        "fig05",
        "Fig 5: cost vs network size, time-zones scenario",
        TIME_ZONES,
        profile,
    )
}

/// Figure 6: ONBR cost breakdown by scenario, flipped regime (β=400, c=40).
pub fn fig06(profile: Profile) -> Table {
    let rounds = profile.rounds(500);
    let lambda = 10u64;
    let seeds = profile.seeds(5);
    let params = CostParams::flipped();

    let mut table = Table::new(
        format!(
            "Fig 6: ONBR cost breakdown (beta=400 > c=40; {rounds} rounds, lambda={lambda}, {} seeds)",
            seeds.len()
        ),
        &[
            "n", "scenario", "access", "running", "migration", "creation", "total",
        ],
    );

    // The `scenario` column prints the scenario names, not the canonical
    // workload strings.
    let scenarios = [
        ("commuter-dynamic", WorkloadSpec::CommuterDynamic),
        ("commuter-static", WorkloadSpec::CommuterStatic),
        ("time-zones", TIME_ZONES),
    ];
    let rows: Vec<(usize, &str, &WorkloadSpec)> = profile
        .network_sizes()
        .into_iter()
        .flat_map(|n| scenarios.iter().map(move |(name, wl)| (n, *name, wl)))
        .collect();
    let summaries = grid(&rows, &seeds, |&(n, _, workload), seed| {
        let t = CommuterScenario::t_for_network_size(n);
        let env = ExperimentEnv::erdos_renyi(n, seed);
        let ctx = env.context(params, LoadModel::Linear);
        let demand = workload.record(&env, t, lambda, rounds, seed ^ 0xABCD);
        [StrategySpec::OnBrFixed.run(&ctx, &demand, seed)]
    });
    for (&(n, scenario, _), [summary]) in rows.iter().zip(&summaries) {
        let mean = summary.mean();
        table.row(vec![
            n.to_string(),
            scenario.to_string(),
            format!("{:.2}", mean.access),
            format!("{:.2}", mean.running),
            format!("{:.2}", mean.migration),
            format!("{:.2}", mean.creation),
            format!("{:.2}", mean.total()),
        ]);
    }
    publish("fig06", table)
}
