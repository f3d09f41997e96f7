//! The experiment registry: every paper figure/table, topology, workload
//! and strategy, enumerable by name.
//!
//! `flexserve list` renders this module; `flexserve run <figure>` looks a
//! figure up here and calls its pipeline function; `flexserve run`/`sweep`
//! cell expressions draw their axes from the same catalogs. The golden
//! tests pin [`list_text`] so the CLI surface can't drift silently.

use std::sync::Mutex;

use rayon::prelude::*;

use crate::cache::DistCache;
use crate::figures::{self, Plan, Profile};
use crate::output::Table;
use crate::spec::ALL_STRATEGIES;

/// One paper figure or table: a name, what it shows, and the pipeline
/// function that regenerates it (writing `results/<name>.csv` and
/// returning the table).
pub struct FigureEntry {
    /// Registry name (`fig01` … `fig19`, `table1`).
    pub name: &'static str,
    /// One-line description of what the paper plot shows.
    pub title: &'static str,
    /// Sizes the figure for a profile: the substrates it declares and
    /// its pipeline.
    pub plan: fn(Profile) -> Plan,
    /// Regenerates the figure at the given profile, outside any lease
    /// (`plan(profile).run()`); [`run_figures`] runs a list of figures
    /// under one.
    pub run: fn(Profile) -> Table,
}

/// A [`FigureEntry`] whose `run` is its own plan's pipeline.
macro_rules! entry {
    ($name:literal, $plan:path, $title:literal) => {
        FigureEntry {
            name: $name,
            title: $title,
            plan: $plan,
            run: |profile| $plan(profile).run(),
        }
    };
}

/// Every figure and table of the paper's evaluation, in paper order.
pub const FIGURES: &[FigureEntry] = &[
    entry!(
        "fig01",
        figures::fig01,
        "ONTH exemplary run, commuter dynamic load (servers track demand)"
    ),
    entry!(
        "fig02",
        figures::fig02,
        "ONTH exemplary run, commuter static load (server count converges)"
    ),
    entry!(
        "fig03",
        figures::fig03,
        "Cost vs network size, commuter dynamic load"
    ),
    entry!(
        "fig04",
        figures::fig04,
        "Cost vs network size, commuter static load"
    ),
    entry!(
        "fig05",
        figures::fig05,
        "Cost vs network size, time-zones scenario"
    ),
    entry!(
        "fig06",
        figures::fig06,
        "ONBR cost breakdown by scenario, flipped regime (beta=400 > c=40)"
    ),
    entry!("fig07", figures::fig07, "Cost vs T, commuter static load"),
    entry!(
        "fig08",
        figures::fig08,
        "Cost vs lambda, commuter dynamic load"
    ),
    entry!(
        "fig09",
        figures::fig09,
        "Cost vs lambda, commuter static load"
    ),
    entry!(
        "fig10",
        figures::fig10,
        "Cost vs lambda, time-zones scenario (p=50%)"
    ),
    entry!(
        "fig11",
        figures::fig11,
        "ONTH/OPT competitive ratio vs lambda, all scenarios"
    ),
    entry!(
        "fig12",
        figures::fig12,
        "OFFSTAT cost vs static server count (how k_opt is picked)"
    ),
    entry!(
        "fig13",
        figures::fig13,
        "OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=40 < c=400)"
    ),
    entry!(
        "fig14",
        figures::fig14,
        "OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=400 > c=40)"
    ),
    entry!(
        "fig15",
        figures::fig15,
        "OFFSTAT/OPT ratio vs lambda, commuter dynamic load"
    ),
    entry!(
        "fig16",
        figures::fig16,
        "OFFSTAT/OPT ratio vs lambda, commuter static load"
    ),
    entry!(
        "fig17",
        figures::fig17,
        "OFFSTAT/OPT ratio vs lambda, time-zones (p=50%)"
    ),
    entry!(
        "fig18",
        figures::fig18,
        "OFFSTAT/OPT ratio vs T, commuter dynamic load"
    ),
    entry!(
        "fig19",
        figures::fig19,
        "OFFSTAT/OPT ratio vs T, commuter static load"
    ),
    entry!(
        "table1",
        figures::table1,
        "AS-7018 time-zones run: OFFSTAT vs ONTH vs ONBR"
    ),
];

/// Looks a figure up by registry name.
pub fn figure(name: &str) -> Option<&'static FigureEntry> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs `entries` at `profile` under one [`Lease`](crate::Lease) over the
/// union of the substrates they declare, so each distinct substrate is
/// built once and freed when the last entry that declared it completes.
///
/// The entries run concurrently, one pool task each, and each fans its
/// (row, seed) cells out on the same pool; a thread with no entry left
/// helps the last entries' cells. `done(entry, table, seconds)` is
/// called in argument order, for each entry as soon as it and every
/// earlier entry have finished, so output printed from it never
/// interleaves. Returns the tables in argument order.
pub fn run_figures(
    entries: &[&FigureEntry],
    profile: Profile,
    done: impl Fn(&FigureEntry, &Table, f64) + Sync,
) -> Vec<Table> {
    let plans: Vec<Plan> = entries.iter().map(|e| (e.plan)(profile)).collect();
    let declared = plans.iter().flat_map(|p| p.substrates().iter().cloned());
    let lease = DistCache::global().lease(declared);
    // The next entry to report, and each finished entry's table and
    // compute time.
    let finished = Mutex::new((0, vec![None::<(Table, f64)>; entries.len()]));
    plans
        .par_iter()
        .enumerate()
        .with_max_len(1)
        .for_each(|(i, plan)| {
            let t0 = std::time::Instant::now();
            let table = plan.run();
            let secs = t0.elapsed().as_secs_f64();
            lease.release(plan.substrates());
            let mut guard = finished.lock().expect("no entry panics while reporting");
            let (next, ready) = &mut *guard;
            ready[i] = Some((table, secs));
            while let Some((table, secs)) = ready.get(*next).and_then(Option::as_ref) {
                done(entries[*next], table, *secs);
                *next += 1;
            }
        });
    let (_, ready) = finished
        .into_inner()
        .expect("no entry panics while reporting");
    ready
        .into_iter()
        .map(|r| r.expect("every entry ran").0)
        .collect()
}

/// The topology catalog: example canonical spec plus description, in
/// display order. Parse any entry's spec shape with
/// [`TopologySpec`](crate::spec::TopologySpec).
pub const TOPOLOGIES: &[(&str, &str)] = &[
    (
        "er:<n>",
        "Erdos-Renyi, 1% connection probability (paper default)",
    ),
    (
        "waxman:<n>",
        "connected Waxman graph (alpha=0.4, beta=0.15)",
    ),
    ("grid:<rows>x<cols>", "4-neighbor grid"),
    ("geom:<n>", "connected random geometric graph (radius 0.2)"),
    (
        "line:<n>",
        "line with random 1-10 ms latencies (OPT experiments)",
    ),
    ("unit-line:<n>", "unit-latency line (fully deterministic)"),
    ("ring:<n>", "ring with random latencies"),
    ("star:<n>", "star with random latencies"),
    ("tree:<n>", "uniform random tree"),
    (
        "as7018",
        "synthetic AT&T AS-7018-like PoP topology (deterministic)",
    ),
    (
        "rocketfuel:<path>",
        "Rocketfuel-style weighted ISP map file",
    ),
];

/// The workload catalog: canonical spec shape plus description.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "commuter-dynamic",
        "morning fan-out / evening fan-in, volume varies",
    ),
    (
        "commuter-static",
        "commuter rhythm with fixed total volume 2^(T/2)",
    ),
    (
        "time-zones:p=<pct>,req=<n>",
        "p% of requests from the period's hot node",
    ),
    (
        "proximity:req=<n>,pool=<pct>",
        "stationary demand near the network center",
    ),
    ("uniform:req=<n>", "uniform background noise"),
    (
        "onoff:users=<n>,dwell=<r>,correlated=<bool>",
        "users dwell then jump",
    ),
    (
        "replay:<path>",
        "recorded demand trace, JSONL or packed flexserve-trace-v1",
    ),
];

/// One-line description per strategy, aligned with
/// [`ALL_STRATEGIES`].
pub const STRATEGY_DESCRIPTIONS: &[&str] = &[
    "threshold algorithm with small/large epochs (paper SIII)",
    "sequential best response, fixed threshold 2c",
    "sequential best response, dynamic threshold 2c/l",
    "configuration-counter algorithm (small substrates only)",
    "sampled ONCONF: one configuration per server count",
    "lookahead best response (offline)",
    "lookahead threshold (offline)",
    "optimal static provisioning (offline)",
    "optimal offline dynamic program (small substrates only)",
    "never reconfigures (baseline)",
];

/// Stable plain-text rendering of the whole registry, used by
/// `flexserve list` and pinned by a golden test.
pub fn list_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "figures (flexserve run <name>):");
    for f in FIGURES {
        let _ = writeln!(out, "  {:<8} {}", f.name, f.title);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "topologies (topo=<spec>):");
    for (spec, desc) in TOPOLOGIES {
        let _ = writeln!(out, "  {spec:<24} {desc}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "workloads (wl=<spec>):");
    for (spec, desc) in WORKLOADS {
        let _ = writeln!(out, "  {spec:<44} {desc}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "strategies (strat=<name>):");
    for (s, desc) in ALL_STRATEGIES.iter().zip(STRATEGY_DESCRIPTIONS) {
        let _ = writeln!(out, "  {:<12} {desc}", s.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_figures_uniquely() {
        assert_eq!(FIGURES.len(), 20, "19 figures + table1");
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "names must be unique");
        assert!(figure("fig03").is_some());
        assert!(figure("table1").is_some());
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn every_strategy_has_a_description() {
        assert_eq!(ALL_STRATEGIES.len(), STRATEGY_DESCRIPTIONS.len());
    }

    #[test]
    fn catalog_specs_parse() {
        use crate::spec::{TopologySpec, WorkloadSpec};
        // every placeholder-free catalog entry must parse as-is
        assert!("as7018".parse::<TopologySpec>().is_ok());
        for (spec, _) in WORKLOADS {
            let bare = spec.split(':').next().unwrap();
            if bare == "replay" {
                // replay has no bare default — the path is mandatory
                assert!("replay".parse::<WorkloadSpec>().is_err());
                assert!("replay:demand.jsonl".parse::<WorkloadSpec>().is_ok());
                continue;
            }
            assert!(bare.parse::<WorkloadSpec>().is_ok(), "{bare}");
        }
    }

    #[test]
    fn list_text_mentions_every_axis() {
        let text = list_text();
        for f in FIGURES {
            assert!(text.contains(f.name));
        }
        assert!(text.contains("er:<n>"));
        assert!(text.contains("commuter-dynamic"));
        assert!(text.contains("offstat"));
    }
}
