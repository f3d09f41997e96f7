//! The experiment registry: every paper figure/table, topology, workload
//! and strategy, enumerable by name.
//!
//! `flexserve list` renders this module; `flexserve run <figure>` looks a
//! figure up here and calls its pipeline function; `flexserve run`/`sweep`
//! cell expressions draw their axes from the same catalogs. The golden
//! tests pin [`list_text`] so the CLI surface can't drift silently.

use crate::figures::{self, Profile};
use crate::output::Table;
use crate::spec::ALL_STRATEGIES;

/// One paper figure or table: a name, what it shows, and the pipeline
/// function that regenerates it (printing the series and writing
/// `results/<name>.csv`).
pub struct FigureEntry {
    /// Registry name (`fig01` … `fig19`, `table1`).
    pub name: &'static str,
    /// One-line description of what the paper plot shows.
    pub title: &'static str,
    /// Regenerates the figure at the given profile.
    pub run: fn(Profile) -> Table,
}

/// Every figure and table of the paper's evaluation, in paper order.
pub const FIGURES: &[FigureEntry] = &[
    FigureEntry {
        name: "fig01",
        title: "ONTH exemplary run, commuter dynamic load (servers track demand)",
        run: figures::fig01,
    },
    FigureEntry {
        name: "fig02",
        title: "ONTH exemplary run, commuter static load (server count converges)",
        run: figures::fig02,
    },
    FigureEntry {
        name: "fig03",
        title: "Cost vs network size, commuter dynamic load",
        run: figures::fig03,
    },
    FigureEntry {
        name: "fig04",
        title: "Cost vs network size, commuter static load",
        run: figures::fig04,
    },
    FigureEntry {
        name: "fig05",
        title: "Cost vs network size, time-zones scenario",
        run: figures::fig05,
    },
    FigureEntry {
        name: "fig06",
        title: "ONBR cost breakdown by scenario, flipped regime (beta=400 > c=40)",
        run: figures::fig06,
    },
    FigureEntry {
        name: "fig07",
        title: "Cost vs T, commuter static load",
        run: figures::fig07,
    },
    FigureEntry {
        name: "fig08",
        title: "Cost vs lambda, commuter dynamic load",
        run: figures::fig08,
    },
    FigureEntry {
        name: "fig09",
        title: "Cost vs lambda, commuter static load",
        run: figures::fig09,
    },
    FigureEntry {
        name: "fig10",
        title: "Cost vs lambda, time-zones scenario (p=50%)",
        run: figures::fig10,
    },
    FigureEntry {
        name: "fig11",
        title: "ONTH/OPT competitive ratio vs lambda, all scenarios",
        run: figures::fig11,
    },
    FigureEntry {
        name: "fig12",
        title: "OFFSTAT cost vs static server count (how k_opt is picked)",
        run: figures::fig12,
    },
    FigureEntry {
        name: "fig13",
        title: "OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=40 < c=400)",
        run: figures::fig13,
    },
    FigureEntry {
        name: "fig14",
        title: "OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=400 > c=40)",
        run: figures::fig14,
    },
    FigureEntry {
        name: "fig15",
        title: "OFFSTAT/OPT ratio vs lambda, commuter dynamic load",
        run: figures::fig15,
    },
    FigureEntry {
        name: "fig16",
        title: "OFFSTAT/OPT ratio vs lambda, commuter static load",
        run: figures::fig16,
    },
    FigureEntry {
        name: "fig17",
        title: "OFFSTAT/OPT ratio vs lambda, time-zones (p=50%)",
        run: figures::fig17,
    },
    FigureEntry {
        name: "fig18",
        title: "OFFSTAT/OPT ratio vs T, commuter dynamic load",
        run: figures::fig18,
    },
    FigureEntry {
        name: "fig19",
        title: "OFFSTAT/OPT ratio vs T, commuter static load",
        run: figures::fig19,
    },
    FigureEntry {
        name: "table1",
        title: "AS-7018 time-zones run: OFFSTAT vs ONTH vs ONBR",
        run: figures::table1,
    },
];

/// Looks a figure up by registry name.
pub fn figure(name: &str) -> Option<&'static FigureEntry> {
    FIGURES.iter().find(|f| f.name == name)
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
