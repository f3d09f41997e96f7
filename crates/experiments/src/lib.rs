//! # flexserve-experiments
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (§V), driven by the single `flexserve` CLI
//! (`cargo run --release -p flexserve-experiments --bin flexserve -- list`).
//! This library holds the machinery:
//!
//! * [`spec`] — declarative [`TopologySpec`] /
//!   [`WorkloadSpec`] /
//!   [`StrategySpec`] /
//!   [`CellSpec`]: every experiment axis as parseable data, and the one
//!   experiment vocabulary — figures, ablations, the CLI and the perf
//!   harness all run strategies through [`StrategySpec::run`] and record
//!   demand through [`WorkloadSpec::shared_trace`],
//! * [`registry`] — the name → figure/topology/workload/strategy catalogs
//!   behind `flexserve list` and `flexserve run`,
//! * [`cache`] — the process-wide distance-matrix cache keyed by
//!   `(topology spec, seed)` that de-duplicates APSP work across cells,
//! * [`traces`] — its demand-plane sibling: the process-wide recorded
//!   [`RoundTrace`](flexserve_workload::RoundTrace) cache that lets every
//!   strategy of a figure/sweep evaluate against one shared demand
//!   materialization,
//! * [`manifest`] — the `results/manifest.json` provenance record (spec,
//!   seeds, git describe, cache counters for every artifact),
//! * [`setup`] — [`ExperimentEnv`], a substrate plus its distance matrix
//!   fetched through the cache (Erdős–Rényi p=1%, T1/T2 bandwidths, …),
//! * [`figures`] — one pipeline function per paper figure/table,
//! * [`runner`] — seed-parallel averaging over a cell's seeds,
//! * [`serve`] — the `flexserve serve` daemon: a concurrent multi-session
//!   streaming placement service (a `SessionManager` of per-session actor
//!   threads behind a worker-pool HTTP front end) with per-session
//!   checkpoint/restore, documented in `docs/SERVING.md`,
//! * [`output`] — aligned-table stdout reporting plus CSV files under
//!   `results/` (override with `FLEXSERVE_RESULTS_DIR`).
//!
//! Every figure prints the series the paper plots and records the same
//! numbers as CSV; `docs/FIGURES.md` maps each figure to its registry name
//! and output file.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod figures;
pub mod manifest;
pub mod output;
pub mod registry;
pub mod runner;
pub mod serve;
pub mod setup;
pub mod spec;
pub mod traces;

pub use cache::{CacheStats, DistCache};
pub use manifest::{Manifest, ManifestEntry};
pub use output::{write_csv, Table};
pub use runner::{average, average_serial, grid, SeedSummary};
pub use setup::ExperimentEnv;
pub use spec::{CellBuilder, CellSpec, StrategySpec, TopologySpec, WorkloadSpec};
pub use traces::{clear_global_caches, TraceCache, TraceKey};
