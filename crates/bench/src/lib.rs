//! # flexserve-bench
//!
//! Shared fixtures for the `perf_report` before/after harness, which
//! times serial reference paths against their optimized counterparts and
//! writes the `BENCH_*.json` files (schema: docs/BENCHMARKS.md). The
//! repository benchmark proper — end-to-end figure-suite and serving
//! metrics with a layered trace — is `perfbench/`.
//!
//! Cost-level (not time-level) ablations live in the
//! `flexserve-experiments` crate (`cargo run -p flexserve-experiments
//! --release --bin ablations`).

#![deny(missing_docs)]

use flexserve_experiments::{ExperimentEnv, StrategySpec};
use flexserve_graph::gen::{waxman, GenConfig};
use flexserve_graph::Graph;
use flexserve_sim::{CostBreakdown, CostParams, LoadModel};
use flexserve_workload::{record, CommuterScenario, LoadVariant};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Seeded connected Waxman substrate (no matrix — the APSP benches build
/// it themselves; that *is* the measurement).
pub fn waxman_env(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    waxman(n, 0.4, 0.15, 10.0, &GenConfig::default(), &mut rng).expect("valid params")
}

/// Seeds per sweep cell in the before/after perf harness.
pub const SWEEP_SEEDS: u64 = 20;

/// One per-seed cell of a figure sweep: a commuter trace over the shared
/// environment, played by ONTH. Exactly the shape every figure pipeline
/// hands to `flexserve_experiments::average`. The trace is recorded
/// afresh (not through the trace cache), so every repetition does the
/// same work.
pub fn sweep_cell(env: &ExperimentEnv, seed: u64) -> CostBreakdown {
    let ctx = env.context(CostParams::default(), LoadModel::Linear);
    let mut scenario =
        CommuterScenario::with_matrix(&env.graph, &env.matrix, 8, 5, LoadVariant::Dynamic, seed);
    let trace = record(&mut scenario, 240);
    StrategySpec::OnTh.run(&ctx, &trace, seed)
}
