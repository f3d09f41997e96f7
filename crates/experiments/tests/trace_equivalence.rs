//! The shared-demand and result-memo promise, property-tested: a
//! figure cell evaluating its strategies against **one recorded,
//! `Arc`-shared demand** through the memoized [`StrategySpec::run`]
//! produces cost breakdowns **bitwise identical** to every strategy
//! independently regenerating and re-recording its own workload — across
//! random (topology, workload, strategy-set, seed) tuples, on the first
//! request and when the memo answers a repeat.
//!
//! This is what lets the experiments layer share demand within a cell and
//! results across figures without golden-CSV risk: scenarios and strategies
//! are deterministic under their inputs and strategies only *read* the
//! trace, so neither sharing can change a number.

use proptest::prelude::*;

use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::{StrategySpec, TopologySpec, WorkloadSpec};
use flexserve_experiments::RunMemo;
use flexserve_sim::{CostBreakdown, CostParams, LoadModel, SimContext};
use flexserve_workload::JsonValue;
use flexserve_workload::{record, Trace};

/// Small substrates spanning the generator families (kept cheap: each
/// proptest case builds one APSP).
const TOPOLOGIES: &[&str] = &["unit-line:12", "er:30", "star:9", "ring:16", "grid:4x4"];

/// Workload families, bare specs as `flexserve run wl=` takes them.
const WORKLOADS: &[&str] = &[
    "uniform:req=3",
    "commuter-dynamic",
    "commuter-static",
    "time-zones",
    "onoff",
];

/// The strategies the figure pipelines run — online and offline alike
/// read the same recorded trace.
const STRATEGIES: &[StrategySpec] = &[
    StrategySpec::OnTh,
    StrategySpec::OnBrFixed,
    StrategySpec::OnBrDyn,
    StrategySpec::OffBr,
    StrategySpec::OffTh,
    StrategySpec::Static,
];

/// Records the cell's demand exactly like the independent path does.
fn fresh_trace(
    workload: &WorkloadSpec,
    env: &ExperimentEnv,
    lambda: u64,
    seed: u64,
    rounds: u64,
) -> Trace {
    let mut scenario = workload.instantiate(&env.graph, &env.matrix, 8, lambda, seed);
    record(scenario.as_mut(), rounds)
}

fn run_all_independent(
    ctx: &SimContext<'_>,
    workload: &WorkloadSpec,
    env: &ExperimentEnv,
    lambda: u64,
    seed: u64,
    rounds: u64,
    strats: &[StrategySpec],
) -> Vec<CostBreakdown> {
    strats
        .iter()
        .map(|strat| {
            let trace = fresh_trace(workload, env, lambda, seed, rounds);
            strat.evaluate(ctx, &trace, seed)
        })
        .collect()
}

/// A replayed trace file is the same demand under every seed and
/// substrate, so an N-seed replay cell — even on a seeded random
/// topology whose fingerprint differs per seed — reads its file **once**
/// and hands that one trace to every seed. A cell never repeats a run, so
/// it plays its seeds without the result memo. Run in its own process, so
/// the manifest's counters are this cell's alone.
#[test]
fn replay_cell_reads_its_file_once_across_seeds_and_substrates() {
    let dir = std::env::temp_dir().join(format!("flexserve-replay-share-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demand.jsonl");
    std::fs::write(
        &path,
        "{\"t\":0,\"origins\":[1,2,1]}\n{\"t\":1,\"origins\":[0]}\n",
    )
    .unwrap();
    let topology: TopologySpec = "er:30".parse().unwrap();
    let env1 = ExperimentEnv::from_spec(&topology, 1).unwrap();
    let env2 = ExperimentEnv::from_spec(&topology, 2).unwrap();
    assert_ne!(
        env1.graph.fingerprint(),
        env2.graph.fingerprint(),
        "seeded ER substrates must differ for this test to bite"
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
        .args(["run", "topo=er:30", "strat=onth", "rounds=3", "seeds=1+2"])
        .arg(format!("wl=replay:{}", path.display()))
        .env("FLEXSERVE_RESULTS_DIR", &dir)
        .output()
        .expect("spawn flexserve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let doc = JsonValue::parse(&manifest).unwrap();
    let counter = |block: &str, key: &str| doc.get(block).and_then(|b| b.get(key)?.as_u64());
    assert_eq!(
        counter("trace_cache", "misses"),
        Some(1),
        "one file read per cell: {manifest}"
    );
    assert_eq!(counter("result_memo", "misses"), Some(0), "{manifest}");
    assert_eq!(counter("result_memo", "hits"), Some(0), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared-trace evaluation == independent per-strategy evaluation,
    /// bit for bit, and the cache records exactly one miss per group.
    #[test]
    fn shared_trace_evaluation_is_bitwise_identical(
        topo_idx in 0..TOPOLOGIES.len(),
        wl_idx in 0..WORKLOADS.len(),
        strats_mask in 1usize..(1 << STRATEGIES.len()),
        seed in 0u64..1000,
        lambda in 1u64..12,
        rounds in 10u64..40,
    ) {
        // A non-empty subsequence of STRATEGIES, picked by bitmask (the
        // vendored proptest subset has no sample::subsequence).
        let strats: Vec<StrategySpec> = STRATEGIES
            .iter()
            .enumerate()
            .filter(|(i, _)| strats_mask & (1 << i) != 0)
            .map(|(_, &strat)| strat)
            .collect();
        let topology: TopologySpec = TOPOLOGIES[topo_idx].parse().unwrap();
        let workload: WorkloadSpec = WORKLOADS[wl_idx].parse().unwrap();
        let env = ExperimentEnv::from_spec(&topology, seed).unwrap();
        let ctx = env.context(CostParams::default().with_max_servers(4), LoadModel::Linear);

        // Independent plane: every strategy regenerates its own demand.
        let independent = run_all_independent(
            &ctx, &workload, &env, lambda, seed, rounds, &strats,
        );

        // Shared plane: one recording, every strategy reads the same
        // Arc-held rounds through the memoized `run` (grouped-runner
        // shape). An earlier case may already have memoized a run.
        let demand = workload.record(&env, 8, lambda, rounds, seed);
        let shared: Vec<CostBreakdown> =
            strats.iter().map(|s| s.run(&ctx, &demand, seed)).collect();
        // Asked again, the memo answers every run.
        let before = RunMemo::global().stats();
        let memoized: Vec<CostBreakdown> =
            strats.iter().map(|s| s.run(&ctx, &demand.clone(), seed)).collect();
        let after = RunMemo::global().stats();
        prop_assert_eq!(after.hits - before.hits, strats.len() as u64);
        prop_assert_eq!(after.misses, before.misses);
        prop_assert_eq!(&memoized, &shared);

        prop_assert_eq!(shared.len(), independent.len());
        for (strat, (s, i)) in strats.iter().zip(shared.iter().zip(&independent)) {
            prop_assert_eq!(s.access.to_bits(), i.access.to_bits(), "{} access", strat);
            prop_assert_eq!(s.running.to_bits(), i.running.to_bits(), "{} running", strat);
            prop_assert_eq!(s.migration.to_bits(), i.migration.to_bits(), "{} migration", strat);
            prop_assert_eq!(s.creation.to_bits(), i.creation.to_bits(), "{} creation", strat);
        }
    }
}
