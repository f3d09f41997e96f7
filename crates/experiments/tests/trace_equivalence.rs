//! The shared-trace refactor's central promise, property-tested: a
//! figure/sweep cell group evaluating its strategies against **one
//! cached, `Arc`-shared demand trace** produces cost breakdowns
//! **bitwise identical** to every strategy independently regenerating and
//! re-recording its own workload — across random (topology, workload,
//! strategy-set, seed) tuples.
//!
//! This is what lets the experiments layer route all demand through the
//! [`TraceCache`] without golden-CSV risk: scenarios are deterministic
//! under their seed and strategies only *read* the trace, so sharing the
//! materialization can never change a number.

use proptest::prelude::*;

use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::{CellSpec, StrategySpec, TopologySpec, WorkloadSpec};
use flexserve_experiments::{TraceCache, TraceKey};
use flexserve_sim::{CostBreakdown, CostParams, LoadModel, SimContext};
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
            strat.run(ctx, &trace, seed)
        })
        .collect()
}

/// A replayed trace file is the same demand under every seed and
/// substrate, so an N-seed replay cell — even on a seeded random
/// topology whose fingerprint differs per seed — must share **one**
/// cache entry (one file read) instead of materializing N copies.
#[test]
fn replay_workload_shares_one_cache_entry_across_seeds_and_substrates() {
    let dir = std::env::temp_dir().join(format!("flexserve-replay-share-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demand.jsonl");
    std::fs::write(
        &path,
        "{\"t\":0,\"origins\":[1,2,1]}\n{\"t\":1,\"origins\":[0]}\n",
    )
    .unwrap();

    let mut cell = CellSpec::new(
        "er:30".parse().unwrap(),
        format!("replay:{}", path.display()).parse().unwrap(),
        "onth".parse().unwrap(),
    );
    cell.rounds = 2;
    cell.seeds = vec![1, 2];

    let env1 = ExperimentEnv::from_spec(&cell.topology, 1).unwrap();
    let env2 = ExperimentEnv::from_spec(&cell.topology, 2).unwrap();
    assert_ne!(
        env1.graph.fingerprint(),
        env2.graph.fingerprint(),
        "seeded ER substrates must differ for this test to bite"
    );
    let before = TraceCache::global().stats();
    let t1 = cell.shared_trace(&env1, 1);
    let t2 = cell.shared_trace(&env2, 2);
    let after = TraceCache::global().stats();
    assert_eq!(after.misses - before.misses, 1, "one file read per cell");
    assert_eq!(after.hits - before.hits, 1, "further seeds hit");
    assert!(
        std::ptr::eq(t1.round(0), t2.round(0)),
        "seeds share the Arc-held materialization"
    );
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

        // Shared plane: one materialization through a trace cache, every
        // strategy reads the same Arc-held rounds (grouped-runner shape).
        let cache = TraceCache::with_capacity_bytes(1 << 22);
        let key = TraceKey {
            substrate: env.graph.fingerprint(),
            workload: workload.to_string(),
            t_periods: 8,
            lambda,
            rounds,
            seed,
        };
        // Fetch once per strategy, as grouped cells do: first records,
        // the rest must hit and hand back the same storage.
        let traces: Vec<Trace> = strats
            .iter()
            .map(|_| {
                cache.get_or_record(key.clone(), || {
                    fresh_trace(&workload, &env, lambda, seed, rounds)
                })
            })
            .collect();
        prop_assert_eq!(cache.stats().misses, 1, "one recording per group");
        prop_assert_eq!(cache.stats().hits, strats.len() as u64 - 1);
        for t in &traces[1..] {
            prop_assert!(
                std::ptr::eq(t.round(0), traces[0].round(0)),
                "cache hits must share the Arc storage"
            );
        }
        let shared: Vec<CostBreakdown> =
            strats.iter().map(|s| s.run(&ctx, &traces[0], seed)).collect();

        prop_assert_eq!(shared.len(), independent.len());
        for (strat, (s, i)) in strats.iter().zip(shared.iter().zip(&independent)) {
            prop_assert_eq!(s.access.to_bits(), i.access.to_bits(), "{} access", strat);
            prop_assert_eq!(s.running.to_bits(), i.running.to_bits(), "{} running", strat);
            prop_assert_eq!(s.migration.to_bits(), i.migration.to_bits(), "{} migration", strat);
            prop_assert_eq!(s.creation.to_bits(), i.creation.to_bits(), "{} creation", strat);
        }
    }
}
