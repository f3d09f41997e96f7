//! Recorded demand and the result memo — what the experiment cells share.
//!
//! The paper's figures compare several placement strategies on the *same*
//! substrate under the *same* demand, and compare every strategy with
//! OFFSTAT and OPT. Two things are shared for that:
//!
//! * **Demand, within a cell.** A figure or sweep cell records its
//!   scenario once into a [`Demand`] — an `Arc`-shared
//!   [`RoundTrace`](flexserve_workload::RoundTrace) plus the [`TraceKey`]
//!   naming what was recorded — and every strategy of the cell reads that
//!   one trace. The trace is freed when the cell ends: nothing retains
//!   recorded demand across cells, so a suite's peak memory is that of
//!   the cells in flight, not of every trace it ever recorded.
//!   [`TraceCache`] only counts the recordings.
//! * **Results, across cells.** [`StrategySpec::run`] memoizes its
//!   [`CostBreakdown`] in the process-wide [`RunMemo`], keyed by the
//!   complete input of the run: strategy, every cost parameter (floats by
//!   bit pattern), load model, routing policy, the demand's [`TraceKey`]
//!   (which carries the substrate fingerprint) and the seed. The same
//!   OPT or OFFSTAT run requested by fig11 and fig13–19 runs once.
//!
//! Every scenario and strategy is deterministic under its inputs, so a
//! memoized result is bit-identical to a fresh run and memo state can
//! never change experiment output (pinned by the golden CSVs and the
//! shared-vs-independent equivalence proptest). The memo's key is data,
//! not a pointer: the substrate is named by the `Graph::fingerprint`
//! taken once per recording, and the demand by its recording parameters.
//!
//! Replay cells (`wl=replay:<path>`, packed or JSONL — see
//! `docs/TRACES.md`) read their file once per cell, through a fallible
//! path, and hand the same trace to every seed.

use std::convert::Infallible;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use flexserve_graph::Graph;
use flexserve_sim::{CostBreakdown, CostParams, LoadModel, RoutingPolicy, SimContext};
use flexserve_workload::Trace;

pub use crate::cache::CacheStats;
use crate::cache::{DistCache, Lru};
use crate::setup::ExperimentEnv;
use crate::spec::StrategySpec;

/// Identity of one recorded demand process over one substrate. Two
/// recordings with equal keys hold byte-identical demand.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// `Graph::fingerprint` of the substrate the demand is played on.
    pub substrate: u64,
    /// Canonical workload spec string (e.g. `commuter-dynamic`,
    /// `time-zones:p=50,req=50`).
    pub workload: String,
    /// Periods per day `T` (scenarios without a daily rhythm ignore it,
    /// but it is part of the instantiation and therefore of the key).
    pub t_periods: u32,
    /// Rounds per period `λ`.
    pub lambda: u64,
    /// Recorded rounds.
    pub rounds: u64,
    /// The workload's RNG seed (0 for replays, which ignore it).
    pub seed: u64,
}

/// One cell's recorded demand: the trace every strategy of the cell
/// reads, the substrate it was recorded for, and the [`TraceKey`] the
/// result memo identifies it by. Clones share the trace's storage.
///
/// Made by [`WorkloadSpec::record`](crate::WorkloadSpec::record) and
/// [`CellSpec::record`](crate::CellSpec::record); it dereferences to its
/// [`Trace`].
#[derive(Clone, Debug)]
pub struct Demand {
    trace: Trace,
    graph: Arc<Graph>,
    key: Arc<TraceKey>,
}

impl Demand {
    /// Pairs a recording with the substrate of `env` and its key.
    pub(crate) fn new(env: &ExperimentEnv, key: TraceKey, trace: Trace) -> Self {
        Demand {
            trace,
            graph: Arc::clone(&env.graph),
            key: Arc::new(key),
        }
    }

    /// What was recorded, over which substrate.
    pub fn key(&self) -> &TraceKey {
        &self.key
    }

    /// The same trace as the demand of the substrate of `env` — for a
    /// replay only, whose rounds do not depend on the substrate.
    pub(crate) fn rebind(&self, env: &ExperimentEnv) -> Demand {
        let key = TraceKey {
            substrate: env.graph.fingerprint(),
            ..TraceKey::clone(&self.key)
        };
        Demand::new(env, key, self.trace.clone())
    }

    /// Whether `graph` is the substrate this demand was recorded for:
    /// the same graph, or (rarely, and only then hashed) an equal one.
    pub(crate) fn is_recorded_on(&self, graph: &Graph) -> bool {
        std::ptr::eq(&*self.graph, graph) || graph.fingerprint() == self.key.substrate
    }
}

impl Deref for Demand {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        &self.trace
    }
}

/// Counts demand recordings. It retains nothing: each cell records its
/// own [`Demand`] and frees it when the cell ends (recording costs far
/// less than keeping every trace of a suite resident did). The name and
/// [`stats`](Self::stats) stay for the manifest's `trace_cache` block and
/// the benchmark's per-layer counters: `misses` is the number of
/// recordings, `hits` and `evictions` are always 0.
///
/// ```
/// use flexserve_experiments::{ExperimentEnv, TraceCache, WorkloadSpec};
///
/// let before = TraceCache::global().stats();
/// let env = ExperimentEnv::line(6);
/// let wl = WorkloadSpec::Uniform { requests: 2 };
/// let demand = wl.record(&env, 8, 10, 5, 1);
/// assert_eq!(demand.len(), 5);
/// let after = TraceCache::global().stats();
/// assert!(after.misses > before.misses);
/// assert_eq!((after.hits, after.evictions), (0, 0));
/// ```
pub struct TraceCache {
    recordings: AtomicU64,
}

impl TraceCache {
    /// The process-wide recording counter.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: TraceCache = TraceCache {
            recordings: AtomicU64::new(0),
        };
        &GLOBAL
    }

    /// Counts one recording.
    pub(crate) fn count_recording(&self) {
        self.recordings.fetch_add(1, Ordering::Relaxed);
    }

    /// The recordings so far, as `misses`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            misses: self.recordings.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }

    /// Resets the counter.
    pub fn clear(&self) {
        self.recordings.store(0, Ordering::Relaxed);
    }
}

/// The complete input of one [`StrategySpec::run`]. The initial
/// placement is not part of it: `run` always starts from the network
/// center, a function of the substrate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    strategy: StrategySpec,
    /// Every `CostParams` field, floats by bit pattern.
    params: [u64; 7],
    /// The load model's variant and, for `Power`, its exponent's bits.
    load: (u8, u64),
    routing: u8,
    /// The demand, substrate fingerprint included.
    demand: Arc<TraceKey>,
    seed: u64,
}

impl RunKey {
    pub(crate) fn new(
        strategy: StrategySpec,
        ctx: &SimContext<'_>,
        demand: &Demand,
        seed: u64,
    ) -> Self {
        let CostParams {
            migration_beta,
            creation_c,
            run_active,
            run_inactive,
            max_servers,
            inactive_queue_len,
            inactive_expiry_epochs,
        } = ctx.params;
        let load = match ctx.load {
            LoadModel::None => (0, 0),
            LoadModel::Linear => (1, 0),
            LoadModel::Quadratic => (2, 0),
            LoadModel::Power(p) => (3, p.to_bits()),
        };
        let routing = match ctx.routing {
            RoutingPolicy::Nearest => 0,
            RoutingPolicy::LoadAware => 1,
        };
        RunKey {
            strategy,
            params: [
                migration_beta.to_bits(),
                creation_c.to_bits(),
                run_active.to_bits(),
                run_inactive.to_bits(),
                max_servers as u64,
                inactive_queue_len as u64,
                inactive_expiry_epochs,
            ],
            load,
            routing,
            demand: Arc::clone(&demand.key),
            seed,
        }
    }

    /// Approximate footprint of one memo entry: key, value and the
    /// (shared) demand key it holds.
    fn entry_bytes(&self) -> usize {
        std::mem::size_of::<(RunKey, CostBreakdown)>()
            + std::mem::size_of::<TraceKey>()
            + self.demand.workload.len()
    }
}

/// The result memo: an LRU of run inputs (strategy, cost parameters, load
/// model, routing policy, the demand's [`TraceKey`], seed) →
/// [`CostBreakdown`] behind [`StrategySpec::run`], so each distinct
/// strategy run of a process runs once. Concurrent lookups of one missing key wait for its single run
/// and share the result (the `Lru` claim discipline of
/// [`DistCache`]); counters land in `results/manifest.json` as
/// `result_memo`.
pub struct RunMemo {
    lru: Lru<RunKey, CostBreakdown>,
}

impl RunMemo {
    /// Byte budget of the process-wide memo. An entry takes about 200
    /// bytes, so this holds some 40 000 runs: a full-profile `run all`
    /// with no eviction.
    pub const CAPACITY_BYTES: usize = 8 << 20;

    fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        RunMemo {
            lru: Lru::new(capacity_bytes),
        }
    }

    /// The process-wide memo, sitting beside [`DistCache::global`].
    pub fn global() -> &'static RunMemo {
        static GLOBAL: OnceLock<RunMemo> = OnceLock::new();
        GLOBAL.get_or_init(|| RunMemo::with_capacity_bytes(Self::CAPACITY_BYTES))
    }

    /// Returns the memoized result for `key`, running `run` on a miss.
    pub(crate) fn get_or_run(
        &self,
        key: RunKey,
        run: impl FnOnce() -> CostBreakdown,
    ) -> CostBreakdown {
        let bytes = key.entry_bytes();
        let Ok(cost) = self
            .lru
            .get_or_build(key, || Ok::<_, Infallible>((run(), bytes)));
        cost
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.lru.clear();
    }
}

/// Clears the process-wide caches and counters — distance matrices,
/// recordings and the result memo — between unrelated CLI invocations,
/// so manifests report per-run stats.
pub fn clear_global_caches() {
    DistCache::global().clear();
    TraceCache::global().clear();
    RunMemo::global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::NodeId;
    use flexserve_workload::{RoundRequests, RoundTrace};

    fn demand(env: &ExperimentEnv, workload: &str, seed: u64) -> Demand {
        let key = TraceKey {
            substrate: env.graph.fingerprint(),
            workload: workload.into(),
            t_periods: 8,
            lambda: 10,
            rounds: 3,
            seed,
        };
        let trace = RoundTrace::new(vec![RoundRequests::new(vec![NodeId::new(1)]); 3]);
        Demand::new(env, key, trace)
    }

    fn cost(x: f64) -> CostBreakdown {
        CostBreakdown::from_access(x)
    }

    #[test]
    fn hit_miss_accounting_and_sharing() {
        let memo = RunMemo::with_capacity_bytes(1 << 20);
        let env = ExperimentEnv::line(5);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let d = demand(&env, "uniform:req=2", 1);
        let key = || RunKey::new(StrategySpec::Opt, &ctx, &d, 1);
        let a = memo.get_or_run(key(), || cost(3.5));
        assert_eq!(memo.stats().misses, 1);
        let b = memo.get_or_run(key(), || panic!("must not re-run"));
        assert_eq!(a.access.to_bits(), b.access.to_bits());
        // A clone of the demand is the same demand.
        let c = memo.get_or_run(RunKey::new(StrategySpec::Opt, &ctx, &d.clone(), 1), || {
            panic!("a shared demand hits")
        });
        assert_eq!(c, a);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 0));
    }

    #[test]
    fn keys_isolate_substrate_seed_and_workload() {
        // Changing any one field of the key misses.
        let memo = RunMemo::with_capacity_bytes(1 << 20);
        let (line5, line6) = (ExperimentEnv::line(5), ExperimentEnv::line(6));
        let base = CostParams::default();
        let variants: Vec<CostParams> = vec![
            base,
            CostParams {
                migration_beta: 41.0,
                ..base
            },
            CostParams {
                creation_c: 401.0,
                ..base
            },
            CostParams {
                run_active: 2.0,
                ..base
            },
            CostParams {
                run_inactive: 0.25,
                ..base
            },
            base.with_max_servers(3),
            CostParams {
                inactive_queue_len: 2,
                ..base
            },
            CostParams {
                inactive_expiry_epochs: 21,
                ..base
            },
        ];
        let d = demand(&line5, "uniform:req=2", 1);
        let run = |ctx: &SimContext<'_>, d: &Demand, strategy, seed| {
            memo.get_or_run(RunKey::new(strategy, ctx, d, seed), || cost(1.0));
        };
        for &params in &variants {
            run(
                &line5.context(params, LoadModel::Linear),
                &d,
                StrategySpec::OnTh,
                1,
            );
        }
        let ctx = line5.context(base, LoadModel::Linear);
        for load in [
            LoadModel::None,
            LoadModel::Quadratic,
            LoadModel::Power(1.5),
            LoadModel::Power(2.5),
        ] {
            run(&line5.context(base, load), &d, StrategySpec::OnTh, 1);
        }
        let load_aware = ctx.with_routing(RoutingPolicy::LoadAware);
        run(&load_aware, &d, StrategySpec::OnTh, 1);
        run(&ctx, &d, StrategySpec::OnBrFixed, 1);
        run(&ctx, &d, StrategySpec::OnTh, 2);
        run(
            &ctx,
            &demand(&line5, "uniform:req=9", 1),
            StrategySpec::OnTh,
            1,
        );
        run(
            &ctx,
            &demand(&line5, "uniform:req=2", 2),
            StrategySpec::OnTh,
            1,
        );
        let other = demand(&line6, "uniform:req=2", 1);
        run(
            &line6.context(base, LoadModel::Linear),
            &other,
            StrategySpec::OnTh,
            1,
        );
        let distinct = (variants.len() + 4 + 6) as u64;
        assert_eq!(memo.stats().misses, distinct);
        assert_eq!(memo.stats().hits, 0);
        // …and the very first run is still a hit.
        run(&ctx, &d, StrategySpec::OnTh, 1);
        assert_eq!(memo.stats().misses, distinct);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let env = ExperimentEnv::line(5);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let d = demand(&env, "uniform:req=2", 1);
        let key = |seed| RunKey::new(StrategySpec::OnTh, &ctx, &d, seed);
        let memo = RunMemo::with_capacity_bytes(2 * key(1).entry_bytes());
        memo.get_or_run(key(1), || cost(1.0));
        memo.get_or_run(key(2), || cost(2.0));
        // touch seed 1 so seed 2 is the LRU victim
        memo.get_or_run(key(1), || panic!("memoized"));
        memo.get_or_run(key(3), || cost(3.0));
        assert_eq!(memo.stats().evictions, 1);
        memo.get_or_run(key(1), || panic!("survivor"));
        memo.get_or_run(key(3), || panic!("newest"));
        let misses = memo.stats().misses;
        memo.get_or_run(key(2), || cost(2.0));
        assert_eq!(memo.stats().misses, misses + 1, "evicted entry re-runs");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let memo = RunMemo::with_capacity_bytes(0);
        let env = ExperimentEnv::line(5);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let d = demand(&env, "uniform:req=2", 1);
        let key = || RunKey::new(StrategySpec::Static, &ctx, &d, 1);
        memo.get_or_run(key(), || cost(1.0));
        assert_eq!(memo.get_or_run(key(), || cost(2.0)), cost(2.0), "ran again");
        assert_eq!(memo.stats().misses, 2);
        memo.clear();
        assert_eq!(memo.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_same_key_lookups_converge() {
        use std::sync::atomic::AtomicUsize;
        let memo = RunMemo::with_capacity_bytes(1 << 20);
        let env = ExperimentEnv::line(5);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let d = demand(&env, "uniform:req=2", 7);
        let (arrived, runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let costs: Vec<CostBreakdown> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let key = RunKey::new(StrategySpec::Opt, &ctx, &d, 7);
                        memo.get_or_run(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the run open until every thread has
                            // started its lookup of the same key.
                            while arrived.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            cost(4.0)
                        })
                    })
                })
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one run per key");
        let s = memo.stats();
        assert_eq!((s.misses, s.hits), (1, 7), "{s:?}");
        assert!(costs.iter().all(|&c| c == cost(4.0)));
    }
}
