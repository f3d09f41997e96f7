//! Process-wide cache of recorded demand traces — the demand plane's
//! sibling of the distance-matrix cache.
//!
//! The paper's figures compare several placement strategies on the *same*
//! substrate under the *same* demand process. The [`DistCache`] (PR 2)
//! already shares the substrate; this cache shares the **demand**: the
//! first strategy cell of a `(substrate, workload, T, λ, rounds, seed)`
//! group records the scenario into an `Arc`-shared [`RoundTrace`], and
//! every further
//! strategy of the figure or sweep evaluates against that one
//! materialization instead of regenerating (and re-folding) the workload.
//!
//! Keys carry the substrate's `Graph::fingerprint` rather than a topology
//! string, so figure pipelines (which build environments directly) and
//! `CellSpec::run` share entries whenever they truly share a substrate.
//! Every scenario is deterministic under its seed, so a cached trace is
//! **bit-identical** to a fresh recording and cache state can never change
//! experiment output (pinned by the golden fig03 CSV and the
//! shared-vs-independent equivalence proptest).
//!
//! The cache is bounded: entries are evicted least-recently-used once the
//! stored counts exceed [`TraceCache::DEFAULT_CAPACITY_BYTES`] (override
//! with `FLEXSERVE_TRACE_BYTES`; `0` disables caching). Counters land in
//! `results/manifest.json` next to the distance-matrix counters.
//!
//! Replay cells (`wl=replay:<path>`, packed or JSONL — see
//! `docs/TRACES.md`) flow through here too: the batch pipeline's offline
//! strategies need the full materialized [`RoundTrace`], so a replay
//! cell records its scenario once per group like any generator (packed
//! replays *generate* through an O(window) sliding reader, but the
//! recorded result is the whole horizon). Traces larger than the byte
//! budget are handed out uncached rather than evicting everything else.

use std::convert::Infallible;
use std::sync::OnceLock;

use flexserve_workload::RoundTrace;

pub use crate::cache::CacheStats;
use crate::cache::{DistCache, Lru};

/// Identity of one recorded demand process. Two cells with equal keys see
/// byte-identical demand, so they may share one materialized trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// `Graph::fingerprint` of the substrate the workload runs over.
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
    /// The workload's RNG seed.
    pub seed: u64,
}

/// An LRU cache of `TraceKey → RoundTrace` with hit/miss/eviction
/// counters, sharing recorded demand across the strategy cells of a
/// figure or sweep.
///
/// Thread-safe with the same discipline as [`DistCache`]: recordings run
/// outside the lock, so misses on different keys proceed in parallel,
/// and concurrent lookups of one missing key wait for its single
/// recording and share it.
///
/// ```
/// use flexserve_experiments::{TraceCache, TraceKey};
/// use flexserve_workload::{RoundRequests, RoundTrace};
///
/// let cache = TraceCache::with_capacity_bytes(1 << 20);
/// let key = TraceKey {
///     substrate: 0xfeed,
///     workload: "uniform:req=1".into(),
///     t_periods: 8,
///     lambda: 10,
///     rounds: 2,
///     seed: 1,
/// };
/// let rounds = || RoundTrace::new(vec![RoundRequests::empty(); 2]);
/// let first = cache.get_or_record(key.clone(), rounds);
/// let again = cache.get_or_record(key, || panic!("must not re-record"));
/// assert_eq!(first, again);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct TraceCache {
    lru: Lru<TraceKey, RoundTrace>,
}

impl TraceCache {
    /// Default byte budget for cached traces (64 MiB — a 500-round trace
    /// of ~100 distinct origins per round is under 1 MB, so whole figure
    /// suites fit).
    pub const DEFAULT_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

    /// Creates an empty cache with the given byte budget. A budget of `0`
    /// disables caching (every lookup records afresh, nothing retained).
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        TraceCache {
            lru: Lru::new(capacity_bytes),
        }
    }

    /// The process-wide cache, sitting beside [`DistCache::global`].
    /// Budget from `FLEXSERVE_TRACE_BYTES` when set, else
    /// [`Self::DEFAULT_CAPACITY_BYTES`].
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("FLEXSERVE_TRACE_BYTES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(Self::DEFAULT_CAPACITY_BYTES);
            TraceCache::with_capacity_bytes(capacity)
        })
    }

    /// Returns the cached trace for `key`, recording it with `record` on
    /// a miss. Hits hand out an `Arc`-shared view — O(1), no copying.
    pub fn get_or_record(&self, key: TraceKey, record: impl FnOnce() -> RoundTrace) -> RoundTrace {
        let Ok(trace) = self.lru.get_or_build(key, || {
            let trace = record();
            let bytes = trace.memory_bytes();
            Ok::<_, Infallible>((trace, bytes))
        });
        trace
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache currently retains nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// Clears both process-wide caches and their counters (between unrelated
/// CLI invocations, so manifests report per-run stats).
pub fn clear_global_caches() {
    DistCache::global().clear();
    TraceCache::global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::NodeId;
    use flexserve_workload::RoundRequests;

    fn key(substrate: u64, seed: u64) -> TraceKey {
        TraceKey {
            substrate,
            workload: "uniform:req=2".into(),
            t_periods: 8,
            lambda: 10,
            rounds: 3,
            seed,
        }
    }

    fn trace(origin: usize) -> RoundTrace {
        RoundTrace::new(vec![RoundRequests::new(vec![NodeId::new(origin)]); 3])
    }

    #[test]
    fn hit_miss_accounting_and_sharing() {
        let cache = TraceCache::with_capacity_bytes(1 << 20);
        let a = cache.get_or_record(key(1, 1), || trace(0));
        assert_eq!(cache.stats().misses, 1);
        let b = cache.get_or_record(key(1, 1), || panic!("must not re-record"));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(a, b);
        assert!(
            std::ptr::eq(a.round(0), b.round(0)),
            "hits share the Arc storage"
        );
    }

    #[test]
    fn keys_isolate_substrate_seed_and_workload() {
        let cache = TraceCache::with_capacity_bytes(1 << 20);
        cache.get_or_record(key(1, 1), || trace(0));
        cache.get_or_record(key(2, 1), || trace(1));
        cache.get_or_record(key(1, 2), || trace(2));
        let mut other = key(1, 1);
        other.workload = "uniform:req=9".into();
        cache.get_or_record(other, || trace(3));
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let bytes = trace(0).memory_bytes();
        let cache = TraceCache::with_capacity_bytes(2 * bytes);
        cache.get_or_record(key(1, 1), || trace(0));
        cache.get_or_record(key(1, 2), || trace(1));
        assert_eq!(cache.len(), 2);
        // touch (1,1) so (1,2) is the LRU victim
        cache.get_or_record(key(1, 1), || panic!("cached"));
        cache.get_or_record(key(1, 3), || trace(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_record(key(1, 1), || panic!("survivor"));
        let misses = cache.stats().misses;
        cache.get_or_record(key(1, 2), || trace(1));
        assert_eq!(cache.stats().misses, misses + 1, "evicted entry re-records");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TraceCache::with_capacity_bytes(0);
        cache.get_or_record(key(1, 1), || trace(0));
        cache.get_or_record(key(1, 1), || trace(0));
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.is_empty());
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_same_key_lookups_converge() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = TraceCache::with_capacity_bytes(1 << 20);
        let (arrived, recordings) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let traces: Vec<RoundTrace> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        cache.get_or_record(key(7, 7), || {
                            recordings.fetch_add(1, Ordering::SeqCst);
                            // Hold the recording open until every thread
                            // has started its lookup of the same key.
                            while arrived.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            trace(4)
                        })
                    })
                })
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 7), "{s:?}");
        for t in &traces {
            assert!(
                std::ptr::eq(t.round(0), traces[0].round(0)),
                "one shared trace"
            );
        }
    }
}
