//! Process-wide cache of substrates and their distance matrices.
//!
//! The dominant redundant cost in multi-cell experiment runs is the
//! all-pairs shortest-path build: a figure sweep evaluates three
//! algorithms × several seeds on the *same* `(topology, seed)` substrate,
//! and consecutive figures (e.g. Figs 3–5) reuse identical substrates with
//! different workloads. Before this cache every cell rebuilt graph and
//! matrix from scratch; now the first builder per key pays and everyone
//! else shares the [`Arc`].
//!
//! Keys are `(canonical topology spec string, seed)` — see
//! [`TopologySpec`](crate::spec::TopologySpec), whose `Display` impl
//! produces the canonical string. Because every generator is deterministic
//! under its seed, a cached entry is bit-identical to a fresh build, so
//! cache hits can never change experiment output (the golden CSV tests pin
//! this).
//!
//! The cache is bounded: entries are evicted least-recently-used once the
//! matrices exceed [`DistCache::DEFAULT_CAPACITY_BYTES`] (override with the
//! `FLEXSERVE_CACHE_BYTES` environment variable; `0` disables caching).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use flexserve_graph::{DistanceMatrix, Graph};

use crate::setup::ExperimentEnv;

/// Hit/miss/eviction counters of a [`DistCache`], snapshotted by
/// [`DistCache::stats`] and recorded in the result manifest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build graph + matrix.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    /// Monotone counter value of the last access (for LRU eviction).
    last_used: u64,
    bytes: usize,
}

struct Slots<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Keys whose first caller is building them right now.
    building: HashSet<K>,
}

/// The byte-bounded LRU core of [`DistCache`] and
/// [`TraceCache`](crate::TraceCache), with counters.
///
/// A miss builds once. The first caller of a missing key claims the key's
/// slot and builds outside the lock, so misses on different keys proceed
/// in parallel. Later callers of the same key wait on its slot and adopt
/// the built value (counted as hits). A failed or panicking build inserts
/// nothing and frees the slot, and a value too large for the budget is
/// handed to its builder only; a waiter then builds for itself.
///
/// Waiting cannot deadlock. A builder never waits on a slot: it generates
/// a graph and runs its APSP, or records a workload over a built
/// substrate. Its parallel work is a pool job of its own, and the pool's
/// caller claims that job's tasks itself, waiting only on tasks other
/// threads already run (pure compute that never waits on a slot either).
/// So a builder makes progress even when every other thread is blocked
/// on its slot.
pub(crate) struct Lru<K, V> {
    slots: Mutex<Slots<K, V>>,
    /// Signalled whenever a slot is freed.
    freed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    clock: AtomicU64,
    capacity_bytes: usize,
}

/// Frees a claimed slot when the build ends, also by error or panic.
struct Claim<'a, K: Eq + Hash, V> {
    lru: &'a Lru<K, V>,
    key: &'a K,
}

impl<K, V> Lru<K, V> {
    /// Locks the slots, ignoring poison: no build runs under the lock.
    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<K: Eq + Hash, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        self.lru.lock().building.remove(self.key);
        self.lru.freed.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        Lru {
            slots: Mutex::new(Slots {
                entries: HashMap::new(),
                building: HashSet::new(),
            }),
            freed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            capacity_bytes,
        }
    }

    /// Returns the value for `key`, building it with `build` (value plus
    /// its size in bytes) when it is neither cached nor being built.
    pub(crate) fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<V, E> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.lock();
        loop {
            if let Some(entry) = slots.entries.get_mut(&key) {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.value.clone());
            }
            if !slots.building.contains(&key) {
                break;
            }
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        slots.building.insert(key.clone());
        drop(slots);
        let _claim = Claim {
            lru: self,
            key: &key,
        };
        let (value, bytes) = build()?;
        if bytes <= self.capacity_bytes {
            let mut slots = self.lock();
            slots.entries.insert(
                key.clone(),
                Entry {
                    value: value.clone(),
                    last_used: now,
                    bytes,
                },
            );
            self.evict_to_capacity(&mut slots.entries);
        }
        Ok(value)
    }

    /// Evicts least-recently-used entries until the byte budget holds.
    fn evict_to_capacity(&self, map: &mut HashMap<K, Entry<V>>) {
        let mut total: usize = map.values().map(|e| e.bytes).sum();
        while total > self.capacity_bytes && !map.is_empty() {
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            if let Some(e) = map.remove(&oldest) {
                total -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn clear(&self) {
        self.lock().entries.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// An LRU cache of `(topology spec, seed) → (graph, distance matrix)`.
///
/// Thread-safe: the first lookup of a missing key builds it, and
/// concurrent lookups of that key wait for the build and share its
/// `Arc`s, so every substrate's APSP runs once per residency. A
/// process-wide instance is available via [`DistCache::global`].
///
/// ```
/// use flexserve_experiments::{DistCache, TopologySpec};
///
/// let cache = DistCache::with_capacity_bytes(DistCache::DEFAULT_CAPACITY_BYTES);
/// let spec: TopologySpec = "unit-line:6".parse().unwrap();
///
/// let first = cache
///     .get_or_build(&spec.to_string(), 0, || spec.build(0))
///     .unwrap();
/// // The second lookup is a hit: same Arc, no rebuild.
/// let again = cache
///     .get_or_build(&spec.to_string(), 0, || panic!("must not rebuild"))
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first.graph, &again.graph));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct DistCache {
    lru: Lru<(String, u64), ExperimentEnv>,
}

impl DistCache {
    /// Default byte budget for cached matrices (256 MiB — a 1000-node
    /// matrix is 8 MB, so even full-profile sweeps fit comfortably).
    pub const DEFAULT_CAPACITY_BYTES: usize = 256 * 1024 * 1024;

    /// Creates an empty cache with the given byte budget for matrices.
    /// A budget of `0` disables caching (every lookup is a miss and
    /// nothing is retained).
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        DistCache {
            lru: Lru::new(capacity_bytes),
        }
    }

    /// The process-wide cache used by
    /// [`ExperimentEnv`]. Budget comes from
    /// `FLEXSERVE_CACHE_BYTES` when set, else
    /// [`Self::DEFAULT_CAPACITY_BYTES`].
    pub fn global() -> &'static DistCache {
        static GLOBAL: OnceLock<DistCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("FLEXSERVE_CACHE_BYTES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(Self::DEFAULT_CAPACITY_BYTES);
            DistCache::with_capacity_bytes(capacity)
        })
    }

    /// Returns the cached substrate for `(topology, seed)`, building it
    /// with `build` on a miss. `build` returns the graph only; the matrix
    /// is computed here so every entry pairs a graph with *its own* APSP.
    /// A failed build inserts nothing (the error propagates unchanged).
    pub fn get_or_build(
        &self,
        topology: &str,
        seed: u64,
        build: impl FnOnce() -> Result<Graph, String>,
    ) -> Result<ExperimentEnv, String> {
        self.lru.get_or_build((topology.to_string(), seed), || {
            let graph = build()?;
            let matrix = DistanceMatrix::build(&graph);
            let n = matrix.node_count();
            let env = ExperimentEnv {
                graph: Arc::new(graph),
                matrix: Arc::new(matrix),
            };
            Ok((env, n * n * std::mem::size_of::<f64>()))
        })
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

    /// Drops all entries and resets the counters (between unrelated CLI
    /// runs, so manifests report per-run stats).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;

    fn build_line(n: usize) -> Graph {
        unit_line(n).unwrap()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let a = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        let b = cache
            .get_or_build("unit-line:5", 1, || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix), "hits share the Arc");
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_seed_isolation() {
        // Same topology string, different seeds → distinct entries; the
        // seed part of the key must never alias.
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let a = cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        let b = cache
            .get_or_build("unit-line:4", 2, || Ok(build_line(4)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a.matrix, &b.matrix));
        // and different topology strings with the same seed likewise
        let c = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_ne!(c.matrix.node_count(), a.matrix.node_count());
    }

    #[test]
    fn cached_entry_is_bit_identical_to_fresh_build() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let cached = cache
            .get_or_build("unit-line:9", 3, || Ok(build_line(9)))
            .unwrap();
        let fresh = DistanceMatrix::build(&build_line(9));
        for u in cached.graph.nodes() {
            for v in cached.graph.nodes() {
                assert_eq!(cached.matrix.get(u, v).to_bits(), fresh.get(u, v).to_bits());
            }
        }
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Budget fits exactly two 5-node matrices (5*5*8 = 200 bytes each).
        let cache = DistCache::with_capacity_bytes(400);
        cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        cache
            .get_or_build("unit-line:5", 2, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        // Touch seed 1 so seed 2 is the LRU victim.
        cache
            .get_or_build("unit-line:5", 1, || panic!("cached"))
            .unwrap();
        cache
            .get_or_build("unit-line:5", 3, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Seed 1 survived, seed 2 was evicted.
        cache
            .get_or_build("unit-line:5", 1, || panic!("should still be cached"))
            .unwrap();
        let before = cache.stats().misses;
        cache
            .get_or_build("unit-line:5", 2, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.stats().misses, before + 1, "evicted entry rebuilds");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = DistCache::with_capacity_bytes(0);
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_same_key_lookups_converge() {
        use std::sync::atomic::AtomicUsize;
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let (arrived, builds) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let envs: Vec<ExperimentEnv> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        cache.get_or_build("unit-line:6", 7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Hold the build open until every thread has
                            // started its lookup of the same key.
                            while arrived.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            Ok(build_line(6))
                        })
                    })
                })
                .collect();
            lookups
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one APSP per key");
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 7), "{s:?}");
        for env in &envs {
            assert!(
                Arc::ptr_eq(&env.matrix, &envs[0].matrix),
                "waiters adopt the Arc"
            );
        }
    }

    #[test]
    fn failed_or_panicking_build_inserts_nothing_and_frees_the_key() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let err = cache.get_or_build("unit-line:4", 1, || Err("no graph".to_string()));
        assert_eq!(err.err().as_deref(), Some("no graph"));
        assert!(cache.is_empty());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_build("unit-line:4", 1, || panic!("builder died"));
        }));
        assert!(panicked.is_err());
        assert!(cache.is_empty());
        // The key is free again: the next lookup builds instead of waiting.
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 3);
    }
}
