//! Process-wide sharing of substrates and their distance matrices.
//!
//! The dominant redundant cost in multi-cell experiment runs is the
//! all-pairs shortest-path build: a figure sweep evaluates three
//! algorithms × several seeds on the *same* `(topology, seed)` substrate,
//! and consecutive figures (e.g. Figs 3–5) reuse identical substrates with
//! different workloads. [`DistCache`] builds each substrate once and hands
//! every holder the same [`Arc`]s.
//!
//! Keys are `(canonical topology spec string, seed)` — see
//! [`TopologySpec::key`](crate::spec::TopologySpec::key). Because every
//! generator is deterministic under its seed, a shared entry is
//! bit-identical to a fresh build, so sharing can never change experiment
//! output (the golden CSV tests pin this).
//!
//! Nothing is kept by a byte budget. The cache maps each key to `Weak`
//! references, so a matrix lives exactly as long as its holders: running
//! cells, sweep cells and serve sessions. Runs that know their cells before
//! they start (figure suites, `run`/`sweep` cell expressions, a session's
//! creation) take a [`Lease`] on their keys: it pins each matrix from its
//! first build until every figure, or every cell seed, that declared the
//! key has finished. So a substrate shared by several figures or cells is
//! built once and freed after the last of them, and a cell's seed frees
//! its substrate as soon as it has run.
//!
//! The build-once core, `BuildOnce`, also backs the result memo
//! ([`RunMemo`](crate::RunMemo)), which keeps its runs in a plain
//! `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};

use flexserve_graph::{DistanceMatrix, Graph};

use crate::setup::ExperimentEnv;

/// Hit/miss counters of a [`DistCache`] or
/// [`RunMemo`](crate::RunMemo) (and the recording count of
/// [`TraceCache`](crate::TraceCache)), recorded in the result manifest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build their value (graph + matrix, or a
    /// strategy run).
    pub misses: u64,
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

/// How a [`BuildOnce`] keeps what its misses build: the plain map behind
/// the result memo, or the weak map behind [`DistCache`].
pub(crate) trait Keep {
    /// The lookup key.
    type Key: Eq + Hash + Clone;
    /// What a lookup returns.
    type Value: Clone;
    /// What a build returns: the value, plus what keeping it needs.
    type Built;

    /// The kept value of `key`, if any (a hit).
    fn get(&mut self, key: &Self::Key) -> Option<Self::Value>;

    /// Keeps what a miss of `key` built; returns the value.
    fn keep(&mut self, key: Self::Key, built: Self::Built) -> Self::Value;

    /// Number of entries kept.
    fn len(&self) -> usize;

    /// Forgets every kept entry.
    fn clear(&mut self);
}

struct Slots<S: Keep> {
    kept: S,
    /// Keys whose first caller is building them right now.
    building: HashSet<S::Key>,
}

/// Builds each missing key once, with hit/miss counters, keeping what it
/// built as its [`Keep`] says.
///
/// The first caller of a missing key claims the key's slot and builds
/// outside the lock, so misses on different keys proceed in parallel.
/// Later callers of the same key wait on its slot and adopt what was kept
/// (counted as hits). A failed or panicking build keeps nothing and frees
/// the slot; so does a value the store declines to keep, and a waiter then
/// builds for itself.
///
/// Waiting cannot deadlock. A builder never waits on a slot: it generates
/// a graph and runs its APSP, or plays one strategy over a recorded
/// trace. Its parallel work is a pool job of its own, and the pool's
/// caller claims that job's tasks itself, waiting only on tasks other
/// threads already run (pure compute that never waits on a slot either).
/// So a builder makes progress even when every other thread is blocked
/// on its slot.
pub(crate) struct BuildOnce<S: Keep> {
    slots: Mutex<Slots<S>>,
    /// Signalled whenever a slot is freed.
    freed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Frees a claimed slot when the build ends, also by error or panic.
struct Claim<'a, S: Keep> {
    once: &'a BuildOnce<S>,
    key: &'a S::Key,
}

impl<S: Keep> Drop for Claim<'_, S> {
    fn drop(&mut self) {
        self.once.lock().building.remove(self.key);
        self.once.freed.notify_all();
    }
}

impl<S: Keep> BuildOnce<S> {
    pub(crate) fn new(kept: S) -> Self {
        BuildOnce {
            slots: Mutex::new(Slots {
                kept,
                building: HashSet::new(),
            }),
            freed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the slots, ignoring poison: no build runs under the lock.
    fn lock(&self) -> MutexGuard<'_, Slots<S>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` on the store under the lock.
    fn with_kept<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock().kept)
    }

    /// Returns the value for `key`, building it with `build` when it is
    /// neither kept nor being built.
    pub(crate) fn get_or_build<E>(
        &self,
        key: S::Key,
        build: impl FnOnce() -> Result<S::Built, E>,
    ) -> Result<S::Value, E> {
        let mut slots = self.lock();
        loop {
            if let Some(value) = slots.kept.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(value);
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
            once: self,
            key: &key,
        };
        let built = build()?;
        // The claim kept every other builder off this key, so nothing is
        // replaced here.
        Ok(self.with_kept(|kept| kept.keep(key.clone(), built)))
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().kept.len()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Forgets every kept entry and resets the counters.
    pub(crate) fn clear(&self) {
        self.with_kept(S::clear);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The plain map behind the result memo ([`RunMemo`](crate::RunMemo)):
/// every run it is asked for stays until the memo is cleared.
impl<K: Eq + Hash + Clone, V: Clone> Keep for HashMap<K, V> {
    type Key = K;
    type Value = V;
    type Built = V;

    fn get(&mut self, key: &K) -> Option<V> {
        HashMap::get(self, key).cloned()
    }

    fn keep(&mut self, key: K, value: V) -> V {
        self.insert(key, value.clone());
        value
    }

    fn len(&self) -> usize {
        HashMap::len(self)
    }

    fn clear(&mut self) {
        HashMap::clear(self)
    }
}

/// Names one substrate: its canonical topology spec string and seed
/// (see [`TopologySpec::key`](crate::spec::TopologySpec::key)).
pub type SubstrateKey = (String, u64);

/// Weak references to a built substrate: alive while any holder keeps
/// both halves.
struct WeakEnv {
    graph: Weak<Graph>,
    matrix: Weak<DistanceMatrix>,
}

impl WeakEnv {
    fn upgrade(&self) -> Option<ExperimentEnv> {
        Some(ExperimentEnv {
            graph: self.graph.upgrade()?,
            matrix: self.matrix.upgrade()?,
        })
    }

    fn is_alive(&self) -> bool {
        self.graph.strong_count() > 0 && self.matrix.strong_count() > 0
    }
}

/// A leased key: how many declared holders have not finished yet, and
/// the substrate pinned for them once it is built.
#[derive(Default)]
struct Pin {
    shares: usize,
    env: Option<ExperimentEnv>,
}

/// The store behind [`DistCache`]: weak references to every substrate
/// still held somewhere, plus the substrates pinned by leases.
#[derive(Default)]
struct Substrates {
    live: HashMap<SubstrateKey, WeakEnv>,
    pinned: HashMap<SubstrateKey, Pin>,
}

impl Keep for Substrates {
    type Key = SubstrateKey;
    type Value = ExperimentEnv;
    type Built = ExperimentEnv;

    fn get(&mut self, key: &SubstrateKey) -> Option<ExperimentEnv> {
        let env = self.live.get(key)?.upgrade();
        if env.is_none() {
            self.live.remove(key);
        }
        env
    }

    fn keep(&mut self, key: SubstrateKey, env: ExperimentEnv) -> ExperimentEnv {
        // A miss is the only time the map grows, so dropping the entries
        // whose holders have all gone here bounds it by the live ones.
        self.live.retain(|_, weak| weak.is_alive());
        if let Some(pin) = self.pinned.get_mut(&key) {
            pin.env = Some(env.clone());
        }
        let weak = WeakEnv {
            graph: Arc::downgrade(&env.graph),
            matrix: Arc::downgrade(&env.matrix),
        };
        self.live.insert(key, weak);
        env
    }

    fn len(&self) -> usize {
        self.live.values().filter(|weak| weak.is_alive()).count()
    }

    fn clear(&mut self) {
        self.live.clear();
        // Leases stay balanced; a leased key is pinned again when it is
        // next built.
        for pin in self.pinned.values_mut() {
            pin.env = None;
        }
    }
}

/// Shares `(topology spec, seed) → (graph, distance matrix)` among
/// everything that holds them.
///
/// Thread-safe: the first lookup of a missing key builds it, and
/// concurrent lookups of that key wait for the build and share its
/// `Arc`s. The cache itself holds only `Weak` references, so a substrate
/// is freed with its last holder; a [`Lease`] makes the cache a holder of
/// the keys it names until its shares are released. A process-wide
/// instance is available via [`DistCache::global`].
///
/// ```
/// use flexserve_experiments::{DistCache, TopologySpec};
///
/// let cache = DistCache::new();
/// let spec: TopologySpec = "unit-line:6".parse().unwrap();
///
/// let first = cache
///     .get_or_build(&spec.to_string(), 0, || spec.build(0))
///     .unwrap();
/// // While `first` is held, a second lookup is a hit: same Arc, no rebuild.
/// let again = cache
///     .get_or_build(&spec.to_string(), 0, || panic!("must not rebuild"))
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first.graph, &again.graph));
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// // Once every holder has gone, so has the substrate.
/// drop((first, again));
/// assert!(cache.is_empty());
/// ```
pub struct DistCache {
    once: BuildOnce<Substrates>,
}

impl Default for DistCache {
    fn default() -> Self {
        DistCache::new()
    }
}

impl DistCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DistCache {
            once: BuildOnce::new(Substrates::default()),
        }
    }

    /// The process-wide cache used by [`ExperimentEnv`].
    pub fn global() -> &'static DistCache {
        static GLOBAL: OnceLock<DistCache> = OnceLock::new();
        GLOBAL.get_or_init(DistCache::new)
    }

    /// Returns the shared substrate for `(topology, seed)`, building it
    /// with `build` when no holder has it. `build` returns the graph only;
    /// the matrix is computed here so every entry pairs a graph with *its
    /// own* APSP. A failed build keeps nothing (the error propagates
    /// unchanged).
    pub fn get_or_build(
        &self,
        topology: &str,
        seed: u64,
        build: impl FnOnce() -> Result<Graph, String>,
    ) -> Result<ExperimentEnv, String> {
        self.once.get_or_build((topology.to_string(), seed), || {
            let graph = build()?;
            let matrix = DistanceMatrix::build(&graph);
            Ok(ExperimentEnv {
                graph: Arc::new(graph),
                matrix: Arc::new(matrix),
            })
        })
    }

    /// Leases `keys`, one share per occurrence: a key's substrate, once
    /// built (or right away, if something holds it already), stays until
    /// all of its shares are released. Dropping the lease releases the
    /// shares it still holds.
    pub fn lease(&self, keys: impl IntoIterator<Item = SubstrateKey>) -> Lease<'_> {
        let mut held: HashMap<SubstrateKey, usize> = HashMap::new();
        for key in keys {
            *held.entry(key).or_default() += 1;
        }
        self.once.with_kept(|kept| {
            for (key, &shares) in &held {
                let live = kept.live.get(key).and_then(WeakEnv::upgrade);
                let pin = kept.pinned.entry(key.clone()).or_default();
                pin.shares += shares;
                if pin.env.is_none() {
                    pin.env = live;
                }
            }
        });
        Lease {
            cache: self,
            held: Mutex::new(held),
        }
    }

    /// Number of substrates alive (held by anything, a lease included).
    pub fn len(&self) -> usize {
        self.once.len()
    }

    /// Whether no substrate is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.once.stats()
    }

    /// Forgets every entry and resets the counters (between unrelated
    /// runs, so manifests report per-run stats).
    pub fn clear(&self) {
        self.once.clear();
    }
}

/// Shares of leased substrate keys (see [`DistCache::lease`]). A figure
/// suite leases the keys every figure declares and releases a figure's
/// share when it completes; a cell leases one key per seed and releases
/// each seed's share as soon as that seed has run (a sweep leases every
/// cell's keys before it validates them).
pub struct Lease<'a> {
    cache: &'a DistCache,
    /// The shares this lease still holds, per key.
    held: Mutex<HashMap<SubstrateKey, usize>>,
}

impl Lease<'_> {
    /// Releases one share of each of `keys` this lease holds. A key whose
    /// last share goes is unpinned, and freed unless something else
    /// holds it.
    pub fn release(&self, keys: &[SubstrateKey]) {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        let released: Vec<(SubstrateKey, usize)> = keys
            .iter()
            .filter_map(|key| {
                let shares = held.get_mut(key)?;
                *shares -= 1;
                if *shares == 0 {
                    held.remove(key);
                }
                Some((key.clone(), 1))
            })
            .collect();
        drop(held);
        self.unpin(released);
    }

    /// Gives back `n` shares of each `(key, n)` of `released`; the
    /// substrates they unpin drop outside the cache's lock.
    fn unpin(&self, released: impl IntoIterator<Item = (SubstrateKey, usize)>) {
        let freed: Vec<ExperimentEnv> = self.cache.once.with_kept(|kept| {
            let mut freed = Vec::new();
            for (key, n) in released {
                let Some(pin) = kept.pinned.get_mut(&key) else {
                    continue;
                };
                pin.shares -= n;
                if pin.shares == 0 {
                    freed.extend(kept.pinned.remove(&key).and_then(|pin| pin.env));
                }
            }
            freed
        });
        drop(freed);
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let held = std::mem::take(self.held.get_mut().unwrap_or_else(|e| e.into_inner()));
        self.unpin(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;

    fn build_line(n: usize) -> Graph {
        unit_line(n).unwrap()
    }

    fn key(topology: &str, seed: u64) -> SubstrateKey {
        (topology.to_string(), seed)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = DistCache::new();
        let a = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
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
        let cache = DistCache::new();
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
        let cache = DistCache::new();
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
    fn a_substrate_lives_as_long_as_its_holders() {
        let cache = DistCache::new();
        let a = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        let matrix = Arc::clone(&a.matrix);
        drop(a);
        // The matrix alone does not keep the entry: a holder needs both.
        assert!(cache.is_empty());
        drop(matrix);
        cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2, "a freed substrate rebuilds");
        assert!(cache.is_empty());
    }

    #[test]
    fn dead_entries_leave_the_map() {
        let cache = DistCache::new();
        for seed in 0..50 {
            cache
                .get_or_build("unit-line:3", seed, || Ok(build_line(3)))
                .unwrap();
        }
        let held = cache
            .get_or_build("unit-line:3", 99, || Ok(build_line(3)))
            .unwrap();
        let map_len = cache.once.with_kept(|kept| kept.live.len());
        assert_eq!(map_len, 1, "only the held substrate stays in the map");
        assert_eq!(cache.len(), 1);
        drop(held);
    }

    #[test]
    fn a_lease_pins_each_key_until_its_last_share_is_released() {
        let cache = DistCache::new();
        let lease = cache.lease(vec![key("unit-line:4", 1), key("unit-line:4", 1)]);
        // Nothing is built up front.
        assert!(cache.is_empty());
        drop(
            cache
                .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
                .unwrap(),
        );
        // Pinned: the lookup after every holder has gone is a hit.
        let again = cache
            .get_or_build("unit-line:4", 1, || panic!("leased"))
            .unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        lease.release(&[key("unit-line:4", 1)]);
        drop(again);
        assert_eq!(cache.len(), 1, "one share is left");
        // Releasing a key the lease does not hold changes nothing.
        lease.release(&[key("unit-line:4", 2)]);
        assert_eq!(cache.len(), 1);
        lease.release(&[key("unit-line:4", 1)]);
        assert!(cache.is_empty(), "the last share frees the substrate");
        lease.release(&[key("unit-line:4", 1)]);
        drop(lease);
        assert!(cache.once.with_kept(|kept| kept.pinned.is_empty()));
    }

    #[test]
    fn leases_add_up_and_pin_what_is_already_held() {
        let cache = DistCache::new();
        let held = cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        let first = cache.lease(vec![key("unit-line:4", 1)]);
        let second = cache.lease(vec![key("unit-line:4", 1)]);
        drop(held);
        drop(first);
        assert_eq!(cache.len(), 1, "the second lease still pins it");
        drop(second);
        assert!(cache.is_empty(), "dropping a lease releases its shares");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = DistCache::new();
        let held = cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        drop(held);
    }

    #[test]
    fn concurrent_same_key_lookups_converge() {
        use std::sync::atomic::AtomicUsize;
        let cache = DistCache::new();
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
        let cache = DistCache::new();
        let err = cache.get_or_build("unit-line:4", 1, || Err("no graph".to_string()));
        assert_eq!(err.err().as_deref(), Some("no graph"));
        assert!(cache.is_empty());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_build("unit-line:4", 1, || panic!("builder died"));
        }));
        assert!(panicked.is_err());
        assert!(cache.is_empty());
        // The key is free again: the next lookup builds instead of waiting.
        let env = cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 3);
        drop(env);
    }
}
