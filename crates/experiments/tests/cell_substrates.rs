//! A `run`/`sweep` cell holds a seed's substrate only while that seed
//! runs: a many-seed cell keeps about as many matrices alive as it has
//! seeds in flight, not one per seed, and cells under one lease still
//! share every substrate they have in common.
//!
//! One test, so nothing else in this process builds substrates while it
//! counts the live ones.

use std::sync::atomic::{AtomicBool, Ordering};

use flexserve_experiments::spec::{CellSpec, StrategySpec};
use flexserve_experiments::DistCache;

fn cell(strategy: StrategySpec, seeds: std::ops::Range<u64>) -> CellSpec {
    let mut cell = CellSpec::new(
        "er:30".parse().unwrap(),
        "uniform:req=2".parse().unwrap(),
        strategy,
    );
    cell.rounds = 2;
    cell.seeds = seeds.collect();
    cell
}

#[test]
fn a_cell_frees_each_seed_substrate_when_that_seed_has_run() {
    let cache = DistCache::global();

    // Poll the live substrates while a 200-seed cell runs.
    let many = cell(StrategySpec::Static, 0..200);
    let done = AtomicBool::new(false);
    let peak = std::thread::scope(|s| {
        let run = s.spawn(|| {
            let result = many.run();
            done.store(true, Ordering::SeqCst);
            result
        });
        let mut peak = 0;
        while !done.load(Ordering::SeqCst) {
            peak = peak.max(cache.len());
            std::thread::yield_now();
        }
        let result = run.join().unwrap().unwrap();
        assert_eq!(result.summary.per_seed.len(), 200);
        peak
    });
    assert!(
        peak <= 16,
        "{peak} substrates alive at once: a cell pins seeds that are done"
    );
    assert!(cache.is_empty(), "the cell retains no substrate");
    assert_eq!(cache.stats().misses, 200, "one build per seed");

    // Two cells under one lease, as a sweep runs them: the second reuses
    // every substrate the first built, and the last seed to need one
    // frees it.
    let (first, second) = (
        cell(StrategySpec::OnTh, 0..6),
        cell(StrategySpec::Static, 3..9),
    );
    let before = cache.stats().misses;
    let lease = cache.lease(first.substrates().into_iter().chain(second.substrates()));
    first.run_under(&lease).unwrap();
    assert_eq!(cache.len(), 3, "seeds 3..6 wait for the second cell");
    second.run_under(&lease).unwrap();
    assert!(cache.is_empty(), "every share was given back");
    assert_eq!(
        cache.stats().misses - before,
        9,
        "one build per distinct key"
    );
}
