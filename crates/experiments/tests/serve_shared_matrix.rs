//! Serve sessions share one distance matrix per substrate and free it
//! with the last of them.
//!
//! One test in its own binary: it reads the process-wide cache's counters
//! and live-entry count, which a concurrent test would disturb.

use std::sync::Arc;

use flexserve_experiments::serve::{SessionConfig, SessionManager};
use flexserve_experiments::{DistCache, ExperimentEnv, TopologySpec};
use flexserve_workload::JsonValue;

const CELL: [&str; 6] = [
    "topo=er:120",
    "wl=uniform:req=3",
    "strat=onth",
    "rounds=40",
    "seed=77",
    "k=4",
];

fn config(name: &str) -> SessionConfig {
    let args: Vec<String> = CELL.iter().map(|a| a.to_string()).collect();
    let mut cfg = SessionConfig::parse(&args, name).expect("session args");
    cfg.checkpoint = std::env::temp_dir().join(format!(
        "flexserve-shared-{}-{name}.json",
        std::process::id()
    ));
    cfg
}

/// Looks the sessions' substrate up in the cache (a hit while any
/// session holds it).
fn lookup() -> ExperimentEnv {
    ExperimentEnv::from_spec(&TopologySpec::ErdosRenyi { n: 120 }, 77).unwrap()
}

#[test]
fn sessions_share_one_matrix_and_free_it_with_the_last() {
    let cache = DistCache::global();
    let mgr = SessionManager::new(4);
    assert!(cache.is_empty());

    // Creating a session validates its cell and then builds the session
    // from the same substrate: one build, not two.
    let misses = cache.stats().misses;
    mgr.create("a", config("a")).unwrap();
    assert_eq!(cache.stats().misses, misses + 1, "one build per creation");
    let first = lookup();
    // Strong references: the lookup's, plus whatever one session holds.
    let per_session = Arc::strong_count(&first.matrix) - 1;
    assert!(per_session >= 1, "the session holds the matrix");

    // A second session on the same topo= and seed= shares that matrix.
    mgr.create("b", config("b")).unwrap();
    assert_eq!(
        cache.stats().misses,
        misses + 1,
        "the second session shares"
    );
    let second = lookup();
    assert!(Arc::ptr_eq(&first.matrix, &second.matrix));
    assert!(Arc::ptr_eq(&first.graph, &second.graph));
    assert_eq!(
        Arc::strong_count(&first.matrix),
        2 + 2 * per_session,
        "both sessions hold the one matrix"
    );
    // Both serve from it.
    for name in ["a", "b"] {
        let round = mgr.step(name, "").unwrap();
        assert_eq!(round.get("t").and_then(JsonValue::as_u64), Some(0));
    }
    drop((first, second));

    // With both sessions deleted, nothing holds the substrate any more.
    mgr.remove("a").unwrap();
    assert_eq!(cache.len(), 1, "session b still holds it");
    mgr.remove("b").unwrap();
    assert!(cache.is_empty(), "the last session freed the matrix");

    // So a third session builds it again.
    mgr.create("c", config("c")).unwrap();
    assert_eq!(cache.stats().misses, misses + 2);
    mgr.remove("c").unwrap();
    assert!(cache.is_empty());
}
