//! Property-based tests for the graph substrate.
//!
//! Invariants checked:
//! * Dijkstra == Floyd–Warshall on arbitrary random graphs (within 1e-9),
//! * every APSP row is bit-identical to the heap Dijkstra of
//!   `path::shortest_paths`, on weights the bucket ring finds hardest,
//! * distance matrices are symmetric and satisfy the triangle inequality,
//! * generator structural invariants hold for arbitrary parameters,
//! * the connectivity repair always yields connected graphs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use flexserve_graph::connectivity::{component_count, is_connected};
use flexserve_graph::gen::{erdos_renyi, grid, line, random_tree, ring, star, GenConfig};
use flexserve_graph::path::shortest_paths;
use flexserve_graph::{DistanceMatrix, EdgeUpdate, Graph, NodeId};

/// Builds a random graph directly from proptest-chosen edge list.
fn graph_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(1.0);
    }
    for &(a, b, lat) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let _ = g.add_edge(
            NodeId::new(a),
            NodeId::new(b),
            lat,
            flexserve_graph::Bandwidth::T1,
        );
    }
    g
}

/// One link weight of [`graph_from_mixed_links`] by `class`: zero, a
/// sub-width `tiny` (at most 1e-9), `mantissa · 2^exp` across
/// 2⁻³⁰–2³¹ (wider than the bucket ring), or an ordinary 10–20.
fn mixed_weight(class: usize, tiny: f64, mantissa: f64, exp: i32) -> f64 {
    match class {
        0 => 0.0,
        1 => tiny,
        2 => mantissa * 2f64.powi(exp),
        _ => mantissa * 10.0,
    }
}

/// `((a, b, fail), class, tiny, mantissa, exp)`: one link of
/// [`graph_from_mixed_links`].
type MixedLink = ((usize, usize, usize), usize, f64, f64, i32);

/// A graph whose links mix the weights of [`mixed_weight`]; a link with
/// `fail == 0` (about one in six) then fails to `∞`.
fn graph_from_mixed_links(n: usize, links: &[MixedLink]) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(1.0);
    }
    for &((a, b, fail), class, tiny, mantissa, exp) in links {
        let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
        let w = mixed_weight(class, tiny, mantissa, exp);
        if a != b && g.add_edge(a, b, w, flexserve_graph::Bandwidth::T1).is_ok() && fail == 0 {
            g.set_edge_latency(a, b, f64::INFINITY).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every row of the bucket-queue APSP is `to_bits`-equal to the heap
    /// Dijkstra of `path::shortest_paths` from the same origin: zero and
    /// sub-width links force in-bucket re-opens, weights spanning more
    /// than the ring widen the buckets, and failed links must never
    /// enqueue. The pop order of a correct search never moves a bit
    /// (see the `apsp` module docs).
    #[test]
    fn apsp_rows_equal_heap_dijkstra_bitwise(
        n in 2usize..48,
        links in prop::collection::vec(
            ((0usize..48, 0usize..48, 0usize..6), 0usize..5, 0.0f64..1e-9, 1.0f64..2.0, -30i32..31),
            0..160),
    ) {
        let g = graph_from_mixed_links(n, &links);
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            let heap = shortest_paths(&g, u);
            for (v, (&got, &want)) in m.row(u).iter().zip(heap.distances()).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "({},{}): {} vs {}", u, v, got, want
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_floyd_warshall(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20, 0.0f64..100.0), 0..60)
    ) {
        let g = graph_from_edges(n, &edges);
        let fast = DistanceMatrix::build(&g);
        let slow = DistanceMatrix::build_floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let (a, b) = (fast.get(u, v), slow.get(u, v));
                if a.is_finite() || b.is_finite() {
                    prop_assert!((a - b).abs() < 1e-9, "({u},{v}): {a} vs {b}");
                }
            }
        }
    }

    /// The rayon-parallel APSP build must be *bit-identical* to the serial
    /// CSR reference on arbitrary graphs — not merely approximately equal:
    /// parallelism only changes which thread computes a row, never the
    /// arithmetic within it.
    #[test]
    fn parallel_apsp_equals_serial_on_random_graphs(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40, 0.0f64..100.0), 0..120)
    ) {
        let g = graph_from_edges(n, &edges);
        let par = DistanceMatrix::build(&g);
        let ser = DistanceMatrix::build_serial(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(
                    par.get(u, v).to_bits(),
                    ser.get(u, v).to_bits(),
                    "({},{}): {} vs {}", u, v, par.get(u, v), ser.get(u, v)
                );
            }
        }
    }

    /// Incremental APSP repair must be *bit-identical* to a full rebuild
    /// after every event of an arbitrary edge-event sequence: failures
    /// (latency -> INFINITY), recoveries (back to the original latency)
    /// and degradations (latency scaled), on arbitrary topologies.
    #[test]
    fn apsp_repair_equals_rebuild_on_random_event_sequences(
        n in 2usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30, 0.1f64..100.0), 1..90),
        events in prop::collection::vec((0usize..64, 0usize..3, 1.1f64..4.0), 1..12)
    ) {
        let mut g = graph_from_edges(n, &edges);
        if g.edge_count() == 0 {
            return;
        }
        let mut m = DistanceMatrix::build(&g);
        let all_edges: Vec<(NodeId, NodeId, f64)> = g
            .edges()
            .map(|e| (e.source, e.target, e.latency))
            .collect();
        for &(pick, kind, factor) in &events {
            let (a, b, original) = all_edges[pick % all_edges.len()];
            let old = g.edge_latency(a, b).unwrap();
            let new = match kind {
                0 => f64::INFINITY,     // fail
                1 => original,          // recover to the pristine latency
                _ => {
                    if old.is_finite() { old * factor } else { old } // degrade
                }
            };
            g.set_edge_latency(a, b, new).unwrap();
            m.repair(&g, &[EdgeUpdate { a, b, old_latency: old, new_latency: new }]);
            let rebuilt = DistanceMatrix::build(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(
                        m.get(u, v).to_bits(),
                        rebuilt.get(u, v).to_bits(),
                        "event ({},{},{}): ({},{}): {} vs {}",
                        pick, kind, factor, u, v, m.get(u, v), rebuilt.get(u, v)
                    );
                }
            }
        }
    }

    /// Batched repair (several edges changed at once, as a node failure
    /// produces) is bit-identical to a rebuild too.
    #[test]
    fn apsp_repair_equals_rebuild_on_batched_node_events(
        n in 3usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25, 0.1f64..50.0), 2..70),
        victim in 0usize..25,
    ) {
        let mut g = graph_from_edges(n, &edges);
        let victim = NodeId::new(victim % n);
        if g.degree(victim) == 0 {
            return;
        }
        let mut m = DistanceMatrix::build(&g);
        let incident: Vec<(NodeId, f64)> = g
            .neighbors(victim)
            .map(|e| (e.target, e.latency))
            .collect();
        // Node failure: every incident link fails in one batch.
        let fail: Vec<EdgeUpdate> = incident
            .iter()
            .map(|&(w, lat)| EdgeUpdate {
                a: victim,
                b: w,
                old_latency: lat,
                new_latency: f64::INFINITY,
            })
            .collect();
        for up in &fail {
            g.set_edge_latency(up.a, up.b, f64::INFINITY).unwrap();
        }
        m.repair(&g, &fail);
        let rebuilt = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(m.get(u, v).to_bits(), rebuilt.get(u, v).to_bits());
            }
        }
        // Node recovery restores the pristine matrix bit for bit.
        let recover: Vec<EdgeUpdate> = incident
            .iter()
            .map(|&(w, lat)| EdgeUpdate {
                a: victim,
                b: w,
                old_latency: f64::INFINITY,
                new_latency: lat,
            })
            .collect();
        for up in &recover {
            g.set_edge_latency(up.a, up.b, up.new_latency).unwrap();
        }
        m.repair(&g, &recover);
        let pristine = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(m.get(u, v).to_bits(), pristine.get(u, v).to_bits());
            }
        }
    }

    #[test]
    fn distance_matrix_symmetric_and_triangle(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15, 0.0f64..50.0), 0..40)
    ) {
        let g = graph_from_edges(n, &edges);
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            prop_assert_eq!(m.get(u, u), 0.0);
            for v in g.nodes() {
                let (duv, dvu) = (m.get(u, v), m.get(v, u));
                if duv.is_finite() || dvu.is_finite() {
                    prop_assert!((duv - dvu).abs() < 1e-9);
                }
                for w in g.nodes() {
                    if m.get(u, v).is_finite() && m.get(v, w).is_finite() {
                        prop_assert!(m.get(u, w) <= m.get(u, v) + m.get(v, w) + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_consistency(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15, 0.1f64..50.0), 1..40),
        src in 0usize..15,
    ) {
        let g = graph_from_edges(n, &edges);
        let src = NodeId::new(src % n);
        let sp = shortest_paths(&g, src);
        for v in g.nodes() {
            if let Some(path) = sp.path_to(v) {
                prop_assert_eq!(path[0], src);
                prop_assert_eq!(*path.last().unwrap(), v);
                // path edge sum equals reported distance
                let mut sum = 0.0;
                for w in path.windows(2) {
                    let lat = g.edge_latency(w[0], w[1]);
                    prop_assert!(lat.is_some(), "path uses a non-edge");
                    sum += lat.unwrap();
                }
                prop_assert!((sum - sp.distance(v).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn erdos_renyi_always_connected(n in 1usize..120, p in 0.0f64..0.2, seed in 0u64..1000) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi(n, p, &cfg, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn line_is_path(n in 1usize..50, seed in 0u64..100) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = line(n, &cfg, &mut rng).unwrap();
        prop_assert_eq!(g.edge_count(), n - 1);
        prop_assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn tree_has_n_minus_one_edges(n in 1usize..80, seed in 0u64..100) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_tree(n, &cfg, &mut rng).unwrap();
        prop_assert_eq!(g.edge_count(), n - 1);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn ring_degrees(n in 3usize..60, seed in 0u64..100) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = ring(n, &cfg, &mut rng).unwrap();
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn star_shape(n in 1usize..60, seed in 0u64..100) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = star(n, &cfg, &mut rng).unwrap();
        prop_assert_eq!(g.edge_count(), n - 1);
        if n > 1 {
            prop_assert_eq!(g.degree(NodeId::new(0)), n - 1);
        }
    }

    #[test]
    fn grid_shape(r in 1usize..8, c in 1usize..8, seed in 0u64..100) {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = grid(r, c, &cfg, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), r * c);
        prop_assert_eq!(g.edge_count(), r * (c - 1) + (r - 1) * c);
        prop_assert!(is_connected(&g));
    }
}
