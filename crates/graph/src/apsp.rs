//! All-pairs shortest paths: the [`DistanceMatrix`].
//!
//! Every algorithm in the paper evaluates candidate server placements by
//! summing shortest-path latencies from access points — doing this naively
//! (one Dijkstra per query) dominates runtime. The simulation layers instead
//! precompute a dense distance matrix once per substrate; this module also
//! contains a reference Floyd–Warshall used by property tests to validate
//! the Dijkstra implementation.
//!
//! ## How `build` is fast
//!
//! Dijkstra sources are embarrassingly parallel, and [`DistanceMatrix::build`]
//! exploits the structure on four levels:
//!
//! 1. **CSR layout** — the graph is flattened once into a
//!    [`CsrAdjacency`] (offset/target/weight
//!    arrays), so each relaxation scans one contiguous `(targets, weights)`
//!    row instead of chasing `Vec<(NodeId, EdgeId)> → EdgeData` pointers.
//! 2. **Bucket queue** — each source runs [`dijkstra_into`], which keeps
//!    its frontier in a ring of distance buckets instead of a binary heap
//!    and so makes no priority comparisons (see the `csr` module docs).
//! 3. **Row-parallel execution** — the output matrix is split into
//!    contiguous row blocks handed to rayon workers
//!    (`par_chunks_mut`); every worker writes only its own rows, so there
//!    is no synchronization on the hot path.
//! 4. **Scratch reuse** — each worker allocates one
//!    [`DijkstraScratch`] (bucket lists + settled
//!    flags) and reuses it for every source in its block: `O(threads)`
//!    allocations per build instead of `O(n)`. [`DistanceMatrix::repair`]
//!    reuses one scratch per block of rows the same way.
//!
//! ## Why the pop order never moves a bit
//!
//! A row is computed per source and read as `d(origin, v)`. Its entry
//! for `v` is a float sum `fl(…fl(fl(w₁) + w₂)… + w_k)` of the link
//! weights along some walk from the origin, added left to right. For
//! non-negative `w`, `fl(x + w) ≥ x` and `fl(· + w)` is monotone. So the
//! least such sum over all walks to `v`, `D(v)`, satisfies
//! `D(v) = min over links (u, v) of fl(D(u) + w)`. Every label a search
//! writes is the sum along some walk, so it is at least `D(v)`. A correct
//! label-setting or label-correcting search scans each node again after
//! its last improvement, so it relaxes `fl(D(u) + w)` over every link and
//! ends with exactly `D(v)`. That holds for a heap in any tie order and for
//! the bucket ring with its in-bucket re-opens alike: the order in which
//! nodes are popped never mattered. `path::shortest_paths`, which keeps a
//! binary heap, is therefore a bitwise oracle for every row, and the
//! `apsp_rows_equal_heap_dijkstra_bitwise` property test pins that on
//! graphs mixing zero, sub-width, ring-spanning and failed (`∞`) links.
//!
//! Each row is computed by the same code in the same order regardless of
//! thread count, so parallel and serial builds are **bit-identical**
//! ([`DistanceMatrix::build_serial`] is the single-thread reference, pinned
//! bitwise by `parallel_apsp_equals_serial_on_random_graphs`). The
//! Floyd–Warshall reference adds in another order, so
//! `dijkstra_matches_floyd_warshall` compares it within `1e-9`, not
//! bitwise.

use crate::csr::{dijkstra_into, CsrAdjacency, DijkstraScratch};
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::units::Latency;

use rayon::prelude::*;

/// Dense `n × n` matrix of shortest-path latencies.
///
/// Entry `(u, v)` is `f64::INFINITY` when `v` is unreachable from `u`.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<f64>,
}

/// One edge-latency change for [`DistanceMatrix::repair`]: the edge
/// `{a, b}` went from `old_latency` to `new_latency`. A failed link is a
/// change *to* `f64::INFINITY`; a recovery is a change *from* it.
#[derive(Clone, Copy, Debug)]
pub struct EdgeUpdate {
    /// One endpoint of the changed edge.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Latency the matrix was built (or last repaired) against.
    pub old_latency: f64,
    /// Latency the graph now carries.
    pub new_latency: f64,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths by running the bucket-queue
    /// Dijkstra from every node, which beats Floyd–Warshall on the
    /// sparse substrates used throughout the paper. Sources run in parallel
    /// over a CSR adjacency with per-thread scratch buffers (see the module
    /// docs); the result is bit-identical to [`DistanceMatrix::build_serial`].
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        if n == 0 {
            return DistanceMatrix {
                n,
                dist: Vec::new(),
            };
        }
        let csr = CsrAdjacency::from_graph(g);
        let mut dist = vec![f64::INFINITY; n * n];
        fill_rows(&csr, &mut dist, |_| true);
        DistanceMatrix { n, dist }
    }

    /// Single-thread reference construction: the same CSR Dijkstra as
    /// [`DistanceMatrix::build`], run source-by-source on the calling
    /// thread. Exists for tests asserting the parallel build is
    /// bit-identical.
    pub fn build_serial(g: &Graph) -> Self {
        let n = g.node_count();
        if n == 0 {
            return DistanceMatrix {
                n,
                dist: Vec::new(),
            };
        }
        let csr = CsrAdjacency::from_graph(g);
        let mut dist = vec![f64::INFINITY; n * n];
        let mut scratch = DijkstraScratch::new(&csr);
        for (u, row) in dist.chunks_mut(n).enumerate() {
            dijkstra_into(&csr, u, row, &mut scratch);
        }
        DistanceMatrix { n, dist }
    }

    /// Reference Floyd–Warshall construction, `O(n³)`. Exists so property
    /// tests can cross-validate [`DistanceMatrix::build`]; not used on hot
    /// paths.
    pub fn build_floyd_warshall(g: &Graph) -> Self {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
        }
        for e in g.edges() {
            let (u, v) = (e.source.index(), e.target.index());
            if e.latency < dist[u * n + v] {
                dist[u * n + v] = e.latency;
                dist[v * n + u] = e.latency;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let alt = dik + dist[k * n + j];
                    if alt < dist[i * n + j] {
                        dist[i * n + j] = alt;
                    }
                }
            }
        }
        DistanceMatrix { n, dist }
    }

    /// Incrementally repairs the matrix after the edge-latency changes in
    /// `updates`, re-running Dijkstra **only from sources whose shortest
    /// paths can have changed**. `g` must already carry the new latencies;
    /// each update describes the transition from the matrix's current
    /// state to `g`'s. Returns the number of rows recomputed.
    ///
    /// A source `u` is *dirty* for an update `{a, b}: w_old -> w_new` when
    ///
    /// * the latency **increased** and the edge lay on a shortest path
    ///   from `u` (`dist(u,a) + w_old == dist(u,b)` or symmetrically —
    ///   exact float equality, because `dist(u,b)` was computed as that
    ///   very sum), or
    /// * the latency **decreased** and the cheaper edge offers an
    ///   improvement (`dist(u,a) + w_new < dist(u,b)` or symmetrically).
    ///
    /// Clean rows are provably unchanged — even for a batch mixing
    /// increases and decreases: a clean row's old shortest paths avoid
    /// every changed edge (any use would trip one of the two tests), and
    /// no changed edge offers it an improvement — so recomputing exactly
    /// the dirty rows with the same per-row Dijkstra as
    /// [`DistanceMatrix::build`] makes the repaired matrix **bit-identical**
    /// to a full rebuild (proptest-pinned in `tests/proptest_graph.rs`).
    /// Ties count as dirty, which is conservative but never wrong.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s node count differs from the matrix's or an update
    /// names an out-of-range node.
    pub fn repair(&mut self, g: &Graph, updates: &[EdgeUpdate]) -> usize {
        assert_eq!(
            self.n,
            g.node_count(),
            "DistanceMatrix::repair: graph size mismatch"
        );
        let n = self.n;
        if n == 0 || updates.is_empty() {
            return 0;
        }
        let mut dirty = vec![false; n];
        for (u, row) in self.dist.chunks(n).enumerate() {
            for up in updates {
                let (a, b) = (up.a.index(), up.b.index());
                assert!(
                    a < n && b < n,
                    "DistanceMatrix::repair: update endpoint out of range"
                );
                let (old_w, new_w) = (up.old_latency, up.new_latency);
                let hit = if new_w > old_w {
                    row[a] + old_w == row[b] || row[b] + old_w == row[a]
                } else if new_w < old_w {
                    row[a] + new_w < row[b] || row[b] + new_w < row[a]
                } else {
                    false
                };
                if hit {
                    dirty[u] = true;
                    break;
                }
            }
        }
        let repaired = dirty.iter().filter(|&&d| d).count();
        if repaired == 0 {
            return 0;
        }
        let csr = CsrAdjacency::from_graph(g);
        fill_rows(&csr, &mut self.dist, |u| dirty[u]);
        repaired
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Shortest-path latency `u -> v` (`INFINITY` if unreachable).
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> Latency {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Finite distance or `None` when unreachable.
    #[inline]
    pub fn get_finite(&self, u: NodeId, v: NodeId) -> Option<Latency> {
        let d = self.get(u, v);
        d.is_finite().then_some(d)
    }

    /// Row of distances from `u`, indexed by `NodeId::index()`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f64] {
        &self.dist[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Eccentricity of `u`: max distance from `u` to any node
    /// (`INFINITY` on disconnected graphs).
    pub fn eccentricity(&self, u: NodeId) -> f64 {
        self.row(u).iter().copied().fold(0.0, f64::max)
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.dist.iter().all(|d| d.is_finite())
    }

    /// Maximum finite pairwise distance, ignoring unreachable pairs.
    pub fn max_finite(&self) -> f64 {
        self.dist
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }
}

/// Runs [`dijkstra_into`] into every row `u` of the row-major `dist` for
/// which `pick(u)` holds: one contiguous block of rows per worker, each
/// block reusing one scratch (allocated on its first picked row).
fn fill_rows(csr: &CsrAdjacency, dist: &mut [f64], pick: impl Fn(usize) -> bool + Sync) {
    let n = csr.node_count();
    let rows_per_block = n.div_ceil(rayon::current_num_threads());
    dist.par_chunks_mut(rows_per_block * n)
        .enumerate()
        .for_each(|(block, rows)| {
            let first = block * rows_per_block;
            let mut scratch = None;
            for (i, row) in rows.chunks_mut(n).enumerate() {
                if pick(first + i) {
                    let scratch = scratch.get_or_insert_with(|| DijkstraScratch::new(csr));
                    dijkstra_into(csr, first + i, row, scratch);
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn square_with_diagonal() -> Graph {
        // 0-1, 1-2, 2-3, 3-0 each latency 1; diagonal 0-2 latency 1.5
        let mut g = Graph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0)).collect();
        g.add_edge(n[0], n[1], 1.0, Bandwidth::T1).unwrap();
        g.add_edge(n[1], n[2], 1.0, Bandwidth::T1).unwrap();
        g.add_edge(n[2], n[3], 1.0, Bandwidth::T1).unwrap();
        g.add_edge(n[3], n[0], 1.0, Bandwidth::T1).unwrap();
        g.add_edge(n[0], n[2], 1.5, Bandwidth::T2).unwrap();
        g
    }

    #[test]
    fn parallel_build_bit_identical_to_serial() {
        use crate::gen::{erdos_renyi, GenConfig};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for (n, seed) in [(1usize, 0u64), (7, 1), (40, 2), (97, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi(n, 0.05, &GenConfig::default(), &mut rng).unwrap();
            let par = DistanceMatrix::build(&g);
            let ser = DistanceMatrix::build_serial(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        par.get(u, v).to_bits(),
                        ser.get(u, v).to_bits(),
                        "n={n} seed={seed} ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_floyd_warshall() {
        let g = square_with_diagonal();
        let a = DistanceMatrix::build(&g);
        let b = DistanceMatrix::build_floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert!(
                    (a.get(u, v) - b.get(u, v)).abs() < 1e-12,
                    "mismatch at ({u},{v}): {} vs {}",
                    a.get(u, v),
                    b.get(u, v)
                );
            }
        }
    }

    #[test]
    fn diagonal_shortcut_used() {
        let g = square_with_diagonal();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.get(NodeId::new(0), NodeId::new(2)), 1.5);
    }

    #[test]
    fn symmetric() {
        let g = square_with_diagonal();
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(m.get(u, v), m.get(v, u));
            }
        }
    }

    #[test]
    fn connectivity_detection() {
        let g = square_with_diagonal();
        assert!(DistanceMatrix::build(&g).is_connected());

        let mut g2 = Graph::new();
        g2.add_node(1.0);
        g2.add_node(1.0);
        let m = DistanceMatrix::build(&g2);
        assert!(!m.is_connected());
        assert_eq!(m.get_finite(NodeId::new(0), NodeId::new(1)), None);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::new();
        assert!(DistanceMatrix::build(&g).is_connected());
    }

    #[test]
    fn eccentricity_of_square() {
        let g = square_with_diagonal();
        let m = DistanceMatrix::build(&g);
        // node 1: dist to 3 is 2.0 (1-0-3 or 1-2-3); to 0 and 2 it's 1.0
        assert_eq!(m.eccentricity(NodeId::new(1)), 2.0);
        assert_eq!(m.max_finite(), 2.0);
    }

    fn assert_bitwise_equal(a: &DistanceMatrix, b: &DistanceMatrix, label: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{label}: size");
        for u in 0..a.node_count() {
            for v in 0..a.node_count() {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(
                    a.get(u, v).to_bits(),
                    b.get(u, v).to_bits(),
                    "{label}: ({u},{v}) {} vs {}",
                    a.get(u, v),
                    b.get(u, v)
                );
            }
        }
    }

    #[test]
    fn repair_matches_rebuild_for_fail_recover_degrade() {
        let mut g = square_with_diagonal();
        let mut m = DistanceMatrix::build(&g);
        let (a, c) = (NodeId::new(0), NodeId::new(2));

        // Fail the diagonal shortcut: latency -> INFINITY.
        let old = g.set_edge_latency(a, c, f64::INFINITY).unwrap();
        let repaired = m.repair(
            &g,
            &[EdgeUpdate {
                a,
                b: c,
                old_latency: old,
                new_latency: f64::INFINITY,
            }],
        );
        assert!(repaired > 0, "failing a used shortcut must dirty rows");
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "fail");
        assert_eq!(m.get(a, c), 2.0, "route around the failed diagonal");

        // Degrade a ring link by 3x.
        let (b, c2) = (NodeId::new(1), NodeId::new(2));
        let old = g.set_edge_latency(b, c2, 3.0).unwrap();
        m.repair(
            &g,
            &[EdgeUpdate {
                a: b,
                b: c2,
                old_latency: old,
                new_latency: 3.0,
            }],
        );
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "degrade");

        // Recover the diagonal: the pre-failure distance comes back.
        let old = g.set_edge_latency(a, c, 1.5).unwrap();
        m.repair(
            &g,
            &[EdgeUpdate {
                a,
                b: c,
                old_latency: old,
                new_latency: 1.5,
            }],
        );
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "recover");
        assert_eq!(m.get(a, c), 1.5);
    }

    #[test]
    fn repair_skips_rows_for_unused_edge_increase() {
        // Raising the latency of an edge on no shortest path touches no row.
        let mut g = square_with_diagonal();
        let mut m = DistanceMatrix::build(&g);
        let (a, c) = (NodeId::new(0), NodeId::new(2));
        // diagonal at 1.5 is used; raise it slightly above 2.0 first
        let old = g.set_edge_latency(a, c, 5.0).unwrap();
        m.repair(
            &g,
            &[EdgeUpdate {
                a,
                b: c,
                old_latency: old,
                new_latency: 5.0,
            }],
        );
        // now at 5.0 it is on no shortest path; raising further is free
        let old = g.set_edge_latency(a, c, 9.0).unwrap();
        let repaired = m.repair(
            &g,
            &[EdgeUpdate {
                a,
                b: c,
                old_latency: old,
                new_latency: 9.0,
            }],
        );
        assert_eq!(repaired, 0);
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "unused edge");
    }

    #[test]
    fn repair_vs_rebuild_skips_most_rows_on_one_link_failure() {
        // A real single-link failure on a 500-node Waxman substrate must
        // re-run Dijkstra from only a small share of the sources (57 of
        // 500 for this edge) and still land on the rebuild bit for bit.
        use crate::gen::{waxman, GenConfig};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut g = waxman(500, 0.4, 0.15, 10.0, &GenConfig::default(), &mut rng).unwrap();
        let mut m = DistanceMatrix::build(&g);
        let edge = g.edges().next().expect("waxman substrate has edges");
        let old = g
            .set_edge_latency(edge.source, edge.target, f64::INFINITY)
            .unwrap();
        let repaired = m.repair(
            &g,
            &[EdgeUpdate {
                a: edge.source,
                b: edge.target,
                old_latency: old,
                new_latency: f64::INFINITY,
            }],
        );
        assert!(
            repaired > 0 && repaired < g.node_count() / 4,
            "repair re-ran {repaired} of {} rows",
            g.node_count()
        );
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "waxman-500 link failure");
    }

    #[test]
    fn repair_handles_batch_updates_and_disconnection() {
        // Fail *every* edge incident to node 3 in one batch (a node
        // failure), disconnecting it, then recover in one batch.
        let mut g = square_with_diagonal();
        let pristine = DistanceMatrix::build(&g);
        let mut m = pristine.clone();
        let n3 = NodeId::new(3);
        let mut batch = Vec::new();
        for other in [NodeId::new(0), NodeId::new(2)] {
            let old = g.set_edge_latency(n3, other, f64::INFINITY).unwrap();
            batch.push(EdgeUpdate {
                a: n3,
                b: other,
                old_latency: old,
                new_latency: f64::INFINITY,
            });
        }
        m.repair(&g, &batch);
        assert_bitwise_equal(&m, &DistanceMatrix::build(&g), "node fail");
        assert!(!m.is_connected());
        assert_eq!(m.get_finite(NodeId::new(0), n3), None);

        let recover: Vec<EdgeUpdate> = batch
            .iter()
            .map(|up| {
                g.set_edge_latency(up.a, up.b, up.old_latency).unwrap();
                EdgeUpdate {
                    a: up.a,
                    b: up.b,
                    old_latency: f64::INFINITY,
                    new_latency: up.old_latency,
                }
            })
            .collect();
        m.repair(&g, &recover);
        assert_bitwise_equal(&m, &pristine, "node recover restores exactly");
    }

    #[test]
    fn triangle_inequality_holds() {
        let g = square_with_diagonal();
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                for w in g.nodes() {
                    assert!(m.get(u, w) <= m.get(u, v) + m.get(v, w) + 1e-12);
                }
            }
        }
    }
}
