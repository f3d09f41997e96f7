//! Compressed sparse row (CSR) adjacency and the scratch-reusing
//! bucket-queue Dijkstra that runs on it.
//!
//! [`Graph`] stores adjacency as per-node `Vec<(NodeId, EdgeId)>` — ideal
//! for incremental construction, poor for traversal: every relaxation
//! chases two pointers (adjacency entry → edge record) across separately
//! allocated arrays. [`CsrAdjacency`] flattens the graph once into three
//! parallel arrays (`offsets`, `targets`, `weights`) so the relaxation
//! loop of one node is a single contiguous scan — the layout every
//! all-pairs source shares, read-only, across worker threads.
//!
//! [`dijkstra_into`] keeps its frontier in a ring of distance buckets
//! (Dial's bucket queue, widened as in Δ-stepping) instead of a binary
//! heap, so it makes no priority comparisons at all. Bucket `b` holds the
//! labels `d` with `(d · (1/width)) as u64 == b`. The width is the
//! smallest positive link weight, raised until the largest weight spans
//! at most 1,021 buckets, and the ring has room for every label queued
//! while one bucket drains (at most 1,024 buckets). Buckets are drained
//! FIFO. A relaxation that improves a node already settled in the current
//! bucket (over a zero-weight or sub-width link) re-opens it there, so
//! each bucket is label-correcting, and the search ends with the same
//! per-node minima as any heap order (the `apsp` module docs say why that
//! holds bit for bit). The bucket ring pays for itself on graphs with
//! wide frontiers; on paths and rings, whose frontier is one or two
//! nodes, stepping from bucket to bucket costs more than a tiny heap did.
//!
//! [`DijkstraScratch`] owns the per-source working set (bucket lists,
//! settled flags). One scratch per worker thread serves all of that
//! thread's sources, so an `n`-source all-pairs build performs `O(threads)`
//! allocations instead of `O(n)`.

use crate::graph::Graph;

/// The most buckets a ring may need: [`CsrAdjacency::from_graph`] widens
/// the buckets until the largest link weight spans at most
/// `RING_CAP − 3` of them.
const RING_CAP: usize = 1024;

/// Flattened read-only adjacency: the neighbors of node `u` live in
/// `targets[offsets[u]..offsets[u+1]]` with matching `weights`.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// `1 / width` of one distance bucket of [`dijkstra_into`].
    inv_width: f64,
    /// Buckets in the ring of [`dijkstra_into`], a power of two.
    ring: usize,
}

impl CsrAdjacency {
    /// Flattens `g` (both directions of every undirected edge) in
    /// `O(|V| + |E|)`, and derives the bucket width of [`dijkstra_into`]
    /// from the finite positive link weights: the smallest one, raised
    /// to `w_max / (RING_CAP − 3)` when the weights span more than the
    /// ring (and to the smallest normal float, so `1 / width` stays
    /// finite). A graph with no finite positive weight uses width 1.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes or directed
    /// edges (the ids are packed into `u32` to halve the traversal
    /// footprint).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        assert!(n <= u32::MAX as usize, "CSR: too many nodes for u32 ids");
        let m2 = 2 * g.edge_count();
        assert!(m2 <= u32::MAX as usize, "CSR: too many edges for u32 ids");

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m2);
        let mut weights = Vec::with_capacity(m2);
        offsets.push(0u32);
        for u in g.nodes() {
            for e in g.neighbors(u) {
                targets.push(e.target.index() as u32);
                weights.push(e.latency);
            }
            offsets.push(targets.len() as u32);
        }

        let (mut w_min, mut w_max) = (f64::INFINITY, 0.0);
        for &w in weights.iter().filter(|w| w.is_finite()) {
            if w > 0.0 && w < w_min {
                w_min = w;
            }
            if w > w_max {
                w_max = w;
            }
        }
        let width = if w_max > 0.0 {
            w_min
                .max(w_max / (RING_CAP - 3) as f64)
                .max(f64::MIN_POSITIVE)
        } else {
            1.0
        };
        let inv_width = 1.0 / width;
        // A relaxation lands at most `w_max / width + 1` buckets (plus
        // a rounding sliver) past the one being drained.
        let ring = ((w_max * inv_width) as usize + 3).next_power_of_two();
        CsrAdjacency {
            offsets,
            targets,
            weights,
            inv_width,
            ring,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The contiguous `(targets, weights)` rows of node `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Bucket of label `d`.
    #[inline]
    fn bucket(&self, d: f64) -> u64 {
        (d * self.inv_width) as u64
    }
}

/// "No entry" link of the bucket lists.
const NIL: usize = usize::MAX;

/// One queued node: its id and the next entry of its bucket.
struct Entry {
    node: u32,
    next: usize,
}

/// Reusable per-thread working set for [`dijkstra_into`].
pub struct DijkstraScratch {
    /// `(first, last)` `pool` entry of each bucket of the ring (`NIL` =
    /// empty); every bucket is empty between runs.
    lists: Vec<(usize, usize)>,
    /// Every entry queued in the current run, linked into FIFO lists per
    /// bucket: one buffer for all buckets, kept across runs.
    pool: Vec<Entry>,
    /// Bit `s` is set while bucket `s` holds entries.
    occupied: Vec<u64>,
    settled: Vec<bool>,
}

impl DijkstraScratch {
    /// Scratch sized for `csr`'s node count and bucket ring.
    pub fn new(csr: &CsrAdjacency) -> Self {
        let n = csr.node_count();
        DijkstraScratch {
            lists: vec![(NIL, NIL); csr.ring],
            pool: Vec::with_capacity(n),
            occupied: vec![0; csr.ring.div_ceil(64)],
            settled: vec![false; n],
        }
    }

    /// Appends `node` to bucket `slot`.
    #[inline]
    fn push(&mut self, slot: usize, node: u32) {
        let e = self.pool.len();
        self.pool.push(Entry { node, next: NIL });
        let (head, tail) = &mut self.lists[slot];
        match *tail {
            NIL => {
                *head = e;
                self.occupied[slot >> 6] |= 1 << (slot & 63);
            }
            t => self.pool[t].next = e,
        }
        *tail = e;
    }
}

/// Runs Dijkstra from `source` over `csr`, writing all distances into
/// `dist` (`f64::INFINITY` = unreachable). `scratch` is reset here and can
/// be reused across any number of sources on the same graph.
///
/// The occupied buckets are drained in ring order, each FIFO, and a
/// popped node that is already settled is skipped. A relaxation that
/// lowers a label queues the node in its new bucket and clears its
/// settled flag, so a node settled too early in the current bucket is
/// scanned again with its lower label. Labels only fall, so the first of
/// an open node's entries that the drain reaches is in its label's
/// bucket, and a popped open node is always current (a debug assertion
/// checks it). The ring size is a matter of speed only:
/// in a ring too small, a label would alias to an earlier bucket and be
/// scanned early, then re-opened by the relaxations that lower it.
/// Failed (`∞`) links never lower a label.
///
/// # Panics
///
/// Panics if `dist` or `scratch` are not sized for `csr`.
pub fn dijkstra_into(
    csr: &CsrAdjacency,
    source: usize,
    dist: &mut [f64],
    scratch: &mut DijkstraScratch,
) {
    let n = csr.node_count();
    assert_eq!(dist.len(), n, "dijkstra_into: row size mismatch");
    assert!(
        scratch.settled.len() == n && scratch.lists.len() == csr.ring,
        "dijkstra_into: scratch mismatch"
    );
    let mask = csr.ring - 1;

    dist.fill(f64::INFINITY);
    scratch.settled.fill(false);
    scratch.pool.clear();

    dist[source] = 0.0;
    scratch.push(0, source as u32);
    let mut queued = 1usize;
    let mut cur = 0u64;
    let mut slot = 0usize;
    loop {
        let mut e = scratch.lists[slot].0;
        while e != NIL {
            queued -= 1;
            let u = scratch.pool[e].node as usize;
            if !scratch.settled[u] {
                let d = dist[u];
                debug_assert_eq!(csr.bucket(d), cur, "open node off its bucket");
                scratch.settled[u] = true;
                let (targets, weights) = csr.neighbors(u);
                for (&v, &w) in targets.iter().zip(weights) {
                    let nd = d + w;
                    let vi = v as usize;
                    if nd < dist[vi] {
                        dist[vi] = nd;
                        scratch.settled[vi] = false;
                        scratch.push(csr.bucket(nd) as usize & mask, v);
                        queued += 1;
                    }
                }
            }
            // Read after the scan, which may append to this very bucket.
            e = scratch.pool[e].next;
        }
        scratch.lists[slot] = (NIL, NIL);
        scratch.occupied[slot >> 6] &= !(1 << (slot & 63));
        if queued == 0 {
            break;
        }
        // Jump to the next occupied bucket, cyclically.
        let occupied = &scratch.occupied;
        let mut word = slot >> 6;
        let mut bits = occupied[word] & (!0 << (slot & 63));
        while bits == 0 {
            word = (word + 1) & (occupied.len() - 1);
            bits = occupied[word];
        }
        let next = word << 6 | bits.trailing_zeros() as usize;
        cur += (next.wrapping_sub(slot) & mask) as u64;
        slot = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::shortest_paths;
    use crate::units::Bandwidth;
    use crate::NodeId;

    fn diamond() -> Graph {
        let mut g = Graph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0)).collect();
        g.add_edge(n[0], n[1], 1.0, Bandwidth::T1).unwrap();
        g.add_edge(n[0], n[2], 2.0, Bandwidth::T1).unwrap();
        g.add_edge(n[1], n[3], 2.0, Bandwidth::T1).unwrap();
        g.add_edge(n[2], n[3], 0.5, Bandwidth::T1).unwrap();
        g
    }

    #[test]
    fn csr_mirrors_adjacency() {
        let g = diamond();
        let csr = CsrAdjacency::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        for u in g.nodes() {
            assert_eq!(csr.degree(u.index()), g.degree(u));
            let (targets, weights) = csr.neighbors(u.index());
            let expect: Vec<(u32, f64)> = g
                .neighbors(u)
                .map(|e| (e.target.index() as u32, e.latency))
                .collect();
            let got: Vec<(u32, f64)> = targets
                .iter()
                .copied()
                .zip(weights.iter().copied())
                .collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn dijkstra_matches_reference_and_reuses_scratch() {
        let g = diamond();
        let csr = CsrAdjacency::from_graph(&g);
        let mut scratch = DijkstraScratch::new(&csr);
        let mut row = vec![0.0; 4];
        // Same scratch across all sources must not leak state.
        for src in 0..4 {
            dijkstra_into(&csr, src, &mut row, &mut scratch);
            let reference = shortest_paths(&g, NodeId::new(src));
            for (v, &got) in row.iter().enumerate() {
                let expect = reference.distance(NodeId::new(v)).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "src {src} v {v}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut g = Graph::new();
        let csr = CsrAdjacency::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        g.add_node(1.0);
        let csr = CsrAdjacency::from_graph(&g);
        let mut row = vec![9.0];
        dijkstra_into(&csr, 0, &mut row, &mut DijkstraScratch::new(&csr));
        assert_eq!(row, vec![0.0]);
    }
}
