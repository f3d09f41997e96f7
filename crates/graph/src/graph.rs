//! The substrate graph data structure.
//!
//! [`Graph`] is an undirected simple graph with:
//!
//! * per-node *strength* `ω(v)` (used by the load function),
//! * per-edge *latency* `λ(e)` (used by the access-cost model) and
//!   *bandwidth* `ω(e)`,
//! * dense `NodeId`/`EdgeId` indices, adjacency lists for O(deg) neighbor
//!   iteration, and an edge-existence index for O(1) duplicate detection.

use std::collections::HashMap;

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use crate::units::{Bandwidth, Latency, Strength};

/// Internal node record.
#[derive(Clone, Debug)]
struct NodeData {
    strength: Strength,
    /// Optional human-readable label (city name for Rocketfuel-like
    /// topologies; empty otherwise).
    label: String,
    /// Adjacency: (neighbor, edge id).
    adjacency: Vec<(NodeId, EdgeId)>,
}

/// Internal edge record.
#[derive(Clone, Debug)]
struct EdgeData {
    endpoints: (NodeId, NodeId),
    latency: Latency,
    bandwidth: Bandwidth,
}

/// A borrowed view of one edge, as yielded by [`Graph::edges`] and
/// [`Graph::neighbors`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef {
    /// Edge identifier.
    pub id: EdgeId,
    /// First endpoint (insertion order, not meaningful for undirected edges).
    pub source: NodeId,
    /// Second endpoint.
    pub target: NodeId,
    /// Link latency `λ(e)` in milliseconds.
    pub latency: Latency,
    /// Link bandwidth capacity `ω(e)`.
    pub bandwidth: Bandwidth,
}

/// An undirected, simple, weighted substrate network graph.
///
/// Nodes and edges are append-only: the substrate topology is fixed for the
/// lifetime of a simulation (the *demand* moves, not the network), so no
/// removal API is provided. This keeps `NodeId`s dense and stable, which the
/// simulation layers exploit for flat per-node arrays.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// (min(u,v), max(u,v)) -> edge id, for O(1) duplicate/lookup.
    edge_index: HashMap<(NodeId, NodeId), EdgeId>,
    /// The largest node strength (0 while the graph is empty).
    max_strength: Strength,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_index: HashMap::with_capacity(edges),
            max_strength: 0.0,
        }
    }

    /// Adds a node with strength `ω(v)` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is not finite and strictly positive; use
    /// [`Graph::try_add_node`] for a fallible variant.
    pub fn add_node(&mut self, strength: Strength) -> NodeId {
        self.try_add_node(strength)
            .expect("node strength must be finite and > 0")
    }

    /// Fallible variant of [`Graph::add_node`].
    pub fn try_add_node(&mut self, strength: Strength) -> Result<NodeId, GraphError> {
        if !strength.is_finite() || strength <= 0.0 {
            return Err(GraphError::InvalidStrength(strength));
        }
        let id = NodeId::new(self.nodes.len());
        self.max_strength = self.max_strength.max(strength);
        self.nodes.push(NodeData {
            strength,
            label: String::new(),
            adjacency: Vec::new(),
        });
        Ok(id)
    }

    /// Adds a labeled node (e.g. a PoP city name).
    pub fn add_labeled_node(
        &mut self,
        strength: Strength,
        label: impl Into<String>,
    ) -> Result<NodeId, GraphError> {
        let id = self.try_add_node(strength)?;
        self.nodes[id.index()].label = label.into();
        Ok(id)
    }

    /// Adds an undirected edge `{u, v}` with the given latency and bandwidth.
    pub fn add_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        latency: Latency,
        bandwidth: Bandwidth,
    ) -> Result<EdgeId, GraphError> {
        if u.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(u));
        }
        if v.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !latency.is_finite() || latency < 0.0 {
            return Err(GraphError::InvalidLatency(latency));
        }
        let key = Self::edge_key(u, v);
        if self.edge_index.contains_key(&key) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(EdgeData {
            endpoints: (u, v),
            latency,
            bandwidth,
        });
        self.edge_index.insert(key, id);
        self.nodes[u.index()].adjacency.push((v, id));
        self.nodes[v.index()].adjacency.push((u, id));
        Ok(id)
    }

    #[inline]
    fn edge_key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph contains no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is a valid node of this graph.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Node strength `ω(v)`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    #[inline]
    pub fn strength(&self, v: NodeId) -> Strength {
        self.nodes[v.index()].strength
    }

    /// The largest node strength, `max_v ω(v)` (0 for an empty graph).
    #[inline]
    pub fn max_strength(&self) -> Strength {
        self.max_strength
    }

    /// The node's human-readable label, if any.
    pub fn label(&self, v: NodeId) -> &str {
        &self.nodes[v.index()].label
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.nodes[v.index()].adjacency.len()
    }

    /// Iterates over all node ids in dense order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over the edges incident to `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes[v.index()].adjacency.iter().map(move |&(w, e)| {
            let data = &self.edges[e.index()];
            EdgeRef {
                id: e,
                source: v,
                target: w,
                latency: data.latency,
                bandwidth: data.bandwidth,
            }
        })
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.edges.iter().enumerate().map(|(i, data)| EdgeRef {
            id: EdgeId::new(i),
            source: data.endpoints.0,
            target: data.endpoints.1,
            latency: data.latency,
            bandwidth: data.bandwidth,
        })
    }

    /// Looks up the edge between `u` and `v`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeRef> {
        let id = *self.edge_index.get(&Self::edge_key(u, v))?;
        let data = &self.edges[id.index()];
        Some(EdgeRef {
            id,
            source: data.endpoints.0,
            target: data.endpoints.1,
            latency: data.latency,
            bandwidth: data.bandwidth,
        })
    }

    /// Latency of the edge between `u` and `v`, if present.
    pub fn edge_latency(&self, u: NodeId, v: NodeId) -> Option<Latency> {
        self.find_edge(u, v).map(|e| e.latency)
    }

    /// Total latency summed over all edges (used in sanity checks and
    /// generator tests).
    pub fn total_latency(&self) -> f64 {
        self.edges.iter().map(|e| e.latency).sum()
    }

    /// Replaces the latency of the edge between `u` and `v`, returning the
    /// previous value.
    ///
    /// This is the one mutation the otherwise append-only substrate
    /// supports: substrate *events* (link failure, recovery, degradation)
    /// change link latencies while the node/edge structure — and with it
    /// every dense id — stays fixed. Unlike [`Graph::add_edge`], a latency
    /// of `f64::INFINITY` is accepted here: it marks a **failed** link,
    /// which shortest-path machinery treats exactly like an absent edge.
    /// `NaN` and negative latencies are rejected.
    ///
    /// Changing a latency changes [`Graph::fingerprint`], so checkpoints
    /// taken after an event only resume against a substrate with the same
    /// event history applied.
    pub fn set_edge_latency(
        &mut self,
        u: NodeId,
        v: NodeId,
        latency: Latency,
    ) -> Result<Latency, GraphError> {
        if latency.is_nan() || latency < 0.0 {
            return Err(GraphError::InvalidLatency(latency));
        }
        let id = self
            .edge_index
            .get(&Self::edge_key(u, v))
            .copied()
            .ok_or(GraphError::UnknownEdge(u, v))?;
        let old = self.edges[id.index()].latency;
        self.edges[id.index()].latency = latency;
        Ok(old)
    }

    /// Content fingerprint of the substrate: an FNV-1a hash over node
    /// strengths and every edge's endpoints, latency bits and bandwidth.
    ///
    /// Two graphs built by the same seeded generator hash identically, so
    /// the experiment layers use this to key distance-matrix caches and to
    /// record substrate provenance in result manifests without serializing
    /// the whole graph.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.nodes.len() as u64);
        for n in &self.nodes {
            mix(n.strength.to_bits());
        }
        mix(self.edges.len() as u64);
        for e in &self.edges {
            mix(e.endpoints.0.index() as u64);
            mix(e.endpoints.1.index() as u64);
            mix(e.latency.to_bits());
            mix(match e.bandwidth {
                Bandwidth::T1 => 1,
                Bandwidth::T2 => 2,
                Bandwidth::Custom(mbps) => mbps.to_bits(),
            });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(3.0);
        g.add_edge(a, b, 1.0, Bandwidth::T1).unwrap();
        g.add_edge(b, c, 2.0, Bandwidth::T2).unwrap();
        g.add_edge(a, c, 4.0, Bandwidth::T1).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn counts_and_strengths() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.strength(a), 1.0);
        assert_eq!(g.strength(b), 2.0);
        assert_eq!(g.strength(c), 3.0);
        assert_eq!(g.max_strength(), 3.0);
        assert_eq!(Graph::new().max_strength(), 0.0);
    }

    #[test]
    fn degree_and_neighbors() {
        let (g, a, b, _c) = triangle();
        assert_eq!(g.degree(a), 2);
        let mut ns: Vec<_> = g.neighbors(a).map(|e| e.target).collect();
        ns.sort();
        assert_eq!(ns, vec![b, NodeId::new(2)]);
        // neighbor view reports the querying node as source
        for e in g.neighbors(b) {
            assert_eq!(e.source, b);
        }
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let (g, a, b, _) = triangle();
        assert_eq!(g.edge_latency(a, b), Some(1.0));
        assert_eq!(g.edge_latency(b, a), Some(1.0));
        assert_eq!(g.edge_latency(a, NodeId::new(2)), Some(4.0));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        assert_eq!(
            g.add_edge(a, a, 1.0, Bandwidth::T1),
            Err(GraphError::SelfLoop(a))
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_direction() {
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        g.add_edge(a, b, 1.0, Bandwidth::T1).unwrap();
        assert!(matches!(
            g.add_edge(a, b, 2.0, Bandwidth::T1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            g.add_edge(b, a, 2.0, Bandwidth::T1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        let ghost = NodeId::new(9);
        assert_eq!(
            g.add_edge(a, ghost, 1.0, Bandwidth::T1),
            Err(GraphError::UnknownNode(ghost))
        );
    }

    #[test]
    fn rejects_bad_latency_and_strength() {
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        assert!(matches!(
            g.add_edge(a, b, f64::NAN, Bandwidth::T1),
            Err(GraphError::InvalidLatency(_))
        ));
        assert!(matches!(
            g.add_edge(a, b, -0.5, Bandwidth::T1),
            Err(GraphError::InvalidLatency(_))
        ));
        assert!(matches!(
            g.try_add_node(0.0),
            Err(GraphError::InvalidStrength(_))
        ));
        assert!(matches!(
            g.try_add_node(f64::INFINITY),
            Err(GraphError::InvalidStrength(_))
        ));
    }

    #[test]
    fn labels() {
        let mut g = Graph::new();
        let a = g.add_labeled_node(1.0, "New York").unwrap();
        let b = g.add_node(1.0);
        assert_eq!(g.label(a), "New York");
        assert_eq!(g.label(b), "");
    }

    #[test]
    fn zero_latency_edges_allowed() {
        // Intra-PoP links in ISP topologies can have ~0 latency.
        let mut g = Graph::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        assert!(g.add_edge(a, b, 0.0, Bandwidth::T2).is_ok());
    }

    #[test]
    fn edges_iterator_yields_all() {
        let (g, ..) = triangle();
        assert_eq!(g.edges().count(), 3);
        let total: f64 = g.edges().map(|e| e.latency).sum();
        assert_eq!(total, 7.0);
        assert_eq!(g.total_latency(), 7.0);
    }

    #[test]
    fn set_edge_latency_mutates_and_guards() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.set_edge_latency(a, b, 5.0), Ok(1.0));
        assert_eq!(g.edge_latency(b, a), Some(5.0));
        // A failed link is an infinite latency; restoring it round-trips.
        assert_eq!(g.set_edge_latency(b, a, f64::INFINITY), Ok(5.0));
        assert_eq!(g.edge_latency(a, b), Some(f64::INFINITY));
        assert_eq!(g.set_edge_latency(a, b, 1.0), Ok(f64::INFINITY));
        assert!(matches!(
            g.set_edge_latency(a, b, f64::NAN),
            Err(GraphError::InvalidLatency(_))
        ));
        assert!(matches!(
            g.set_edge_latency(a, b, -1.0),
            Err(GraphError::InvalidLatency(_))
        ));
        assert!(matches!(
            g.set_edge_latency(a, NodeId::new(9), 1.0),
            Err(GraphError::UnknownEdge(_, _))
        ));
    }

    #[test]
    fn set_edge_latency_changes_fingerprint_reversibly() {
        let (mut g, a, b, _) = triangle();
        let before = g.fingerprint();
        g.set_edge_latency(a, b, 3.0).unwrap();
        assert_ne!(before, g.fingerprint());
        g.set_edge_latency(a, b, 1.0).unwrap();
        assert_eq!(before, g.fingerprint());
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let (g1, ..) = triangle();
        let (g2, ..) = triangle();
        assert_eq!(g1.fingerprint(), g2.fingerprint());

        let mut g3 = g1.clone();
        let d = g3.add_node(1.0);
        assert_ne!(g1.fingerprint(), g3.fingerprint());
        g3.add_edge(NodeId::new(0), d, 9.0, Bandwidth::T2).unwrap();
        let with_edge = g3.fingerprint();

        // Same structure but a different latency must hash differently.
        let (mut g4, a, ..) = triangle();
        let d4 = g4.add_node(1.0);
        g4.add_edge(a, d4, 9.5, Bandwidth::T2).unwrap();
        assert_ne!(with_edge, g4.fingerprint());
    }
}
