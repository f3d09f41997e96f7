//! Strongly-typed identifiers for graph entities.
//!
//! Using newtypes instead of bare `usize` prevents an entire class of bugs
//! where a node index is accidentally used as an edge index (or as a server
//! index in the higher layers).

use std::fmt;

/// Identifier of a substrate node.
///
/// `NodeId`s are dense indices assigned in insertion order, so they can be
/// used to index per-node arrays (`Vec<T>` of length `graph.node_count()`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a `NodeId` from a raw index.
    ///
    /// Mostly useful in tests and deserialization; in normal code `NodeId`s
    /// come from [`crate::Graph::add_node`].
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Creates a `NodeId` from a raw index, or `None` when the index does
    /// not fit an id (where [`NodeId::new`] would truncate it). Parsers of
    /// untrusted ids use this.
    #[inline]
    pub fn try_new(index: usize) -> Option<Self> {
        u32::try_from(index).ok().map(NodeId)
    }

    /// The raw dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a substrate link.
///
/// Dense indices in insertion order, usable for per-edge arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Creates an `EdgeId` from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(index as u32)
    }

    /// The raw dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(9));
    }
}
