//! Request batches: the multi-set `σt` of access points issuing requests in
//! one round.

use flexserve_graph::NodeId;

/// The requests of one round: a multi-set of access-point origins.
///
/// The paper defines `σt` as a multi-set of tuples `(a ∈ A, S ∈ S)`; with a
/// single replicated service (the paper's evaluation setting) only the
/// access point matters, so a batch is a bag of origins.
///
/// The canonical representation is the **folded, sorted per-origin count
/// vector** — exactly what routing, the strategies' epoch windows and the
/// offline DPs consume. Storing counts (instead of a raw origin list)
/// means every consumer reads the same dense vector the demand plane
/// materialized once, nothing re-sorts per strategy, and the float
/// accumulation order downstream is deterministic by construction.
/// Equality is therefore multi-set equality, and iteration order is
/// origin order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRequests {
    /// Sorted, deduplicated `(origin, count)` pairs; counts are >= 1.
    counts: Vec<(NodeId, usize)>,
    /// Total requests (sum of counts).
    total: usize,
}

impl RoundRequests {
    /// Creates a batch from raw origins (multiplicity by repetition).
    pub fn new(mut origins: Vec<NodeId>) -> Self {
        // Sorted in place, each run of equal origins is one count.
        origins.sort_unstable();
        let counts = origins
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .collect();
        RoundRequests {
            total: origins.len(),
            counts,
        }
    }

    /// Creates a batch directly from `(origin, count)` pairs (any order;
    /// duplicates are merged, zero counts dropped).
    pub fn from_counts(mut counts: Vec<(NodeId, usize)>) -> Self {
        counts.retain(|&(_, c)| c > 0);
        fold_counts(&mut counts);
        let total = counts.iter().map(|&(_, c)| c).sum();
        RoundRequests { counts, total }
    }

    /// An empty batch (a round with no demand).
    pub fn empty() -> Self {
        RoundRequests::default()
    }

    /// Number of requests in this round (`|σt|`, counting multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the round has no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates over the origins with multiplicity, in origin order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.counts
            .iter()
            .flat_map(|&(o, c)| std::iter::repeat_n(o, c))
    }

    /// The folded per-origin counts, sorted by origin id — a borrow of
    /// the canonical representation. This is the hot-path accessor:
    /// routing and the DP layers read it without allocating or sorting.
    #[inline]
    pub fn counts_slice(&self) -> &[(NodeId, usize)] {
        &self.counts
    }

    /// Request count per access point (origins with multiplicity folded),
    /// sorted by origin id. Allocates a copy; prefer
    /// [`counts_slice`](Self::counts_slice) on hot paths.
    pub fn counts(&self) -> Vec<(NodeId, usize)> {
        self.counts.clone()
    }

    /// Allocation-reusing variant of [`RoundRequests::counts`]: clears
    /// `out` and fills it with the sorted per-origin counts.
    pub fn counts_into(&self, out: &mut Vec<(NodeId, usize)>) {
        out.clear();
        out.extend_from_slice(&self.counts);
    }

    /// Distinct access points used this round.
    pub fn distinct_origins(&self) -> usize {
        self.counts.len()
    }

    /// Appends a request. Keeps the counts canonical via sorted insert —
    /// O(distinct origins) worst case per call, so bulk construction
    /// should go through [`new`](Self::new) or
    /// [`from_counts`](Self::from_counts) (one sort + fold) instead of a
    /// push loop.
    pub fn push(&mut self, origin: NodeId) {
        self.push_many(origin, 1);
    }

    /// Appends `count` requests from the same origin (same cost note as
    /// [`push`](Self::push)).
    pub fn push_many(&mut self, origin: NodeId, count: usize) {
        if count == 0 {
            return;
        }
        self.total += count;
        match self.counts.binary_search_by_key(&origin, |&(o, _)| o) {
            Ok(i) => self.counts[i].1 += count,
            Err(i) => self.counts.insert(i, (origin, count)),
        }
    }

    /// Approximate heap footprint, used by the trace cache's byte budget.
    pub fn memory_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<(NodeId, usize)>()
    }
}

/// Sorts `counts` by origin and merges duplicate origins in place.
fn fold_counts(counts: &mut Vec<(NodeId, usize)>) {
    counts.sort_unstable_by_key(|&(o, _)| o);
    counts.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });
}

impl FromIterator<NodeId> for RoundRequests {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        RoundRequests::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fold_multiplicity() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let r = RoundRequests::new(vec![b, a, a, a]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct_origins(), 2);
        // sorted by origin regardless of arrival order
        assert_eq!(r.counts(), vec![(a, 3), (b, 1)]);
        assert_eq!(r.counts_slice(), &[(a, 3), (b, 1)]);
    }

    #[test]
    fn push_many() {
        let mut r = RoundRequests::empty();
        assert!(r.is_empty());
        r.push_many(NodeId::new(5), 7);
        r.push(NodeId::new(2));
        r.push_many(NodeId::new(5), 0); // no-op
        assert_eq!(r.len(), 8);
        assert_eq!(r.counts(), vec![(NodeId::new(2), 1), (NodeId::new(5), 7)]);
    }

    #[test]
    fn counts_into_reuses_buffer() {
        let mut buf = Vec::new();
        let r = RoundRequests::new(vec![NodeId::new(3); 5]);
        r.counts_into(&mut buf);
        assert_eq!(buf, vec![(NodeId::new(3), 5)]);
        let cap = buf.capacity();
        RoundRequests::empty().counts_into(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "buffer was reallocated");
    }

    #[test]
    fn from_counts_canonicalizes() {
        let n = NodeId::new;
        let r = RoundRequests::from_counts(vec![(n(9), 2), (n(1), 3), (n(9), 1), (n(4), 0)]);
        assert_eq!(r.counts_slice(), &[(n(1), 3), (n(9), 3)]);
        assert_eq!(r.len(), 6);
        // equal as a multi-set to the origin-list construction
        assert_eq!(
            r,
            RoundRequests::new(vec![n(9), n(1), n(9), n(1), n(1), n(9)])
        );
    }

    #[test]
    fn iter_expands_in_origin_order() {
        let n = NodeId::new;
        let r = RoundRequests::new(vec![n(7), n(2), n(7)]);
        let expanded: Vec<NodeId> = r.iter().collect();
        assert_eq!(expanded, vec![n(2), n(7), n(7)]);
    }

    #[test]
    fn from_iterator() {
        let r: RoundRequests = (0..4).map(NodeId::new).collect();
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct_origins(), 4);
    }
}
