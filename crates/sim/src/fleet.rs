//! The server fleet state machine.
//!
//! Each of the at most `k` servers is *not in use*, *inactive*, or *active*
//! (§II-C). Active servers are tracked as the set of nodes hosting them;
//! inactive servers live in a FIFO queue of constant capacity ("size 3 in
//! our simulations") whose entries expire after a configurable number of
//! epochs ("x = 20 in our simulation"). Servers falling out of the queue —
//! by eviction or expiry — are no longer in use.

use std::collections::VecDeque;

use flexserve_graph::NodeId;

use crate::params::CostParams;

/// One cached inactive server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InactiveServer {
    /// Node hosting the inactive server.
    pub node: NodeId,
    /// Epoch index at which this entry expires (exclusive: the server is
    /// dropped once the fleet's epoch reaches this value).
    pub expires_epoch: u64,
}

/// The fleet: active servers + the FIFO cache of inactive servers.
#[derive(Clone, Debug)]
pub struct Fleet {
    active: Vec<NodeId>,
    /// Front = oldest (first to be replaced, per the paper).
    inactive: VecDeque<InactiveServer>,
    epoch: u64,
    queue_cap: usize,
    expiry_epochs: u64,
    max_servers: usize,
}

impl Fleet {
    /// Creates a fleet with the given initially *active* servers (no
    /// creation cost is charged for the initial configuration `γ0`) and the
    /// queue parameters from `params`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_active` contains duplicates or exceeds
    /// `params.max_servers`.
    pub fn new(mut initial_active: Vec<NodeId>, params: &CostParams) -> Self {
        initial_active.sort();
        let before = initial_active.len();
        initial_active.dedup();
        assert_eq!(before, initial_active.len(), "duplicate initial servers");
        assert!(
            initial_active.len() <= params.max_servers,
            "initial fleet exceeds max_servers"
        );
        Fleet {
            active: initial_active,
            inactive: VecDeque::new(),
            epoch: 0,
            queue_cap: params.inactive_queue_len,
            expiry_epochs: params.inactive_expiry_epochs,
            max_servers: params.max_servers,
        }
    }

    /// Reconstructs a fleet from checkpointed state: the active set, the
    /// inactive queue (oldest first, with absolute expiry epochs) and the
    /// epoch counter. Validates the same invariants [`Fleet::new`] and the
    /// queue discipline maintain, so a hand-edited or corrupted checkpoint
    /// is rejected instead of resumed into an unreachable state. That
    /// includes an empty active set: the game never removes the last
    /// server, and the strategies measure from one.
    pub fn from_parts(
        mut active: Vec<NodeId>,
        inactive: Vec<InactiveServer>,
        epoch: u64,
        params: &CostParams,
    ) -> Result<Self, String> {
        if active.is_empty() {
            return Err("fleet: no active server".into());
        }
        active.sort();
        let before = active.len();
        active.dedup();
        if active.len() != before {
            return Err("fleet: duplicate active servers".into());
        }
        if inactive.len() > params.inactive_queue_len {
            return Err(format!(
                "fleet: {} inactive servers exceed the queue capacity {}",
                inactive.len(),
                params.inactive_queue_len
            ));
        }
        if active.len() + inactive.len() > params.max_servers {
            return Err(format!(
                "fleet: {} servers exceed the k={} budget",
                active.len() + inactive.len(),
                params.max_servers
            ));
        }
        for (i, s) in inactive.iter().enumerate() {
            if active.binary_search(&s.node).is_ok() {
                return Err(format!(
                    "fleet: node {} is both active and inactive",
                    s.node
                ));
            }
            if inactive[..i].iter().any(|prev| prev.node == s.node) {
                return Err(format!("fleet: duplicate inactive server at {}", s.node));
            }
            if s.expires_epoch <= epoch {
                return Err(format!(
                    "fleet: inactive server at {} already expired (epoch {epoch})",
                    s.node
                ));
            }
        }
        Ok(Fleet {
            active,
            inactive: inactive.into(),
            epoch,
            queue_cap: params.inactive_queue_len,
            expiry_epochs: params.inactive_expiry_epochs,
            max_servers: params.max_servers,
        })
    }

    /// Sorted slice of nodes hosting active servers.
    #[inline]
    pub fn active(&self) -> &[NodeId] {
        &self.active
    }

    /// Nodes hosting inactive servers, oldest first.
    pub fn inactive_nodes(&self) -> Vec<NodeId> {
        self.inactive.iter().map(|s| s.node).collect()
    }

    /// The inactive queue entries, oldest first.
    pub fn inactive_entries(&self) -> impl Iterator<Item = &InactiveServer> {
        self.inactive.iter()
    }

    /// Number of active servers (`k_cur` in the paper's ONTH condition).
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of cached inactive servers.
    #[inline]
    pub fn inactive_count(&self) -> usize {
        self.inactive.len()
    }

    /// Total servers in use (active + inactive) — bounded by `k`.
    #[inline]
    pub fn total_count(&self) -> usize {
        self.active.len() + self.inactive.len()
    }

    /// The configured maximum number of servers `k`.
    #[inline]
    pub fn max_servers(&self) -> usize {
        self.max_servers
    }

    /// Current epoch index (drives inactive expiry).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether an active server sits on `node`.
    #[inline]
    pub fn is_active_at(&self, node: NodeId) -> bool {
        self.active.binary_search(&node).is_ok()
    }

    /// Whether an inactive server sits on `node`.
    pub fn is_inactive_at(&self, node: NodeId) -> bool {
        self.inactive.iter().any(|s| s.node == node)
    }

    /// Advances the epoch counter and expires stale inactive servers.
    /// Returns the nodes whose cached servers expired.
    pub fn advance_epoch(&mut self) -> Vec<NodeId> {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut expired = Vec::new();
        self.inactive.retain(|s| {
            if s.expires_epoch <= epoch {
                expired.push(s.node);
                false
            } else {
                true
            }
        });
        expired
    }

    // ------------------------------------------------------------------
    // Primitive mutations used by the transition planner. They maintain the
    // sorted-active invariant and the queue discipline but do not price
    // anything.
    // ------------------------------------------------------------------

    /// Adds an active server at `node`.
    ///
    /// # Panics
    ///
    /// Panics if a server (active) is already there or the `k` budget would
    /// be exceeded *after* accounting for possible queue evictions — the
    /// planner calls [`Fleet::make_room`] first.
    pub(crate) fn push_active(&mut self, node: NodeId) {
        match self.active.binary_search(&node) {
            Ok(_) => panic!("push_active: server already active at {node}"),
            Err(pos) => self.active.insert(pos, node),
        }
        assert!(
            self.total_count() <= self.max_servers,
            "fleet exceeded max_servers"
        );
    }

    /// Removes the active server at `node`; returns whether one was there.
    pub(crate) fn remove_active(&mut self, node: NodeId) -> bool {
        match self.active.binary_search(&node) {
            Ok(pos) => {
                self.active.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Moves the active server at `node` into the inactive queue (the
    /// paper's free deactivation). If the queue is full the *oldest* cached
    /// server falls out of use; its node is returned.
    pub(crate) fn deactivate(&mut self, node: NodeId) -> Option<NodeId> {
        assert!(self.remove_active(node), "deactivate: no active at {node}");
        let mut evicted = None;
        if self.queue_cap == 0 {
            return Some(node);
        }
        if self.inactive.len() == self.queue_cap {
            evicted = self.inactive.pop_front().map(|s| s.node);
        }
        self.inactive.push_back(InactiveServer {
            node,
            expires_epoch: self.epoch + self.expiry_epochs,
        });
        evicted
    }

    /// Removes the cached inactive server at `node` (activation in place or
    /// migration source); returns whether one was there.
    pub(crate) fn take_inactive_at(&mut self, node: NodeId) -> bool {
        if let Some(pos) = self.inactive.iter().position(|s| s.node == node) {
            self.inactive.remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns the *oldest* cached inactive server.
    pub(crate) fn take_oldest_inactive(&mut self) -> Option<NodeId> {
        self.inactive.pop_front().map(|s| s.node)
    }

    /// Evicts oldest inactive servers until `total_count() + incoming` fits
    /// the `k` budget. Returns the evicted nodes.
    pub(crate) fn make_room(&mut self, incoming: usize) -> Vec<NodeId> {
        let mut evicted = Vec::new();
        while self.total_count() + incoming > self.max_servers {
            match self.inactive.pop_front() {
                Some(s) => evicted.push(s.node),
                None => panic!(
                    "make_room: cannot fit {incoming} more servers (active {} / k {})",
                    self.active.len(),
                    self.max_servers
                ),
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(queue: usize, expiry: u64, k: usize) -> CostParams {
        CostParams {
            inactive_queue_len: queue,
            inactive_expiry_epochs: expiry,
            max_servers: k,
            ..CostParams::default()
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn initial_state() {
        let f = Fleet::new(vec![n(3), n(1)], &params(3, 20, 8));
        assert_eq!(f.active(), &[n(1), n(3)]);
        assert_eq!(f.active_count(), 2);
        assert_eq!(f.inactive_count(), 0);
        assert!(f.is_active_at(n(1)));
        assert!(!f.is_active_at(n(2)));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_initial_rejected() {
        Fleet::new(vec![n(1), n(1)], &params(3, 20, 8));
    }

    #[test]
    fn deactivation_enters_fifo_queue() {
        let mut f = Fleet::new(vec![n(0), n(1), n(2), n(3)], &params(2, 20, 8));
        assert_eq!(f.deactivate(n(0)), None);
        assert_eq!(f.deactivate(n(1)), None);
        // queue full (cap 2): deactivating n2 evicts the oldest (n0)
        assert_eq!(f.deactivate(n(2)), Some(n(0)));
        assert_eq!(f.inactive_nodes(), vec![n(1), n(2)]);
        assert_eq!(f.active(), &[n(3)]);
    }

    #[test]
    fn zero_capacity_queue_drops_immediately() {
        let mut f = Fleet::new(vec![n(0), n(1)], &params(0, 20, 8));
        assert_eq!(f.deactivate(n(0)), Some(n(0)));
        assert_eq!(f.inactive_count(), 0);
    }

    #[test]
    fn expiry_after_epochs() {
        let mut f = Fleet::new(vec![n(0), n(1)], &params(3, 2, 8));
        f.deactivate(n(0));
        assert_eq!(f.advance_epoch(), Vec::<NodeId>::new()); // epoch 1
        assert_eq!(f.advance_epoch(), vec![n(0)]); // epoch 2: expired
        assert_eq!(f.inactive_count(), 0);
    }

    #[test]
    fn take_inactive() {
        let mut f = Fleet::new(vec![n(0), n(1), n(2)], &params(3, 20, 8));
        f.deactivate(n(0));
        f.deactivate(n(1));
        assert!(f.take_inactive_at(n(1)));
        assert!(!f.take_inactive_at(n(1)));
        assert_eq!(f.take_oldest_inactive(), Some(n(0)));
        assert_eq!(f.take_oldest_inactive(), None);
    }

    #[test]
    fn make_room_evicts_oldest() {
        let mut f = Fleet::new(vec![n(0), n(1), n(2)], &params(3, 20, 4));
        f.deactivate(n(0)); // active 2, inactive 1, total 3
        let evicted = f.make_room(2); // need total+2 <= 4 -> evict 1
        assert_eq!(evicted, vec![n(0)]);
        assert_eq!(f.total_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn make_room_panics_when_actives_exceed() {
        let mut f = Fleet::new(vec![n(0), n(1)], &params(3, 20, 2));
        f.make_room(1);
    }

    #[test]
    fn push_and_remove_active_keep_sorted() {
        let mut f = Fleet::new(vec![n(5)], &params(3, 20, 8));
        f.push_active(n(2));
        f.push_active(n(9));
        assert_eq!(f.active(), &[n(2), n(5), n(9)]);
        assert!(f.remove_active(n(5)));
        assert!(!f.remove_active(n(5)));
        assert_eq!(f.active(), &[n(2), n(9)]);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_push_panics() {
        let mut f = Fleet::new(vec![n(1)], &params(3, 20, 8));
        f.push_active(n(1));
    }

    #[test]
    fn from_parts_round_trips_live_state() {
        let p = params(3, 20, 8);
        let mut f = Fleet::new(vec![n(0), n(1), n(4)], &p);
        f.deactivate(n(1));
        f.advance_epoch();
        let rebuilt = Fleet::from_parts(
            f.active().to_vec(),
            f.inactive_entries().copied().collect(),
            f.epoch(),
            &p,
        )
        .unwrap();
        assert_eq!(rebuilt.active(), f.active());
        assert_eq!(rebuilt.inactive_nodes(), f.inactive_nodes());
        assert_eq!(rebuilt.epoch(), f.epoch());
        // the queue discipline continues identically
        let mut a = f.clone();
        let mut b = rebuilt;
        assert_eq!(a.advance_epoch(), b.advance_epoch());
        assert_eq!(a.deactivate(n(0)), b.deactivate(n(0)));
    }

    #[test]
    fn from_parts_rejects_corrupt_state() {
        let p = params(2, 20, 4);
        let inact = |node: usize, exp: u64| InactiveServer {
            node: n(node),
            expires_epoch: exp,
        };
        // duplicate actives, or none
        assert!(Fleet::from_parts(vec![n(1), n(1)], vec![], 0, &p).is_err());
        assert!(Fleet::from_parts(vec![], vec![inact(1, 9)], 0, &p).is_err());
        // queue over capacity
        assert!(Fleet::from_parts(
            vec![n(0)],
            vec![inact(1, 9), inact(2, 9), inact(3, 9)],
            0,
            &p
        )
        .is_err());
        // over the k budget
        let p1 = params(3, 20, 2);
        assert!(Fleet::from_parts(vec![n(0), n(1)], vec![inact(2, 9)], 0, &p1).is_err());
        // node both active and inactive
        assert!(Fleet::from_parts(vec![n(0)], vec![inact(0, 9)], 0, &p).is_err());
        // duplicate inactive entries
        assert!(Fleet::from_parts(vec![n(0)], vec![inact(1, 9), inact(1, 8)], 0, &p).is_err());
        // already-expired cache entry
        assert!(Fleet::from_parts(vec![n(0)], vec![inact(1, 3)], 5, &p).is_err());
    }
}
