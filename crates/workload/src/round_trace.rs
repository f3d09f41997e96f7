//! The materialized demand plane: [`RoundTrace`].
//!
//! A `RoundTrace` is an **immutable, seed-deterministic sequence of
//! per-round sorted origin counts** — the shared input of the placement
//! plane. Any demand producer lowers into it:
//!
//! * a [`Scenario`] via [`record`](crate::scenario::record) or
//!   [`RoundTrace::record`],
//! * any streaming [`RequestSource`] (JSONL replay files included) via
//!   [`RoundTrace::from_source`],
//! * explicit rounds via [`RoundTrace::new`].
//!
//! Rounds are stored behind an [`Arc`], so **cloning a trace is O(1)**:
//! a figure cell evaluating several strategies against the same demand
//! shares one materialization instead of regenerating (and re-sorting)
//! the workload per strategy, and the offline strategies' by-value trace
//! ownership costs a reference count, not a copy. [`RoundTrace::slice`]
//! returns a clamped **view** over the same storage — the resume path
//! slices instead of copying.
//!
//! Since every round is a [`RoundRequests`] in canonical sorted-count
//! form, sharing a trace can never change results: the placement plane
//! reads the exact count vectors an independent recording would produce
//! (pinned bitwise by `crates/experiments/tests/trace_equivalence.rs`).

use std::sync::Arc;

use crate::request::RoundRequests;
use crate::scenario::Scenario;
use crate::stream::{round_to_jsonl, RequestSource};

/// A fully materialized request sequence `σ0 … σ(T-1)` in per-round
/// sorted-count form, shareable by `Arc` and sliceable for resume.
#[derive(Clone, Debug)]
pub struct RoundTrace {
    rounds: Arc<[RoundRequests]>,
    /// The view window `[start, end)` into `rounds` (whole trace unless
    /// [`slice`](Self::slice)d).
    start: usize,
    end: usize,
}

impl Default for RoundTrace {
    fn default() -> Self {
        RoundTrace::new(Vec::new())
    }
}

impl PartialEq for RoundTrace {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RoundTrace {}

impl RoundTrace {
    /// Wraps an explicit sequence of rounds.
    pub fn new(rounds: Vec<RoundRequests>) -> Self {
        let rounds: Arc<[RoundRequests]> = rounds.into();
        RoundTrace {
            start: 0,
            end: rounds.len(),
            rounds,
        }
    }

    /// Records `rounds` rounds of a scenario.
    pub fn record<S: Scenario + ?Sized>(scenario: &mut S, rounds: u64) -> Self {
        let mut out = Vec::with_capacity(rounds as usize);
        for t in 0..rounds {
            out.push(scenario.requests(t));
        }
        RoundTrace::new(out)
    }

    /// Lowers a streaming source into a trace: rounds are pulled until the
    /// source is exhausted or `limit` rounds were read. This is how a
    /// JSONL replay file becomes a first-class demand trace.
    pub fn from_source(source: &mut dyn RequestSource, limit: Option<u64>) -> Result<Self, String> {
        let mut out = Vec::new();
        while limit.is_none_or(|l| (out.len() as u64) < l) {
            match source.next_round()? {
                Some(batch) => out.push(batch),
                None => break,
            }
        }
        Ok(RoundTrace::new(out))
    }

    /// The viewed rounds.
    #[inline]
    fn as_slice(&self) -> &[RoundRequests] {
        &self.rounds[self.start..self.end]
    }

    /// Number of rounds in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the trace (view) has no rounds.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The requests of round `t` (relative to the view).
    #[inline]
    pub fn round(&self, t: usize) -> &RoundRequests {
        &self.as_slice()[t]
    }

    /// Iterates over rounds in time order.
    pub fn iter(&self) -> impl Iterator<Item = &RoundRequests> {
        self.as_slice().iter()
    }

    /// Total number of requests over the whole trace (view).
    pub fn total_requests(&self) -> usize {
        self.iter().map(|r| r.len()).sum()
    }

    /// The sub-trace covering rounds `[from, to)` (clamped to the view).
    /// O(1): the result shares this trace's storage.
    pub fn slice(&self, from: usize, to: usize) -> RoundTrace {
        let to = to.min(self.len());
        let from = from.min(to);
        RoundTrace {
            rounds: Arc::clone(&self.rounds),
            start: self.start + from,
            end: self.start + to,
        }
    }

    /// Approximate heap footprint of the *backing storage* (not just the
    /// view): what holding this trace keeps resident.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rounds)
            + self.rounds.iter().map(|r| r.memory_bytes()).sum::<usize>()
    }

    /// Renders the viewed rounds in the JSONL replay schema (one
    /// `{"t":..,"origins":[..]}` object per line, trailing newline) — the
    /// `flexserve trace record` output, replayable by `source=<path>` and
    /// `wl=replay:<path>`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (t, round) in self.iter().enumerate() {
            out.push_str(&round_to_jsonl(t as u64, round));
            out.push('\n');
        }
        out
    }

    /// Packs the viewed rounds into an in-memory `flexserve-trace-v1`
    /// image (see [`packed`](crate::packed)) — the binary counterpart of
    /// [`to_jsonl`](Self::to_jsonl), readable by
    /// [`PackedTrace`](crate::packed::PackedTrace) and `wl=replay:<path>`.
    pub fn to_packed(&self) -> Vec<u8> {
        crate::packed::pack_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{JsonlReplay, Padded};
    use flexserve_graph::NodeId;

    struct CountUp;
    impl Scenario for CountUp {
        fn requests(&mut self, t: u64) -> RoundRequests {
            RoundRequests::new(vec![NodeId::new(t as usize); (t + 1) as usize])
        }
    }

    #[test]
    fn record_materializes_in_order() {
        let trace = RoundTrace::record(&mut CountUp, 4);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.round(0).len(), 1);
        assert_eq!(trace.round(3).len(), 4);
        assert_eq!(trace.total_requests(), 10);
    }

    #[test]
    fn clone_shares_storage() {
        let trace = RoundTrace::record(&mut CountUp, 6);
        let copy = trace.clone();
        assert_eq!(trace, copy);
        assert!(
            std::ptr::eq(trace.as_slice().as_ptr(), copy.as_slice().as_ptr()),
            "clone must share the Arc, not copy rounds"
        );
    }

    #[test]
    fn slice_is_a_clamped_view() {
        let trace = RoundTrace::record(&mut CountUp, 5);
        let s = trace.slice(2, 99);
        assert_eq!(s.len(), 3);
        assert_eq!(s.round(0).len(), 3);
        assert!(
            std::ptr::eq(trace.round(2), s.round(0)),
            "slices view the same storage"
        );
        let e = trace.slice(4, 2);
        assert!(e.is_empty());
        // nested slices compose
        let inner = s.slice(1, 3);
        assert_eq!(inner.len(), 2);
        assert_eq!(inner.round(0).len(), 4);
    }

    #[test]
    fn from_source_lowers_a_replay() {
        let text = "{\"t\":0,\"origins\":[1,1,0]}\n{\"t\":1,\"origins\":[2]}\n";
        let mut replay = JsonlReplay::new(text.as_bytes(), 5, "test");
        let trace = RoundTrace::from_source(&mut replay, None).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.round(0).counts_slice(),
            &[(NodeId::new(0), 1), (NodeId::new(1), 2)]
        );
        // the limit caps lowering
        let mut replay = JsonlReplay::new(text.as_bytes(), 5, "test");
        let capped = RoundTrace::from_source(&mut replay, Some(1)).unwrap();
        assert_eq!(capped.len(), 1);
        // errors propagate
        let mut bad = JsonlReplay::new("nope\n".as_bytes(), 5, "test");
        assert!(RoundTrace::from_source(&mut bad, None).is_err());
    }

    #[test]
    fn jsonl_round_trips_through_a_source() {
        let trace = RoundTrace::record(&mut CountUp, 3);
        let text = trace.to_jsonl();
        let mut replay = JsonlReplay::new(text.as_bytes(), 8, "round-trip");
        let back = RoundTrace::from_source(&mut replay, None).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn default_and_eq() {
        assert!(RoundTrace::default().is_empty());
        assert_eq!(RoundTrace::default(), RoundTrace::new(Vec::new()));
        // equality is by viewed contents, not identity
        let a = RoundTrace::record(&mut CountUp, 4);
        let b = RoundTrace::record(&mut CountUp, 4);
        assert_eq!(a, b);
        assert_eq!(a.slice(1, 3), b.slice(1, 3));
        assert_ne!(a, a.slice(0, 3));
    }

    #[test]
    fn trace_scenario_replays_then_runs_dry() {
        // A recorded trace replays through its JSONL form, padded past
        // its end with empty rounds up to the horizon.
        let trace = RoundTrace::record(&mut CountUp, 3);
        let text = trace.to_jsonl();
        let replay = JsonlReplay::new(std::io::Cursor::new(text), 8, "demo.jsonl");
        let mut padded = Padded::new(Box::new(replay), 5);
        for t in 0..3 {
            assert_eq!(&padded.next_round().unwrap().unwrap(), trace.round(t));
        }
        for _ in 3..5 {
            let round = padded.next_round().unwrap().unwrap();
            assert!(round.is_empty(), "past-the-end rounds are empty");
        }
        assert!(
            padded.next_round().unwrap().is_none(),
            "then the horizon ends"
        );
        assert!(padded.describe().contains("demo.jsonl"));
    }

    #[test]
    fn memory_bytes_counts_backing_storage() {
        let trace = RoundTrace::record(&mut CountUp, 4);
        assert!(trace.memory_bytes() > 0);
        assert_eq!(
            trace.memory_bytes(),
            trace.slice(0, 1).memory_bytes(),
            "views report the shared storage"
        );
    }
}
