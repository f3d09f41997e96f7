//! The [`Scenario`] abstraction and recorded traces.
//!
//! Online algorithms observe requests round by round; offline algorithms
//! (OPT, OFFBR, OFFTH, OFFSTAT) see the whole sequence at once. To make the
//! comparison exact, every experiment first *records* a scenario into a
//! [`RoundTrace`] and then feeds the same
//! trace to every algorithm — the trace is `Arc`-shared, so "every
//! algorithm" (and every strategy cell of a figure) literally reads one
//! materialization.

use crate::request::RoundRequests;
use crate::round_trace::RoundTrace;

/// A demand generator: produces the request multi-set `σt` for each round.
///
/// Implementations are deterministic given their construction-time seed, so
/// identical scenario objects replay identical demand. Scenarios are
/// `Send` so a serve session that streams one can be stepped from any
/// worker thread.
pub trait Scenario: Send {
    /// Requests arriving in round `t`. Rounds are queried in increasing
    /// order starting at 0; implementations may keep internal state.
    fn requests(&mut self, t: u64) -> RoundRequests;

    /// A short human-readable description used in experiment logs.
    fn describe(&self) -> String {
        "scenario".to_string()
    }
}

/// The historical name of [`RoundTrace`] — kept so the batch pipeline's
/// vocabulary (`record` a scenario into a `Trace`) keeps reading
/// naturally. Same type, same O(1) sharing semantics.
pub type Trace = RoundTrace;

/// Records `rounds` rounds of a scenario into a [`RoundTrace`].
pub fn record<S: Scenario + ?Sized>(scenario: &mut S, rounds: u64) -> RoundTrace {
    RoundTrace::record(scenario, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::NodeId;

    struct CountUp;
    impl Scenario for CountUp {
        fn requests(&mut self, t: u64) -> RoundRequests {
            RoundRequests::new(vec![NodeId::new(t as usize); (t + 1) as usize])
        }
    }

    #[test]
    fn record_materializes_in_order() {
        let trace = record(&mut CountUp, 4);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.round(0).len(), 1);
        assert_eq!(trace.round(3).len(), 4);
        assert_eq!(trace.total_requests(), 10);
    }

    #[test]
    fn slice_clamps() {
        let trace = record(&mut CountUp, 5);
        let s = trace.slice(2, 99);
        assert_eq!(s.len(), 3);
        assert_eq!(s.round(0).len(), 3);
        let e = trace.slice(4, 2);
        assert!(e.is_empty());
    }

    #[test]
    fn default_describe() {
        assert_eq!(CountUp.describe(), "scenario");
    }
}
