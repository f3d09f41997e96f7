//! The synchronous round-based game loop (§II-E of the paper).
//!
//! Two entry points:
//!
//! * [`run_online`] — plays the online game: each round the requests
//!   arrive, the algorithm pays access costs to the *current* servers, then
//!   reconfigures (paying migration/creation) and pays running costs.
//!   It plays the same round function as the resumable
//!   [`EventedSession`](crate::session::EventedSession), which the
//!   `flexserve serve` daemon drives round by round.
//! * [`run_plan`] — evaluates a precomputed per-round configuration plan
//!   (the output of the offline algorithms): the configuration for round
//!   `t` is applied *before* the round's requests are served, matching the
//!   DP recurrence of §IV-A. The paper notes that because a single round's
//!   requests are much cheaper than a migration, the two orderings are
//!   interchangeable for the analysis.

use flexserve_graph::NodeId;
use flexserve_workload::{JsonValue, RoundRequests, Trace};

use crate::context::SimContext;
use crate::cost::CostBreakdown;
use crate::fleet::Fleet;
use crate::session::play_round;
use crate::transition::TransitionPlanner;

/// An online allocation/migration strategy.
///
/// Implementations observe each round (after access costs were charged) and
/// may return a new target set of active-server locations; the engine
/// prices and applies the change through the shared
/// [`TransitionPlanner`]. Returning `None` keeps the configuration.
///
/// Strategies that expose their mutable state through
/// [`export_state`](Self::export_state) /
/// [`import_state`](Self::import_state) can be checkpointed mid-run by an
/// [`EventedSession`](crate::session::EventedSession) and resumed
/// bit-identically.
///
/// ```
/// use flexserve_graph::{gen::unit_line, DistanceMatrix, NodeId};
/// use flexserve_sim::{run_online, CostParams, Fleet, LoadModel, OnlineStrategy, SimContext};
/// use flexserve_workload::{RoundRequests, Trace};
///
/// /// Keeps one server on the node with the round's first request.
/// struct FollowFirst;
///
/// impl OnlineStrategy for FollowFirst {
///     fn name(&self) -> String { "FOLLOW-FIRST".into() }
///     fn decide(
///         &mut self,
///         _ctx: &SimContext<'_>,
///         _t: u64,
///         requests: &RoundRequests,
///         _access_cost: f64,
///         _fleet: &Fleet,
///     ) -> Option<Vec<NodeId>> {
///         requests.iter().next().map(|origin| vec![origin])
///     }
/// }
///
/// let graph = unit_line(4).unwrap();
/// let matrix = DistanceMatrix::build(&graph);
/// let ctx = SimContext::new(&graph, &matrix, CostParams::default(), LoadModel::None);
/// let trace = Trace::new(vec![RoundRequests::new(vec![NodeId::new(3)]); 5]);
///
/// let record = run_online(&ctx, &trace, &mut FollowFirst, vec![NodeId::new(0)]);
/// assert_eq!(record.len(), 5);
/// // round 0 pays access 3 (server still at node 0), then the server sits
/// // on the demand and access cost stops accruing.
/// assert_eq!(record.total().access, 3.0);
/// ```
pub trait OnlineStrategy {
    /// Algorithm name for reports (e.g. `"ONTH"`).
    fn name(&self) -> String;

    /// Called once before round 0 with the initial fleet.
    fn initialize(&mut self, _ctx: &SimContext<'_>, _fleet: &Fleet) {}

    /// Observes round `t` and optionally reconfigures. `access_cost` is the
    /// cost just charged for serving `requests` from the current servers.
    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>>;

    /// Serializes the strategy's mutable state for checkpointing, or
    /// `None` when the strategy does not support it (the default).
    ///
    /// The returned value must contain everything `decide` depends on
    /// besides the construction parameters: importing it into a freshly
    /// constructed instance must continue **bit-identically** to the
    /// exporting instance.
    fn export_state(&self) -> Option<JsonValue> {
        None
    }

    /// Restores state previously produced by
    /// [`export_state`](Self::export_state) into a freshly constructed
    /// instance. The default refuses (matching the `None` default above).
    fn import_state(&mut self, _state: &JsonValue) -> Result<(), String> {
        Err(format!(
            "{}: checkpoint restore is not supported",
            self.name()
        ))
    }

    /// A node named by the imported state that a `node_count`-node
    /// substrate does not have, if any. Resumes refuse such a checkpoint
    /// instead of indexing past the distance matrix later. The default
    /// suits strategies whose state names no nodes.
    fn node_outside(&self, _node_count: usize) -> Option<NodeId> {
        None
    }
}

/// Boxed strategies (`Box<dyn OnlineStrategy>`) drive sessions — the
/// `flexserve serve` daemon's shape.
impl<S: OnlineStrategy + ?Sized> OnlineStrategy for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn initialize(&mut self, ctx: &SimContext<'_>, fleet: &Fleet) {
        (**self).initialize(ctx, fleet);
    }
    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        (**self).decide(ctx, t, requests, access_cost, fleet)
    }
    fn export_state(&self) -> Option<JsonValue> {
        (**self).export_state()
    }
    fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
        (**self).import_state(state)
    }
    fn node_outside(&self, node_count: usize) -> Option<NodeId> {
        (**self).node_outside(node_count)
    }
}

/// A per-round configuration plan: `plan[t]` is the set of active-server
/// locations in effect during round `t`.
pub type Plan = Vec<Vec<NodeId>>;

/// One row of the run log.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round index.
    pub t: u64,
    /// Costs charged this round.
    pub costs: CostBreakdown,
    /// Active servers after this round's reconfiguration.
    pub active_servers: usize,
    /// Cached inactive servers after this round.
    pub inactive_servers: usize,
    /// Requests that arrived this round.
    pub requests: usize,
}

/// The complete log of one run.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Per-round rows in time order.
    pub rounds: Vec<RoundRecord>,
}

impl RunRecord {
    /// Total cost over the run.
    pub fn total(&self) -> CostBreakdown {
        self.rounds.iter().map(|r| &r.costs).sum()
    }

    /// Time series of the active-server count (Figs. 1–2 of the paper).
    pub fn active_series(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.active_servers).collect()
    }

    /// Time series of request volume.
    pub fn request_series(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.requests).collect()
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the run recorded no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Plays the online game over `trace` with `strategy`, starting from
/// `initial` active servers (no creation charge for the initial
/// configuration `γ0`, matching the paper's OPT set-up).
///
/// Every round is the same round function an
/// [`EventedSession::step`](crate::session::EventedSession::step) plays,
/// so the batch pipelines and the streaming daemon exercise identical
/// per-round code. The context is borrowed: nothing is copied.
pub fn run_online<S: OnlineStrategy + ?Sized>(
    ctx: &SimContext<'_>,
    trace: &Trace,
    strategy: &mut S,
    initial: Vec<NodeId>,
) -> RunRecord {
    let mut fleet = Fleet::new(initial, &ctx.params);
    strategy.initialize(ctx, &fleet);
    let rounds = (0..)
        .zip(trace.iter())
        .map(|(t, batch)| play_round(ctx, strategy, &mut fleet, t, batch))
        .collect();
    RunRecord { rounds }
}

/// Evaluates a precomputed plan over `trace`. `plan.len()` must equal
/// `trace.len()`; round `t`'s configuration is applied before its requests
/// are served (the offline DP convention).
pub fn run_plan(
    ctx: &SimContext<'_>,
    trace: &Trace,
    plan: &Plan,
    initial: Vec<NodeId>,
) -> RunRecord {
    assert_eq!(plan.len(), trace.len(), "plan/trace length mismatch");
    let mut fleet = Fleet::new(initial, &ctx.params);
    let mut record = RunRecord::default();

    for (t, batch) in trace.iter().enumerate() {
        let mut costs = CostBreakdown::zero();

        let outcome = TransitionPlanner::apply(&mut fleet, &plan[t], &ctx.params);
        costs += outcome.cost;
        fleet.advance_epoch();

        costs.access = ctx.access_cost(fleet.active(), batch);
        costs.running = ctx.running_cost(fleet.active_count(), fleet.inactive_count());

        record.rounds.push(RoundRecord {
            t: t as u64,
            costs,
            active_servers: fleet.active_count(),
            inactive_servers: fleet.inactive_count(),
            requests: batch.len(),
        });
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadModel;
    use crate::params::CostParams;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A strategy that never reconfigures.
    struct DoNothing;
    impl OnlineStrategy for DoNothing {
        fn name(&self) -> String {
            "NOOP".into()
        }
        fn decide(
            &mut self,
            _ctx: &SimContext<'_>,
            _t: u64,
            _req: &RoundRequests,
            _cost: f64,
            _fleet: &Fleet,
        ) -> Option<Vec<NodeId>> {
            None
        }
    }

    /// A strategy that chases the first request origin every round.
    struct Chaser;
    impl OnlineStrategy for Chaser {
        fn name(&self) -> String {
            "CHASER".into()
        }
        fn decide(
            &mut self,
            _ctx: &SimContext<'_>,
            _t: u64,
            req: &RoundRequests,
            _cost: f64,
            _fleet: &Fleet,
        ) -> Option<Vec<NodeId>> {
            req.iter().next().map(|o| vec![o])
        }
    }

    fn setup() -> (flexserve_graph::Graph, DistanceMatrix) {
        let g = unit_line(5).unwrap();
        let m = DistanceMatrix::build(&g);
        (g, m)
    }

    fn trace_at(node: usize, rounds: usize) -> Trace {
        Trace::new(vec![RoundRequests::new(vec![n(node)]); rounds])
    }

    #[test]
    fn noop_pays_access_and_running_only() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(4, 10); // requests at node 4, server at 0: dist 4
        let rec = run_online(&ctx, &trace, &mut DoNothing, vec![n(0)]);
        let total = rec.total();
        assert_eq!(total.access, 40.0);
        assert_eq!(total.running, 10.0 * 2.5);
        assert_eq!(total.migration, 0.0);
        assert_eq!(total.creation, 0.0);
        assert_eq!(rec.active_series(), vec![1; 10]);
    }

    #[test]
    fn chaser_migrates_once_then_sits_on_demand() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(4, 5);
        let rec = run_online(&ctx, &trace, &mut Chaser, vec![n(0)]);
        let total = rec.total();
        // round 0 pays access 4 (server still at 0), then migrates; all
        // later rounds are free of access cost.
        assert_eq!(total.access, 4.0);
        assert_eq!(total.migration, 40.0);
        assert_eq!(total.creation, 0.0);
    }

    #[test]
    fn online_pays_access_before_reconfiguring() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(4, 1);
        let rec = run_online(&ctx, &trace, &mut Chaser, vec![n(0)]);
        // the single round is charged in the OLD configuration
        assert_eq!(rec.rounds[0].costs.access, 4.0);
    }

    #[test]
    fn plan_applies_config_before_access() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(4, 2);
        let plan: Plan = vec![vec![n(4)], vec![n(4)]];
        let rec = run_plan(&ctx, &trace, &plan, vec![n(0)]);
        let total = rec.total();
        assert_eq!(total.access, 0.0); // server moved before serving
        assert_eq!(total.migration, 40.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn plan_length_checked() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(0, 3);
        run_plan(&ctx, &trace, &vec![vec![n(0)]], vec![n(0)]);
    }

    #[test]
    fn run_record_series() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = Trace::new(vec![
            RoundRequests::new(vec![n(0)]),
            RoundRequests::new(vec![n(0), n(1)]),
        ]);
        let rec = run_online(&ctx, &trace, &mut DoNothing, vec![n(0)]);
        assert_eq!(rec.request_series(), vec![1, 2]);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
    }

    #[test]
    fn epoch_advances_only_on_reconfiguration() {
        let (g, m) = setup();
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::None);
        let trace = trace_at(0, 3);
        // DoNothing: no reconfig, no epoch advance -> run completes with the
        // same fleet; nothing to assert beyond totals, but Chaser on a
        // static demand reconfigures to the same spot (no-op transitions)
        // every round and must not accumulate cost.
        let rec = run_online(&ctx, &trace, &mut Chaser, vec![n(0)]);
        assert_eq!(rec.total().migration, 0.0);
        assert_eq!(rec.total().creation, 0.0);
    }
}
