//! The resumable round stepper.
//!
//! [`SimSession`] is the open-loop form of the engine: where
//! [`run_online`](crate::engine::run_online) consumes a whole recorded
//! [`Trace`](flexserve_workload::Trace) at once, a session is fed one
//! [`RoundRequests`] at a time — by a batch loop, by a streaming
//! [`RequestSource`](flexserve_workload::RequestSource), or by the
//! `flexserve serve` HTTP daemon. The batch entry point is a thin wrapper
//! over this type, so both paths are the same code and produce
//! bit-identical records (the golden CSV tests pin this).
//!
//! Sessions checkpoint: [`SimSession::snapshot`] captures the round
//! counter, the fleet and the strategy's exported state as a
//! [`SessionSnapshot`], and [`SimSession::resume`] reconstructs a session
//! that continues exactly where the original would have — bit-identical
//! to an uninterrupted run (pinned by `crates/core/tests/checkpoint_resume.rs`).

use flexserve_graph::NodeId;
use flexserve_workload::RoundRequests;

use crate::checkpoint::SessionSnapshot;
use crate::context::SimContext;
use crate::cost::CostBreakdown;
use crate::engine::{OnlineStrategy, RoundRecord};
use crate::fleet::Fleet;
use crate::transition::TransitionPlanner;

/// A stepwise online game: one [`OnlineStrategy`] against rounds that
/// arrive one at a time.
///
/// The strategy is owned; to drive a session over a borrowed or boxed
/// strategy use the blanket [`OnlineStrategy`] impls for `&mut S` and
/// `Box<S>`.
///
/// ```
/// use flexserve_graph::{gen::unit_line, DistanceMatrix, NodeId};
/// use flexserve_sim::{CostParams, LoadModel, SimContext, SimSession};
/// use flexserve_workload::RoundRequests;
///
/// // A strategy that chases the first request origin of every round.
/// struct Chaser;
/// impl flexserve_sim::OnlineStrategy for Chaser {
///     fn name(&self) -> String { "CHASER".into() }
///     fn decide(
///         &mut self,
///         _ctx: &SimContext<'_>,
///         _t: u64,
///         req: &RoundRequests,
///         _access_cost: f64,
///         _fleet: &flexserve_sim::Fleet,
///     ) -> Option<Vec<NodeId>> {
///         req.iter().next().map(|o| vec![o])
///     }
/// }
///
/// let graph = unit_line(5).unwrap();
/// let matrix = DistanceMatrix::build(&graph);
/// let ctx = SimContext::new(&graph, &matrix, CostParams::default(), LoadModel::None);
///
/// let mut session = SimSession::new(ctx, Chaser, vec![NodeId::new(0)]);
/// let record = session.step(&RoundRequests::new(vec![NodeId::new(4)]));
/// assert_eq!(record.costs.access, 4.0);      // served from node 0, then…
/// assert!(session.fleet().is_active_at(NodeId::new(4))); // …migrated.
/// assert_eq!(session.t(), 1);
/// ```
pub struct SimSession<'a, S: OnlineStrategy> {
    ctx: SimContext<'a>,
    strategy: S,
    fleet: Fleet,
    t: u64,
}

/// Plays round `t` of the online game: access cost to the current fleet,
/// the strategy's reconfiguration through the shared planner, running
/// costs. The one round implementation shared by [`SimSession::step`] and
/// the evented session in [`crate::events`] — both paths are the same code,
/// so static and dynamic substrates produce bit-identical records whenever
/// no event fires.
pub(crate) fn play_round<S: OnlineStrategy + ?Sized>(
    ctx: &SimContext<'_>,
    strategy: &mut S,
    fleet: &mut Fleet,
    t: u64,
    batch: &RoundRequests,
) -> RoundRecord {
    let mut costs = CostBreakdown::zero();

    // 1+2: requests arrive, access cost paid to current servers.
    costs.access = ctx.access_cost(fleet.active(), batch);

    // 3: the algorithm reconfigures.
    if let Some(target) = strategy.decide(ctx, t, batch, costs.access, fleet) {
        let outcome = TransitionPlanner::apply(fleet, &target, &ctx.params);
        costs += outcome.cost;
        // Reconfiguration marks an epoch boundary for cache expiry.
        fleet.advance_epoch();
    }

    // Running costs for the (possibly new) configuration.
    costs.running = ctx.running_cost(fleet.active_count(), fleet.inactive_count());

    RoundRecord {
        t,
        costs,
        active_servers: fleet.active_count(),
        inactive_servers: fleet.inactive_count(),
        requests: batch.len(),
    }
}

impl<S: OnlineStrategy> std::fmt::Debug for SimSession<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("strategy", &self.strategy.name())
            .field("t", &self.t)
            .field("fleet", &self.fleet)
            .finish_non_exhaustive()
    }
}

impl<'a, S: OnlineStrategy> SimSession<'a, S> {
    /// Opens a session with the given initially active servers (no
    /// creation charge for the initial configuration `γ0`, as in the
    /// paper's set-up) and lets the strategy observe the initial fleet.
    pub fn new(ctx: SimContext<'a>, mut strategy: S, initial: Vec<NodeId>) -> Self {
        let fleet = Fleet::new(initial, &ctx.params);
        strategy.initialize(&ctx, &fleet);
        SimSession {
            ctx,
            strategy,
            fleet,
            t: 0,
        }
    }

    /// Plays one round: requests arrive, access cost is paid to the
    /// current servers, the strategy optionally reconfigures (paying
    /// migration/creation through the shared planner), running costs are
    /// charged. Returns the round's log row.
    pub fn step(&mut self, batch: &RoundRequests) -> RoundRecord {
        let record = play_round(
            &self.ctx,
            &mut self.strategy,
            &mut self.fleet,
            self.t,
            batch,
        );
        self.t += 1;
        record
    }

    /// Rounds played so far (the next [`step`](Self::step) is round `t`).
    #[inline]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// The current fleet.
    #[inline]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The session's context.
    #[inline]
    pub fn ctx(&self) -> &SimContext<'a> {
        &self.ctx
    }

    /// The driven strategy.
    #[inline]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Captures the session as a restorable [`SessionSnapshot`].
    ///
    /// Fails when the strategy does not support state export (see
    /// [`OnlineStrategy::export_state`]).
    pub fn snapshot(&self) -> Result<SessionSnapshot, String> {
        let strategy_state = self.strategy.export_state().ok_or_else(|| {
            format!(
                "{}: strategy does not support checkpointing",
                self.strategy.name()
            )
        })?;
        let (active, inactive, epoch) = SessionSnapshot::fleet_fields(&self.fleet);
        Ok(SessionSnapshot {
            t: self.t,
            substrate_fingerprint: self.ctx.graph.fingerprint(),
            params_summary: self.ctx.params.summary(),
            strategy_name: self.strategy.name(),
            strategy_state,
            active,
            inactive,
            epoch,
            // The session tracks game state, not serving totals; layers
            // that do (the serve daemon) fill this before writing. The
            // evented session likewise fills in its event schedule.
            metrics: None,
            substrate_events: None,
        })
    }

    /// Reopens a session from a snapshot: `strategy` must be a freshly
    /// constructed instance of the snapshotted strategy (matched by
    /// name); its mutable state is imported, the fleet is rebuilt, and
    /// the round counter continues at `snapshot.t`.
    ///
    /// The strategy's `initialize` hook is **not** re-run — the snapshot
    /// *is* the initialized-and-played state. Restores against a
    /// different substrate (by fingerprint) or cost model (by parameter
    /// summary) are refused.
    pub fn resume(
        ctx: SimContext<'a>,
        mut strategy: S,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, String> {
        let fingerprint = ctx.graph.fingerprint();
        if snapshot.substrate_fingerprint != fingerprint {
            return Err(format!(
                "resume: substrate fingerprint mismatch (checkpoint {:016x}, context {:016x})",
                snapshot.substrate_fingerprint, fingerprint
            ));
        }
        let params = ctx.params.summary();
        if snapshot.params_summary != params {
            return Err(format!(
                "resume: cost-parameter mismatch (checkpoint \"{}\", context \"{}\")",
                snapshot.params_summary, params
            ));
        }
        let name = strategy.name();
        if snapshot.strategy_name != name {
            return Err(format!(
                "resume: strategy mismatch (checkpoint \"{}\", given \"{name}\")",
                snapshot.strategy_name
            ));
        }
        strategy.import_state(&snapshot.strategy_state)?;
        check_nodes(snapshot, &strategy, ctx.graph.node_count())?;
        let fleet = Fleet::from_parts(
            snapshot.active.clone(),
            snapshot.inactive.clone(),
            snapshot.epoch,
            &ctx.params,
        )?;
        Ok(SimSession {
            ctx,
            strategy,
            fleet,
            t: snapshot.t,
        })
    }
}

/// Refuses a checkpoint whose fleet, or whose imported strategy state,
/// names a node the `n`-node substrate does not have: a corrupted
/// checkpoint is refused at resume, not a panic on a later distance
/// lookup. Both session types call it after `import_state`.
pub(crate) fn check_nodes<S: OnlineStrategy>(
    snapshot: &SessionSnapshot,
    strategy: &S,
    n: usize,
) -> Result<(), String> {
    let bad = snapshot
        .active
        .iter()
        .chain(snapshot.inactive.iter().map(|s| &s.node))
        .copied()
        .find(|id| id.index() >= n)
        .or_else(|| strategy.node_outside(n));
    match bad {
        Some(bad) => Err(format!(
            "resume: checkpoint names node {bad} but the substrate has only {n} nodes"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_online, RunRecord};
    use crate::load::LoadModel;
    use crate::params::CostParams;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;
    use flexserve_workload::{JsonValue, Trace};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Chases the first request origin; carries a counter so snapshotting
    /// real mutable state is exercised at the sim layer too.
    #[derive(Default)]
    struct CountingChaser {
        decisions: u64,
    }

    impl OnlineStrategy for CountingChaser {
        fn name(&self) -> String {
            "COUNTING-CHASER".into()
        }
        fn decide(
            &mut self,
            _ctx: &SimContext<'_>,
            _t: u64,
            req: &RoundRequests,
            _cost: f64,
            _fleet: &Fleet,
        ) -> Option<Vec<NodeId>> {
            self.decisions += 1;
            req.iter().next().map(|o| vec![o])
        }
        fn export_state(&self) -> Option<JsonValue> {
            Some(JsonValue::Obj(vec![(
                "decisions".into(),
                JsonValue::from(self.decisions),
            )]))
        }
        fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
            self.decisions = state
                .get("decisions")
                .and_then(JsonValue::as_u64)
                .ok_or("missing decisions")?;
            Ok(())
        }
    }

    /// No decisions, no state export (the default).
    struct Opaque;
    impl OnlineStrategy for Opaque {
        fn name(&self) -> String {
            "OPAQUE".into()
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

    struct Fx {
        g: flexserve_graph::Graph,
        m: DistanceMatrix,
    }
    impl Fx {
        fn new(len: usize) -> Self {
            let g = unit_line(len).unwrap();
            let m = DistanceMatrix::build(&g);
            Fx { g, m }
        }
        fn ctx(&self) -> SimContext<'_> {
            SimContext::new(&self.g, &self.m, CostParams::default(), LoadModel::None)
        }
    }

    fn trace_hopping(len: usize) -> Trace {
        Trace::new(
            (0..20)
                .map(|t| RoundRequests::new(vec![n(t % len); 3]))
                .collect(),
        )
    }

    fn records_equal(a: &RunRecord, b: &RunRecord) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.t, y.t);
            assert_eq!(x.costs.access.to_bits(), y.costs.access.to_bits());
            assert_eq!(x.costs.running.to_bits(), y.costs.running.to_bits());
            assert_eq!(x.costs.migration.to_bits(), y.costs.migration.to_bits());
            assert_eq!(x.costs.creation.to_bits(), y.costs.creation.to_bits());
            assert_eq!(x.active_servers, y.active_servers);
            assert_eq!(x.inactive_servers, y.inactive_servers);
            assert_eq!(x.requests, y.requests);
        }
    }

    #[test]
    fn stepping_matches_run_online_exactly() {
        let fx = Fx::new(7);
        let ctx = fx.ctx();
        let trace = trace_hopping(7);
        let batch = run_online(&ctx, &trace, &mut CountingChaser::default(), vec![n(0)]);
        let mut session = SimSession::new(ctx, CountingChaser::default(), vec![n(0)]);
        let mut stepped = RunRecord::default();
        for round in trace.iter() {
            stepped.rounds.push(session.step(round));
        }
        records_equal(&batch, &stepped);
        assert_eq!(session.t(), 20);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_to_uninterrupted() {
        let fx = Fx::new(6);
        let ctx = fx.ctx();
        let trace = trace_hopping(6);

        let uninterrupted = run_online(&ctx, &trace, &mut CountingChaser::default(), vec![n(2)]);

        let mut first_half = SimSession::new(ctx, CountingChaser::default(), vec![n(2)]);
        let mut resumed_rec = RunRecord::default();
        for round in trace.iter().take(10) {
            resumed_rec.rounds.push(first_half.step(round));
        }
        let snap = first_half.snapshot().unwrap();
        // Round-trip through the JSON text, as a daemon restart would.
        let snap = SessionSnapshot::from_json(&snap.to_json()).unwrap();
        drop(first_half);

        let mut second_half = SimSession::resume(ctx, CountingChaser::default(), &snap).unwrap();
        assert_eq!(second_half.t(), 10);
        assert_eq!(second_half.strategy().decisions, 10);
        for round in trace.iter().skip(10) {
            resumed_rec.rounds.push(second_half.step(round));
        }
        records_equal(&uninterrupted, &resumed_rec);
    }

    #[test]
    fn snapshot_requires_exportable_state() {
        let fx = Fx::new(4);
        let session = SimSession::new(fx.ctx(), Opaque, vec![n(0)]);
        let err = session.snapshot().unwrap_err();
        assert!(err.contains("does not support checkpointing"), "{err}");
    }

    #[test]
    fn resume_guards_mismatches() {
        let fx = Fx::new(5);
        let ctx = fx.ctx();
        let mut session = SimSession::new(ctx, CountingChaser::default(), vec![n(0)]);
        session.step(&RoundRequests::new(vec![n(3)]));
        let snap = session.snapshot().unwrap();

        // wrong substrate
        let other = Fx::new(9);
        let err = SimSession::resume(other.ctx(), CountingChaser::default(), &snap).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");

        // wrong cost model
        let flipped = SimContext::new(&fx.g, &fx.m, CostParams::flipped(), LoadModel::None);
        let err = SimSession::resume(flipped, CountingChaser::default(), &snap).unwrap_err();
        assert!(err.contains("cost-parameter mismatch"), "{err}");

        // wrong strategy
        let err = SimSession::resume(ctx, Opaque, &snap).unwrap_err();
        assert!(err.contains("strategy mismatch"), "{err}");

        // corrupted checkpoint: node id beyond the substrate
        let mut bad = snap.clone();
        bad.active = vec![n(9999)];
        let err = SimSession::resume(ctx, CountingChaser::default(), &bad).unwrap_err();
        assert!(err.contains("9999"), "{err}");
    }

    #[test]
    fn boxed_and_borrowed_strategies_drive_sessions() {
        let fx = Fx::new(5);
        let ctx = fx.ctx();
        let trace = trace_hopping(5);

        // Box<dyn OnlineStrategy> — the serve daemon's shape.
        let boxed: Box<dyn OnlineStrategy> = Box::new(CountingChaser::default());
        let mut session = SimSession::new(ctx, boxed, vec![n(0)]);
        let mut boxed_rec = RunRecord::default();
        for round in trace.iter() {
            boxed_rec.rounds.push(session.step(round));
        }
        // snapshot flows through the Box delegation
        assert!(session.snapshot().is_ok());

        // &mut S — run_online's shape.
        let mut owned = CountingChaser::default();
        let borrowed = run_online(&ctx, &trace, &mut owned, vec![n(0)]);
        records_equal(&boxed_rec, &borrowed);
    }
}
