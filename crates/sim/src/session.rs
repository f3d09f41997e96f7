//! The resumable round stepper.
//!
//! [`EventedSession`] is the open-loop form of the engine: where
//! [`run_online`](crate::engine::run_online) consumes a whole recorded
//! [`Trace`](flexserve_workload::Trace) at once, a session is fed one
//! [`RoundRequests`] at a time — by a batch loop, by a streaming
//! [`RequestSource`](flexserve_workload::RequestSource), or by the
//! `flexserve serve` HTTP daemon. Both forms play every round through the
//! one round function (`play_round`), so they produce bit-identical records.
//!
//! A session plays over a [`DynamicWorld`]: a static substrate is simply
//! one whose [`SubstrateEvents`] schedule is empty. The world shares the
//! caller's graph and distance matrix through `Arc`s and copies them only
//! when the first event mutates them, so an event-free session costs no
//! matrix copy.
//!
//! Sessions checkpoint: [`EventedSession::snapshot`] captures the round
//! counter, the fleet, the strategy's exported state and the event
//! schedule as a [`SessionSnapshot`], and [`EventedSession::resume`]
//! reconstructs a session that continues exactly where the original would
//! have — bit-identical to an uninterrupted run (pinned by
//! `crates/core/tests/checkpoint_resume.rs`).

use std::sync::Arc;

use flexserve_graph::{DistanceMatrix, Graph, NodeId};
use flexserve_workload::RoundRequests;

use crate::checkpoint::SessionSnapshot;
use crate::context::SimContext;
use crate::cost::CostBreakdown;
use crate::engine::{OnlineStrategy, RoundRecord};
use crate::events::{DynamicWorld, SubstrateEvents};
use crate::fleet::Fleet;
use crate::load::LoadModel;
use crate::params::CostParams;
use crate::transition::TransitionPlanner;

/// Plays round `t` of the online game: access cost to the current fleet,
/// the strategy's reconfiguration through the shared planner, running
/// costs. The one round implementation shared by
/// [`run_online`](crate::engine::run_online) and
/// [`EventedSession::step`].
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

/// A stepwise online game: one [`OnlineStrategy`] against rounds that
/// arrive one at a time, over a substrate that scheduled events may
/// change between rounds.
///
/// Each [`step`](Self::step) first applies every scheduled event of the
/// current round to the [`DynamicWorld`], then plays the round. Snapshots
/// record the schedule (and the *mutated* substrate's fingerprint);
/// [`resume`](Self::resume) replays the already-applied events onto the
/// pristine substrate before the fingerprint guard runs, so
/// resume-after-events stays bit-identical.
///
/// The strategy is owned; a boxed strategy drives a session through the
/// blanket [`OnlineStrategy`] impl for `Box<S>`.
///
/// ```
/// use flexserve_graph::{gen::unit_line, DistanceMatrix, NodeId};
/// use flexserve_sim::{CostParams, EventedSession, LoadModel, SimContext, SubstrateEvents};
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
/// let mut session = EventedSession::new(
///     graph,
///     matrix,
///     SubstrateEvents::new(), // a static substrate
///     CostParams::default(),
///     LoadModel::None,
///     Chaser,
///     vec![NodeId::new(0)],
/// );
/// let record = session.step(&RoundRequests::new(vec![NodeId::new(4)])).unwrap();
/// assert_eq!(record.costs.access, 4.0);      // served from node 0, then…
/// assert!(session.fleet().is_active_at(NodeId::new(4))); // …migrated.
/// assert_eq!(session.t(), 1);
/// ```
pub struct EventedSession<S: OnlineStrategy> {
    world: DynamicWorld,
    schedule: SubstrateEvents,
    params: CostParams,
    load: LoadModel,
    strategy: S,
    fleet: Fleet,
    t: u64,
}

impl<S: OnlineStrategy> std::fmt::Debug for EventedSession<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedSession")
            .field("strategy", &self.strategy.name())
            .field("t", &self.t)
            .field("events", &self.schedule.len())
            .field("fleet", &self.fleet)
            .finish_non_exhaustive()
    }
}

impl<S: OnlineStrategy> EventedSession<S> {
    /// Opens a session over the given substrate (pristine: no events
    /// applied yet) with the given initially active servers (no creation
    /// charge for the initial configuration `γ0`, as in the paper's
    /// set-up), and lets the strategy observe the initial fleet.
    ///
    /// Pass `Arc`s to share a cached graph and matrix: the session copies
    /// them only when its first event fires.
    ///
    /// # Panics
    ///
    /// Panics like [`SimContext::new`] on an empty graph, a mismatched
    /// matrix or invalid parameters.
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        dist: impl Into<Arc<DistanceMatrix>>,
        schedule: SubstrateEvents,
        params: CostParams,
        load: LoadModel,
        mut strategy: S,
        initial: Vec<NodeId>,
    ) -> Self {
        let world = DynamicWorld::new(graph, dist);
        let fleet = Fleet::new(initial, &params);
        strategy.initialize(&world.context(params, load), &fleet);
        EventedSession {
            world,
            schedule,
            params,
            load,
            strategy,
            fleet,
            t: 0,
        }
    }

    /// Applies every event scheduled for round `t`, in schedule order.
    fn apply_due(&mut self, t: u64) -> Result<(), String> {
        // Schedules are small; a linear scan per round beats cursor
        // bookkeeping that live event appends would invalidate.
        for &(et, event) in self.schedule.entries() {
            if et == t {
                self.world
                    .apply(&event)
                    .map_err(|e| format!("round {t}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Plays one round: scheduled events fire first (the strategy sees the
    /// changed world), then requests arrive, access cost is paid to the
    /// current servers, the strategy optionally reconfigures (paying
    /// migration/creation through the shared planner), and running costs
    /// are charged. Returns the round's log row.
    ///
    /// An event that cannot be applied (e.g. failing an unknown link)
    /// aborts the step *before* any cost is charged.
    pub fn step(&mut self, batch: &RoundRequests) -> Result<RoundRecord, String> {
        self.apply_due(self.t)?;
        let ctx = self.world.context(self.params, self.load);
        let record = play_round(&ctx, &mut self.strategy, &mut self.fleet, self.t, batch);
        self.t += 1;
        Ok(record)
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

    /// The world in its current (post-events) state.
    #[inline]
    pub fn world(&self) -> &DynamicWorld {
        &self.world
    }

    /// The event schedule.
    #[inline]
    pub fn schedule(&self) -> &SubstrateEvents {
        &self.schedule
    }

    /// The driven strategy.
    #[inline]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Appends events to the live schedule (the serve daemon's
    /// `POST /sessions/<name>/events`). Events scheduled for rounds that
    /// already played are refused — they could never fire.
    pub fn append_events(&mut self, more: &SubstrateEvents) -> Result<(), String> {
        if let Some(first) = more.first_time() {
            if first < self.t {
                return Err(format!(
                    "events: cannot schedule an event at round {first}: session is at round {}",
                    self.t
                ));
            }
        }
        self.schedule.extend(more);
        Ok(())
    }

    /// Captures the session as a restorable [`SessionSnapshot`], with the
    /// fingerprint taken from the *mutated* substrate.
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
            substrate_fingerprint: self.world.graph().fingerprint(),
            params_summary: self.params.summary(),
            strategy_name: self.strategy.name(),
            strategy_state,
            active,
            inactive,
            epoch,
            // The session tracks game state, not serving totals; layers
            // that do (the serve daemon) fill this before writing.
            metrics: None,
            substrate_events: if self.schedule.is_empty() {
                None
            } else {
                Some(self.schedule.render())
            },
        })
    }

    /// Reopens a session from a snapshot against the **pristine** substrate
    /// (no events applied). `strategy` must be a freshly constructed
    /// instance of the snapshotted strategy (matched by name); its mutable
    /// state is imported, the fleet is rebuilt, and the round counter
    /// continues at `snapshot.t`.
    ///
    /// The schedule recorded in the snapshot is parsed and every event
    /// with time `< snapshot.t` is replayed onto the world; only then do
    /// the guards run. Restores against a different substrate (by
    /// fingerprint), cost model (by parameter summary) or strategy (by
    /// name) are refused, and so is a checkpoint whose fleet or strategy
    /// state names a node the substrate lacks — refused here rather than
    /// a panic on a later distance lookup.
    ///
    /// The strategy's `initialize` hook is **not** re-run — the snapshot
    /// *is* the initialized-and-played state.
    pub fn resume(
        graph: impl Into<Arc<Graph>>,
        dist: impl Into<Arc<DistanceMatrix>>,
        params: CostParams,
        load: LoadModel,
        mut strategy: S,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, String> {
        let schedule = match &snapshot.substrate_events {
            Some(text) => SubstrateEvents::parse(text)?,
            None => SubstrateEvents::new(),
        };
        let mut world = DynamicWorld::new(graph, dist);
        for &(et, event) in schedule.entries() {
            if et >= snapshot.t {
                break;
            }
            world
                .apply(&event)
                .map_err(|e| format!("resume: replaying round {et}: {e}"))?;
        }
        let fingerprint = world.graph().fingerprint();
        if snapshot.substrate_fingerprint != fingerprint {
            return Err(format!(
                "resume: substrate fingerprint mismatch after event replay \
                 (checkpoint {:016x}, context {:016x})",
                snapshot.substrate_fingerprint, fingerprint
            ));
        }
        let summary = params.summary();
        if snapshot.params_summary != summary {
            return Err(format!(
                "resume: cost-parameter mismatch (checkpoint \"{}\", context \"{summary}\")",
                snapshot.params_summary
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
        let n = world.graph().node_count();
        let outside = snapshot
            .active
            .iter()
            .chain(snapshot.inactive.iter().map(|s| &s.node))
            .copied()
            .find(|id| id.index() >= n)
            .or_else(|| strategy.node_outside(n));
        if let Some(bad) = outside {
            return Err(format!(
                "resume: checkpoint names node {bad} but the substrate has only {n} nodes"
            ));
        }
        let fleet = Fleet::from_parts(
            snapshot.active.clone(),
            snapshot.inactive.clone(),
            snapshot.epoch,
            &params,
        )?;
        Ok(EventedSession {
            world,
            schedule,
            params,
            load,
            strategy,
            fleet,
            t: snapshot.t,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{run_online, RunRecord};
    use flexserve_graph::gen::unit_line;
    use flexserve_workload::{JsonValue, Trace};

    pub(crate) fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Chases the first request origin still reachable from the current
    /// placement (a fully cut-off round keeps it), and counts decisions so
    /// snapshots carry real mutable state.
    #[derive(Default)]
    pub(crate) struct Chaser {
        decisions: u64,
    }

    impl OnlineStrategy for Chaser {
        fn name(&self) -> String {
            "CHASER".into()
        }
        fn decide(
            &mut self,
            ctx: &SimContext<'_>,
            _t: u64,
            req: &RoundRequests,
            _cost: f64,
            fleet: &Fleet,
        ) -> Option<Vec<NodeId>> {
            self.decisions += 1;
            let anchor = fleet.active()[0];
            req.iter()
                .find(|&o| ctx.dist.get(o, anchor).is_finite())
                .map(|o| vec![o])
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

    /// A substrate shared by every session of a test, priced with the
    /// default parameters and linear load.
    pub(crate) struct Fx {
        pub(crate) g: Arc<Graph>,
        pub(crate) m: Arc<DistanceMatrix>,
    }

    impl Fx {
        pub(crate) fn new(g: Graph) -> Self {
            let m = Arc::new(DistanceMatrix::build(&g));
            Fx { g: Arc::new(g), m }
        }
        pub(crate) fn line(len: usize) -> Self {
            Fx::new(unit_line(len).unwrap())
        }
        fn ctx(&self) -> SimContext<'_> {
            SimContext::new(&self.g, &self.m, CostParams::default(), LoadModel::Linear)
        }
        /// A session from a server at node 0 under `schedule`.
        pub(crate) fn session<S: OnlineStrategy>(
            &self,
            schedule: &str,
            strategy: S,
        ) -> EventedSession<S> {
            EventedSession::new(
                Arc::clone(&self.g),
                Arc::clone(&self.m),
                SubstrateEvents::parse(schedule).unwrap(),
                CostParams::default(),
                LoadModel::Linear,
                strategy,
                vec![n(0)],
            )
        }
        pub(crate) fn resume<S: OnlineStrategy>(
            &self,
            params: CostParams,
            strategy: S,
            snap: &SessionSnapshot,
        ) -> Result<EventedSession<S>, String> {
            EventedSession::resume(
                Arc::clone(&self.g),
                Arc::clone(&self.m),
                params,
                LoadModel::Linear,
                strategy,
                snap,
            )
        }
    }

    /// `rounds` rounds of three requests hopping along nodes `0..len`.
    pub(crate) fn trace_hopping(len: usize, rounds: usize) -> Trace {
        Trace::new(
            (0..rounds)
                .map(|t| RoundRequests::new(vec![n(t % len); 3]))
                .collect(),
        )
    }

    /// Steps `session` through every round of `trace`.
    pub(crate) fn play<S: OnlineStrategy>(
        session: &mut EventedSession<S>,
        trace: &Trace,
    ) -> RunRecord {
        let rounds = trace.iter().map(|r| session.step(r).unwrap()).collect();
        RunRecord { rounds }
    }

    pub(crate) fn records_equal(a: &RunRecord, b: &RunRecord) {
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

    /// An empty-schedule session is the static game: stepping it equals
    /// `run_online` bit for bit, and it never copies the shared matrix.
    #[test]
    fn stepping_matches_run_online_exactly() {
        let fx = Fx::line(7);
        let trace = trace_hopping(7, 20);
        let batch = run_online(&fx.ctx(), &trace, &mut Chaser::default(), vec![n(0)]);
        let mut session = fx.session("", Chaser::default());
        records_equal(&batch, &play(&mut session, &trace));
        assert_eq!(session.t(), 20);
        assert!(std::ptr::eq(session.world().dist(), &*fx.m));
    }

    #[test]
    fn snapshot_resume_is_bit_identical_to_uninterrupted() {
        let fx = Fx::line(6);
        let trace = trace_hopping(6, 20);
        let uninterrupted = run_online(&fx.ctx(), &trace, &mut Chaser::default(), vec![n(0)]);

        let mut first_half = fx.session("", Chaser::default());
        let mut resumed = play(&mut first_half, &trace.slice(0, 10));
        let snap = first_half.snapshot().unwrap();
        // Round-trip through the JSON text, as a daemon restart would.
        let snap = SessionSnapshot::from_json(&snap.to_json()).unwrap();
        drop(first_half);

        let mut second_half = fx
            .resume(CostParams::default(), Chaser::default(), &snap)
            .unwrap();
        assert_eq!(second_half.t(), 10);
        assert_eq!(second_half.strategy().decisions, 10);
        let rest = play(&mut second_half, &trace.slice(10, 20));
        resumed.rounds.extend(rest.rounds);
        records_equal(&uninterrupted, &resumed);
    }

    #[test]
    fn snapshot_requires_exportable_state() {
        let session = Fx::line(4).session("", Opaque);
        let err = session.snapshot().unwrap_err();
        assert!(err.contains("does not support checkpointing"), "{err}");
    }

    #[test]
    fn resume_guards_mismatches() {
        let fx = Fx::line(5);
        let mut session = fx.session("", Chaser::default());
        session.step(&RoundRequests::new(vec![n(3)])).unwrap();
        let snap = session.snapshot().unwrap();
        let params = CostParams::default();
        let resume_err = |fx: &Fx, params, snap| {
            fx.resume(params, Chaser::default(), snap)
                .expect_err("resume refused")
        };

        // wrong substrate
        let err = resume_err(&Fx::line(9), params, &snap);
        assert!(err.contains("fingerprint mismatch"), "{err}");

        // wrong cost model
        let err = resume_err(&fx, CostParams::flipped(), &snap);
        assert!(err.contains("cost-parameter mismatch"), "{err}");

        // wrong strategy
        let err = fx.resume(params, Opaque, &snap).unwrap_err();
        assert!(err.contains("strategy mismatch"), "{err}");

        // corrupted checkpoint: node id beyond the substrate
        let mut bad = snap.clone();
        bad.active = vec![n(9999)];
        let err = resume_err(&fx, params, &bad);
        assert!(err.contains("9999"), "{err}");
    }

    #[test]
    fn boxed_and_borrowed_strategies_drive_sessions() {
        let fx = Fx::line(5);
        let trace = trace_hopping(5, 20);

        // Box<dyn OnlineStrategy> — the serve daemon's shape.
        let boxed: Box<dyn OnlineStrategy> = Box::new(Chaser::default());
        let mut session = fx.session("", boxed);
        let boxed_rec = play(&mut session, &trace);
        // snapshot flows through the Box delegation
        assert!(session.snapshot().is_ok());

        // &mut S — run_online's shape.
        let mut owned = Chaser::default();
        let borrowed = run_online(&fx.ctx(), &trace, &mut owned, vec![n(0)]);
        records_equal(&boxed_rec, &borrowed);
    }
}
