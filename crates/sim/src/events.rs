//! Substrate events: scheduled failures, recoveries and degradations of
//! the physical network, and the session type that plays the online game
//! on top of such a *dynamic* substrate.
//!
//! The static planes ([`SimSession`](crate::session::SimSession),
//! [`run_online`](crate::engine::run_online)) borrow one immutable
//! [`Graph`] + [`DistanceMatrix`] pair across many runs. Substrate events
//! mutate link latencies between rounds, so [`EventedSession`] *owns* its
//! world — a [`DynamicWorld`] of graph, distance matrix and failure
//! bookkeeping — and repairs the matrix incrementally through
//! [`DistanceMatrix::repair`] instead of rebuilding it after every event.
//!
//! ## Event model
//!
//! An event schedule is a list of `(round, event)` pairs; all events with
//! time `t` are applied at the **start of round `t`**, before the round's
//! requests are routed and before the strategy decides — the strategy sees
//! the failed world it must re-place around. Supported events:
//!
//! * `fail-link a-b` — the link's latency becomes `+∞` (treated exactly
//!   like an absent edge by shortest paths); the pre-failure latency is
//!   saved for recovery.
//! * `recover-link a-b` — restores the latency saved at failure time.
//! * `fail-node n` — every live incident link of `n` fails in one batch.
//! * `recover-node n` — restores exactly the links that `n`'s failure took
//!   down (links whose other endpoint is still node-failed stay down and
//!   are restored by *that* node's recovery).
//! * `degrade-link a-b f` — multiplies the link's current latency by the
//!   positive factor `f` (a factor below 1 models an upgrade).
//!
//! A fail → recover round trip therefore restores the exact pre-failure
//! world: the same latencies, hence (via the bit-identical repair) the same
//! `DistanceMatrix` bit for bit.
//!
//! Origins disconnected from every active server are charged the finite
//! [`UNREACHABLE_PENALTY`](crate::routing::UNREACHABLE_PENALTY) per
//! request rather than poisoning the run with `∞`. Schema, grammar and
//! penalty semantics are documented in `docs/FAULTS.md`.

use std::collections::BTreeMap;

use flexserve_graph::{DistanceMatrix, EdgeUpdate, Graph, NodeId};
use flexserve_workload::RoundRequests;

use crate::checkpoint::SessionSnapshot;
use crate::context::SimContext;
use crate::engine::{OnlineStrategy, RoundRecord};
use crate::fleet::Fleet;
use crate::load::LoadModel;
use crate::params::CostParams;
use crate::routing::RoutingPolicy;
use crate::session::{check_nodes, play_round};

/// One scheduled change to the substrate network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubstrateEvent {
    /// The link between the two nodes fails (latency becomes `+∞`).
    FailLink(NodeId, NodeId),
    /// The previously failed link recovers to its saved latency.
    RecoverLink(NodeId, NodeId),
    /// Every live link incident to the node fails at once.
    FailNode(NodeId),
    /// The links taken down by this node's failure recover.
    RecoverNode(NodeId),
    /// The link's current latency is multiplied by the positive factor.
    DegradeLink(NodeId, NodeId, f64),
}

impl SubstrateEvent {
    /// Renders the event in the cell grammar (without the leading time),
    /// e.g. `fail-link:2-7` or `degrade-link:1-4:2.5`.
    fn render(&self) -> String {
        match self {
            SubstrateEvent::FailLink(a, b) => format!("fail-link:{}-{}", a.index(), b.index()),
            SubstrateEvent::RecoverLink(a, b) => {
                format!("recover-link:{}-{}", a.index(), b.index())
            }
            SubstrateEvent::FailNode(n) => format!("fail-node:{}", n.index()),
            SubstrateEvent::RecoverNode(n) => format!("recover-node:{}", n.index()),
            SubstrateEvent::DegradeLink(a, b, f) => {
                format!("degrade-link:{}-{}:{}", a.index(), b.index(), f)
            }
        }
    }
}

/// Parses an `a-b` endpoint pair.
fn parse_endpoints(s: &str) -> Result<(NodeId, NodeId), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("events: expected \"a-b\" endpoints, got \"{s}\""))?;
    let parse = |p: &str| {
        p.parse::<usize>()
            .map(NodeId::new)
            .map_err(|_| format!("events: bad node index \"{p}\""))
    };
    Ok((parse(a)?, parse(b)?))
}

/// A schedule of substrate events, ordered by round.
///
/// The text form is the `events=` cell grammar: comma-separated
/// `time:kind:args` entries, e.g.
/// `5:fail-link:2-7,10:recover-link:2-7,12:fail-node:3,8:degrade-link:1-4:2.5`.
/// Entries are kept sorted by time (stable, so same-round events apply in
/// the order written); [`render`](Self::render) emits that sorted order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubstrateEvents {
    entries: Vec<(u64, SubstrateEvent)>,
}

impl SubstrateEvents {
    /// An empty schedule (a static substrate).
    pub fn new() -> Self {
        SubstrateEvents::default()
    }

    /// Builds a schedule from `(round, event)` pairs; entries are stably
    /// sorted by round.
    pub fn from_entries(mut entries: Vec<(u64, SubstrateEvent)>) -> Self {
        entries.sort_by_key(|&(t, _)| t);
        SubstrateEvents { entries }
    }

    /// Parses the cell grammar (see the type docs). The empty string is
    /// the empty schedule.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for item in text.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let mut parts = item.splitn(3, ':');
            let time = parts
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| format!("events: bad time in \"{item}\""))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("events: missing kind in \"{item}\""))?;
            let rest = parts.next().unwrap_or("");
            let event = match kind {
                "fail-link" => {
                    let (a, b) = parse_endpoints(rest)?;
                    SubstrateEvent::FailLink(a, b)
                }
                "recover-link" => {
                    let (a, b) = parse_endpoints(rest)?;
                    SubstrateEvent::RecoverLink(a, b)
                }
                "fail-node" => SubstrateEvent::FailNode(
                    rest.parse::<usize>()
                        .map(NodeId::new)
                        .map_err(|_| format!("events: bad node index \"{rest}\""))?,
                ),
                "recover-node" => SubstrateEvent::RecoverNode(
                    rest.parse::<usize>()
                        .map(NodeId::new)
                        .map_err(|_| format!("events: bad node index \"{rest}\""))?,
                ),
                "degrade-link" => {
                    let (ep, factor) = rest.split_once(':').ok_or_else(|| {
                        format!("events: degrade-link needs \"a-b:factor\", got \"{rest}\"")
                    })?;
                    let (a, b) = parse_endpoints(ep)?;
                    let f = factor
                        .parse::<f64>()
                        .ok()
                        .filter(|f| f.is_finite() && *f > 0.0)
                        .ok_or_else(|| {
                            format!(
                                "events: degrade factor must be finite and > 0, got \"{factor}\""
                            )
                        })?;
                    SubstrateEvent::DegradeLink(a, b, f)
                }
                other => {
                    return Err(format!(
                        "events: unknown event kind \"{other}\" (expected fail-link, \
                         recover-link, fail-node, recover-node or degrade-link)"
                    ))
                }
            };
            entries.push((time, event));
        }
        Ok(SubstrateEvents::from_entries(entries))
    }

    /// Renders the schedule back into the cell grammar. Empty schedules
    /// render as the empty string.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(t, e)| format!("{t}:{}", e.render()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The scheduled `(round, event)` pairs, sorted by round.
    pub fn entries(&self) -> &[(u64, SubstrateEvent)] {
        &self.entries
    }

    /// The earliest scheduled round, if any.
    pub fn first_time(&self) -> Option<u64> {
        self.entries.first().map(|&(t, _)| t)
    }

    /// The latest scheduled round, if any.
    pub fn last_time(&self) -> Option<u64> {
        self.entries.last().map(|&(t, _)| t)
    }

    /// Merges more entries into the schedule (used by the serve daemon's
    /// `POST /sessions/<name>/events`), keeping the time order.
    pub fn extend(&mut self, other: &SubstrateEvents) {
        self.entries.extend(other.entries.iter().cloned());
        self.entries.sort_by_key(|&(t, _)| t);
    }
}

/// An owned, mutable substrate: the graph, its (incrementally repaired)
/// distance matrix, and the failure bookkeeping needed to undo events.
#[derive(Clone, Debug)]
pub struct DynamicWorld {
    graph: Graph,
    dist: DistanceMatrix,
    /// Latency saved when a link failed via `fail-link`, keyed by the
    /// normalized endpoint pair.
    failed_links: BTreeMap<(usize, usize), f64>,
    /// For each failed node: the `(other endpoint, saved latency)` of every
    /// link its failure took down.
    failed_nodes: BTreeMap<usize, Vec<(usize, f64)>>,
}

impl DynamicWorld {
    /// Wraps a substrate and its prebuilt matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix size does not match the graph.
    pub fn new(graph: Graph, dist: DistanceMatrix) -> Self {
        assert_eq!(
            graph.node_count(),
            dist.node_count(),
            "DynamicWorld: distance matrix does not match graph"
        );
        DynamicWorld {
            graph,
            dist,
            failed_links: BTreeMap::new(),
            failed_nodes: BTreeMap::new(),
        }
    }

    /// The current (possibly degraded) substrate.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current distance matrix, kept in sync by incremental repair.
    pub fn dist(&self) -> &DistanceMatrix {
        &self.dist
    }

    fn key(a: NodeId, b: NodeId) -> (usize, usize) {
        let (a, b) = (a.index(), b.index());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Applies one event: mutates the graph, updates the bookkeeping and
    /// repairs the distance matrix. Returns the number of matrix rows the
    /// repair recomputed.
    ///
    /// Errors (unknown link, double failure, recovering a live link,
    /// degrading a failed link, node index out of range) leave the world
    /// unchanged.
    pub fn apply(&mut self, event: &SubstrateEvent) -> Result<usize, String> {
        let updates: Vec<EdgeUpdate> = match *event {
            SubstrateEvent::FailLink(a, b) => {
                let key = Self::key(a, b);
                let old = self
                    .graph
                    .edge_latency(a, b)
                    .ok_or_else(|| format!("events: no link {}-{}", a.index(), b.index()))?;
                if !old.is_finite() {
                    return Err(format!(
                        "events: link {}-{} is already down",
                        a.index(),
                        b.index()
                    ));
                }
                self.failed_links.insert(key, old);
                vec![EdgeUpdate {
                    a,
                    b,
                    old_latency: old,
                    new_latency: f64::INFINITY,
                }]
            }
            SubstrateEvent::RecoverLink(a, b) => {
                let key = Self::key(a, b);
                let saved = self.failed_links.remove(&key).ok_or_else(|| {
                    format!(
                        "events: link {}-{} is not failed (or went down with a node)",
                        a.index(),
                        b.index()
                    )
                })?;
                vec![EdgeUpdate {
                    a,
                    b,
                    old_latency: f64::INFINITY,
                    new_latency: saved,
                }]
            }
            SubstrateEvent::FailNode(n) => {
                if n.index() >= self.graph.node_count() {
                    return Err(format!("events: node {} out of range", n.index()));
                }
                if self.failed_nodes.contains_key(&n.index()) {
                    return Err(format!("events: node {} is already down", n.index()));
                }
                let taken: Vec<(usize, f64)> = self
                    .graph
                    .neighbors(n)
                    .filter(|e| e.latency.is_finite())
                    .map(|e| (e.target.index(), e.latency))
                    .collect();
                let updates = taken
                    .iter()
                    .map(|&(other, lat)| EdgeUpdate {
                        a: n,
                        b: NodeId::new(other),
                        old_latency: lat,
                        new_latency: f64::INFINITY,
                    })
                    .collect();
                self.failed_nodes.insert(n.index(), taken);
                updates
            }
            SubstrateEvent::RecoverNode(n) => {
                let taken = self
                    .failed_nodes
                    .remove(&n.index())
                    .ok_or_else(|| format!("events: node {} is not down", n.index()))?;
                let mut updates = Vec::new();
                for (other, lat) in taken {
                    if let Some(entry) = self.failed_nodes.get_mut(&other) {
                        // The other endpoint is still down: the link stays
                        // failed and its recovery transfers to that node.
                        entry.push((n.index(), lat));
                    } else {
                        updates.push(EdgeUpdate {
                            a: n,
                            b: NodeId::new(other),
                            old_latency: f64::INFINITY,
                            new_latency: lat,
                        });
                    }
                }
                updates
            }
            SubstrateEvent::DegradeLink(a, b, factor) => {
                let old = self
                    .graph
                    .edge_latency(a, b)
                    .ok_or_else(|| format!("events: no link {}-{}", a.index(), b.index()))?;
                if !old.is_finite() {
                    return Err(format!(
                        "events: cannot degrade failed link {}-{}",
                        a.index(),
                        b.index()
                    ));
                }
                vec![EdgeUpdate {
                    a,
                    b,
                    old_latency: old,
                    new_latency: old * factor,
                }]
            }
        };
        for up in &updates {
            self.graph
                .set_edge_latency(up.a, up.b, up.new_latency)
                .map_err(|e| format!("events: {e}"))?;
        }
        Ok(self.dist.repair(&self.graph, &updates))
    }
}

/// A resumable online session over a *dynamic* substrate: the evented
/// sibling of [`SimSession`](crate::session::SimSession).
///
/// Each [`step`](Self::step) first applies every scheduled event of the
/// current round to the owned [`DynamicWorld`], then plays the round
/// through the exact code path `SimSession` uses — with an empty schedule
/// the two are bit-identical. Snapshots record the schedule (and the
/// *mutated* substrate's fingerprint); [`resume`](Self::resume) replays
/// the already-applied events onto the pristine substrate before the
/// fingerprint guard runs, so resume-after-events stays bit-identical.
pub struct EventedSession<S: OnlineStrategy> {
    world: DynamicWorld,
    schedule: SubstrateEvents,
    params: CostParams,
    load: LoadModel,
    routing: RoutingPolicy,
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
    /// Opens a session owning the given substrate (pristine: no events
    /// applied yet) with the given initially active servers.
    ///
    /// # Panics
    ///
    /// Panics like [`SimContext::new`] on an empty graph, a mismatched
    /// matrix or invalid parameters.
    pub fn new(
        graph: Graph,
        dist: DistanceMatrix,
        schedule: SubstrateEvents,
        params: CostParams,
        load: LoadModel,
        mut strategy: S,
        initial: Vec<NodeId>,
    ) -> Self {
        let world = DynamicWorld::new(graph, dist);
        let fleet = Fleet::new(initial, &params);
        let ctx = SimContext::new(&world.graph, &world.dist, params, load);
        strategy.initialize(&ctx, &fleet);
        EventedSession {
            world,
            schedule,
            params,
            load,
            routing: RoutingPolicy::Nearest,
            strategy,
            fleet,
            t: 0,
        }
    }

    /// Builder-style override of the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Applies every event scheduled for round `t`, in schedule order.
    fn apply_due(&mut self, t: u64) -> Result<(), String> {
        // Schedules are small; a linear scan per round beats cursor
        // bookkeeping that live event appends would invalidate.
        let due: Vec<SubstrateEvent> = self
            .schedule
            .entries
            .iter()
            .filter(|&&(et, _)| et == t)
            .map(|&(_, e)| e)
            .collect();
        for event in due {
            self.world
                .apply(&event)
                .map_err(|e| format!("round {t}: {e}"))?;
        }
        Ok(())
    }

    /// Plays one round: scheduled events fire first (the strategy sees the
    /// changed world), then the round runs exactly as
    /// [`SimSession::step`](crate::session::SimSession::step) would.
    ///
    /// An event that cannot be applied (e.g. failing an unknown link)
    /// aborts the step *before* any cost is charged.
    pub fn step(&mut self, batch: &RoundRequests) -> Result<RoundRecord, String> {
        self.apply_due(self.t)?;
        let ctx = SimContext::new(&self.world.graph, &self.world.dist, self.params, self.load)
            .with_routing(self.routing);
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

    /// The owned world in its current (post-events) state.
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

    /// Captures the session as a restorable [`SessionSnapshot`]: like
    /// [`SimSession::snapshot`](crate::session::SimSession::snapshot), plus
    /// the event schedule, with the fingerprint taken from the *mutated*
    /// substrate.
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
            substrate_fingerprint: self.world.graph.fingerprint(),
            params_summary: self.params.summary(),
            strategy_name: self.strategy.name(),
            strategy_state,
            active,
            inactive,
            epoch,
            metrics: None,
            substrate_events: if self.schedule.is_empty() {
                None
            } else {
                Some(self.schedule.render())
            },
        })
    }

    /// Reopens a session from a snapshot against the **pristine** substrate
    /// (no events applied): the schedule recorded in the snapshot is
    /// parsed, every event with time `< snapshot.t` is replayed onto the
    /// world, and only then do the usual resume guards (fingerprint,
    /// parameter summary, strategy name, node bounds) run — so a
    /// checkpoint taken after failures resumes bit-identically.
    pub fn resume(
        graph: Graph,
        dist: DistanceMatrix,
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
        let fingerprint = world.graph.fingerprint();
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
        check_nodes(snapshot, &strategy, world.graph.node_count())?;
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
            routing: RoutingPolicy::Nearest,
            strategy,
            fleet,
            t: snapshot.t,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunRecord;
    use crate::session::SimSession;
    use flexserve_graph::gen::{unit_line, GenConfig};
    use flexserve_workload::{JsonValue, Trace};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Chases the first request origin and counts decisions (exportable
    /// state, so snapshot/resume is exercised).
    #[derive(Default)]
    struct Chaser {
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
            // Chase the first origin still reachable from the current
            // placement; a fully cut-off round keeps the placement.
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

    fn trace_hopping(len: usize, rounds: usize) -> Trace {
        Trace::new(
            (0..rounds)
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
    fn grammar_round_trips_and_sorts() {
        let text = "10:recover-link:2-7,5:fail-link:2-7,12:fail-node:3,8:degrade-link:1-4:2.5,\
                    14:recover-node:3";
        let ev = SubstrateEvents::parse(text).unwrap();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev.first_time(), Some(5));
        assert_eq!(ev.last_time(), Some(14));
        // Rendered sorted by time; re-parsing is a fixed point.
        let rendered = ev.render();
        assert_eq!(
            rendered,
            "5:fail-link:2-7,8:degrade-link:1-4:2.5,10:recover-link:2-7,12:fail-node:3,\
             14:recover-node:3"
        );
        assert_eq!(SubstrateEvents::parse(&rendered).unwrap(), ev);
        // Empty schedule round trip.
        let empty = SubstrateEvents::parse("").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.render(), "");
    }

    #[test]
    fn grammar_rejects_malformed_entries() {
        for bad in [
            "x:fail-link:1-2",
            "5:fail-link:1",
            "5:fail-link:1-b",
            "5:explode:1-2",
            "5:degrade-link:1-2",
            "5:degrade-link:1-2:0",
            "5:degrade-link:1-2:-3",
            "5:degrade-link:1-2:inf",
            "5:fail-node:x",
        ] {
            assert!(SubstrateEvents::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn world_apply_guards_and_bookkeeping() {
        let g = unit_line(4).unwrap(); // 0-1-2-3
        let dist = DistanceMatrix::build(&g);
        let mut w = DynamicWorld::new(g, dist);

        // Unknown link / double fail / bad recover.
        assert!(w.apply(&SubstrateEvent::FailLink(n(0), n(3))).is_err());
        assert!(w.apply(&SubstrateEvent::RecoverLink(n(0), n(1))).is_err());
        w.apply(&SubstrateEvent::FailLink(n(1), n(2))).unwrap();
        assert!(w.apply(&SubstrateEvent::FailLink(n(1), n(2))).is_err());
        assert!(w
            .apply(&SubstrateEvent::DegradeLink(n(1), n(2), 2.0))
            .is_err());
        assert!(w.dist().get(n(0), n(3)).is_infinite());
        w.apply(&SubstrateEvent::RecoverLink(n(1), n(2))).unwrap();
        assert_eq!(w.dist().get(n(0), n(3)), 3.0);

        // Node guards.
        assert!(w.apply(&SubstrateEvent::FailNode(n(9))).is_err());
        assert!(w.apply(&SubstrateEvent::RecoverNode(n(2))).is_err());
        w.apply(&SubstrateEvent::FailNode(n(2))).unwrap();
        assert!(w.apply(&SubstrateEvent::FailNode(n(2))).is_err());
        // A link taken down by the node is not recoverable as a link event.
        assert!(w.apply(&SubstrateEvent::RecoverLink(n(1), n(2))).is_err());
        w.apply(&SubstrateEvent::RecoverNode(n(2))).unwrap();
        assert_eq!(w.dist().get(n(0), n(3)), 3.0);
    }

    #[test]
    fn overlapping_node_failures_recover_cleanly() {
        // 0-1-2-3: nodes 1 and 2 share the link 1-2. Fail both, recover in
        // both orders; the shared link must come back exactly once, when
        // its *last* down endpoint recovers.
        let g = unit_line(4).unwrap();
        let pristine = DistanceMatrix::build(&g);
        let mut w = DynamicWorld::new(g.clone(), pristine.clone());

        w.apply(&SubstrateEvent::FailNode(n(1))).unwrap();
        w.apply(&SubstrateEvent::FailNode(n(2))).unwrap();
        w.apply(&SubstrateEvent::RecoverNode(n(1))).unwrap();
        // 1 is back but 2 is still down: 1-2 and 2-3 stay failed.
        assert_eq!(w.dist().get(n(0), n(1)), 1.0);
        assert!(w.dist().get(n(0), n(2)).is_infinite());
        assert!(w.dist().get(n(2), n(3)).is_infinite());
        w.apply(&SubstrateEvent::RecoverNode(n(2))).unwrap();
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(
                    w.dist().get(n(u), n(v)).to_bits(),
                    pristine.get(n(u), n(v)).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_sim_session() {
        let g = unit_line(7).unwrap();
        let dist = DistanceMatrix::build(&g);
        let trace = trace_hopping(7, 20);

        let ctx = SimContext::new(&g, &dist, CostParams::default(), LoadModel::Linear);
        let mut plain = SimSession::new(ctx, Chaser::default(), vec![n(0)]);
        let mut evented = EventedSession::new(
            g.clone(),
            dist.clone(),
            SubstrateEvents::new(),
            CostParams::default(),
            LoadModel::Linear,
            Chaser::default(),
            vec![n(0)],
        );
        let mut a = RunRecord::default();
        let mut b = RunRecord::default();
        for round in trace.iter() {
            a.rounds.push(plain.step(round));
            b.rounds.push(evented.step(round).unwrap());
        }
        records_equal(&a, &b);
    }

    /// The engine-level fail → recover pin: after a link fails and later
    /// recovers, the distance matrix is bit-identical to the pre-failure
    /// matrix, and a run whose fail/recover window sees no requests behind
    /// the failure produces the exact placement trajectory of an
    /// event-free run.
    #[test]
    fn fail_recover_restores_matrix_and_trajectory() {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let g = flexserve_graph::gen::erdos_renyi(24, 0.12, &cfg, &mut rng).unwrap();
        let pristine = DistanceMatrix::build(&g);
        let trace = trace_hopping(24, 30);

        // Pick an actual edge to fail.
        let e = g.edges().next().unwrap();
        let (a, b) = (e.source, e.target);
        let schedule = SubstrateEvents::parse(&format!(
            "10:fail-link:{}-{},11:recover-link:{}-{}",
            a.index(),
            b.index(),
            a.index(),
            b.index()
        ))
        .unwrap();

        let mut evented = EventedSession::new(
            g.clone(),
            pristine.clone(),
            schedule,
            CostParams::default(),
            LoadModel::Linear,
            Chaser::default(),
            vec![n(0)],
        );
        let fingerprint_before = g.fingerprint();
        for round in trace.iter() {
            evented.step(round).unwrap();
        }
        // Matrix and substrate restored bit for bit.
        assert_eq!(evented.world().graph().fingerprint(), fingerprint_before);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    evented.world().dist().get(u, v).to_bits(),
                    pristine.get(u, v).to_bits(),
                    "({u},{v}) differs after fail->recover"
                );
            }
        }
        assert_eq!(evented.t(), 30);

        // A fail → recover within the same round (applied in order before
        // the round plays) is a perfect no-op: the whole run's placement
        // trajectory is bit-identical to an event-free run.
        let noop = SubstrateEvents::parse(&format!(
            "10:fail-link:{}-{},10:recover-link:{}-{}",
            a.index(),
            b.index(),
            a.index(),
            b.index()
        ))
        .unwrap();
        let run = |schedule: SubstrateEvents| {
            let mut s = EventedSession::new(
                g.clone(),
                pristine.clone(),
                schedule,
                CostParams::default(),
                LoadModel::Linear,
                Chaser::default(),
                vec![n(0)],
            );
            let mut rec = RunRecord::default();
            for round in trace.iter() {
                rec.rounds.push(s.step(round).unwrap());
            }
            rec
        };
        records_equal(&run(noop), &run(SubstrateEvents::new()));
    }

    #[test]
    fn failures_reroute_and_penalize_without_panicking() {
        // Line 0-1-2-3-4, server chased along; fail node 4's only link so
        // requests at 4 become unreachable, then recover.
        let g = unit_line(5).unwrap();
        let dist = DistanceMatrix::build(&g);
        let schedule = SubstrateEvents::parse("2:fail-node:4,4:recover-node:4").unwrap();
        let mut s = EventedSession::new(
            g,
            dist,
            schedule,
            CostParams::default(),
            LoadModel::None,
            Chaser::default(),
            vec![n(0)],
        );
        let all4 = RoundRequests::new(vec![n(4); 2]);
        let r0 = s.step(&all4).unwrap(); // reachable: chased to 4
        assert!(r0.costs.access.is_finite());
        let _ = s.step(&RoundRequests::new(vec![n(0)])).unwrap(); // server back to 0
        let r2 = s.step(&all4).unwrap(); // node 4 just failed: penalized
        assert!(r2.costs.access >= 2.0 * crate::routing::UNREACHABLE_PENALTY);
        assert!(r2.costs.access.is_finite(), "penalty, not infinity");
        let _ = s.step(&RoundRequests::new(vec![n(1)])).unwrap();
        let r4 = s.step(&all4).unwrap(); // recovered: reachable again
        assert!(r4.costs.access < crate::routing::UNREACHABLE_PENALTY);
    }

    #[test]
    fn snapshot_resume_mid_events_is_bit_identical() {
        let g = unit_line(8).unwrap();
        let dist = DistanceMatrix::build(&g);
        let trace = trace_hopping(8, 24);
        let schedule =
            SubstrateEvents::parse("5:fail-link:3-4,9:degrade-link:0-1:2.5,15:recover-link:3-4")
                .unwrap();
        let make = || {
            EventedSession::new(
                g.clone(),
                dist.clone(),
                schedule.clone(),
                CostParams::default(),
                LoadModel::Linear,
                Chaser::default(),
                vec![n(0)],
            )
        };

        let mut uninterrupted = make();
        let mut full = RunRecord::default();
        for round in trace.iter() {
            full.rounds.push(uninterrupted.step(round).unwrap());
        }

        // Checkpoint at t=12: one failure and one degradation applied, the
        // recovery still pending.
        let mut first = make();
        let mut stitched = RunRecord::default();
        for round in trace.iter().take(12) {
            stitched.rounds.push(first.step(round).unwrap());
        }
        let snap = first.snapshot().unwrap();
        assert_eq!(
            snap.substrate_events.as_deref(),
            Some(schedule.render()).as_deref()
        );
        // Round-trip through the JSON text, as a daemon restart would.
        let snap = SessionSnapshot::from_json(&snap.to_json()).unwrap();
        drop(first);

        let mut resumed = EventedSession::resume(
            g.clone(),
            dist.clone(),
            CostParams::default(),
            LoadModel::Linear,
            Chaser::default(),
            &snap,
        )
        .unwrap();
        assert_eq!(resumed.t(), 12);
        for round in trace.iter().skip(12) {
            stitched.rounds.push(resumed.step(round).unwrap());
        }
        records_equal(&full, &stitched);

        // Resuming without replay (tampered schedule) trips the
        // fingerprint guard instead of silently diverging.
        let mut tampered = snap.clone();
        tampered.substrate_events = None;
        let err = EventedSession::resume(
            g.clone(),
            dist.clone(),
            CostParams::default(),
            LoadModel::Linear,
            Chaser::default(),
            &tampered,
        )
        .unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn append_events_rejects_the_past() {
        let g = unit_line(4).unwrap();
        let dist = DistanceMatrix::build(&g);
        let mut s = EventedSession::new(
            g,
            dist,
            SubstrateEvents::new(),
            CostParams::default(),
            LoadModel::None,
            Chaser::default(),
            vec![n(0)],
        );
        for _ in 0..3 {
            s.step(&RoundRequests::new(vec![n(1)])).unwrap();
        }
        let past = SubstrateEvents::parse("1:fail-link:0-1").unwrap();
        assert!(s.append_events(&past).is_err());
        let future = SubstrateEvents::parse("5:fail-link:0-1,7:recover-link:0-1").unwrap();
        s.append_events(&future).unwrap();
        assert_eq!(s.schedule().len(), 2);
        // The appended events actually fire.
        for _ in 3..6 {
            s.step(&RoundRequests::new(vec![n(1)])).unwrap();
        }
        assert!(s.world().dist().get(n(0), n(1)).is_infinite());
    }

    #[test]
    fn bad_event_aborts_step_before_costs() {
        let g = unit_line(3).unwrap();
        let dist = DistanceMatrix::build(&g);
        let schedule = SubstrateEvents::parse("0:fail-link:0-2").unwrap(); // no such link
        let mut s = EventedSession::new(
            g,
            dist,
            schedule,
            CostParams::default(),
            LoadModel::None,
            Chaser::default(),
            vec![n(0)],
        );
        let err = s.step(&RoundRequests::new(vec![n(1)])).unwrap_err();
        assert!(err.contains("no link"), "{err}");
        assert_eq!(s.t(), 0, "failed step does not advance the round");
    }
}
