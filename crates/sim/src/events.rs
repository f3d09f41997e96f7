//! Substrate events: scheduled failures, recoveries and degradations of
//! the physical network, and the [`DynamicWorld`] they mutate.
//!
//! Every [`EventedSession`](crate::session::EventedSession) plays over a
//! `DynamicWorld`. The world starts out sharing the caller's [`Graph`] and
//! [`DistanceMatrix`] through `Arc`s, so many sessions on one cached
//! substrate hold one matrix, as [`run_online`](crate::engine::run_online)
//! runs do by borrowing it. The first event applied copies both
//! (`Arc::make_mut`); from then on the world repairs its own matrix
//! incrementally through [`DistanceMatrix::repair`] instead of rebuilding
//! it after every event. An empty schedule never copies anything.
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
use std::sync::Arc;

use flexserve_graph::{DistanceMatrix, EdgeUpdate, Graph, NodeId};

use crate::context::SimContext;
use crate::load::LoadModel;
use crate::params::CostParams;

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

/// Parses one node index. An index past the `u32` id range is refused by
/// name instead of truncated onto another node.
fn parse_node(p: &str) -> Result<NodeId, String> {
    let raw = p
        .parse::<usize>()
        .map_err(|_| format!("events: bad node index \"{p}\""))?;
    NodeId::try_new(raw).ok_or_else(|| format!("events: node index {raw} is out of range"))
}

/// Parses an `a-b` endpoint pair.
fn parse_endpoints(s: &str) -> Result<(NodeId, NodeId), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("events: expected \"a-b\" endpoints, got \"{s}\""))?;
    Ok((parse_node(a)?, parse_node(b)?))
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
                "fail-node" => SubstrateEvent::FailNode(parse_node(rest)?),
                "recover-node" => SubstrateEvent::RecoverNode(parse_node(rest)?),
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

/// A copy-on-write substrate: the graph, its (incrementally repaired)
/// distance matrix, and the failure bookkeeping needed to undo events.
/// Graph and matrix stay shared with whoever handed them in until the
/// first applied event copies them.
#[derive(Clone, Debug)]
pub struct DynamicWorld {
    graph: Arc<Graph>,
    dist: Arc<DistanceMatrix>,
    /// Latency saved when a link failed via `fail-link`, keyed by the
    /// normalized endpoint pair.
    failed_links: BTreeMap<(usize, usize), f64>,
    /// For each failed node: the `(other endpoint, saved latency)` of every
    /// link its failure took down.
    failed_nodes: BTreeMap<usize, Vec<(usize, f64)>>,
}

impl DynamicWorld {
    /// Wraps a substrate and its prebuilt matrix, owned or shared.
    ///
    /// # Panics
    ///
    /// Panics when the matrix size does not match the graph.
    pub fn new(graph: impl Into<Arc<Graph>>, dist: impl Into<Arc<DistanceMatrix>>) -> Self {
        let (graph, dist) = (graph.into(), dist.into());
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

    /// The pricing context over the current world (nearest routing).
    pub(crate) fn context(&self, params: CostParams, load: LoadModel) -> SimContext<'_> {
        SimContext::new(&self.graph, &self.dist, params, load)
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
    /// repairs the distance matrix, copying a shared graph and matrix
    /// first. Returns the number of matrix rows the repair recomputed.
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
        let graph = Arc::make_mut(&mut self.graph);
        for up in &updates {
            graph
                .set_edge_latency(up.a, up.b, up.new_latency)
                .map_err(|e| format!("events: {e}"))?;
        }
        Ok(Arc::make_mut(&mut self.dist).repair(&self.graph, &updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SessionSnapshot;
    use crate::engine::{OnlineStrategy, RunRecord};
    use crate::fleet::Fleet;
    use crate::session::play_round;
    use crate::session::tests::{n, play, records_equal, trace_hopping, Chaser, Fx};
    use flexserve_graph::gen::{unit_line, GenConfig};
    use flexserve_workload::RoundRequests;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    /// Node ids past `u32` are refused by name, not truncated onto another
    /// node (`4294967296` used to parse as node 0).
    #[test]
    fn grammar_refuses_node_ids_past_u32() {
        for (bad, id) in [
            ("5:fail-node:4294967296", "4294967296"),
            ("5:recover-node:4294967297", "4294967297"),
            ("6:fail-link:4294967297-2", "4294967297"),
            ("6:recover-link:2-4294967298", "4294967298"),
            ("7:degrade-link:4294967299-1:2", "4294967299"),
        ] {
            let err = SubstrateEvents::parse(bad).unwrap_err();
            assert!(err.contains(id), "{bad}: {err}");
        }
        let max = u32::MAX;
        let ok = SubstrateEvents::parse(&format!("5:fail-node:{max}")).unwrap();
        assert_eq!(ok.render(), format!("5:fail-node:{max}"));
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

    /// The engine-level fail → recover pin: after a link fails and later
    /// recovers, the distance matrix is bit-identical to the pre-failure
    /// matrix, and a run whose fail/recover window sees no requests behind
    /// the failure produces the exact placement trajectory of an
    /// event-free run.
    #[test]
    fn fail_recover_restores_matrix_and_trajectory() {
        let cfg = GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let fx = Fx::new(flexserve_graph::gen::erdos_renyi(24, 0.12, &cfg, &mut rng).unwrap());
        let trace = trace_hopping(24, 30);

        // Pick an actual edge to fail.
        let e = fx.g.edges().next().unwrap();
        let (a, b) = (e.source.index(), e.target.index());
        let mut evented = fx.session(
            &format!("10:fail-link:{a}-{b},11:recover-link:{a}-{b}"),
            Chaser::default(),
        );
        play(&mut evented, &trace);
        // Matrix and substrate restored bit for bit.
        assert_eq!(evented.world().graph().fingerprint(), fx.g.fingerprint());
        for u in fx.g.nodes() {
            for v in fx.g.nodes() {
                assert_eq!(
                    evented.world().dist().get(u, v).to_bits(),
                    fx.m.get(u, v).to_bits(),
                    "({u},{v}) differs after fail->recover"
                );
            }
        }
        assert_eq!(evented.t(), 30);

        // A fail → recover within the same round (applied in order before
        // the round plays) is a perfect no-op: the whole run's placement
        // trajectory is bit-identical to an event-free run.
        let noop = format!("10:fail-link:{a}-{b},10:recover-link:{a}-{b}");
        let run = |schedule: &str| play(&mut fx.session(schedule, Chaser::default()), &trace);
        records_equal(&run(&noop), &run(""));
    }

    /// An empty schedule is the static substrate: stepped round by round,
    /// the session matches the borrowed-context step loop (fresh fleet,
    /// `initialize`, then `play_round` per round) bit for bit, fleet
    /// included, and never copies the shared matrix.
    #[test]
    fn empty_schedule_is_bit_identical_to_sim_session() {
        let fx = Fx::line(7);
        let trace = trace_hopping(7, 20);
        let ctx = SimContext::new(&fx.g, &fx.m, CostParams::default(), LoadModel::Linear);
        let mut strategy = Chaser::default();
        let mut fleet = Fleet::new(vec![n(0)], &ctx.params);
        strategy.initialize(&ctx, &fleet);

        let mut evented = fx.session("", Chaser::default());
        let mut a = RunRecord::default();
        let mut b = RunRecord::default();
        for (t, round) in (0..).zip(trace.iter()) {
            a.rounds
                .push(play_round(&ctx, &mut strategy, &mut fleet, t, round));
            b.rounds.push(evented.step(round).unwrap());
            assert_eq!(
                evented.fleet().active(),
                fleet.active(),
                "fleet differs at t={t}"
            );
        }
        records_equal(&a, &b);
        assert!(std::ptr::eq(evented.world().dist(), &*fx.m));
    }

    #[test]
    fn failures_reroute_and_penalize_without_panicking() {
        // Line 0-1-2-3-4, server chased along; fail node 4's only link so
        // requests at 4 become unreachable, then recover.
        let fx = Fx::line(5);
        let mut s = fx.session("2:fail-node:4,4:recover-node:4", Chaser::default());
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
        let fx = Fx::line(8);
        let trace = trace_hopping(8, 24);
        let schedule = "5:fail-link:3-4,9:degrade-link:0-1:2.5,15:recover-link:3-4";
        let full = play(&mut fx.session(schedule, Chaser::default()), &trace);

        // Checkpoint at t=12: one failure and one degradation applied, the
        // recovery still pending.
        let mut first = fx.session(schedule, Chaser::default());
        let mut stitched = play(&mut first, &trace.slice(0, 12));
        let snap = first.snapshot().unwrap();
        assert_eq!(snap.substrate_events.as_deref(), Some(schedule));
        // Round-trip through the JSON text, as a daemon restart would.
        let snap = SessionSnapshot::from_json(&snap.to_json()).unwrap();
        drop(first);

        let params = CostParams::default();
        let mut resumed = fx.resume(params, Chaser::default(), &snap).unwrap();
        assert_eq!(resumed.t(), 12);
        stitched
            .rounds
            .extend(play(&mut resumed, &trace.slice(12, 24)).rounds);
        records_equal(&full, &stitched);

        // Resuming without replay (tampered schedule) trips the
        // fingerprint guard instead of silently diverging.
        let mut tampered = snap.clone();
        tampered.substrate_events = None;
        let err = fx.resume(params, Chaser::default(), &tampered).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn append_events_rejects_the_past() {
        let mut s = Fx::line(4).session("", Chaser::default());
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
        // No link 0-2 on the line.
        let mut s = Fx::line(3).session("0:fail-link:0-2", Chaser::default());
        let err = s.step(&RoundRequests::new(vec![n(1)])).unwrap_err();
        assert!(err.contains("no link"), "{err}");
        assert_eq!(s.t(), 0, "failed step does not advance the round");
    }
}
