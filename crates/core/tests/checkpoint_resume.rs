//! Checkpoint/restore determinism: a run snapshotted at round T/2,
//! serialized to checkpoint JSON, and resumed into freshly constructed
//! strategy instances must be **bit-identical** to an uninterrupted run —
//! for ONTH, ONBR (both threshold modes), OFFSTAT and the static
//! baseline. This is the contract `flexserve serve` relies on when a
//! daemon is restarted from a checkpoint file. A checkpoint naming
//! nodes the substrate lacks is refused.

use std::sync::Arc;

use flexserve_core::{OffStatPlacement, OnBr, OnTh, StaticStrategy};
use flexserve_graph::gen::{erdos_renyi, unit_line, GenConfig};
use flexserve_graph::{DistanceMatrix, Graph, NodeId};
use flexserve_sim::{
    run_online, CostParams, EventedSession, LoadModel, OnlineStrategy, RunRecord, SessionSnapshot,
    SimContext, SubstrateEvents,
};
use flexserve_workload::{record, CommuterScenario, JsonValue, LoadVariant, RoundRequests, Trace};

use rand::rngs::SmallRng;
use rand::SeedableRng;

const ROUNDS: u64 = 120;

/// A substrate every session of a test shares, with its cost model.
struct Fx {
    graph: Arc<Graph>,
    matrix: Arc<DistanceMatrix>,
    params: CostParams,
}

impl Fx {
    fn with(graph: Graph, params: CostParams) -> Self {
        let matrix = Arc::new(DistanceMatrix::build(&graph));
        Fx {
            graph: Arc::new(graph),
            matrix,
            params,
        }
    }

    /// An ER-60 substrate with a budget of four servers.
    fn new() -> Self {
        let mut rng = SmallRng::seed_from_u64(42);
        let graph = erdos_renyi(60, 0.05, &GenConfig::default(), &mut rng).unwrap();
        Fx::with(graph, CostParams::default().with_max_servers(4))
    }

    /// The 10-node unit line the refusal tests checkpoint on.
    fn line() -> Self {
        Fx::with(unit_line(10).unwrap(), CostParams::default())
    }

    fn ctx(&self) -> SimContext<'_> {
        SimContext::new(&self.graph, &self.matrix, self.params, LoadModel::Linear)
    }

    /// An event-free session over the shared substrate.
    fn session<S: OnlineStrategy>(&self, strategy: S, initial: Vec<NodeId>) -> EventedSession<S> {
        EventedSession::new(
            Arc::clone(&self.graph),
            Arc::clone(&self.matrix),
            SubstrateEvents::new(),
            self.params,
            LoadModel::Linear,
            strategy,
            initial,
        )
    }

    fn resume<S: OnlineStrategy>(
        &self,
        strategy: S,
        snapshot: &SessionSnapshot,
    ) -> Result<EventedSession<S>, String> {
        EventedSession::resume(
            Arc::clone(&self.graph),
            Arc::clone(&self.matrix),
            self.params,
            LoadModel::Linear,
            strategy,
            snapshot,
        )
    }

    fn trace(&self) -> Trace {
        let mut scenario =
            CommuterScenario::with_matrix(&self.graph, &self.matrix, 8, 5, LoadVariant::Dynamic, 7);
        record(&mut scenario, ROUNDS)
    }
}

fn assert_bit_identical(label: &str, a: &RunRecord, b: &RunRecord) {
    assert_eq!(a.len(), b.len(), "{label}: round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.t, y.t, "{label}: round index");
        for (cx, cy, part) in [
            (x.costs.access, y.costs.access, "access"),
            (x.costs.running, y.costs.running, "running"),
            (x.costs.migration, y.costs.migration, "migration"),
            (x.costs.creation, y.costs.creation, "creation"),
        ] {
            assert_eq!(
                cx.to_bits(),
                cy.to_bits(),
                "{label}: {part} cost differs at t={} ({cx} vs {cy})",
                x.t
            );
        }
        assert_eq!(x.active_servers, y.active_servers, "{label}: t={}", x.t);
        assert_eq!(x.inactive_servers, y.inactive_servers, "{label}: t={}", x.t);
        assert_eq!(x.requests, y.requests, "{label}: t={}", x.t);
    }
}

/// Runs `make()`'s strategy uninterrupted, then again with a
/// snapshot → JSON → restore cycle at round `ROUNDS/2` into a *fresh*
/// `make()` instance, and asserts the two logs match bit for bit.
fn check_resume<S, F>(label: &str, fx: &Fx, trace: &Trace, make: F)
where
    S: OnlineStrategy,
    F: Fn() -> S,
{
    let ctx = fx.ctx();
    let initial = vec![NodeId::new(0)];

    let uninterrupted = run_online(&ctx, trace, &mut make(), initial.clone());

    let half = (ROUNDS / 2) as usize;
    let mut session = fx.session(make(), initial);
    let mut resumed = RunRecord::default();
    for round in trace.iter().take(half) {
        resumed.rounds.push(session.step(round).unwrap());
    }

    // Serialize exactly as the serve daemon writes the checkpoint file…
    let text = session.snapshot().expect("snapshot").to_json();
    drop(session);
    // …and restart from the bytes alone.
    let snapshot = SessionSnapshot::from_json(&text).expect("parse checkpoint");
    let mut session = fx.resume(make(), &snapshot).expect("resume");
    assert_eq!(session.t(), half as u64, "{label}: resumed position");
    for round in trace.iter().skip(half) {
        resumed.rounds.push(session.step(round).unwrap());
    }

    assert_bit_identical(label, &uninterrupted, &resumed);
    // The strategies did real work — otherwise this test proves nothing.
    assert!(
        uninterrupted.total().total() > 0.0,
        "{label}: trivial run, test is vacuous"
    );
}

#[test]
fn onth_resumes_bit_identically() {
    let fx = Fx::new();
    let trace = fx.trace();
    check_resume("ONTH", &fx, &trace, OnTh::new);
    let reconf = run_online(&fx.ctx(), &trace, &mut OnTh::new(), vec![NodeId::new(0)])
        .total()
        .migration;
    assert!(reconf > 0.0, "ONTH must actually reconfigure in this cell");
}

#[test]
fn onbr_fixed_resumes_bit_identically() {
    let fx = Fx::new();
    let trace = fx.trace();
    check_resume("ONBR-fixed", &fx, &trace, || OnBr::fixed(&fx.ctx()));
}

#[test]
fn onbr_dyn_resumes_bit_identically() {
    let fx = Fx::new();
    let trace = fx.trace();
    check_resume("ONBR-dyn", &fx, &trace, || OnBr::dynamic(&fx.ctx()));
}

#[test]
fn offstat_resumes_bit_identically() {
    let fx = Fx::new();
    let trace = fx.trace();
    let ctx = fx.ctx();
    // The placement is derived from the trace once; resume restores it
    // from the checkpoint, so the fresh instances start empty.
    let placement = OffStatPlacement::from_trace(&ctx, &trace).target().to_vec();
    assert!(!placement.is_empty());
    check_resume("OFFSTAT", &fx, &trace, || {
        OffStatPlacement::new(placement.clone())
    });
}

#[test]
fn static_baseline_resumes_bit_identically() {
    let fx = Fx::new();
    let trace = fx.trace();
    check_resume("STATIC", &fx, &trace, StaticStrategy::new);
}

#[test]
fn v1_checkpoints_resume_bit_identically() {
    // Files written before the v2 metrics bump must keep restoring: a v1
    // document is byte-for-byte a v2 document with the old format tag and
    // no metrics block, and the simulation state it carries is identical.
    let fx = Fx::new();
    let trace = fx.trace();
    let ctx = fx.ctx();
    let initial = vec![NodeId::new(0)];

    let uninterrupted = run_online(&ctx, &trace, &mut OnTh::new(), initial.clone());

    let half = (ROUNDS / 2) as usize;
    let mut session = fx.session(OnTh::new(), initial);
    let mut resumed = RunRecord::default();
    for round in trace.iter().take(half) {
        resumed.rounds.push(session.step(round).unwrap());
    }
    let text = session.snapshot().expect("snapshot").to_json().replace(
        flexserve_sim::CHECKPOINT_FORMAT,
        flexserve_sim::CHECKPOINT_FORMAT_V1,
    );
    assert!(text.contains("flexserve-checkpoint-v1"), "{text}");
    assert!(!text.contains("\"metrics\""), "{text}");
    drop(session);

    let snapshot = SessionSnapshot::from_json(&text).expect("parse v1 checkpoint");
    assert!(snapshot.metrics.is_none());
    let mut session = fx.resume(OnTh::new(), &snapshot).expect("resume from v1");
    for round in trace.iter().skip(half) {
        resumed.rounds.push(session.step(round).unwrap());
    }
    assert_bit_identical("ONTH-v1", &uninterrupted, &resumed);
}

#[test]
fn snapshot_rejects_import_into_mismatched_construction() {
    let fx = Fx::new();
    let trace = fx.trace();
    let mut session = fx.session(OnTh::with_y(2.0), vec![NodeId::new(0)]);
    for round in trace.iter().take(10) {
        session.step(round).unwrap();
    }
    let snap = session.snapshot().unwrap();
    // Same strategy name, different construction parameter: refused.
    let err = fx.resume(OnTh::with_y(3.0), &snap).unwrap_err();
    assert!(err.contains("y="), "{err}");
}

/// `snapshot` with strategy-state field `key` replaced by `value`.
fn with_state_field(snapshot: &SessionSnapshot, key: &str, value: JsonValue) -> SessionSnapshot {
    let mut bad = snapshot.clone();
    match &mut bad.strategy_state {
        JsonValue::Obj(pairs) => {
            let slot = pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("state field");
            slot.1 = value;
        }
        other => panic!("state is not an object: {}", other.render()),
    }
    bad
}

/// Checkpoints `make()`'s strategy on `unit-line:10` after one round,
/// then, per `(key, value, want)` of `swaps`, replaces state field `key`
/// by `value`: the resume must refuse it with an error containing `want`.
fn assert_swaps_refused<S, F>(label: &str, line: &Fx, make: F, swaps: &[(&str, &str, &str)])
where
    S: OnlineStrategy,
    F: Fn() -> S,
{
    let mut session = line.session(make(), vec![NodeId::new(0)]);
    session
        .step(&RoundRequests::new(vec![NodeId::new(9), NodeId::new(4)]))
        .unwrap();
    let snap = session.snapshot().unwrap();
    // The untouched checkpoint resumes.
    if let Err(e) = line.resume(make(), &snap) {
        panic!("{label}: {e}");
    }
    for &(key, value, want) in swaps {
        let bad = with_state_field(&snap, key, JsonValue::parse(value).unwrap());
        let err = match line.resume(make(), &bad) {
            Ok(_) => panic!("{label} {key}: resumed {value}"),
            Err(e) => e,
        };
        assert!(err.contains(want), "{label} {key}: {err}");
    }
}

/// The two swaps every window field must refuse: a node past the
/// 10-node line, and an id past `u32` that must not be truncated.
fn window_swaps(key: &str) -> [(&str, &'static str, &'static str); 2] {
    [
        (
            key,
            "[[[50,1]]]",
            "node n50 but the substrate has only 10 nodes",
        ),
        (
            key,
            "[[[4294967299,1]]]",
            "origin 4294967299 is out of range",
        ),
    ]
}

/// A checkpoint whose strategy state (ONBR's and ONTH's windows,
/// OFFSTAT's target) names a node the substrate lacks is refused at
/// resume, instead of panicking on the first distance lookup; so is an id past `u32`, instead of being truncated onto
/// another node.
#[test]
fn resume_refuses_strategy_state_naming_off_substrate_nodes() {
    let line = Fx::line();
    let ctx = line.ctx();
    assert_swaps_refused(
        "ONBR-fixed",
        &line,
        || OnBr::fixed(&ctx),
        &window_swaps("window"),
    );
    let onth = [window_swaps("small_window"), window_swaps("large_window")].concat();
    assert_swaps_refused("ONTH", &line, OnTh::new, &onth);
    let target = [NodeId::new(0)];
    assert_swaps_refused(
        "OFFSTAT",
        &line,
        || OffStatPlacement::new(target.to_vec()),
        &[
            (
                "target",
                "[50]",
                "node n50 but the substrate has only 10 nodes",
            ),
            (
                "target",
                "[4294967299]",
                "target node 4294967299 is out of range",
            ),
        ],
    );
}

/// Fleet node ids past `u32` are refused by name when the checkpoint is
/// parsed, which resume does first, instead of resuming with the server
/// truncated onto node `n3`.
#[test]
fn checkpoint_refuses_fleet_node_ids_past_u32() {
    let line = Fx::line();
    let session = line.session(StaticStrategy::new(), vec![NodeId::new(4)]);
    let text = session.snapshot().unwrap().to_json();
    assert!(text.contains("\"active\":[4]"), "{text}");
    let wide = text.replace("\"active\":[4]", "\"active\":[4294967299]");
    let err = SessionSnapshot::from_json(&wide).unwrap_err();
    assert!(err.contains("4294967299"), "{err}");
    let wide = text.replace("\"inactive\":[]", "\"inactive\":[[4294967299,5]]");
    assert_ne!(wide, text);
    let err = SessionSnapshot::from_json(&wide).unwrap_err();
    assert!(err.contains("4294967299"), "{err}");
}
