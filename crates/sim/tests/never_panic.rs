//! Never-panic fuzzers for the sim crate's text inputs: the `events=`
//! grammar ([`SubstrateEvents::parse`], reached from the command line and
//! from `POST /sessions/<name>/events`) and the checkpoint loader
//! ([`SessionSnapshot::from_json`] plus [`EventedSession::resume`], reached
//! from `resume=true`). Inputs are arbitrary bytes, and truncations, byte
//! flips and byte deletions of a valid document. Every call must return
//! `Ok` or `Err`.

use flexserve_graph::{gen::unit_line, DistanceMatrix, Graph, NodeId};
use flexserve_sim::{
    CostParams, EventedSession, Fleet, LoadModel, OnlineStrategy, SessionMetrics, SessionSnapshot,
    SimContext, SubstrateEvents,
};
use flexserve_workload::{JsonValue, RoundRequests};
use proptest::prelude::*;

/// A schedule that uses every event kind.
const SCHEDULE: &str = "2:fail-link:3-4,3:degrade-link:0-1:2.5,5:recover-link:3-4,\
                        6:fail-node:6,8:recover-node:6";

/// Chases the first request origin. Like the real strategies, it
/// measures from a server of the fleet; its checkpoint state is a bare
/// `null`.
struct Chaser;

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
        let anchor = fleet.active()[0];
        req.iter()
            .find(|&o| ctx.dist.get(o, anchor).is_finite())
            .map(|o| vec![o])
    }
    fn export_state(&self) -> Option<JsonValue> {
        Some(JsonValue::Null)
    }
    fn import_state(&mut self, _state: &JsonValue) -> Result<(), String> {
        Ok(())
    }
}

/// The 8-node line every checkpoint is taken on and resumed against.
fn line() -> (Graph, DistanceMatrix) {
    let graph = unit_line(8).unwrap();
    let matrix = DistanceMatrix::build(&graph);
    (graph, matrix)
}

fn resume(snap: &SessionSnapshot) -> Result<EventedSession<Chaser>, String> {
    let (graph, matrix) = line();
    let (params, load) = (CostParams::default(), LoadModel::Linear);
    EventedSession::resume(graph, matrix, params, load, Chaser, snap)
}

/// A v2 checkpoint taken mid-schedule, with a metrics block.
fn valid_checkpoint() -> String {
    let (graph, matrix) = line();
    let schedule = SubstrateEvents::parse(SCHEDULE).unwrap();
    let (params, load) = (CostParams::default(), LoadModel::Linear);
    let initial = vec![NodeId::new(0)];
    let mut s = EventedSession::new(graph, matrix, schedule, params, load, Chaser, initial);
    for t in 0..4 {
        s.step(&RoundRequests::new(vec![NodeId::new(7 - t); 2]))
            .unwrap();
    }
    let mut snap = s.snapshot().unwrap();
    snap.metrics = Some(SessionMetrics {
        rounds_served: 4,
        uptime_seconds: 1.5,
        ..SessionMetrics::default()
    });
    snap.to_json()
}

/// `base` truncated at `cut` (modulo its length + 1), then edited by each
/// `(position, op)`: an `op` below 256 is XORed into the byte, a larger
/// one deletes it.
fn mangle(base: &[u8], cut: usize, edits: &[(usize, u32)]) -> Vec<u8> {
    let mut bytes = base[..cut % (base.len() + 1)].to_vec();
    for &(at, op) in edits {
        if !bytes.is_empty() {
            let i = at % bytes.len();
            match u8::try_from(op) {
                Ok(mask) => bytes[i] ^= mask,
                Err(_) => drop(bytes.remove(i)),
            }
        }
    }
    bytes
}

/// Parses `bytes` as a schedule; a schedule that parses renders back to
/// text that parses to the same schedule.
fn check_schedule(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(events) = SubstrateEvents::parse(&text) {
        let rendered = events.render();
        prop_assert_eq!(SubstrateEvents::parse(&rendered), Ok(events));
    }
}

/// Loads `bytes` as a checkpoint; one that loads is resumed on the
/// substrate it came from, and a resumed session steps.
fn check_checkpoint(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let Ok(snap) = SessionSnapshot::from_json(&text) else {
        return;
    };
    let resumed = resume(&snap);
    if let Ok(mut s) = resumed {
        for t in 0..3 {
            let _ = s.step(&RoundRequests::new(vec![NodeId::new(t)]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn schedule_parser_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(0u32..256, 0..200),
    ) {
        let bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        check_schedule(&bytes);
    }

    #[test]
    fn schedule_parser_never_panics_on_mangled_schedules(
        cut in 0usize..200,
        edits in prop::collection::vec((0usize..200, 1u32..512), 0..4),
    ) {
        check_schedule(&mangle(SCHEDULE.as_bytes(), cut, &edits));
    }

    #[test]
    fn checkpoint_loader_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(0u32..256, 0..300),
        prefixed in 0u32..2,
    ) {
        let mut bytes: Vec<u8> = if prefixed == 1 {
            b"{\"format\":\"flexserve-checkpoint-v2\",\"t\":".to_vec()
        } else {
            Vec::new()
        };
        bytes.extend(noise.iter().map(|&b| b as u8));
        check_checkpoint(&bytes);
    }

    #[test]
    fn checkpoint_loader_never_panics_on_mangled_checkpoints(
        cut in 0usize..2000,
        edits in prop::collection::vec((0usize..2000, 1u32..512), 0..4),
    ) {
        let base = valid_checkpoint();
        // Half the cases keep the whole document and only edit bytes.
        let cut = if cut % 2 == 0 { base.len() } else { cut };
        check_checkpoint(&mangle(base.as_bytes(), cut, &edits));
    }
}

/// The fixtures the fuzzers mangle are themselves valid.
#[test]
fn fixtures_parse_and_resume() {
    let events = SubstrateEvents::parse(SCHEDULE).unwrap();
    assert_eq!(events.len(), 5);
    let text = valid_checkpoint();
    let snap = SessionSnapshot::from_json(&text).unwrap();
    assert_eq!(snap.t, 4);
    let mut s = resume(&snap).unwrap();
    s.step(&RoundRequests::new(vec![NodeId::new(1)])).unwrap();
}
