//! Hand-rolled JSON checkpoints of a running simulation session.
//!
//! A [`SessionSnapshot`] captures everything an
//! [`EventedSession`](crate::session::EventedSession) needs to resume
//! exactly where it stopped: the round counter, the fleet (active set,
//! inactive queue with absolute expiry epochs, epoch counter), the event
//! schedule and the strategy's mutable state as exported through
//! [`OnlineStrategy::export_state`](crate::engine::OnlineStrategy::export_state).
//! Like `results/manifest.json`, the format is hand-rolled JSON (the
//! workspace has no serde by design); unlike the manifest it must also be
//! *parsed*, which the shared
//! [`flexserve_workload::json`] module provides.
//!
//! Restores are guarded: the checkpoint records the substrate fingerprint
//! and the cost-parameter summary, and
//! [`EventedSession::resume`](crate::session::EventedSession::resume) refuses to
//! resume against a different substrate or cost model — silently replaying
//! a checkpoint into the wrong world would corrupt results without
//! failing any assertion.
//!
//! Floats are rendered with Rust's shortest-round-trip formatting, so a
//! snapshot → JSON → restore cycle reproduces every accumulator
//! **bit-identically** (pinned by `crates/core/tests/checkpoint_resume.rs`).
//! The full schema is documented in `docs/SERVING.md`.
//!
//! Two format generations exist. `flexserve-checkpoint-v2` (current)
//! additionally carries the session's cumulative serving metrics as a
//! [`SessionMetrics`] block, so a restarted daemon keeps its lifetime
//! totals. `flexserve-checkpoint-v1` files (no metrics block) remain
//! fully readable — the simulation state is identical, the metrics just
//! start over from the round counter.

use flexserve_graph::NodeId;
use flexserve_workload::JsonValue;

use crate::cost::CostBreakdown;
use crate::fleet::{Fleet, InactiveServer};

/// The format tag written into every new checkpoint.
pub const CHECKPOINT_FORMAT: &str = "flexserve-checkpoint-v2";

/// The previous format tag, still accepted on read: v1 checkpoints are
/// v2 checkpoints without the `metrics` block.
pub const CHECKPOINT_FORMAT_V1: &str = "flexserve-checkpoint-v1";

/// Cumulative serving totals carried inside a v2 checkpoint, so a
/// session's lifetime counters survive daemon restarts (`GET /metrics`
/// reports them as the `cumulative` block).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionMetrics {
    /// Rounds ever served, across all restarts.
    pub rounds_served: u64,
    /// Cost totals accumulated over those rounds.
    pub total_cost: CostBreakdown,
    /// Wall-clock seconds the session has been live, across restarts.
    pub uptime_seconds: f64,
}

impl SessionMetrics {
    /// Renders the metrics block of a v2 checkpoint.
    fn to_json_value(self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rounds_served".into(), JsonValue::from(self.rounds_served)),
            (
                "total_cost".into(),
                JsonValue::Obj(vec![
                    ("access".into(), JsonValue::from(self.total_cost.access)),
                    ("running".into(), JsonValue::from(self.total_cost.running)),
                    (
                        "migration".into(),
                        JsonValue::from(self.total_cost.migration),
                    ),
                    ("creation".into(), JsonValue::from(self.total_cost.creation)),
                ]),
            ),
            (
                "uptime_seconds".into(),
                JsonValue::from(self.uptime_seconds),
            ),
        ])
    }

    /// Parses the metrics block of a v2 checkpoint.
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let rounds_served = v
            .get("rounds_served")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint: metrics missing \"rounds_served\"")?;
        let cost = v
            .get("total_cost")
            .ok_or("checkpoint: metrics missing \"total_cost\"")?;
        let field = |name: &str| {
            cost.get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("checkpoint: metrics missing total_cost.{name}"))
        };
        let total_cost = CostBreakdown {
            access: field("access")?,
            running: field("running")?,
            migration: field("migration")?,
            creation: field("creation")?,
        };
        let uptime_seconds = v
            .get("uptime_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("checkpoint: metrics missing \"uptime_seconds\"")?;
        Ok(SessionMetrics {
            rounds_served,
            total_cost,
            uptime_seconds,
        })
    }
}

/// A point-in-time capture of one simulation session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// Rounds played so far (the next
    /// [`step`](crate::session::EventedSession::step) is round `t`).
    pub t: u64,
    /// `Graph::fingerprint()` of the substrate the session ran on.
    pub substrate_fingerprint: u64,
    /// `CostParams::summary()` of the session's cost model.
    pub params_summary: String,
    /// The strategy's display name (`"ONTH"`, `"ONBR-fixed"`, …).
    pub strategy_name: String,
    /// The strategy's exported mutable state.
    pub strategy_state: JsonValue,
    /// Active-server nodes, sorted.
    pub active: Vec<NodeId>,
    /// The inactive queue, oldest first, with absolute expiry epochs.
    pub inactive: Vec<InactiveServer>,
    /// The fleet's epoch counter.
    pub epoch: u64,
    /// Cumulative serving metrics (v2). `None` for v1 checkpoints and for
    /// snapshots taken straight off an
    /// [`EventedSession`](crate::session::EventedSession), which does not
    /// track serving totals — the serve layer fills this in before writing
    /// the file.
    pub metrics: Option<SessionMetrics>,
    /// The session's substrate-event schedule in the `events=` cell grammar
    /// (see `docs/FAULTS.md`), e.g. `"5:fail-link:2-7,10:recover-link:2-7"`.
    /// Absent when the session has no scheduled events — a plain static-
    /// substrate checkpoint is byte-identical to the pre-events format, so
    /// the v2 tag is kept. On resume the events with time `< t` are
    /// replayed onto the base substrate before the fingerprint guard runs.
    pub substrate_events: Option<String>,
}

impl SessionSnapshot {
    /// Captures `fleet` (the session adds `t`, context guards and the
    /// strategy fields).
    pub(crate) fn fleet_fields(fleet: &Fleet) -> (Vec<NodeId>, Vec<InactiveServer>, u64) {
        (
            fleet.active().to_vec(),
            fleet.inactive_entries().copied().collect(),
            fleet.epoch(),
        )
    }

    /// Renders the snapshot as a self-describing JSON document (always
    /// the current v2 format; the `metrics` block appears only when
    /// [`metrics`](Self::metrics) is set).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("format".into(), JsonValue::from(CHECKPOINT_FORMAT)),
            ("t".into(), JsonValue::from(self.t)),
            (
                "substrate_fingerprint".into(),
                JsonValue::from(format!("{:016x}", self.substrate_fingerprint)),
            ),
            (
                "params".into(),
                JsonValue::from(self.params_summary.clone()),
            ),
            (
                "strategy".into(),
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::from(self.strategy_name.clone())),
                    ("state".into(), self.strategy_state.clone()),
                ]),
            ),
            (
                "fleet".into(),
                JsonValue::Obj(vec![
                    (
                        "active".into(),
                        JsonValue::Arr(
                            self.active
                                .iter()
                                .map(|n| JsonValue::from(n.index()))
                                .collect(),
                        ),
                    ),
                    (
                        "inactive".into(),
                        JsonValue::Arr(
                            self.inactive
                                .iter()
                                .map(|s| {
                                    JsonValue::Arr(vec![
                                        JsonValue::from(s.node.index()),
                                        JsonValue::from(s.expires_epoch),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("epoch".into(), JsonValue::from(self.epoch)),
                ]),
            ),
        ];
        if let Some(metrics) = self.metrics {
            pairs.push(("metrics".into(), metrics.to_json_value()));
        }
        if let Some(events) = &self.substrate_events {
            pairs.push(("substrate_events".into(), JsonValue::from(events.clone())));
        }
        let mut out = JsonValue::Obj(pairs).render();
        out.push('\n');
        out
    }

    /// Parses a checkpoint document produced by [`SessionSnapshot::to_json`]
    /// — either format generation: a v1 document simply has no `metrics`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        let format = v
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint: missing \"format\"")?;
        if format != CHECKPOINT_FORMAT && format != CHECKPOINT_FORMAT_V1 {
            return Err(format!(
                "checkpoint: unsupported format {format:?} (expected {CHECKPOINT_FORMAT:?} \
                 or {CHECKPOINT_FORMAT_V1:?})"
            ));
        }
        let t = v
            .get("t")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint: missing \"t\"")?;
        let substrate_fingerprint = v
            .get("substrate_fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("checkpoint: missing or bad \"substrate_fingerprint\"")?;
        let params_summary = v
            .get("params")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint: missing \"params\"")?
            .to_string();
        let strategy = v
            .get("strategy")
            .ok_or("checkpoint: missing \"strategy\"")?;
        let strategy_name = strategy
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint: missing strategy name")?
            .to_string();
        let strategy_state = strategy
            .get("state")
            .cloned()
            .ok_or("checkpoint: missing strategy state")?;
        let fleet = v.get("fleet").ok_or("checkpoint: missing \"fleet\"")?;
        let active = fleet
            .get("active")
            .and_then(JsonValue::as_array)
            .ok_or("checkpoint: missing fleet active set")?
            .iter()
            .map(|n| node_id(n, "active"))
            .collect::<Result<Vec<_>, _>>()?;
        let inactive = fleet
            .get("inactive")
            .and_then(JsonValue::as_array)
            .ok_or("checkpoint: missing fleet inactive queue")?
            .iter()
            .map(|pair| match pair.as_array() {
                Some([node, exp]) => Ok(InactiveServer {
                    node: node_id(node, "inactive")?,
                    expires_epoch: exp.as_u64().ok_or("checkpoint: bad inactive queue entry")?,
                }),
                _ => Err("checkpoint: bad inactive queue entry".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let epoch = fleet
            .get("epoch")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint: missing fleet epoch")?;
        // Optional in v2 documents too (a bare session snapshot carries no
        // serving totals), absent by definition in v1.
        let metrics = match v.get("metrics") {
            Some(m) => Some(SessionMetrics::from_json_value(m)?),
            None => None,
        };
        // Optional like metrics: absent means a static substrate.
        let substrate_events = match v.get("substrate_events") {
            Some(e) => Some(
                e.as_str()
                    .ok_or("checkpoint: \"substrate_events\" must be a string")?
                    .to_string(),
            ),
            None => None,
        };
        Ok(SessionSnapshot {
            t,
            substrate_fingerprint,
            params_summary,
            strategy_name,
            strategy_state,
            active,
            inactive,
            epoch,
            metrics,
            substrate_events,
        })
    }
}

/// A node id of the checkpoint's `what` server list. An id past the `u32`
/// range is refused by name instead of truncated onto another node.
fn node_id(value: &JsonValue, what: &str) -> Result<NodeId, String> {
    let raw = value
        .as_usize()
        .ok_or_else(|| format!("checkpoint: bad {what} node id"))?;
    NodeId::try_new(raw).ok_or_else(|| format!("checkpoint: {what} node {raw} is out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionSnapshot {
        SessionSnapshot {
            t: 17,
            substrate_fingerprint: 0xdead_beef_0042,
            params_summary: "beta=40, c=400".into(),
            strategy_name: "ONTH".into(),
            strategy_state: JsonValue::Obj(vec![("small_cost".into(), JsonValue::from(0.1 + 0.2))]),
            active: vec![NodeId::new(2), NodeId::new(9)],
            inactive: vec![InactiveServer {
                node: NodeId::new(4),
                expires_epoch: 23,
            }],
            epoch: 5,
            metrics: Some(SessionMetrics {
                rounds_served: 240,
                total_cost: CostBreakdown {
                    access: 0.1 + 0.2,
                    running: 12.5,
                    migration: 80.0,
                    creation: 0.0,
                },
                uptime_seconds: 3.75,
            }),
            substrate_events: None,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_json();
        assert!(text.contains(CHECKPOINT_FORMAT));
        let back = SessionSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // float state survives bit-identically
        assert_eq!(
            back.strategy_state.get("small_cost").unwrap().as_f64(),
            Some(0.1 + 0.2)
        );
        assert_eq!(
            back.metrics.unwrap().total_cost.access.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn metrics_block_is_optional_in_v2() {
        let mut snap = sample();
        snap.metrics = None;
        let text = snap.to_json();
        assert!(!text.contains("\"metrics\""), "{text}");
        assert_eq!(SessionSnapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn substrate_events_block_is_optional_and_round_trips() {
        // Absent by default: a static-substrate checkpoint carries no
        // events key at all (byte-stable with the pre-events format).
        let snap = sample();
        assert!(!snap.to_json().contains("substrate_events"));

        let mut evented = sample();
        evented.substrate_events = Some("5:fail-link:2-7,10:recover-link:2-7".into());
        let text = evented.to_json();
        assert!(
            text.contains("\"substrate_events\":\"5:fail-link:2-7,10:recover-link:2-7\""),
            "{text}"
        );
        let back = SessionSnapshot::from_json(&text).unwrap();
        assert_eq!(back, evented);

        // A mangled events field fails loudly.
        let broken = text.replace("\"5:fail-link:2-7,10:recover-link:2-7\"", "42");
        let err = SessionSnapshot::from_json(&broken).unwrap_err();
        assert!(err.contains("substrate_events"), "{err}");
    }

    #[test]
    fn v1_documents_still_parse() {
        // A v1 checkpoint is byte-for-byte a v2 document with the old
        // format tag and no metrics block.
        let mut snap = sample();
        snap.metrics = None;
        let v1 = snap
            .to_json()
            .replace(CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_V1);
        assert!(v1.contains(CHECKPOINT_FORMAT_V1));
        let back = SessionSnapshot::from_json(&v1).unwrap();
        assert_eq!(back, snap);
        assert!(back.metrics.is_none());
    }

    #[test]
    fn rejects_wrong_format_and_missing_fields() {
        assert!(SessionSnapshot::from_json("{}").is_err());
        assert!(SessionSnapshot::from_json("not json").is_err());
        let other = sample().to_json().replace(CHECKPOINT_FORMAT, "v999");
        let err = SessionSnapshot::from_json(&other).unwrap_err();
        assert!(err.contains("unsupported format"), "{err}");
        let broken = sample().to_json().replace("\"epoch\"", "\"epoxy\"");
        assert!(SessionSnapshot::from_json(&broken).is_err());
        // a v2 tag with a mangled metrics block must fail loudly, not
        // silently drop the totals
        let mangled = sample().to_json().replace("\"uptime_seconds\"", "\"up\"");
        assert!(SessionSnapshot::from_json(&mangled).is_err());
    }

    #[test]
    fn fingerprint_is_hex() {
        let text = sample().to_json();
        assert!(text.contains("\"0000deadbeef0042\""), "{text}");
    }
}
