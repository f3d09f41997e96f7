//! The session layer of the serve daemon: many named, concurrently
//! stepping [`EventedSession`]s under one [`SessionManager`].
//!
//! A session is plain data: a `SessionState` that owns its
//! [`EventedSession`] (whose substrate is shared with the process-wide
//! [`DistCache`](crate::cache::DistCache) through `Arc`s until the
//! session's first substrate event copies it, so the cache copy stays
//! pristine), its boxed strategy and its [`RequestSource`], behind one
//! mutex per session. Every operation runs on the calling HTTP worker
//! while it holds that lock. This gives exactly the concurrency the
//! placement game allows: *within* a session the online game stays
//! strictly sequential (one lock holder at a time), while *distinct*
//! sessions step in parallel on different workers with no shared mutable
//! state, so every session's placements are bit-identical to the same
//! cell served alone (pinned by `tests/serve_sessions.rs`). No session
//! owns a thread, so the daemon's thread count does not grow with its
//! sessions.
//!
//! The manager is the only cross-session structure: a mutex-guarded name
//! table (plus the retired default session's stats for the daemon
//! summary), locked only long enough to clone a session's lock handle —
//! never across a step. Code that holds a session lock may take the table
//! lock (an evictor swapping in a tombstone), never the other way round.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexserve_core::{initial_center, OffStatPlacement};
use flexserve_sim::{
    CostBreakdown, EventedSession, OnlineStrategy, RoundRecord, SessionMetrics, SessionSnapshot,
    SubstrateEvents,
};
use flexserve_workload::{
    parse_round, record, replay_source, stdin_source, JsonValue, RequestSource, RoundRequests,
    ScenarioStream,
};

use crate::output::results_dir;
use crate::setup::ExperimentEnv;
use crate::spec::{CellBuilder, CellSpec, StrategySpec, WorkloadSpec};

/// The session that the legacy single-session routes (`/step`,
/// `/placement`, `/metrics`, `/checkpoint`) address; created at daemon
/// startup from the `flexserve serve` command line.
pub const DEFAULT_SESSION: &str = "default";

/// Largest accepted `/step` batch (both the JSON-array and the
/// `{"n": <k>}` forms). A batch holds its session's lock for the whole
/// run, so the cap bounds how long other operations on that session
/// (checkpoint, eviction) wait behind one request; oversized batches are
/// a 413.
pub const MAX_BATCH_ROUNDS: usize = 4096;

/// Where a session's rounds come from when `POST .../step` has an empty
/// body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// The cell's workload scenario, streamed round by round (capped at
    /// the cell's `rounds`).
    Scenario,
    /// A JSONL replay file (`source=<path>`).
    File(String),
    /// JSONL on standard input (`source=stdin`; sensible for at most one
    /// session — concurrent stdin readers would race for lines).
    Stdin,
}

/// Everything needed to open one session: the cell plus the session-level
/// keys (`checkpoint=`, `resume=`, `source=`).
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The cell to serve (strategy, substrate, workload, cost model; the
    /// cell's `rounds` caps the scenario source, its first seed drives
    /// substrate and workload randomness).
    pub cell: CellSpec,
    /// Checkpoint file written by `POST .../checkpoint` and read on
    /// `resume=true`.
    pub checkpoint: PathBuf,
    /// Resume from the checkpoint file instead of starting at round 0.
    pub resume: bool,
    /// Demand source for source-driven stepping.
    pub source: SourceKind,
}

impl SessionConfig {
    /// Parses a session description from `key=value` pairs: the
    /// [`CellBuilder`] cell grammar plus `checkpoint=`, `resume=` and
    /// `source=`. Used by `POST /sessions` bodies; `name` only picks the
    /// default checkpoint path (`<results dir>/checkpoint-<name>.json`).
    pub fn parse(args: &[String], name: &str) -> Result<Self, String> {
        Self::parse_with_default(args, results_dir().join(format!("checkpoint-{name}.json")))
    }

    /// [`parse`](Self::parse) with an explicit fallback checkpoint path —
    /// the one grammar shared by `POST /sessions` bodies and the
    /// `flexserve serve` command line (which layers the server keys on
    /// top and keeps the legacy `<results dir>/checkpoint.json` default).
    pub fn parse_with_default(
        args: &[String],
        default_checkpoint: PathBuf,
    ) -> Result<Self, String> {
        let mut cell = CellBuilder::new();
        let mut checkpoint = None;
        let mut resume = false;
        let mut source = SourceKind::Scenario;
        for arg in args {
            let (key, v) = arg
                .split_once('=')
                .ok_or_else(|| format!("session: expected key=value, got {arg:?}"))?;
            if cell.apply(key, v)? {
                continue;
            }
            match key {
                "checkpoint" => checkpoint = Some(PathBuf::from(v)),
                "resume" => resume = v.parse().map_err(|_| format!("resume: bad value {v:?}"))?,
                "source" => source = SourceKind::parse(v),
                _ => {
                    return Err(format!(
                        "session: unknown key {key:?} (cell keys plus checkpoint=, \
                         resume=, source=)"
                    ))
                }
            }
        }
        Ok(SessionConfig {
            cell: cell.build()?,
            checkpoint: checkpoint.unwrap_or(default_checkpoint),
            resume,
            source,
        })
    }
}

impl SourceKind {
    /// Parses a `source=` value.
    pub fn parse(v: &str) -> SourceKind {
        match v {
            "scenario" => SourceKind::Scenario,
            "stdin" => SourceKind::Stdin,
            path => SourceKind::File(path.to_string()),
        }
    }
}

/// What a stopped session reports (daemon summaries and `DELETE`
/// responses).
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Rounds stepped by this process (excludes checkpointed history).
    pub rounds_served: u64,
    /// The session's round counter when it stopped.
    pub final_t: u64,
}

/// Why a session operation failed; each variant maps onto one HTTP
/// status.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// No session under that name (404).
    NotFound(String),
    /// Name taken, or the session is mid-startup (409).
    Conflict(String),
    /// The `max-sessions` cap is reached (429).
    Capacity(String),
    /// Malformed request or infeasible session spec (400).
    Bad(String),
    /// The session's request source ran dry (410).
    Exhausted,
    /// A step batch exceeds [`MAX_BATCH_ROUNDS`] (413).
    TooLarge(String),
    /// The session died (a panic in its strategy) or checkpointing
    /// failed (500).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NotFound(name) => write!(f, "no session {name:?}"),
            ServeError::Conflict(msg)
            | ServeError::Capacity(msg)
            | ServeError::Bad(msg)
            | ServeError::TooLarge(msg)
            | ServeError::Internal(msg) => write!(f, "{msg}"),
            ServeError::Exhausted => write!(f, "request source exhausted"),
        }
    }
}

/// What a batched step plays: explicit round bodies, or the next `k`
/// rounds of the session's demand source.
enum BatchSpec {
    /// A JSON-array `/step` body; each element uses the single-step
    /// round schema (`{"origins": [...]}`).
    Rounds(Vec<JsonValue>),
    /// An `{"n": <k>}` body: pull the next `k` source rounds.
    FromSource(u64),
}

enum Entry {
    /// Reserved while the session's world is built — holds the name
    /// against duplicates without blocking the table during a long build.
    Starting,
    /// Held by an idle eviction or a migration while it checkpoints and
    /// stops the session. Requests wait on the session's lock and then
    /// see what the finish left (see [`SessionManager::with_live`]).
    Leaving(Leaving),
    Live(Handle),
}

/// The reservation of a session on its way out.
struct Leaving {
    slot: Arc<Slot>,
    generation: u64,
    /// A migration hand-off, not an idle eviction.
    migrating: bool,
}

impl Leaving {
    /// What the session is doing, for errors and the listing.
    fn status(&self) -> &'static str {
        if self.migrating {
            "migrating"
        } else {
            "evicting"
        }
    }

    /// The `409` for an operation that cannot wait for the departure.
    fn busy(&self, name: &str) -> ServeError {
        ServeError::Conflict(format!("session {name:?} is {}", self.status()))
    }
}

/// One session's lock. The state is `None` once the session finished
/// (removed, evicted, migrated) or died (a panic in its strategy), so an
/// operation that waited for the lock finds it gone, never half-stopped.
type Slot = Mutex<Option<SessionState>>;

struct Handle {
    slot: Arc<Slot>,
    /// Distinguishes incarnations of a reused name, so an operation that
    /// found its session gone can only remove the exact incarnation it
    /// talked to — never a session recreated under the same name in the
    /// meantime.
    generation: u64,
    /// When a client last operated on this session (step / placement /
    /// metrics / checkpoint). `GET /sessions` info rows do *not* count —
    /// listing the daemon must not keep every session warm forever.
    last_used: Instant,
    /// The session's checkpoint file — where
    /// [`evict_idle`](SessionManager::evict_idle) snapshots it to.
    checkpoint: PathBuf,
}

/// Tombstone of a session that left this daemon: enough for the
/// `GET /sessions` row and for the operator to find the checkpoint. Two
/// flavors share the struct: an idle eviction (`migrated_to: None`,
/// rendered with `evicted: true`) and a router-driven migration
/// (`migrated_to: Some(worker)`, rendered with `status: "migrated"` so
/// the departure never reads as local data loss).
#[derive(Clone, Debug)]
struct EvictedRow {
    checkpoint: PathBuf,
    final_t: u64,
    /// Insertion order, for FIFO capping at [`MAX_TOMBSTONES`].
    order: u64,
    /// The worker the session moved to, when the eviction was the first
    /// half of a live migration (`DELETE` with a `migrated_to` body).
    migrated_to: Option<String>,
}

/// Retained idle-eviction tombstones. A daemon cycling uniquely named
/// sessions must not accumulate state, so the oldest tombstone is dropped
/// once this many are held.
const MAX_TOMBSTONES: usize = 64;

struct Inner {
    entries: HashMap<String, Entry>,
    /// Sessions removed by the idle-evict reaper, kept as tombstones so
    /// `GET /sessions` can report `evicted: true` (direct requests see a
    /// plain 404). Recreating the name clears its tombstone, as does
    /// `DELETE`; beyond that the map is FIFO-capped at
    /// [`MAX_TOMBSTONES`].
    evicted: HashMap<String, EvictedRow>,
    /// Monotonic [`EvictedRow::order`] source.
    next_evicted_order: u64,
    /// Monotonic [`Handle::generation`] source.
    next_generation: u64,
    /// Final stats of the retired default session — what the daemon
    /// summary reports after shutdown. Other sessions' stats are returned
    /// by [`SessionManager::remove`] and not retained (a long-running
    /// daemon cycling uniquely named sessions must not accumulate state).
    default_stats: Option<SessionStats>,
}

/// Owns every live session of one daemon: create / address / evict by
/// name, bounded by `max_sessions`.
pub struct SessionManager {
    inner: Mutex<Inner>,
    max_sessions: usize,
}

impl SessionManager {
    /// An empty manager admitting at most `max_sessions` concurrent
    /// sessions.
    pub fn new(max_sessions: usize) -> Self {
        SessionManager {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                evicted: HashMap::new(),
                next_evicted_order: 0,
                next_generation: 0,
                default_stats: None,
            }),
            max_sessions,
        }
    }

    /// Creates a session, building its substrate (or resuming it from
    /// checkpoint) on the calling thread so a broken spec fails the
    /// request instead of a half-started session. Returns the session's
    /// info document.
    pub fn create(&self, name: &str, cfg: SessionConfig) -> Result<JsonValue, ServeError> {
        validate_name(name)?;
        // The replay file, if any, opens once, in `build_session`.
        cfg.cell.validate_except_replay().map_err(ServeError::Bad)?;
        {
            let mut inner = self.inner.lock().unwrap();
            if inner.entries.contains_key(name) {
                return Err(ServeError::Conflict(format!(
                    "session {name:?} already exists"
                )));
            }
            if inner.entries.len() >= self.max_sessions {
                return Err(ServeError::Capacity(format!(
                    "session limit reached ({} of max-sessions={})",
                    inner.entries.len(),
                    self.max_sessions
                )));
            }
            inner.entries.insert(name.to_string(), Entry::Starting);
        }
        let checkpoint = cfg.checkpoint.clone();
        // A panicking build must neither keep the name reserved nor take
        // the worker thread down with it.
        let built = match catch_unwind(AssertUnwindSafe(|| build_session(name, cfg))) {
            Ok(Ok(state)) => Ok(state),
            Ok(Err(e)) => Err(ServeError::Bad(e)),
            Err(_) => Err(ServeError::Internal(format!(
                "session {name:?} died during startup"
            ))),
        };
        let mut inner = self.inner.lock().unwrap();
        let state = match built {
            Ok(state) => state,
            Err(e) => {
                inner.entries.remove(name);
                return Err(e);
            }
        };
        let info = info_json(&state);
        let generation = inner.next_generation;
        inner.next_generation += 1;
        // A recreated name supersedes its idle-eviction tombstone.
        inner.evicted.remove(name);
        inner.entries.insert(
            name.to_string(),
            Entry::Live(Handle {
                slot: Arc::new(Mutex::new(Some(state))),
                generation,
                last_used: Instant::now(),
                checkpoint,
            }),
        );
        Ok(info)
    }

    /// Plays one round on `name` — an empty `body` pulls the session's
    /// demand source, a `{"origins": [...]}` body plays that multi-set —
    /// or a whole batch under one hold of the session lock: a JSON array
    /// body is a batch of explicit rounds, `{"n": <k>}` pulls the next
    /// `k` source rounds. A batch replies with the array of per-round
    /// step documents, bit-identical to stepping the same rounds singly;
    /// a malformed batch applies nothing, and a source shortfall restores
    /// every pulled round before failing (410).
    pub fn step(&self, name: &str, body: &str) -> Result<JsonValue, ServeError> {
        match parse_batch_body(body)? {
            Some(spec) => self.with_live(name, |state| step_batch(state, spec))?,
            None => self.with_live(name, |state| step(state, body))?,
        }
    }

    /// Current placement of `name`.
    pub fn placement(&self, name: &str) -> Result<JsonValue, ServeError> {
        self.with_live(name, |state| placement_json(state))
    }

    /// Cumulative counters of `name`.
    pub fn metrics(&self, name: &str) -> Result<JsonValue, ServeError> {
        self.with_live(name, |state| metrics_json(state))
    }

    /// Checkpoints `name`; returns the written document text.
    pub fn checkpoint(&self, name: &str) -> Result<String, ServeError> {
        self.with_live(name, |state| {
            checkpoint(state).map_err(ServeError::Internal)
        })?
    }

    /// Appends substrate events to `name`'s live schedule — the
    /// `POST /sessions/<name>/events` endpoint. The body is a JSON
    /// object with an `events` string in the schedule grammar
    /// (`docs/FAULTS.md`); events scheduled before the session's current
    /// round are refused.
    pub fn events(&self, name: &str, body: &str) -> Result<JsonValue, ServeError> {
        self.with_live(name, |state| append_events(state, body))?
    }

    /// Checkpoints every live session to its checkpoint file without
    /// stopping it — the first half of a graceful daemon shutdown
    /// (SIGTERM or `POST /shutdown`), so no session loses state even if
    /// nobody checkpointed it explicitly. Failures are logged and
    /// skipped (a full disk must not wedge the shutdown). Returns the
    /// names checkpointed, sorted.
    pub fn checkpoint_all(&self) -> Vec<String> {
        let targets: Vec<(String, Arc<Slot>)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .entries
                .iter()
                .filter_map(|(name, e)| match e {
                    Entry::Live(h) => Some((name.clone(), Arc::clone(&h.slot))),
                    Entry::Starting | Entry::Leaving(_) => None,
                })
                .collect()
        };
        let mut saved = Vec::with_capacity(targets.len());
        for (name, slot) in targets {
            match run_guarded(&mut slot.lock().unwrap(), |s| s.as_mut().map(checkpoint)) {
                Some(Ok(_)) => saved.push(name),
                Some(Err(e)) => daemon_log!("serve: shutdown checkpoint {name:?}: {e}"),
                None => daemon_log!("serve: shutdown checkpoint {name:?}: session died"),
            }
        }
        saved.sort();
        saved
    }

    /// Stops and evicts `name`, returning its final stats. `DELETE` on an
    /// idle-evicted name clears its tombstone instead (the checkpoint
    /// file stays on disk).
    pub fn remove(&self, name: &str) -> Result<SessionStats, ServeError> {
        let handle = {
            let mut inner = self.inner.lock().unwrap();
            match inner.entries.get(name) {
                None => {
                    return match inner.evicted.remove(name) {
                        Some(row) => Ok(SessionStats {
                            rounds_served: 0,
                            final_t: row.final_t,
                        }),
                        None => Err(ServeError::NotFound(name.to_string())),
                    }
                }
                Some(Entry::Starting) => {
                    return Err(ServeError::Conflict(format!(
                        "session {name:?} is still starting"
                    )))
                }
                Some(Entry::Leaving(leaving)) => return Err(leaving.busy(name)),
                Some(Entry::Live(_)) => {}
            }
            match inner.entries.remove(name) {
                Some(Entry::Live(handle)) => handle,
                _ => unreachable!("checked above"),
            }
        };
        let stats = take_stats(&mut handle.slot.lock().unwrap());
        if name == DEFAULT_SESSION {
            self.inner.lock().unwrap().default_stats = Some(stats);
        }
        Ok(stats)
    }

    /// Stops and evicts `name` as the hand-off half of a live migration
    /// (`DELETE /sessions/<name>` with a `{"migrated_to": ...}` body —
    /// the routing tier's protocol, `docs/CLUSTER.md`): the session is
    /// checkpointed to its checkpoint file, stopped, and replaced by a
    /// `migrated` tombstone naming the worker it moved to, so the
    /// departure never reads as local data loss. Unlike
    /// [`evict_idle`](Self::evict_idle), a failed checkpoint *aborts* the
    /// eviction and the session keeps running — a migration must never
    /// destroy state it could not save.
    pub fn remove_migrated(
        &self,
        name: &str,
        migrated_to: &str,
    ) -> Result<SessionStats, ServeError> {
        // Reserve the name while the checkpoint is written (the
        // evict_idle discipline): a concurrent create gets a clean 409
        // instead of racing the tombstone swap.
        let handle = {
            let mut inner = self.inner.lock().unwrap();
            match inner.entries.get(name) {
                None => return Err(ServeError::NotFound(name.to_string())),
                Some(Entry::Starting) => {
                    return Err(ServeError::Conflict(format!(
                        "session {name:?} is still starting"
                    )))
                }
                Some(Entry::Leaving(leaving)) => return Err(leaving.busy(name)),
                Some(Entry::Live(_)) => leave(&mut inner, name, true),
            }
        };
        self.retire(name, handle, Some(migrated_to))
    }

    /// Evicts every live session no client has touched for `idle`:
    /// each victim is **checkpointed to its checkpoint file first**, then
    /// stopped and replaced by a tombstone (`GET /sessions` shows it with
    /// `evicted: true`; direct requests get a clean 404; recreating the
    /// name with `resume=true` continues from the auto-checkpoint).
    /// Returns the evicted names. Driven by the daemon's reaper thread
    /// when the `idle-evict=<secs>` serve key is set.
    pub fn evict_idle(&self, idle: std::time::Duration) -> Vec<String> {
        // Swap each victim's entry for a `Leaving` reservation while the
        // checkpoint is written: a concurrent create of the same name
        // gets a clean 409 instead of racing the eviction (and possibly
        // resuming from a checkpoint the evictor has not written yet).
        let victims: Vec<(String, Handle)> = {
            let mut inner = self.inner.lock().unwrap();
            let names: Vec<String> = inner
                .entries
                .iter()
                .filter_map(|(name, e)| match e {
                    Entry::Live(h) if h.last_used.elapsed() >= idle => Some(name.clone()),
                    _ => None,
                })
                .collect();
            names
                .into_iter()
                .map(|name| {
                    let handle = leave(&mut inner, &name, false);
                    (name, handle)
                })
                .collect()
        };
        let mut evicted = Vec::with_capacity(victims.len());
        for (name, handle) in victims {
            // A checkpoint failure (full disk) still evicts: an
            // unreapable session would defeat the whole mechanism.
            let _ = self.retire(&name, handle, None);
            evicted.push(name);
        }
        evicted.sort();
        evicted
    }

    /// Checkpoints and stops a session whose name the caller holds
    /// reserved (`Leaving`), then swaps the reservation for a tombstone:
    /// an idle eviction's (`migrated_to: None`) or a migration's. The
    /// session lock is held from the snapshot until the tombstone is in,
    /// so a step batch that got the lock first is wholly in the
    /// checkpoint and one that gets it after finds the tombstone (404) —
    /// no acknowledged round can fall between the checkpoint and the
    /// stop. A failed checkpoint stops an idle session anyway, but aborts
    /// a migration with the session put back live, where it was.
    fn retire(
        &self,
        name: &str,
        handle: Handle,
        migrated_to: Option<&str>,
    ) -> Result<SessionStats, ServeError> {
        let mut slot = handle.slot.lock().unwrap();
        // `None` when the session had already died; on a failed
        // checkpoint the session stays in its slot.
        let finished = run_guarded(&mut slot, |s| {
            let saved = checkpoint(s.as_mut()?).map_err(ServeError::Internal);
            Some(saved.map(|_| take_stats(s)))
        });
        // Nothing can have replaced the reservation: create refuses
        // existing names and only Live entries are ever reaped.
        let mut inner = self.inner.lock().unwrap();
        debug_assert!(matches!(inner.entries.get(name), Some(Entry::Leaving(_))));
        let stats = match finished {
            Some(Ok(stats)) => stats,
            Some(Err(e)) if migrated_to.is_some() => {
                drop(slot);
                inner.entries.insert(name.to_string(), Entry::Live(handle));
                return Err(e);
            }
            None if migrated_to.is_some() => {
                // The session died under us — nothing left to migrate.
                inner.entries.remove(name);
                return Err(ServeError::Internal(format!("session {name:?} died")));
            }
            Some(Err(e)) => {
                daemon_log!("serve: idle-evict {name:?}: checkpoint failed: {e}");
                take_stats(&mut slot)
            }
            None => {
                daemon_log!("serve: idle-evict {name:?}: session died");
                SessionStats::default()
            }
        };
        inner.entries.remove(name);
        if name == DEFAULT_SESSION {
            inner.default_stats = Some(stats);
        }
        let checkpoint = handle.checkpoint.clone();
        let migrated_to = migrated_to.map(str::to_string);
        insert_tombstone(&mut inner, name, checkpoint, stats.final_t, migrated_to);
        Ok(stats)
    }

    /// Stops every live session (daemon shutdown).
    pub fn shutdown_all(&self) {
        loop {
            let name = {
                let inner = self.inner.lock().unwrap();
                inner
                    .entries
                    .iter()
                    .find_map(|(name, e)| matches!(e, Entry::Live(_)).then(|| name.clone()))
            };
            match name {
                Some(name) => {
                    let _ = self.remove(&name);
                }
                None => break,
            }
        }
    }

    /// Final stats of the stopped default session, if it ever ran — the
    /// daemon summary. Other sessions' stats are reported once by
    /// [`remove`](Self::remove) and not retained.
    pub fn default_session_stats(&self) -> Option<SessionStats> {
        self.inner.lock().unwrap().default_stats
    }

    /// The `GET /sessions` document: every live session (sorted by name)
    /// with its info row, followed by the idle-evicted tombstones
    /// (`evicted: true`, with the checkpoint file the session was
    /// snapshotted to). `count` counts live sessions only.
    pub fn list(&self) -> JsonValue {
        type LiveRows = Vec<(String, Option<Arc<Slot>>, &'static str)>;
        let (mut rows, mut tombstones): (LiveRows, Vec<(String, EvictedRow)>) = {
            let inner = self.inner.lock().unwrap();
            (
                inner
                    .entries
                    .iter()
                    .map(|(name, e)| {
                        // A live slot renders its own info row.
                        let (slot, status) = match e {
                            Entry::Starting => (None, "starting"),
                            Entry::Leaving(leaving) => (None, leaving.status()),
                            Entry::Live(h) => (Some(Arc::clone(&h.slot)), "starting"),
                        };
                        (name.clone(), slot, status)
                    })
                    .collect(),
                inner
                    .evicted
                    .iter()
                    .map(|(name, row)| (name.clone(), row.clone()))
                    .collect(),
            )
        };
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        tombstones.sort_by(|a, b| a.0.cmp(&b.0));
        let count = rows.len();
        let mut sessions: Vec<JsonValue> = rows
            .into_iter()
            .map(|(name, slot, status)| {
                slot.and_then(|slot| {
                    run_guarded(&mut slot.lock().unwrap(), |s| s.as_ref().map(info_json))
                })
                .unwrap_or_else(|| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::from(name.as_str())),
                        ("status".into(), JsonValue::from(status)),
                    ])
                })
            })
            .collect();
        sessions.extend(tombstones.into_iter().map(|(name, row)| {
            let mut pairs = vec![("name".into(), JsonValue::from(name.as_str()))];
            // Two tombstone flavors: idle-evicted locally vs migrated to
            // another worker by the routing tier (docs/CLUSTER.md) — the
            // latter names its destination so it never reads as data loss.
            match &row.migrated_to {
                Some(target) => {
                    pairs.push(("status".into(), JsonValue::from("migrated")));
                    pairs.push(("migrated_to".into(), JsonValue::from(target.as_str())));
                }
                None => {
                    pairs.push(("status".into(), JsonValue::from("evicted")));
                    pairs.push(("evicted".into(), JsonValue::Bool(true)));
                }
            }
            pairs.push((
                "checkpoint".into(),
                JsonValue::from(row.checkpoint.display().to_string()),
            ));
            pairs.push(("final_t".into(), JsonValue::from(row.final_t)));
            JsonValue::Obj(pairs)
        }));
        JsonValue::Obj(vec![
            ("sessions".into(), JsonValue::Arr(sessions)),
            ("count".into(), JsonValue::from(count)),
            ("max_sessions".into(), JsonValue::from(self.max_sessions)),
        ])
    }

    /// Runs `op` on live session `name` under its lock, on the calling
    /// thread. A session that is gone by the time the lock is held, or
    /// whose `op` panics, is removed from the table so later requests
    /// see a clean 404 instead of a wedged name.
    ///
    /// A session that an idle eviction or a migration is finishing is
    /// waited for on its lock, not refused: once the finish is done the
    /// request reads as one that arrived just after it — a 404 with the
    /// tombstone in place, or served if a migration's checkpoint failed
    /// and the session went back live. A request that wins the lock
    /// before the finish is served first and lands in its checkpoint,
    /// like one that arrived before the finish began.
    fn with_live<T>(
        &self,
        name: &str,
        op: impl FnOnce(&mut SessionState) -> T,
    ) -> Result<T, ServeError> {
        let (slot, generation) = {
            let mut inner = self.inner.lock().unwrap();
            match inner.entries.get_mut(name) {
                None => return Err(ServeError::NotFound(name.to_string())),
                Some(Entry::Starting) => {
                    return Err(ServeError::Conflict(format!(
                        "session {name:?} is still starting"
                    )))
                }
                Some(Entry::Leaving(leaving)) => (Arc::clone(&leaving.slot), leaving.generation),
                Some(Entry::Live(h)) => {
                    h.last_used = Instant::now();
                    (Arc::clone(&h.slot), h.generation)
                }
            }
        };
        let done = run_guarded(&mut slot.lock().unwrap(), |s| s.as_mut().map(op));
        done.ok_or_else(|| self.gone(name, generation))
    }

    /// The error for an operation whose session was gone once it held
    /// the lock, after removing that session's entry. Only the
    /// incarnation the operation looked up is removed (by generation) —
    /// a session recreated under the same name in the meantime is left
    /// alone. The common way to lose this race is the idle reaper (or a
    /// migration) finishing the session between the table lookup and the
    /// lock; that is an eviction and must read like one (404 with the
    /// tombstone in place), not an internal error. A session that died
    /// leaves no tombstone and reports 500.
    fn gone(&self, name: &str, generation: u64) -> ServeError {
        let mut inner = self.inner.lock().unwrap();
        if matches!(inner.entries.get(name), Some(Entry::Live(h)) if h.generation == generation) {
            inner.entries.remove(name);
        }
        if !inner.entries.contains_key(name) && inner.evicted.contains_key(name) {
            ServeError::NotFound(name.to_string())
        } else {
            ServeError::Internal(format!("session {name:?} died"))
        }
    }
}

/// Swaps live session `name`'s entry for a `Leaving` reservation and
/// returns its handle, for [`SessionManager::retire`] to finish.
fn leave(inner: &mut Inner, name: &str, migrating: bool) -> Handle {
    let Some(Entry::Live(handle)) = inner.entries.remove(name) else {
        unreachable!("only live sessions leave")
    };
    let leaving = Leaving {
        slot: Arc::clone(&handle.slot),
        generation: handle.generation,
        migrating,
    };
    inner
        .entries
        .insert(name.to_string(), Entry::Leaving(leaving));
    handle
}

/// Runs `op` on the contents of a held session lock. A panic in `op`
/// empties the slot — the session dies — and yields `None`; the guard
/// stays held through the unwind, so the mutex is not poisoned and the
/// calling worker thread carries on.
fn run_guarded<T>(
    slot: &mut Option<SessionState>,
    op: impl FnOnce(&mut Option<SessionState>) -> Option<T>,
) -> Option<T> {
    catch_unwind(AssertUnwindSafe(|| op(&mut *slot))).unwrap_or_else(|_| {
        *slot = None;
        None
    })
}

/// Takes the session out of a held lock, returning its final stats
/// (zeros when it had already died).
fn take_stats(slot: &mut Option<SessionState>) -> SessionStats {
    slot.take().map(|state| state.stats()).unwrap_or_default()
}

/// Records a tombstone for a session that left the table (idle eviction
/// or migration hand-off), FIFO-capped at [`MAX_TOMBSTONES`] so a daemon
/// cycling uniquely named sessions never accumulates state.
fn insert_tombstone(
    inner: &mut Inner,
    name: &str,
    checkpoint: PathBuf,
    final_t: u64,
    migrated_to: Option<String>,
) {
    let order = inner.next_evicted_order;
    inner.next_evicted_order += 1;
    inner.evicted.insert(
        name.to_string(),
        EvictedRow {
            checkpoint,
            final_t,
            order,
            migrated_to,
        },
    );
    while inner.evicted.len() > MAX_TOMBSTONES {
        let oldest = inner
            .evicted
            .iter()
            .min_by_key(|(_, row)| row.order)
            .map(|(n, _)| n.clone())
            .expect("non-empty map has a minimum");
        inner.evicted.remove(&oldest);
    }
}

/// Recognizes the batched `/step` body forms: a JSON array of rounds, or
/// an object with an `"n"` count (and no `"origins"`). Anything else —
/// empty body, an `{"origins": ...}` object, malformed JSON — returns
/// `None` and takes the single-step path, so its errors read exactly as
/// before batching existed.
fn parse_batch_body(body: &str) -> Result<Option<BatchSpec>, ServeError> {
    let trimmed = body.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let Ok(value) = JsonValue::parse(trimmed) else {
        return Ok(None);
    };
    match value {
        JsonValue::Arr(rounds) => {
            if rounds.is_empty() {
                return Err(ServeError::Bad("batch: empty round array".into()));
            }
            if rounds.len() > MAX_BATCH_ROUNDS {
                return Err(ServeError::TooLarge(format!(
                    "batch of {} rounds exceeds the {MAX_BATCH_ROUNDS}-round cap",
                    rounds.len()
                )));
            }
            Ok(Some(BatchSpec::Rounds(rounds)))
        }
        obj @ JsonValue::Obj(_) => {
            if obj.get("origins").is_some() {
                return Ok(None);
            }
            match obj.get("n") {
                None => Ok(None),
                Some(n) => match n.as_u64() {
                    Some(0) | None => Err(ServeError::Bad(
                        "batch: \"n\" must be a positive integer".into(),
                    )),
                    Some(n) if n as usize > MAX_BATCH_ROUNDS => Err(ServeError::TooLarge(format!(
                        "batch of {n} rounds exceeds the {MAX_BATCH_ROUNDS}-round cap"
                    ))),
                    Some(n) => Ok(Some(BatchSpec::FromSource(n))),
                },
            }
        }
        _ => Ok(None),
    }
}

/// Session names are path segments and file-name fragments: short,
/// URL-safe, no separators.
fn validate_name(name: &str) -> Result<(), ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(ServeError::Bad(format!(
            "bad session name {name:?} (1-64 chars from [A-Za-z0-9._-])"
        )))
    }
}

// ---------------------------------------------------------------------
// Per-session state and the operations run on it under its lock.
// ---------------------------------------------------------------------

/// Everything one session owns; the manager holds it behind the
/// session's lock.
struct SessionState {
    name: String,
    session: EventedSession<Box<dyn OnlineStrategy + Send>>,
    source: Box<dyn RequestSource + Send>,
    spec: String,
    checkpoint: PathBuf,
    resumed_at: u64,
    /// Rounds ever pulled from the demand source (including checkpointed
    /// history) — the resume fast-forward distance. Explicit-body steps
    /// advance `t` but not this.
    source_consumed: u64,
    /// Source rounds pulled for a batch that could not run (a shortfall
    /// fails the whole batch), restored here so the next pull sees them
    /// in order — a failed batch must not eat demand. Checkpoints and
    /// `/metrics` report `source_consumed` minus this backlog, so a
    /// resume re-pulls exactly the unplayed rounds.
    pending: VecDeque<RoundRequests>,
    rounds_served: u64,
    totals: CostBreakdown,
    step_seconds_total: f64,
    /// Lifetime metrics carried in from the checkpoint (v2; zeros for a
    /// fresh session, round-counter-only for a v1 file).
    carried: SessionMetrics,
    started: Instant,
}

impl SessionState {
    /// Lifetime totals right now: checkpoint-carried plus this process.
    fn cumulative(&self) -> SessionMetrics {
        SessionMetrics {
            rounds_served: self.carried.rounds_served + self.rounds_served,
            total_cost: self.carried.total_cost + self.totals,
            uptime_seconds: self.carried.uptime_seconds + self.started.elapsed().as_secs_f64(),
        }
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            rounds_served: self.rounds_served,
            final_t: self.session.t(),
        }
    }

    /// Source rounds actually *played* (or lost to a failed step) — what
    /// a resume must fast-forward past. Rounds sitting in the restored
    /// [`pending`](Self::pending) backlog are excluded: they were pulled
    /// but never served, so a resumed session must see them again.
    fn source_rounds(&self) -> u64 {
        self.source_consumed - self.pending.len() as u64
    }
}

/// Builds a session's world from its config: substrate, strategy,
/// [`EventedSession`] (fresh or resumed from the checkpoint) and demand
/// source. Any error fails the creation before the session is listed.
fn build_session(name: &str, cfg: SessionConfig) -> Result<SessionState, String> {
    let seed = cfg.cell.seeds[0];
    let env = ExperimentEnv::from_spec(&cfg.cell.topology, seed)?;
    let ctx = env.context(cfg.cell.params, cfg.cell.load);
    let node_count = env.graph.node_count();
    // Sessions share the cache's graph and matrix; a session's first
    // substrate event copies them, so the cache copy stays pristine for
    // other sessions on the same topology.
    let graph = Arc::clone(&env.graph);
    let dist = Arc::clone(&env.matrix);

    // Resume state, read before anything is constructed so a bad
    // checkpoint aborts the creation instead of a half-served session.
    let (snapshot, source_consumed) = if cfg.resume {
        let text = std::fs::read_to_string(&cfg.checkpoint)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", cfg.checkpoint.display()))?;
        let snap = SessionSnapshot::from_json(&text)?;
        // The daemon's sidecar field (see `checkpoint()`): how many rounds
        // came out of the demand source, as opposed to explicit-body
        // steps. Fast-forwarding by `t` instead would over-skip source
        // rounds whenever the two were mixed.
        let consumed = JsonValue::parse(&text)
            .ok()
            .and_then(|v| v.get("source_rounds").and_then(JsonValue::as_u64))
            .unwrap_or(snap.t);
        if consumed > snap.t {
            return Err(format!(
                "corrupt checkpoint: source_rounds {consumed} exceeds t {}",
                snap.t
            ));
        }
        (Some(snap), consumed)
    } else {
        (None, 0)
    };
    let resumed_at = snapshot.as_ref().map(|s| s.t).unwrap_or(0);
    // v2 checkpoints carry lifetime metrics; a v1 file carries none, so
    // the cumulative cost/uptime restart (the round counter is still
    // exact — every round ever played is in `t`).
    let carried = match snapshot.as_ref() {
        Some(snap) => snap.metrics.unwrap_or(SessionMetrics {
            rounds_served: snap.t,
            total_cost: CostBreakdown::zero(),
            uptime_seconds: 0.0,
        }),
        None => SessionMetrics::default(),
    };

    let instantiate = || {
        cfg.cell.workload.try_instantiate(
            &env.graph,
            &env.matrix,
            cfg.cell.t_periods,
            cfg.cell.lambda,
            seed,
        )
    };
    // The workload's scenario, when it feeds the session. A `replay:`
    // file opens (and validates) here whatever the source, so a broken
    // one fails the creation.
    let mut scenario = match (&cfg.source, &cfg.cell.workload) {
        (SourceKind::Scenario, _) | (_, WorkloadSpec::Replay { .. }) => Some(instantiate()?),
        _ => None,
    };

    // The strategy. OFFSTAT has no pure-streaming form: its placement is
    // computed from the recorded scenario trace (scenario sources only) —
    // on resume the placement travels inside the checkpoint instead.
    let strategy: Box<dyn OnlineStrategy + Send> = if cfg.cell.strategy == StrategySpec::OffStat {
        if snapshot.is_some() {
            Box::new(OffStatPlacement::new(Vec::new()))
        } else if cfg.source == SourceKind::Scenario {
            // Recorded from a second instance: the first feeds the
            // session from round 0.
            let trace = record(instantiate()?.as_mut(), cfg.cell.rounds);
            Box::new(OffStatPlacement::from_trace(&ctx, &trace))
        } else {
            return Err(
                "strat=offstat needs source=scenario (the placement is computed \
                 from the recorded scenario trace)"
                    .into(),
            );
        }
    } else {
        cfg.cell.strategy.instantiate_online(&ctx, seed)?
    };

    let session = match &snapshot {
        Some(snap) => {
            // The checkpoint's recorded schedule is authoritative on
            // resume: an `events=` key restating it verbatim is accepted
            // (so the same command line restarts cleanly), anything else
            // is refused rather than silently merged or doubled.
            let recorded = snap.substrate_events.clone().unwrap_or_default();
            if !cfg.cell.events.is_empty() && cfg.cell.events.render() != recorded {
                return Err(format!(
                    "resume: events= ({}) conflicts with the checkpointed schedule ({}); \
                     the checkpoint restores its own events — append new ones via \
                     POST /sessions/<name>/events",
                    cfg.cell.events.render(),
                    if recorded.is_empty() {
                        "none"
                    } else {
                        recorded.as_str()
                    },
                ));
            }
            EventedSession::resume(graph, dist, cfg.cell.params, cfg.cell.load, strategy, snap)?
        }
        None => EventedSession::new(
            graph,
            dist,
            cfg.cell.events.clone(),
            cfg.cell.params,
            cfg.cell.load,
            strategy,
            initial_center(&ctx),
        ),
    };

    // The demand source, fast-forwarded past the rounds the checkpointed
    // history actually consumed from it (explicit-body steps do not
    // advance the source), so a resumed session sees the same source
    // rounds an uninterrupted one would.
    let source: Box<dyn RequestSource + Send> = match &cfg.source {
        SourceKind::Scenario => {
            let scenario = scenario.take().expect("instantiated for a scenario source");
            let mut stream = ScenarioStream::new(scenario, Some(cfg.cell.rounds));
            stream.skip_to(source_consumed);
            Box::new(stream)
        }
        SourceKind::File(path) => {
            // Packed or JSONL, sniffed by magic. A packed replay skips by
            // an O(1) frame-index seek; JSONL pulls and discards.
            let mut replay = replay_source(path, node_count)?;
            replay.skip(source_consumed).map_err(|e| {
                if e.contains("exhausted") {
                    format!(
                        "replay {path} is shorter than the checkpoint \
                         (source_rounds={source_consumed})"
                    )
                } else {
                    e
                }
            })?;
            replay
        }
        SourceKind::Stdin => Box::new(stdin_source(node_count)),
    };

    Ok(SessionState {
        name: name.to_string(),
        session,
        source,
        spec: cfg.cell.describe(),
        checkpoint: cfg.checkpoint,
        resumed_at,
        source_consumed,
        pending: VecDeque::new(),
        rounds_served: 0,
        totals: CostBreakdown::zero(),
        step_seconds_total: 0.0,
        carried,
        started: Instant::now(),
    })
}

fn step(state: &mut SessionState, body: &str) -> Result<JsonValue, ServeError> {
    let batch = if body.trim().is_empty() {
        // A round restored by a failed batch is replayed before the
        // source is pulled again (it was already counted at pull time).
        match state.pending.pop_front() {
            Some(batch) => batch,
            None => {
                let batch = state
                    .source
                    .next_round()
                    .map_err(ServeError::Bad)?
                    .ok_or(ServeError::Exhausted)?;
                state.source_consumed += 1;
                batch
            }
        }
    } else {
        let value = JsonValue::parse(body.trim()).map_err(ServeError::Bad)?;
        parse_round(&value, state.session.world().graph().node_count()).map_err(ServeError::Bad)?
    };
    let started = Instant::now();
    // A failing event aborts the round before any cost is charged: `t`
    // does not advance, so the schedule stays addressable and the error
    // is reported to the caller instead of silently skipping the event.
    let rec = state.session.step(&batch).map_err(ServeError::Bad)?;
    state.step_seconds_total += started.elapsed().as_secs_f64();
    state.rounds_served += 1;
    state.totals += rec.costs;
    Ok(round_json(state, &rec))
}

/// Plays a whole batch under one hold of the session lock. Explicit
/// rounds are parsed up front, so a malformed batch applies nothing; a
/// source shortfall restores every pulled round to the pending backlog
/// and fails the whole batch with 410. A mid-batch step failure (a substrate event
/// that cannot apply) reports how far the batch got — exactly the state
/// the same rounds stepped singly would have left.
fn step_batch(state: &mut SessionState, spec: BatchSpec) -> Result<JsonValue, ServeError> {
    let (mut rounds, from_source) = match spec {
        BatchSpec::Rounds(values) => {
            let node_count = state.session.world().graph().node_count();
            let mut rounds = Vec::with_capacity(values.len());
            for (i, value) in values.iter().enumerate() {
                let round = parse_round(value, node_count)
                    .map_err(|e| ServeError::Bad(format!("batch[{i}]: {e}")))?;
                rounds.push(round);
            }
            (rounds, false)
        }
        BatchSpec::FromSource(k) => {
            let mut rounds: Vec<RoundRequests> = Vec::with_capacity(k as usize);
            while (rounds.len() as u64) < k {
                match state.pending.pop_front() {
                    Some(round) => rounds.push(round),
                    None => break,
                }
            }
            let missing = k - rounds.len() as u64;
            if missing > 0 {
                match state.source.next_rounds(missing) {
                    Ok(pulled) => {
                        state.source_consumed += pulled.len() as u64;
                        rounds.extend(pulled);
                    }
                    Err(e) => {
                        restore_pending(state, rounds);
                        return Err(ServeError::Bad(e));
                    }
                }
            }
            if (rounds.len() as u64) < k {
                // Shortfall: the whole batch fails, nothing is applied,
                // and every pulled round goes back in order.
                restore_pending(state, rounds);
                return Err(ServeError::Exhausted);
            }
            (rounds, true)
        }
    };
    let started = Instant::now();
    let mut bodies = Vec::with_capacity(rounds.len());
    for i in 0..rounds.len() {
        let rec = match state.session.step(&rounds[i]) {
            Ok(rec) => rec,
            Err(e) => {
                state.step_seconds_total += started.elapsed().as_secs_f64();
                let total = rounds.len();
                if from_source {
                    // The failed round is lost (single-step semantics);
                    // the unplayed tail goes back so no demand is eaten.
                    restore_pending(state, rounds.split_off(i + 1));
                }
                return Err(ServeError::Bad(format!(
                    "batch[{i}]: {e} ({i} of {total} rounds applied)"
                )));
            }
        };
        state.rounds_served += 1;
        state.totals += rec.costs;
        bodies.push(round_json(state, &rec));
    }
    state.step_seconds_total += started.elapsed().as_secs_f64();
    Ok(JsonValue::Arr(bodies))
}

/// Puts pulled-but-unplayed source rounds back at the head of the
/// pending backlog, preserving demand order.
fn restore_pending(state: &mut SessionState, rounds: Vec<RoundRequests>) {
    for round in rounds.into_iter().rev() {
        state.pending.push_front(round);
    }
}

/// Handles `POST /sessions/<name>/events`: parses `{"events": "<schedule
/// grammar>"}` from the body and appends to the live schedule. Past
/// events (before the session's current round) are refused by
/// [`EventedSession::append_events`].
fn append_events(state: &mut SessionState, body: &str) -> Result<JsonValue, ServeError> {
    let value = JsonValue::parse(body.trim()).map_err(ServeError::Bad)?;
    let text = value
        .get("events")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::Bad("events: body needs an \"events\" string".into()))?;
    let more = SubstrateEvents::parse(text).map_err(ServeError::Bad)?;
    if more.is_empty() {
        return Err(ServeError::Bad("events: empty schedule".into()));
    }
    state
        .session
        .append_events(&more)
        .map_err(ServeError::Bad)?;
    Ok(JsonValue::Obj(vec![
        ("ok".into(), JsonValue::Bool(true)),
        ("session".into(), JsonValue::from(state.name.as_str())),
        ("appended".into(), JsonValue::from(more.len())),
        (
            "events".into(),
            JsonValue::from(state.session.schedule().render()),
        ),
        ("next_t".into(), JsonValue::from(state.session.t())),
    ]))
}

fn checkpoint(state: &mut SessionState) -> Result<String, String> {
    let mut snap = state.session.snapshot()?;
    // v2: the checkpoint carries the session's lifetime totals, so a
    // restarted daemon keeps counting where this one stops.
    snap.metrics = Some(state.cumulative());
    let text = snap.to_json();
    // Sidecar field for the resume fast-forward: how much of the demand
    // source the checkpointed history consumed. `SessionSnapshot` ignores
    // unknown keys, so the file stays a valid engine checkpoint.
    let mut value = JsonValue::parse(&text).expect("own render must parse");
    if let JsonValue::Obj(pairs) = &mut value {
        pairs.push((
            "source_rounds".into(),
            JsonValue::from(state.source_rounds()),
        ));
    }
    let mut text = value.render();
    text.push('\n');
    if let Some(dir) = state.checkpoint.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    // Write-then-rename so a crash mid-write can't truncate the previous
    // good checkpoint — the one artifact meant to survive crashes.
    let tmp = state.checkpoint.with_extension("json.tmp");
    std::fs::write(&tmp, &text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &state.checkpoint)
        .map_err(|e| format!("cannot rename into {}: {e}", state.checkpoint.display()))?;
    Ok(text)
}

fn costs_json(costs: &CostBreakdown) -> JsonValue {
    JsonValue::Obj(vec![
        ("access".into(), JsonValue::from(costs.access)),
        ("running".into(), JsonValue::from(costs.running)),
        ("migration".into(), JsonValue::from(costs.migration)),
        ("creation".into(), JsonValue::from(costs.creation)),
        ("total".into(), JsonValue::from(costs.total())),
    ])
}

fn fleet_json(state: &SessionState) -> Vec<(String, JsonValue)> {
    let fleet = state.session.fleet();
    vec![
        (
            "active".into(),
            JsonValue::Arr(
                fleet
                    .active()
                    .iter()
                    .map(|n| JsonValue::from(n.index()))
                    .collect(),
            ),
        ),
        (
            "inactive".into(),
            JsonValue::Arr(
                fleet
                    .inactive_entries()
                    .map(|s| {
                        JsonValue::Arr(vec![
                            JsonValue::from(s.node.index()),
                            JsonValue::from(s.expires_epoch),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("epoch".into(), JsonValue::from(fleet.epoch())),
    ]
}

fn round_json(state: &SessionState, rec: &RoundRecord) -> JsonValue {
    let mut pairs = vec![
        ("t".into(), JsonValue::from(rec.t)),
        ("requests".into(), JsonValue::from(rec.requests)),
        ("costs".into(), costs_json(&rec.costs)),
    ];
    pairs.extend(fleet_json(state));
    JsonValue::Obj(pairs)
}

fn placement_json(state: &SessionState) -> JsonValue {
    let mut pairs = vec![("t".into(), JsonValue::from(state.session.t()))];
    pairs.extend(fleet_json(state));
    JsonValue::Obj(pairs)
}

fn metrics_json(state: &SessionState) -> JsonValue {
    let cumulative = state.cumulative();
    JsonValue::Obj(vec![
        ("session".into(), JsonValue::from(state.name.as_str())),
        (
            "strategy".into(),
            JsonValue::from(state.session.strategy().name()),
        ),
        ("spec".into(), JsonValue::from(state.spec.clone())),
        ("source".into(), JsonValue::from(state.source.describe())),
        ("next_t".into(), JsonValue::from(state.session.t())),
        ("resumed_at".into(), JsonValue::from(state.resumed_at)),
        ("rounds_served".into(), JsonValue::from(state.rounds_served)),
        (
            "source_rounds".into(),
            JsonValue::from(state.source_rounds()),
        ),
        ("total_cost".into(), costs_json(&state.totals)),
        (
            "active_servers".into(),
            JsonValue::from(state.session.fleet().active_count()),
        ),
        (
            "step_seconds_total".into(),
            JsonValue::from(state.step_seconds_total),
        ),
        (
            "cumulative".into(),
            JsonValue::Obj(vec![
                (
                    "rounds_served".into(),
                    JsonValue::from(cumulative.rounds_served),
                ),
                ("total_cost".into(), costs_json(&cumulative.total_cost)),
                (
                    "uptime_seconds".into(),
                    JsonValue::from(cumulative.uptime_seconds),
                ),
            ]),
        ),
    ])
}

/// One `GET /sessions` row (also the `POST /sessions` response).
fn info_json(state: &SessionState) -> JsonValue {
    let mut pairs = vec![
        ("name".into(), JsonValue::from(state.name.as_str())),
        ("status".into(), JsonValue::from("live")),
        ("spec".into(), JsonValue::from(state.spec.clone())),
        (
            "strategy".into(),
            JsonValue::from(state.session.strategy().name()),
        ),
        ("source".into(), JsonValue::from(state.source.describe())),
        ("next_t".into(), JsonValue::from(state.session.t())),
        ("resumed_at".into(), JsonValue::from(state.resumed_at)),
        ("rounds_served".into(), JsonValue::from(state.rounds_served)),
        (
            "uptime_seconds".into(),
            JsonValue::from(state.started.elapsed().as_secs_f64()),
        ),
    ];
    let schedule = state.session.schedule();
    if !schedule.is_empty() {
        pairs.push(("events".into(), JsonValue::from(schedule.render())));
    }
    JsonValue::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tiny(name: &str, extra: &[&str]) -> SessionConfig {
        let mut base = vec![
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=onth",
            "rounds=40",
            "seed=3",
            "k=4",
        ];
        base.extend_from_slice(extra);
        SessionConfig::parse(&args(&base), name).unwrap()
    }

    #[test]
    fn config_parse_defaults_and_unknown_keys() {
        let cfg = tiny("alpha", &[]);
        assert_eq!(cfg.cell.seeds, vec![3]);
        assert!(!cfg.resume);
        assert_eq!(cfg.source, SourceKind::Scenario);
        assert!(cfg
            .checkpoint
            .to_string_lossy()
            .ends_with("checkpoint-alpha.json"));

        let err = SessionConfig::parse(&args(&["port=1"]), "x").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = SessionConfig::parse(&args(&["topo=er:50"]), "x").unwrap_err();
        assert!(err.contains("required"), "{err}");
    }

    #[test]
    fn manager_lifecycle_create_step_list_remove() {
        let mgr = SessionManager::new(4);
        let info = mgr.create("alpha", tiny("alpha", &[])).unwrap();
        assert_eq!(info.get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(info.get("status").unwrap().as_str(), Some("live"));

        // duplicate names are refused
        match mgr.create("alpha", tiny("alpha", &[])) {
            Err(ServeError::Conflict(_)) => {}
            other => panic!("expected Conflict, got {other:?}"),
        }

        let round = mgr.step("alpha", "").unwrap();
        assert_eq!(round.get("t").unwrap().as_u64(), Some(0));
        let metrics = mgr.metrics("alpha").unwrap();
        assert_eq!(metrics.get("rounds_served").unwrap().as_u64(), Some(1));
        assert_eq!(
            metrics
                .get("cumulative")
                .unwrap()
                .get("rounds_served")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(list.get("max_sessions").unwrap().as_u64(), Some(4));

        let stats = mgr.remove("alpha").unwrap();
        assert_eq!(stats.rounds_served, 1);
        assert_eq!(stats.final_t, 1);
        match mgr.step("alpha", "") {
            Err(ServeError::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }

        // only the default session's stats are retained for the daemon
        // summary; others are reported once by remove()
        assert!(mgr.default_session_stats().is_none());
        mgr.create(DEFAULT_SESSION, tiny(DEFAULT_SESSION, &[]))
            .unwrap();
        mgr.step(DEFAULT_SESSION, "").unwrap();
        mgr.shutdown_all();
        assert_eq!(mgr.default_session_stats().unwrap().final_t, 1);
    }

    #[test]
    fn manager_enforces_capacity_and_names() {
        let mgr = SessionManager::new(1);
        mgr.create("one", tiny("one", &[])).unwrap();
        match mgr.create("two", tiny("two", &[])) {
            Err(ServeError::Capacity(_)) => {}
            other => panic!("expected Capacity, got {other:?}"),
        }
        for bad in ["", "a/b", "x y", &"n".repeat(65)] {
            match mgr.create(bad, tiny("z", &[])) {
                Err(ServeError::Bad(_)) => {}
                other => panic!("name {bad:?}: expected Bad, got {other:?}"),
            }
        }
        mgr.shutdown_all();
        assert_eq!(mgr.list().get("count").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn idle_evict_checkpoints_tombstones_and_allows_resume() {
        let dir = std::env::temp_dir().join(format!("flexserve-idle-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("idle.json");
        let ck_arg = format!("checkpoint={}", ck.display());
        let mgr = SessionManager::new(4);
        mgr.create("idler", tiny("idler", &[&ck_arg])).unwrap();
        mgr.step("idler", "").unwrap();
        mgr.step("idler", "").unwrap();

        // Nothing is idle against a long window...
        assert!(mgr
            .evict_idle(std::time::Duration::from_secs(3600))
            .is_empty());
        // ...while a zero window reaps immediately: checkpointed + gone.
        assert_eq!(mgr.evict_idle(std::time::Duration::ZERO), vec!["idler"]);
        let text = std::fs::read_to_string(&ck).expect("auto-checkpoint written");
        assert!(text.contains("flexserve-checkpoint-v2"), "{text}");
        match mgr.step("idler", "") {
            Err(ServeError::NotFound(_)) => {}
            other => panic!("evicted session must 404, got {other:?}"),
        }

        // The tombstone shows up in the listing (count stays live-only).
        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(0));
        let rows = match list.get("sessions").unwrap() {
            JsonValue::Arr(rows) => rows.clone(),
            other => panic!("sessions must be an array, got {other:?}"),
        };
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some("idler"))
            .expect("tombstone row");
        assert_eq!(row.get("evicted").unwrap(), &JsonValue::Bool(true));
        assert_eq!(row.get("status").unwrap().as_str(), Some("evicted"));
        assert_eq!(row.get("final_t").unwrap().as_u64(), Some(2));
        assert!(row
            .get("checkpoint")
            .unwrap()
            .as_str()
            .unwrap()
            .ends_with("idle.json"));

        // Recreating with resume=true continues from the auto-checkpoint
        // and clears the tombstone.
        let info = mgr
            .create("idler", tiny("idler", &[&ck_arg, "resume=true"]))
            .unwrap();
        assert_eq!(info.get("resumed_at").unwrap().as_u64(), Some(2));
        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(1));
        let rows = match list.get("sessions").unwrap() {
            JsonValue::Arr(rows) => rows.clone(),
            other => panic!("sessions must be an array, got {other:?}"),
        };
        assert!(
            rows.iter().all(|r| r.get("evicted").is_none()
                && r.get("status").and_then(JsonValue::as_str) == Some("live")),
            "recreation must supersede the tombstone"
        );

        // DELETE on an evicted name clears the tombstone (second
        // eviction; the resumed session is at t=2 with 0 new rounds).
        assert_eq!(mgr.evict_idle(std::time::Duration::ZERO), vec!["idler"]);
        let stats = mgr.remove("idler").unwrap();
        assert_eq!(stats.final_t, 2);
        assert_eq!(stats.rounds_served, 0);
        assert!(matches!(mgr.remove("idler"), Err(ServeError::NotFound(_))));
        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(0));
        assert!(
            matches!(list.get("sessions").unwrap(), JsonValue::Arr(rows) if rows.is_empty()),
            "DELETE must clear the tombstone"
        );
        mgr.shutdown_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_migrated_leaves_a_migrated_tombstone() {
        let dir = std::env::temp_dir().join(format!("flexserve-migrate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("mig.json");
        let ck_arg = format!("checkpoint={}", ck.display());
        let mgr = SessionManager::new(4);
        mgr.create("mover", tiny("mover", &[&ck_arg])).unwrap();
        mgr.step("mover", "").unwrap();
        mgr.step("mover", "").unwrap();
        mgr.step("mover", "").unwrap();

        let stats = mgr.remove_migrated("mover", "127.0.0.1:9999").unwrap();
        assert_eq!(stats.final_t, 3);
        assert_eq!(stats.rounds_served, 3);
        // The checkpoint was written on the way out, so the destination
        // worker can resume from it.
        let text = std::fs::read_to_string(&ck).expect("migration checkpoint written");
        assert!(text.contains("flexserve-checkpoint-v2"), "{text}");
        match mgr.step("mover", "") {
            Err(ServeError::NotFound(_)) => {}
            other => panic!("migrated session must 404 locally, got {other:?}"),
        }
        match mgr.remove_migrated("mover", "127.0.0.1:9999") {
            Err(ServeError::NotFound(_)) => {}
            other => panic!("second migration must 404, got {other:?}"),
        }

        // The tombstone names its destination and does NOT read as an
        // eviction: status is "migrated", there is no `evicted` flag.
        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(0));
        let rows = match list.get("sessions").unwrap() {
            JsonValue::Arr(rows) => rows.clone(),
            other => panic!("sessions must be an array, got {other:?}"),
        };
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some("mover"))
            .expect("migrated tombstone row");
        assert_eq!(row.get("status").unwrap().as_str(), Some("migrated"));
        assert_eq!(
            row.get("migrated_to").unwrap().as_str(),
            Some("127.0.0.1:9999")
        );
        assert!(row.get("evicted").is_none());
        assert_eq!(row.get("final_t").unwrap().as_u64(), Some(3));
        assert!(row
            .get("checkpoint")
            .unwrap()
            .as_str()
            .unwrap()
            .ends_with("mig.json"));

        // Both tombstone flavors coexist: idle-evict a second session and
        // check the rows stay distinguishable.
        let ck2 = dir.join("idle2.json");
        let ck2_arg = format!("checkpoint={}", ck2.display());
        mgr.create("idler", tiny("idler", &[&ck2_arg])).unwrap();
        mgr.step("idler", "").unwrap();
        assert_eq!(mgr.evict_idle(std::time::Duration::ZERO), vec!["idler"]);
        let list = mgr.list();
        let rows = match list.get("sessions").unwrap() {
            JsonValue::Arr(rows) => rows.clone(),
            other => panic!("sessions must be an array, got {other:?}"),
        };
        let idle = rows
            .iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some("idler"))
            .expect("evicted tombstone row");
        assert_eq!(idle.get("status").unwrap().as_str(), Some("evicted"));
        assert_eq!(idle.get("evicted").unwrap(), &JsonValue::Bool(true));
        assert!(idle.get("migrated_to").is_none());

        // Recreating the migrated name (resume on the "destination", here
        // the same manager) clears the tombstone like any recreation.
        let info = mgr
            .create("mover", tiny("mover", &[&ck_arg, "resume=true"]))
            .unwrap();
        assert_eq!(info.get("resumed_at").unwrap().as_u64(), Some(3));
        mgr.shutdown_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_append_checkpoint_all_and_resume() {
        let dir =
            std::env::temp_dir().join(format!("flexserve-serve-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("events.json");
        let ck_arg = format!("checkpoint={}", ck.display());
        let mgr = SessionManager::new(4);
        let info = mgr
            .create("ev", tiny("ev", &[&ck_arg, "events=2:fail-link:0-1"]))
            .unwrap();
        assert_eq!(
            info.get("events").unwrap().as_str(),
            Some("2:fail-link:0-1")
        );
        for _ in 0..4 {
            mgr.step("ev", "").unwrap();
        }

        // Live append of a future recovery; past events are refused.
        let out = mgr
            .events("ev", r#"{"events": "6:recover-link:0-1"}"#)
            .unwrap();
        assert_eq!(out.get("appended").unwrap().as_u64(), Some(1));
        assert_eq!(
            out.get("events").unwrap().as_str(),
            Some("2:fail-link:0-1,6:recover-link:0-1")
        );
        assert_eq!(out.get("next_t").unwrap().as_u64(), Some(4));
        match mgr.events("ev", r#"{"events": "1:fail-node:5"}"#) {
            Err(ServeError::Bad(msg)) => assert!(msg.contains("round"), "{msg}"),
            other => panic!("past events must be Bad, got {other:?}"),
        }
        match mgr.events("ev", r#"{"nope": true}"#) {
            Err(ServeError::Bad(_)) => {}
            other => panic!("bodies without events must be Bad, got {other:?}"),
        }

        // Graceful-shutdown checkpointing records the full schedule.
        assert_eq!(mgr.checkpoint_all(), vec!["ev".to_string()]);
        let text = std::fs::read_to_string(&ck).expect("shutdown checkpoint written");
        assert!(
            text.contains("\"substrate_events\":\"2:fail-link:0-1,6:recover-link:0-1\""),
            "{text}"
        );
        mgr.shutdown_all();

        // Resume restores the schedule from the checkpoint itself...
        let mgr = SessionManager::new(4);
        let info = mgr
            .create("ev", tiny("ev", &[&ck_arg, "resume=true"]))
            .unwrap();
        assert_eq!(info.get("resumed_at").unwrap().as_u64(), Some(4));
        assert_eq!(
            info.get("events").unwrap().as_str(),
            Some("2:fail-link:0-1,6:recover-link:0-1")
        );
        mgr.shutdown_all();

        // ...an events= key restating it verbatim is accepted, anything
        // else conflicts.
        let mgr = SessionManager::new(4);
        mgr.create(
            "ev",
            tiny(
                "ev",
                &[
                    &ck_arg,
                    "resume=true",
                    "events=2:fail-link:0-1,6:recover-link:0-1",
                ],
            ),
        )
        .unwrap();
        mgr.shutdown_all();
        let mgr = SessionManager::new(4);
        match mgr.create(
            "ev",
            tiny("ev", &[&ck_arg, "resume=true", "events=3:fail-node:5"]),
        ) {
            Err(ServeError::Bad(msg)) => assert!(msg.contains("conflicts"), "{msg}"),
            other => panic!("conflicting schedules must be Bad, got {other:?}"),
        }
        mgr.shutdown_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_specs_fail_creation_not_the_daemon() {
        let mgr = SessionManager::new(4);
        // infeasible cell (offline strategy)
        let cfg = tiny("x", &["strat=opt"]);
        assert!(matches!(mgr.create("x", cfg), Err(ServeError::Bad(_))));
        // missing checkpoint on resume
        let cfg = tiny("y", &["resume=true", "checkpoint=/nonexistent/ck.json"]);
        assert!(matches!(mgr.create("y", cfg), Err(ServeError::Bad(_))));
        // failed creations free the name slot
        assert_eq!(mgr.list().get("count").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn batch_step_matches_singles_and_validates() {
        let mgr = SessionManager::new(4);
        mgr.create("solo", tiny("solo", &[])).unwrap();
        mgr.create("batch", tiny("batch", &[])).unwrap();

        // Source-driven: {"n": k} replies with the same documents the
        // same rounds produce singly, byte for byte.
        let mut singles = Vec::new();
        for _ in 0..6 {
            singles.push(mgr.step("solo", "").unwrap().render());
        }
        let mut batched = Vec::new();
        for body in [r#"{"n": 2}"#, r#"{"n": 4}"#] {
            match mgr.step("batch", body).unwrap() {
                JsonValue::Arr(rows) => batched.extend(rows.iter().map(JsonValue::render)),
                other => panic!("batch reply must be an array, got {other:?}"),
            }
        }
        assert_eq!(batched, singles);
        assert_eq!(
            mgr.metrics("batch").unwrap().get("source_rounds").unwrap(),
            &JsonValue::from(6u64)
        );

        // Explicit-array form: the elements use the single-step schema.
        let one = mgr
            .step("solo", r#"{"origins": [1, 3, 3]}"#)
            .unwrap()
            .render();
        let arr = mgr.step("batch", r#"[{"origins": [1, 3, 3]}]"#).unwrap();
        match arr {
            JsonValue::Arr(rows) => assert_eq!(rows[0].render(), one),
            other => panic!("batch reply must be an array, got {other:?}"),
        }

        // A malformed element fails the whole batch before anything runs.
        let before = mgr.metrics("batch").unwrap().get("next_t").unwrap().clone();
        match mgr.step("batch", r#"[{"origins": [1]}, {"origins": [99]}]"#) {
            Err(ServeError::Bad(e)) => assert!(e.contains("batch[1]"), "{e}"),
            other => panic!("expected Bad, got {other:?}"),
        }
        assert_eq!(
            mgr.metrics("batch").unwrap().get("next_t").unwrap(),
            &before,
            "malformed batch must apply nothing"
        );

        // Cap and shape validation.
        assert!(matches!(mgr.step("batch", "[]"), Err(ServeError::Bad(_))));
        assert!(matches!(
            mgr.step("batch", r#"{"n": 0}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            mgr.step("batch", r#"{"n": "three"}"#),
            Err(ServeError::Bad(_))
        ));
        assert!(matches!(
            mgr.step("batch", r#"{"n": 4097}"#),
            Err(ServeError::TooLarge(_))
        ));
        let huge = format!("[{}]", vec!["{}"; MAX_BATCH_ROUNDS + 1].join(","));
        assert!(matches!(
            mgr.step("batch", &huge),
            Err(ServeError::TooLarge(_))
        ));
        mgr.shutdown_all();
    }

    #[test]
    fn source_batch_shortfall_is_atomic() {
        let cfg = |name: &str| {
            SessionConfig::parse(
                &args(&[
                    "topo=unit-line:8",
                    "wl=uniform:req=3",
                    "strat=onth",
                    "rounds=5",
                    "seed=3",
                    "k=4",
                ]),
                name,
            )
            .unwrap()
        };
        let mgr = SessionManager::new(4);
        mgr.create("short", cfg("short")).unwrap();
        mgr.create("ref", cfg("ref")).unwrap();
        for _ in 0..3 {
            mgr.step("short", "").unwrap();
            mgr.step("ref", "").unwrap();
        }

        // Only 2 source rounds remain: a batch of 4 fails whole...
        assert!(matches!(
            mgr.step("short", r#"{"n": 4}"#),
            Err(ServeError::Exhausted)
        ));
        let metrics = mgr.metrics("short").unwrap();
        assert_eq!(metrics.get("next_t").unwrap(), &JsonValue::from(3u64));
        // ...and eats no demand: the pulled rounds are restored, so the
        // reported source position stays at what was actually played...
        assert_eq!(
            metrics.get("source_rounds").unwrap(),
            &JsonValue::from(3u64)
        );
        // ...and the next batch plays exactly the restored rounds.
        let replayed = match mgr.step("short", r#"{"n": 2}"#).unwrap() {
            JsonValue::Arr(rows) => rows.iter().map(JsonValue::render).collect::<Vec<_>>(),
            other => panic!("batch reply must be an array, got {other:?}"),
        };
        let expected = [
            mgr.step("ref", "").unwrap().render(),
            mgr.step("ref", "").unwrap().render(),
        ];
        assert_eq!(replayed, expected);
        assert!(matches!(mgr.step("short", ""), Err(ServeError::Exhausted)));
        mgr.shutdown_all();
    }

    #[test]
    fn finish_is_atomic_against_queued_batches() {
        let dir =
            std::env::temp_dir().join(format!("flexserve-batch-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("racer.json");
        let ck_arg = format!("checkpoint={}", ck.display());
        let mgr = SessionManager::new(4);
        for _ in 0..400 {
            mgr.create("racer", tiny("racer", &[&ck_arg])).unwrap();
            mgr.step("racer", "").unwrap();

            // Hold the session's lock so that a real {"n": 3} batch and
            // the evictor's checkpoint-and-stop both queue on it, then let
            // them race for it. Whichever wins, the batch is either
            // acknowledged in full and inside the auto-checkpoint, or
            // refused with nothing applied — never acknowledged and lost.
            let slot = match mgr.inner.lock().unwrap().entries.get("racer") {
                Some(Entry::Live(h)) => Arc::clone(&h.slot),
                _ => panic!("racer must be live"),
            };
            let held = slot.lock().unwrap();
            let (batch, evicted) = std::thread::scope(|s| {
                let batch = s.spawn(|| mgr.step("racer", r#"{"n": 3}"#));
                // The batch holds a handle to the lock once it has looked
                // the session up.
                while Arc::strong_count(&slot) < 3 {
                    std::thread::yield_now();
                }
                let evictor = s.spawn(|| mgr.evict_idle(std::time::Duration::ZERO));
                // The evictor has reserved the name and waits for the lock.
                while !matches!(
                    mgr.inner.lock().unwrap().entries.get("racer"),
                    Some(Entry::Leaving(_))
                ) {
                    std::thread::yield_now();
                }
                drop(held);
                (batch.join().unwrap(), evictor.join().unwrap())
            });
            assert_eq!(evicted, vec!["racer"]);
            let text = std::fs::read_to_string(&ck).expect("auto-checkpoint written");
            let t = JsonValue::parse(&text).unwrap().get("t").unwrap().as_u64();
            match batch {
                Ok(JsonValue::Arr(rows)) => {
                    assert_eq!(rows.len(), 3, "the batch was acknowledged in full");
                    assert_eq!(t, Some(4), "checkpoint must include the batch: {text}");
                }
                Err(ServeError::NotFound(_)) => {
                    assert_eq!(t, Some(1), "a refused batch applies nothing: {text}");
                }
                other => panic!("batch must be acknowledged or 404, got {other:?}"),
            }

            // After the eviction the whole batch path reads as a clean 404
            // — no partial rounds anywhere.
            match mgr.step("racer", r#"{"n": 2}"#) {
                Err(ServeError::NotFound(_)) => {}
                other => panic!("evicted session must 404, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Holds `name`'s session lock, starts `finish` (an eviction or a
    /// migration) and, once it has reserved the name, a request and a
    /// `DELETE` on it, then releases the lock. Returns the request's
    /// answer, the `DELETE`'s and the finish's.
    fn race_a_departure<F: Send>(
        mgr: &SessionManager,
        name: &str,
        finish: impl FnOnce() -> F + Send,
    ) -> (Result<JsonValue, ServeError>, ServeError, F) {
        let slot = match mgr.inner.lock().unwrap().entries.get(name) {
            Some(Entry::Live(h)) => Arc::clone(&h.slot),
            _ => panic!("{name} must be live"),
        };
        let held = slot.lock().unwrap();
        std::thread::scope(|s| {
            let finisher = s.spawn(finish);
            while !matches!(
                mgr.inner.lock().unwrap().entries.get(name),
                Some(Entry::Leaving(_))
            ) {
                std::thread::yield_now();
            }
            // The name is reserved: a DELETE is refused at once, a
            // request queues on the session's lock.
            let deleted = mgr.remove(name).expect_err("DELETE must wait its turn");
            let request = s.spawn(|| mgr.step(name, ""));
            while Arc::strong_count(&slot) < 4 {
                std::thread::yield_now();
            }
            drop(held);
            (request.join().unwrap(), deleted, finisher.join().unwrap())
        })
    }

    #[test]
    fn a_request_racing_an_eviction_waits_for_it() {
        let dir = std::env::temp_dir().join(format!("flexserve-leaving-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("leaver.json");
        let ck_arg = format!("checkpoint={}", ck.display());
        let mgr = SessionManager::new(4);
        for _ in 0..100 {
            mgr.create("leaver", tiny("leaver", &[&ck_arg])).unwrap();
            mgr.step("leaver", "").unwrap();
            let (request, deleted, evicted) =
                race_a_departure(&mgr, "leaver", || mgr.evict_idle(std::time::Duration::ZERO));
            assert_eq!(evicted, vec!["leaver"]);
            match deleted {
                ServeError::Conflict(msg) => assert!(msg.contains("evicting"), "{msg}"),
                other => panic!("DELETE during an eviction must be 409, got {other:?}"),
            }
            // Never "still starting": the request is served ahead of the
            // eviction (and checkpointed), or sees the tombstone.
            let text = std::fs::read_to_string(&ck).expect("auto-checkpoint written");
            let t = JsonValue::parse(&text).unwrap().get("t").unwrap().as_u64();
            match request {
                Ok(_) => assert_eq!(t, Some(2), "a served step is checkpointed: {text}"),
                Err(ServeError::NotFound(_)) => assert_eq!(t, Some(1), "{text}"),
                other => panic!("request must be served or 404, got {other:?}"),
            }
            mgr.remove("leaver").unwrap(); // clears the tombstone
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_request_racing_a_failed_migration_is_served() {
        let dir = std::env::temp_dir().join(format!("flexserve-stayer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A file where the checkpoint's directory should be: every
        // checkpoint fails, so the migration aborts.
        std::fs::write(dir.join("blocker"), "").unwrap();
        let ck_arg = format!("checkpoint={}", dir.join("blocker/stayer.json").display());
        let mgr = SessionManager::new(4);
        mgr.create("stayer", tiny("stayer", &[&ck_arg])).unwrap();
        for t in 0..20u64 {
            let (request, deleted, migrated) = race_a_departure(&mgr, "stayer", || {
                mgr.remove_migrated("stayer", "127.0.0.1:1")
            });
            assert!(matches!(migrated, Err(ServeError::Internal(_))));
            match deleted {
                ServeError::Conflict(msg) => assert!(msg.contains("migrating"), "{msg}"),
                other => panic!("DELETE during a migration must be 409, got {other:?}"),
            }
            // The session went back live, so the request is served.
            let round = request.expect("request on a session that stayed live");
            assert_eq!(round.get("t").unwrap().as_u64(), Some(t));
        }
        mgr.shutdown_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_session_dies_alone() {
        let mgr = SessionManager::new(4);
        mgr.create("doomed", tiny("doomed", &[])).unwrap();
        mgr.create("other", tiny("other", &[])).unwrap();
        mgr.step("doomed", "").unwrap();
        mgr.step("other", "").unwrap();

        // A panic under the session lock (a strategy bug) kills that
        // session only: the call reports 500 and this thread carries on.
        match mgr.with_live("doomed", |_| -> JsonValue { panic!("strategy bug") }) {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("died"), "{msg}"),
            other => panic!("a panicking session must be Internal, got {other:?}"),
        }
        match mgr.step("doomed", "") {
            Err(ServeError::NotFound(_)) => {}
            other => panic!("a dead session must 404, got {other:?}"),
        }
        let list = mgr.list();
        assert_eq!(list.get("count").unwrap().as_u64(), Some(1));
        match list.get("sessions").unwrap() {
            JsonValue::Arr(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].get("name").unwrap().as_str(), Some("other"));
            }
            other => panic!("sessions must be an array, got {other:?}"),
        }
        for t in 1..4 {
            let round = mgr.step("other", "").unwrap();
            assert_eq!(round.get("t").unwrap().as_u64(), Some(t));
        }
        // The dead session's name is free again.
        mgr.create("doomed", tiny("doomed", &[])).unwrap();
        mgr.shutdown_all();
    }
}
