//! The `flexserve route` daemon: a consistent-hash front tier over a
//! fleet of `flexserve serve` workers.
//!
//! The router owns no simulation state. It keeps a [`ring::HashRing`]
//! mapping session names onto worker addresses, a routing table of the
//! sessions it created, and proxies the whole `/sessions` API
//! transparently — same endpoints, same bodies, same error contract
//! (404/409/413/408/429 relayed verbatim; transport failures become 502).
//! Two router-only surfaces are added on top:
//!
//! | endpoint                  | effect                                    |
//! |---------------------------|-------------------------------------------|
//! | `GET /cluster`            | worker health + session placement table   |
//! | `POST /workers`           | join a worker (`{"addr": "host:port"}`)   |
//! | `DELETE /workers/<addr>`  | drain a worker (migrate its sessions off) |
//!
//! **Live migration** is the router's load-bearing trick: to move a
//! session from worker A to worker B it checkpoints on A
//! (`POST /sessions/<name>/checkpoint`), recreates on B with
//! `resume=true` from the same checkpoint file, then evicts the A copy
//! with a `{"migrated_to": B}` tombstone. Because the v2 checkpoint
//! carries cumulative metrics, the demand cursor and the substrate-event
//! schedule, the moved session is **bit-identical** to one that never
//! moved — placement, per-round costs and checkpoint bytes all pinned by
//! `tests/route_cluster.rs`. Migrations trigger on ring changes (worker
//! join/drain/death) and on a load-skew threshold (`skew=`).
//!
//! **Health**: a background thread probes every worker (`GET /sessions`)
//! each `health-interval=`; `mark-down=` consecutive failures take a
//! worker off the ring and its sessions are *resurrected* on the ring
//! owners — recreated from their last checkpoints with the rounds lost
//! since the snapshot replayed (scenario-source sessions only; see
//! `docs/CLUSTER.md`). A probe success while down marks the worker back
//! up and re-syncs the ring.
//!
//! **Front end**: the router runs on the workers' HTTP front end
//! (`serve/event_loop.rs`) and supplies only its request handler; idle
//! keep-alive clients hold reactor slots, never one of the `threads=`
//! workers, and the request caps and `POST /shutdown` match the workers'.
//!
//! Deployment assumption: workers share a filesystem (checkpoint hand-off
//! is path-based). Lock discipline: the router state mutex is an *inner*
//! lock — it is never held while acquiring a per-session mutex, and each
//! proxied operation holds its session mutex end-to-end, so a migration
//! is atomic with respect to every other operation on that session.

pub mod proxy;
pub mod ring;

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flexserve_workload::JsonValue;

use super::event_loop::{run_front_end, FrontEnd};
use super::http::{error_json, HttpRequest, Route};
use super::sessions::SessionConfig;
use crate::spec::CellBuilder;
use proxy::http_call;
use ring::HashRing;

/// Parsed `flexserve route` options: the worker fleet plus the router's
/// own server shape.
#[derive(Clone, Debug)]
pub struct RouteOptions {
    /// The worker fleet (`workers=host:port+host:port+...`; required).
    pub workers: Vec<String>,
    /// Listener address (`bind=`; loopback unless asked otherwise).
    pub bind: IpAddr,
    /// Listener port (default 7787; 0 = ephemeral, announced on stdout).
    pub port: u16,
    /// Worker threads running router requests; the connections
    /// themselves are held by the shared front end's reactors.
    pub threads: usize,
    /// Virtual ring points per worker.
    pub replicas: usize,
    /// Worker probe period.
    pub health_interval: Duration,
    /// Consecutive probe failures before a worker is marked down.
    pub mark_down: u32,
    /// Migrate sessions when `max - min` per-worker session counts
    /// exceed this (`None` = no skew balancing, the default).
    pub skew: Option<u64>,
    /// Per-exchange read/write bound, client side and worker side.
    pub request_timeout: Duration,
}

const ROUTE_USAGE: &str = "\
usage: flexserve route workers=<host:port>+<host:port>... [key=value...]

router keys: workers=<addr>+<addr>+... (the worker fleet; required),
             port (default 7787, 0 = ephemeral),
             bind=<ip>[:<port>] (default 127.0.0.1),
             threads=<n> (request worker pool; default 4),
             replicas=<n> (ring points per worker; default 32),
             health-interval=<secs> (worker probe period; default 2),
             mark-down=<k> (probe failures before mark-down; default 3),
             skew=<n> (migrate when max-min session counts exceed n;
             default off),
             request-timeout=<secs> (proxy read/write bound; default 30)
";

impl RouteOptions {
    /// Parses `route` arguments (`key=value` pairs). Unlike `serve`,
    /// *every* key is a router key — sessions are created over HTTP, not
    /// on the command line.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workers: Vec<String> = Vec::new();
        let mut bind = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let mut port = 7787u16;
        let mut threads = 4usize;
        let mut replicas = ring::DEFAULT_REPLICAS;
        let mut health_interval = Duration::from_secs(2);
        let mut mark_down = 3u32;
        let mut skew = None;
        let mut request_timeout = Duration::from_secs(30);

        let seconds = |key: &str, v: &str| -> Result<Duration, String> {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("{key}: bad value {v:?} (want seconds)"))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(format!("{key}: {v} out of range (want > 0 seconds)"));
            }
            Ok(Duration::from_secs_f64(secs))
        };

        for arg in args {
            let (key, v) = arg
                .split_once('=')
                .ok_or_else(|| format!("route: expected key=value, got {arg:?}\n{ROUTE_USAGE}"))?;
            match key {
                "workers" => {
                    for addr in v.split('+') {
                        let addr = addr.trim();
                        if addr.is_empty() || !addr.contains(':') {
                            return Err(format!("workers: bad address {addr:?} (want host:port)"));
                        }
                        if workers.iter().any(|w| w == addr) {
                            return Err(format!("workers: duplicate address {addr:?}"));
                        }
                        workers.push(addr.to_string());
                    }
                }
                "port" => port = v.parse().map_err(|_| format!("port: bad value {v:?}"))?,
                "bind" => {
                    if let Ok(addr) = v.parse::<SocketAddr>() {
                        bind = addr.ip();
                        port = addr.port();
                    } else {
                        bind = v.parse().map_err(|_| {
                            format!("bind: bad value {v:?} (want <ip> or <ip>:<port>)")
                        })?;
                    }
                }
                "threads" => {
                    threads = v.parse().map_err(|_| format!("threads: bad value {v:?}"))?;
                    if threads == 0 || threads > 64 {
                        return Err(format!("threads: {threads} out of range (1-64)"));
                    }
                }
                "replicas" => {
                    replicas = v
                        .parse()
                        .map_err(|_| format!("replicas: bad value {v:?}"))?;
                    if replicas == 0 || replicas > 1024 {
                        return Err(format!("replicas: {replicas} out of range (1-1024)"));
                    }
                }
                "health-interval" => health_interval = seconds(key, v)?,
                "mark-down" => {
                    mark_down = v
                        .parse()
                        .map_err(|_| format!("mark-down: bad value {v:?}"))?;
                    if mark_down == 0 {
                        return Err("mark-down: must be >= 1".into());
                    }
                }
                "skew" => {
                    let n: u64 = v.parse().map_err(|_| format!("skew: bad value {v:?}"))?;
                    if n == 0 {
                        return Err("skew: must be >= 1 (use a larger value to \
                                    tolerate more imbalance)"
                            .into());
                    }
                    skew = Some(n);
                }
                "request-timeout" => request_timeout = seconds(key, v)?,
                _ => return Err(format!("route: unknown key {key:?}\n{ROUTE_USAGE}")),
            }
        }
        if workers.is_empty() {
            return Err(format!("route: workers= is required\n{ROUTE_USAGE}"));
        }
        Ok(RouteOptions {
            workers,
            bind,
            port,
            threads,
            replicas,
            health_interval,
            mark_down,
            skew,
            request_timeout,
        })
    }
}

/// One configured worker's health record.
struct WorkerEntry {
    addr: String,
    /// On the ring and receiving traffic.
    alive: bool,
    /// Consecutive probe failures (reset on success).
    failures: u32,
}

/// Where one session lives and what the router knows about it.
struct SessionRoute {
    /// The worker currently hosting the session.
    worker: String,
    /// The creation args, kept for migration/resurrection re-creates.
    args: Vec<String>,
    /// The next round the session will play (tracked from step
    /// responses; used to replay rounds lost to a worker death).
    next_t: u64,
}

/// The router's mutable state: worker fleet, ring, and routing table.
/// The per-session `Arc<Mutex<_>>` is the router's unit of serialization —
/// proxied operations and migrations on one session exclude each other,
/// while distinct sessions proceed in parallel.
struct RouterState {
    workers: Vec<WorkerEntry>,
    ring: HashRing,
    sessions: HashMap<String, Arc<Mutex<SessionRoute>>>,
}

/// State every router request and the health thread share.
struct RouterShared {
    state: Mutex<RouterState>,
    timeout: Duration,
    mark_down: u32,
    skew: Option<u64>,
}

impl RouterShared {
    /// The probe timeout: snappier than the proxy timeout so a hung
    /// worker can't stall the health loop for the full request bound.
    fn probe_timeout(&self) -> Duration {
        self.timeout.min(Duration::from_secs(1))
    }
}

/// Reactor threads holding the router's connections: the `serve`
/// default, since a router request spends its time in the proxy hop on a
/// worker thread, not in the reactor.
const ROUTER_REACTORS: usize = 2;

/// The 404 body's endpoint inventory for the router (kept in sync with
/// `docs/CLUSTER.md` by `tests/docs_drift.rs`, which is why it is
/// public).
pub const ROUTER_ENDPOINT_LIST: &str = "GET /cluster, POST /workers, \
     DELETE /workers/<addr>, POST /sessions, GET /sessions, \
     POST /sessions/<name>/step, GET /sessions/<name>/placement, \
     GET /sessions/<name>/metrics, POST /sessions/<name>/checkpoint, \
     POST /sessions/<name>/events, DELETE /sessions/<name>, POST /step, \
     GET /placement, GET /metrics, POST /checkpoint, POST /shutdown";

/// A resolved router endpoint: the router-only surfaces or the relayed
/// session surface.
enum RouterRoute {
    Cluster,
    Join,
    Drain(String),
    Proxy(Route),
}

fn router_route(method: &str, path: &str) -> Option<RouterRoute> {
    match (method, path) {
        ("GET", "/cluster") => return Some(RouterRoute::Cluster),
        ("POST", "/workers") => return Some(RouterRoute::Join),
        _ => {}
    }
    if let Some(addr) = path.strip_prefix("/workers/") {
        return (method == "DELETE" && !addr.is_empty())
            .then(|| RouterRoute::Drain(addr.to_string()));
    }
    super::http::route(method, path).map(RouterRoute::Proxy)
}

/// The args a migrated session is re-created with on its destination:
/// the cell keys (minus `events=`, restored from the checkpoint itself)
/// plus `checkpoint=`/`source=`, with `resume=true` appended. Session
/// keys that don't survive a move (`resume=` restated by us, server keys
/// rejected by `SessionConfig`) are dropped.
fn migration_args(args: &[String]) -> Vec<String> {
    let mut out: Vec<String> = args
        .iter()
        .filter(|arg| match arg.split_once('=') {
            Some((key, _)) => {
                (CellBuilder::is_cell_key(key) && key != "events")
                    || key == "checkpoint"
                    || key == "source"
            }
            None => false,
        })
        .cloned()
        .collect();
    out.push("resume=true".to_string());
    out
}

/// A `POST /sessions` body for `name` with the given args.
fn create_body(name: &str, args: &[String]) -> String {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::from(name)),
        (
            "args".into(),
            JsonValue::Arr(args.iter().map(|a| JsonValue::from(a.as_str())).collect()),
        ),
    ])
    .render()
}

/// Moves one session from its current worker to `target` (both alive):
/// checkpoint on the source, re-create with `resume=true` on the target,
/// tombstone the source copy with `migrated_to`. Any failure before the
/// target create succeeds aborts with the session untouched on its
/// source.
fn migrate(
    name: &str,
    session: &mut SessionRoute,
    target: &str,
    timeout: Duration,
) -> Result<(), String> {
    let source = session.worker.clone();
    match http_call(
        &source,
        "POST",
        &format!("/sessions/{name}/checkpoint"),
        "",
        timeout,
    ) {
        Ok((200, _)) => {}
        Ok((status, body)) => {
            return Err(format!("checkpoint on {source}: {status} {}", body.trim()))
        }
        Err(e) => return Err(format!("checkpoint on {source}: {e}")),
    }
    let resumed_at = match http_call(
        target,
        "POST",
        "/sessions",
        &create_body(name, &migration_args(&session.args)),
        timeout,
    ) {
        Ok((200, body)) => JsonValue::parse(body.trim())
            .ok()
            .and_then(|v| v.get("resumed_at").and_then(JsonValue::as_u64))
            .unwrap_or(0),
        Ok((status, body)) => return Err(format!("create on {target}: {status} {}", body.trim())),
        Err(e) => return Err(format!("create on {target}: {e}")),
    };
    // Hand-off: the source copy becomes a `migrated_to` tombstone. The
    // target is authoritative from here, so a failed delete only leaves
    // an orphan to log, never a lost session.
    let del_path = format!("/sessions/{name}");
    let marker = JsonValue::Obj(vec![("migrated_to".into(), JsonValue::from(target))]).render();
    if !matches!(
        http_call(&source, "DELETE", &del_path, &marker, timeout),
        Ok((200, _))
    ) && !matches!(
        http_call(&source, "DELETE", &del_path, "", timeout),
        Ok((200, _))
    ) {
        eprintln!("flexserve route: orphaned copy of session {name:?} left on {source}");
    }
    session.worker = target.to_string();
    session.next_t = session.next_t.max(resumed_at);
    Ok(())
}

/// Brings a session back on `target` after its worker died: re-create
/// with `resume=true` from its last checkpoint (or from scratch when no
/// checkpoint was ever written), then replay the rounds stepped since
/// that snapshot. Only scenario-source sessions replay exactly — rounds
/// stepped with explicit demand bodies are not recorded by the router
/// (documented in `docs/CLUSTER.md`).
fn resurrect(
    name: &str,
    session: &mut SessionRoute,
    target: &str,
    timeout: Duration,
) -> Result<(), String> {
    let resumed_at = match http_call(
        target,
        "POST",
        "/sessions",
        &create_body(name, &migration_args(&session.args)),
        timeout,
    ) {
        Ok((200, body)) => JsonValue::parse(body.trim())
            .ok()
            .and_then(|v| v.get("resumed_at").and_then(JsonValue::as_u64))
            .unwrap_or(0),
        // No usable checkpoint (the worker died before one was written):
        // recreate from scratch — the original args, `resume=` dropped —
        // and replay the whole history.
        _ => {
            let fresh: Vec<String> = session
                .args
                .iter()
                .filter(|a| !a.starts_with("resume="))
                .cloned()
                .collect();
            match http_call(
                target,
                "POST",
                "/sessions",
                &create_body(name, &fresh),
                timeout,
            ) {
                Ok((200, _)) => 0,
                Ok((status, body)) => {
                    return Err(format!("recreate on {target}: {status} {}", body.trim()))
                }
                Err(e) => return Err(format!("recreate on {target}: {e}")),
            }
        }
    };
    // The target owns the session from here even if the replay below
    // fails partway — next_t then records how far it actually got.
    session.worker = target.to_string();
    let goal = session.next_t;
    session.next_t = resumed_at;
    for _ in resumed_at..goal {
        match http_call(
            target,
            "POST",
            &format!("/sessions/{name}/step"),
            "",
            timeout,
        ) {
            Ok((200, _)) => session.next_t += 1,
            Ok((status, body)) => {
                return Err(format!("replay on {target}: {status} {}", body.trim()))
            }
            Err(e) => return Err(format!("replay on {target}: {e}")),
        }
    }
    Ok(())
}

/// Re-homes one session onto its ring owner, choosing the mechanism by
/// the health of its current worker: migrate (checkpoint hand-off) when
/// alive, resurrect (resume + replay) when dead.
fn relocate(shared: &RouterShared, name: &str) {
    let arc = match shared.state.lock().unwrap().sessions.get(name) {
        Some(arc) => Arc::clone(arc),
        None => return,
    };
    let mut session = arc.lock().unwrap();
    let (desired, source_alive) = {
        let state = shared.state.lock().unwrap();
        let desired = match state.ring.owner(name) {
            Some(owner) => owner.to_string(),
            None => return, // no live workers; nothing to do
        };
        let alive = state
            .workers
            .iter()
            .any(|w| w.addr == session.worker && w.alive);
        (desired, alive)
    };
    if session.worker == desired {
        return;
    }
    let moved = if source_alive {
        migrate(name, &mut session, &desired, shared.timeout)
    } else {
        resurrect(name, &mut session, &desired, shared.timeout)
    };
    if let Err(e) = moved {
        eprintln!("flexserve route: could not move session {name:?} to {desired}: {e}");
    }
}

/// After any ring change: walk the routing table (sorted, for
/// deterministic migration order) and re-home every session whose ring
/// owner changed.
fn ring_sync(shared: &RouterShared) {
    let mut names: Vec<String> = shared
        .state
        .lock()
        .unwrap()
        .sessions
        .keys()
        .cloned()
        .collect();
    names.sort();
    for name in &names {
        relocate(shared, name);
    }
}

/// With `skew=` set: while the most- and least-loaded live workers
/// differ by more than the threshold, migrate the first (sorted) session
/// off the most-loaded one. Skew placements deliberately override the
/// ring until the next ring change re-normalizes them.
fn skew_balance(shared: &RouterShared) {
    let Some(skew) = shared.skew else { return };
    // Each pass moves one session; bounded so a migration failure can't
    // spin the health thread.
    for _ in 0..64 {
        let (pairs, live) = {
            let state = shared.state.lock().unwrap();
            let mut pairs: Vec<(String, Arc<Mutex<SessionRoute>>)> = state
                .sessions
                .iter()
                .map(|(n, a)| (n.clone(), Arc::clone(a)))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let live: Vec<String> = state
                .workers
                .iter()
                .filter(|w| w.alive)
                .map(|w| w.addr.clone())
                .collect();
            (pairs, live)
        };
        if live.len() < 2 {
            return;
        }
        let mut by_worker: BTreeMap<String, Vec<String>> =
            live.iter().map(|w| (w.clone(), Vec::new())).collect();
        for (name, arc) in &pairs {
            let worker = arc.lock().unwrap().worker.clone();
            if let Some(names) = by_worker.get_mut(&worker) {
                names.push(name.clone());
            }
        }
        // BTreeMap order makes the max/min picks deterministic on ties.
        let (max_w, max_n) = by_worker
            .iter()
            .max_by_key(|(_, names)| names.len())
            .map(|(w, names)| (w.clone(), names.len() as u64))
            .unwrap();
        let (min_w, min_n) = by_worker
            .iter()
            .min_by_key(|(_, names)| names.len())
            .map(|(w, names)| (w.clone(), names.len() as u64))
            .unwrap();
        if max_n - min_n <= skew {
            return;
        }
        let name = by_worker[&max_w][0].clone();
        let arc = match shared.state.lock().unwrap().sessions.get(&name) {
            Some(arc) => Arc::clone(arc),
            None => continue,
        };
        let mut session = arc.lock().unwrap();
        if session.worker != max_w {
            continue; // moved under us; recount
        }
        if let Err(e) = migrate(&name, &mut session, &min_w, shared.timeout) {
            eprintln!("flexserve route: skew balance of {name:?} failed: {e}");
            return;
        }
        eprintln!("flexserve route: skew-balanced session {name:?} {max_w} -> {min_w}");
    }
}

/// One health pass: probe every configured worker, apply the
/// mark-down/mark-up rules, re-sync the ring on any transition, then
/// skew-balance.
fn health_tick(shared: &RouterShared) {
    let addrs: Vec<String> = {
        let state = shared.state.lock().unwrap();
        state.workers.iter().map(|w| w.addr.clone()).collect()
    };
    for addr in addrs {
        let ok = matches!(
            http_call(&addr, "GET", "/sessions", "", shared.probe_timeout()),
            Ok((200, _))
        );
        let transition = {
            let mut state = shared.state.lock().unwrap();
            let Some(entry) = state.workers.iter_mut().find(|w| w.addr == addr) else {
                continue; // drained while we probed
            };
            if ok {
                entry.failures = 0;
                if !entry.alive {
                    entry.alive = true;
                    state.ring.add(&addr);
                    Some("up")
                } else {
                    None
                }
            } else if entry.alive {
                entry.failures += 1;
                if entry.failures >= shared.mark_down {
                    entry.alive = false;
                    state.ring.remove(&addr);
                    Some("down")
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some(direction) = transition {
            eprintln!("flexserve route: worker {addr} marked {direction}");
            ring_sync(shared);
        }
    }
    skew_balance(shared);
}

/// `GET /cluster`: the router's own view — worker health and the
/// placement table.
fn cluster_view(shared: &RouterShared) -> (u16, String) {
    let (workers, pairs) = {
        let state = shared.state.lock().unwrap();
        let workers: Vec<(String, bool, u32, bool)> = state
            .workers
            .iter()
            .map(|w| {
                (
                    w.addr.clone(),
                    w.alive,
                    w.failures,
                    state.ring.contains(&w.addr),
                )
            })
            .collect();
        let mut pairs: Vec<(String, Arc<Mutex<SessionRoute>>)> = state
            .sessions
            .iter()
            .map(|(n, a)| (n.clone(), Arc::clone(a)))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        (workers, pairs)
    };
    let mut counts: BTreeMap<String, u64> =
        workers.iter().map(|(addr, ..)| (addr.clone(), 0)).collect();
    let mut session_rows = Vec::new();
    for (name, arc) in &pairs {
        let session = arc.lock().unwrap();
        *counts.entry(session.worker.clone()).or_default() += 1;
        session_rows.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::from(name.as_str())),
            ("worker".into(), JsonValue::from(session.worker.as_str())),
            ("next_t".into(), JsonValue::from(session.next_t)),
        ]));
    }
    let worker_rows = workers
        .iter()
        .map(|(addr, alive, failures, on_ring)| {
            JsonValue::Obj(vec![
                ("addr".into(), JsonValue::from(addr.as_str())),
                ("alive".into(), JsonValue::Bool(*alive)),
                ("failures".into(), JsonValue::from(u64::from(*failures))),
                ("ring".into(), JsonValue::Bool(*on_ring)),
                (
                    "sessions".into(),
                    JsonValue::from(counts.get(addr).copied().unwrap_or(0)),
                ),
            ])
        })
        .collect();
    let mut pairs_out = vec![
        ("workers".into(), JsonValue::Arr(worker_rows)),
        (
            "live_workers".into(),
            JsonValue::from(workers.iter().filter(|(_, alive, ..)| *alive).count() as u64),
        ),
        ("count".into(), JsonValue::from(session_rows.len() as u64)),
        ("sessions".into(), JsonValue::Arr(session_rows)),
    ];
    if let Some(skew) = shared.skew {
        pairs_out.push(("skew".into(), JsonValue::from(skew)));
    }
    (200, JsonValue::Obj(pairs_out).render())
}

/// `POST /workers`: join a worker to the fleet and re-sync the ring.
fn join_worker(body: &str, shared: &RouterShared) -> (u16, String) {
    let addr = match JsonValue::parse(body.trim()).ok().and_then(|v| {
        v.get("addr")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    }) {
        Some(addr) if addr.contains(':') => addr,
        _ => {
            return (
                400,
                error_json("join: body must be {\"addr\": \"host:port\"}"),
            )
        }
    };
    // A worker joins only if it answers: an unreachable joiner would
    // black-hole every name on its arcs.
    if let Err(e) = http_call(&addr, "GET", "/sessions", "", shared.probe_timeout()) {
        return (
            502,
            error_json(&format!("join: worker {addr} unreachable: {e}")),
        );
    }
    {
        let mut state = shared.state.lock().unwrap();
        if state.workers.iter().any(|w| w.addr == addr) {
            return (
                409,
                error_json(&format!("join: worker {addr} already configured")),
            );
        }
        state.workers.push(WorkerEntry {
            addr: addr.clone(),
            alive: true,
            failures: 0,
        });
        state.ring.add(&addr);
    }
    eprintln!("flexserve route: worker {addr} joined");
    ring_sync(shared);
    let workers = {
        let state = shared.state.lock().unwrap();
        state.ring.workers().to_vec()
    };
    (
        200,
        JsonValue::Obj(vec![
            ("ok".into(), JsonValue::Bool(true)),
            ("addr".into(), JsonValue::from(addr.as_str())),
            (
                "workers".into(),
                JsonValue::Arr(
                    workers
                        .iter()
                        .map(|w| JsonValue::from(w.as_str()))
                        .collect(),
                ),
            ),
        ])
        .render(),
    )
}

/// `DELETE /workers/<addr>`: drain a worker — take it off the ring,
/// migrate its sessions to the new owners, drop it from the fleet. The
/// worker process itself keeps running.
fn drain_worker(addr: &str, shared: &RouterShared) -> (u16, String) {
    {
        let mut state = shared.state.lock().unwrap();
        let Some(entry) = state.workers.iter().find(|w| w.addr == addr) else {
            return (404, error_json(&format!("drain: no worker {addr}")));
        };
        let live = state.workers.iter().filter(|w| w.alive).count();
        if entry.alive && live <= 1 {
            return (
                409,
                error_json(&format!("drain: {addr} is the last live worker")),
            );
        }
        state.ring.remove(addr);
    }
    // The entry stays (alive) during the sync so its sessions take the
    // migrate path — a checkpointed hand-off, not a resurrection.
    ring_sync(shared);
    let workers = {
        let mut state = shared.state.lock().unwrap();
        state.workers.retain(|w| w.addr != addr);
        state.ring.workers().to_vec()
    };
    eprintln!("flexserve route: worker {addr} drained");
    (
        200,
        JsonValue::Obj(vec![
            ("ok".into(), JsonValue::Bool(true)),
            ("drained".into(), JsonValue::from(addr)),
            (
                "workers".into(),
                JsonValue::Arr(
                    workers
                        .iter()
                        .map(|w| JsonValue::from(w.as_str()))
                        .collect(),
                ),
            ),
        ])
        .render(),
    )
}

/// Parses a `POST /sessions` body into name + raw args (the router keeps
/// the raw args for migration re-creates; full validation happens via
/// [`SessionConfig::parse`] before anything touches the table).
fn parse_create(body: &str) -> Result<(String, Vec<String>), String> {
    let v = JsonValue::parse(body.trim())?;
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "create: missing \"name\" string".to_string())?
        .to_string();
    let args = match v.get("args") {
        None => Vec::new(),
        Some(args) => args
            .as_str_array()
            .ok_or_else(|| "create: \"args\" must be an array of strings".to_string())?,
    };
    Ok((name, args))
}

/// `POST /sessions` through the router: validate, pick the ring owner,
/// reserve the table slot, forward. A failed create on the worker frees
/// the slot.
fn create_session(body: &str, shared: &RouterShared) -> (u16, String) {
    let (name, args) = match parse_create(body) {
        Ok(parsed) => parsed,
        Err(msg) => return (400, error_json(&msg)),
    };
    if let Err(e) = SessionConfig::parse(&args, &name) {
        return (400, error_json(&format!("create: {e}")));
    }
    let arc = Arc::new(Mutex::new(SessionRoute {
        worker: String::new(),
        args: args.clone(),
        next_t: 0,
    }));
    // Locking the fresh session mutex *before* publishing the table
    // entry keeps the create atomic: a concurrent step on the name
    // queues behind the create instead of racing it to the worker.
    let mut session = arc.lock().unwrap();
    let worker = {
        let mut state = shared.state.lock().unwrap();
        if state.sessions.contains_key(&name) {
            return (409, error_json(&format!("create: session {name:?} exists")));
        }
        let Some(owner) = state.ring.owner(&name).map(str::to_string) else {
            return (502, error_json("create: no live workers"));
        };
        state.sessions.insert(name.clone(), Arc::clone(&arc));
        owner
    };
    session.worker = worker.clone();
    match http_call(&worker, "POST", "/sessions", body, shared.timeout) {
        Ok((200, resp)) => {
            session.next_t = JsonValue::parse(resp.trim())
                .ok()
                .and_then(|v| v.get("resumed_at").and_then(JsonValue::as_u64))
                .unwrap_or(0);
            (200, resp)
        }
        Ok((status, resp)) => {
            shared.state.lock().unwrap().sessions.remove(&name);
            (status, resp)
        }
        Err(e) => {
            shared.state.lock().unwrap().sessions.remove(&name);
            (
                502,
                error_json(&format!("worker {worker} unreachable: {e}")),
            )
        }
    }
}

/// `GET /sessions` through the router: the merged listings of every live
/// worker, each row annotated with its worker.
fn list_sessions(shared: &RouterShared) -> (u16, String) {
    let (live, count) = {
        let state = shared.state.lock().unwrap();
        (state.ring.workers().to_vec(), state.sessions.len() as u64)
    };
    let mut rows = Vec::new();
    for worker in &live {
        let Ok((200, body)) = http_call(worker, "GET", "/sessions", "", shared.timeout) else {
            continue; // down mid-listing; /cluster reports its health
        };
        let Ok(listing) = JsonValue::parse(body.trim()) else {
            continue;
        };
        if let Some(JsonValue::Arr(worker_rows)) = listing.get("sessions") {
            for row in worker_rows {
                if let JsonValue::Obj(pairs) = row {
                    let mut pairs = pairs.clone();
                    pairs.push(("worker".into(), JsonValue::from(worker.as_str())));
                    rows.push(JsonValue::Obj(pairs));
                }
            }
        }
    }
    (
        200,
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::from(count)),
            (
                "workers".into(),
                JsonValue::Arr(live.iter().map(|w| JsonValue::from(w.as_str())).collect()),
            ),
            ("sessions".into(), JsonValue::Arr(rows)),
        ])
        .render(),
    )
}

/// Looks up a session's route, or the relayed 404.
fn lookup(name: &str, shared: &RouterShared) -> Result<Arc<Mutex<SessionRoute>>, (u16, String)> {
    shared
        .state
        .lock()
        .unwrap()
        .sessions
        .get(name)
        .map(Arc::clone)
        .ok_or_else(|| {
            (
                404,
                error_json(&format!("no session {name:?} on the cluster")),
            )
        })
}

/// `DELETE /sessions/<name>` through the router: forward, then drop the
/// table entry on success.
fn delete_session(name: &str, body: &str, shared: &RouterShared) -> (u16, String) {
    let arc = match lookup(name, shared) {
        Ok(arc) => arc,
        Err(e) => return e,
    };
    let session = arc.lock().unwrap();
    let worker = session.worker.clone();
    match http_call(
        &worker,
        "DELETE",
        &format!("/sessions/{name}"),
        body,
        shared.timeout,
    ) {
        Ok((200, resp)) => {
            shared.state.lock().unwrap().sessions.remove(name);
            (200, resp)
        }
        Ok((status, resp)) => (status, resp),
        Err(e) => (
            502,
            error_json(&format!("worker {worker} unreachable: {e}")),
        ),
    }
}

/// The transparently relayed per-session operations: forward verbatim to
/// the session's worker under its mutex, relay status and body, track
/// the round counter off step responses.
fn forward_session_op(route: Route, body: &str, shared: &RouterShared) -> (u16, String) {
    let (name, method, path, is_step) = match &route {
        Route::Step(n) => (n.clone(), "POST", format!("/sessions/{n}/step"), true),
        Route::Placement(n) => (n.clone(), "GET", format!("/sessions/{n}/placement"), false),
        Route::Metrics(n) => (n.clone(), "GET", format!("/sessions/{n}/metrics"), false),
        Route::Checkpoint(n) => (
            n.clone(),
            "POST",
            format!("/sessions/{n}/checkpoint"),
            false,
        ),
        Route::Events(n) => (n.clone(), "POST", format!("/sessions/{n}/events"), false),
        _ => unreachable!("create/list/delete handled by the caller"),
    };
    let arc = match lookup(&name, shared) {
        Ok(arc) => arc,
        Err(e) => return e,
    };
    let mut session = arc.lock().unwrap();
    let worker = session.worker.clone();
    match http_call(&worker, method, &path, body, shared.timeout) {
        Ok((status, resp)) => {
            if is_step && status == 200 {
                // A step reply is one round document or — for a batched
                // step (array or `{"n": <k>}` body, relayed verbatim) —
                // an array of them; the round counter tracks the last
                // round either way.
                let last_t = JsonValue::parse(resp.trim()).ok().and_then(|v| match v {
                    JsonValue::Arr(rows) => rows
                        .last()
                        .and_then(|row| row.get("t").and_then(JsonValue::as_u64)),
                    v => v.get("t").and_then(JsonValue::as_u64),
                });
                if let Some(t) = last_t {
                    session.next_t = t + 1;
                }
            }
            (status, resp)
        }
        Err(e) => (
            502,
            error_json(&format!("worker {worker} unreachable: {e}")),
        ),
    }
}

/// The router's request handler: the router surface, or the 404 listing
/// it. `POST /shutdown` is answered by the front end.
fn handle(request: &HttpRequest, shared: &RouterShared) -> (u16, String) {
    let Some(route) = router_route(&request.method, &request.path) else {
        return (
            404,
            error_json(&format!(
                "no {} {}; endpoints: {ROUTER_ENDPOINT_LIST}",
                request.method, request.path
            )),
        );
    };
    let body = request.body.as_str();
    match route {
        RouterRoute::Cluster => cluster_view(shared),
        RouterRoute::Join => join_worker(body, shared),
        RouterRoute::Drain(addr) => drain_worker(&addr, shared),
        RouterRoute::Proxy(Route::CreateSession) => create_session(body, shared),
        RouterRoute::Proxy(Route::ListSessions) => list_sessions(shared),
        RouterRoute::Proxy(Route::DeleteSession(name)) => delete_session(&name, body, shared),
        RouterRoute::Proxy(op) => forward_session_op(op, body, shared),
    }
}

/// Binds `bind:port` and routes until `POST /shutdown`. Shutting the
/// router down never touches the workers — they keep serving.
pub fn run(opts: &RouteOptions) -> Result<(), String> {
    let listener = TcpListener::bind((opts.bind, opts.port))
        .map_err(|e| format!("route: cannot bind {}:{}: {e}", opts.bind, opts.port))?;
    run_on(listener, opts)
}

/// [`run`] over an already-bound listener (tests bind port 0 themselves
/// to learn the address before starting the router thread).
pub fn run_on(listener: TcpListener, opts: &RouteOptions) -> Result<(), String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("route: local_addr: {e}"))?;

    // Probe the configured fleet once: reachable workers go straight on
    // the ring, the rest start marked down (the health thread brings
    // them up on recovery).
    let probe_timeout = opts.request_timeout.min(Duration::from_secs(1));
    let mut ring = HashRing::new(opts.replicas);
    let mut workers = Vec::with_capacity(opts.workers.len());
    for w in &opts.workers {
        let alive = matches!(
            http_call(w, "GET", "/sessions", "", probe_timeout),
            Ok((200, _))
        );
        if alive {
            ring.add(w);
        } else {
            eprintln!("flexserve route: worker {w} unreachable at startup (marked down)");
        }
        workers.push(WorkerEntry {
            addr: w.clone(),
            alive,
            failures: 0,
        });
    }
    let live = workers.iter().filter(|w| w.alive).count();
    let front = FrontEnd::new("route", addr, opts.request_timeout);
    let shared = RouterShared {
        state: Mutex::new(RouterState {
            workers,
            ring,
            sessions: HashMap::new(),
        }),
        timeout: opts.request_timeout,
        mark_down: opts.mark_down,
        skew: opts.skew,
    };

    println!(
        "flexserve route: listening on http://{addr} workers={} ({live}/{} live) \
         replicas={} mark-down={}{}",
        opts.workers.join("+"),
        opts.workers.len(),
        opts.replicas,
        opts.mark_down,
        match opts.skew {
            Some(s) => format!(" skew={s}"),
            None => String::new(),
        }
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());

    std::thread::scope(|s| {
        // The health thread: probe, mark down/up, re-sync, skew-balance.
        // Sleeps in small ticks so shutdown never waits a full interval.
        let interval = opts.health_interval;
        let (front, shared) = (&front, &shared);
        std::thread::Builder::new()
            .name("route-health".into())
            .spawn_scoped(s, move || {
                let tick = interval.min(Duration::from_millis(50));
                let mut slept = Duration::ZERO;
                while !front.is_shutting_down() {
                    std::thread::sleep(tick);
                    slept += tick;
                    if slept < interval {
                        continue;
                    }
                    slept = Duration::ZERO;
                    health_tick(shared);
                }
            })
            .map_err(|e| format!("route: cannot spawn health thread: {e}"))?;
        // Shutting the router down never touches the workers.
        run_front_end(listener, front, opts.threads, ROUTER_REACTORS, &|request| {
            handle(request, shared)
        })
    })
}

/// CLI entry point for `flexserve route <args>`.
pub fn route_cmd(args: &[String]) -> Result<(), String> {
    let opts = RouteOptions::parse(args)?;
    run(&opts)?;
    eprintln!("flexserve route: stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_a_worker_fleet() {
        let err = RouteOptions::parse(&args(&[])).unwrap_err();
        assert!(err.contains("workers= is required"), "{err}");
        let err = RouteOptions::parse(&args(&["workers=nocolon"])).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
        let err = RouteOptions::parse(&args(&["workers=a:1+a:1"])).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = RouteOptions::parse(&args(&["workers=a:1", "bogus"])).unwrap_err();
        assert!(err.contains("key=value"), "{err}");
        let err = RouteOptions::parse(&args(&["workers=a:1", "zap=1"])).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let opts = RouteOptions::parse(&args(&["workers=h1:7788+h2:7788"])).unwrap();
        assert_eq!(opts.workers, ["h1:7788", "h2:7788"]);
        assert_eq!(opts.bind, IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(opts.port, 7787);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.replicas, ring::DEFAULT_REPLICAS);
        assert_eq!(opts.health_interval, Duration::from_secs(2));
        assert_eq!(opts.mark_down, 3);
        assert_eq!(opts.skew, None);
        assert_eq!(opts.request_timeout, Duration::from_secs(30));

        let opts = RouteOptions::parse(&args(&[
            "workers=h1:7788",
            "bind=0.0.0.0:9100",
            "threads=2",
            "replicas=8",
            "health-interval=0.5",
            "mark-down=1",
            "skew=2",
            "request-timeout=5",
        ]))
        .unwrap();
        assert_eq!(opts.bind, "0.0.0.0".parse::<IpAddr>().unwrap());
        assert_eq!(opts.port, 9100);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.replicas, 8);
        assert_eq!(opts.health_interval, Duration::from_millis(500));
        assert_eq!(opts.mark_down, 1);
        assert_eq!(opts.skew, Some(2));
        assert_eq!(opts.request_timeout, Duration::from_secs(5));

        assert!(RouteOptions::parse(&args(&["workers=a:1", "threads=0"])).is_err());
        assert!(RouteOptions::parse(&args(&["workers=a:1", "replicas=0"])).is_err());
        assert!(RouteOptions::parse(&args(&["workers=a:1", "mark-down=0"])).is_err());
        assert!(RouteOptions::parse(&args(&["workers=a:1", "skew=0"])).is_err());
        assert!(RouteOptions::parse(&args(&["workers=a:1", "health-interval=0"])).is_err());
    }

    #[test]
    fn router_routes_resolve_cluster_and_proxy_surfaces() {
        assert!(matches!(
            router_route("GET", "/cluster"),
            Some(RouterRoute::Cluster)
        ));
        assert!(matches!(
            router_route("POST", "/workers"),
            Some(RouterRoute::Join)
        ));
        match router_route("DELETE", "/workers/127.0.0.1:8001") {
            Some(RouterRoute::Drain(addr)) => assert_eq!(addr, "127.0.0.1:8001"),
            other => panic!("expected Drain, got {:?}", other.is_some()),
        }
        assert!(matches!(
            router_route("POST", "/sessions/alpha/step"),
            Some(RouterRoute::Proxy(Route::Step(_)))
        ));
        // the front end answers shutdown before the router's routes
        assert!(router_route("POST", "/shutdown").is_none());
        assert!(router_route("GET", "/workers/x").is_none());
        assert!(router_route("DELETE", "/workers/").is_none());
        assert!(router_route("GET", "/nope").is_none());
    }

    #[test]
    fn migration_args_keep_the_cell_strip_events_and_add_resume() {
        let original = args(&[
            "topo=unit-line:12",
            "wl=uniform:req=4",
            "strat=onth",
            "rounds=60",
            "seed=5",
            "k=4",
            "events=3:fail-link:0-1",
            "checkpoint=/tmp/ck.json",
            "source=scenario",
            "resume=false",
        ]);
        let migrated = migration_args(&original);
        assert!(migrated.contains(&"topo=unit-line:12".to_string()));
        assert!(migrated.contains(&"seed=5".to_string()));
        assert!(migrated.contains(&"checkpoint=/tmp/ck.json".to_string()));
        assert!(migrated.contains(&"source=scenario".to_string()));
        // the schedule rides in the checkpoint, resume is restated by us
        assert!(!migrated.iter().any(|a| a.starts_with("events=")));
        assert_eq!(
            migrated.iter().filter(|a| a.starts_with("resume=")).count(),
            1
        );
        assert_eq!(migrated.last().unwrap(), "resume=true");
    }

    #[test]
    fn create_bodies_render_name_and_args() {
        let body = create_body("alpha", &args(&["topo=er:50", "k=4"]));
        let v = JsonValue::parse(&body).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(
            v.get("args").unwrap().as_str_array().unwrap(),
            vec!["topo=er:50".to_string(), "k=4".to_string()]
        );
    }
}
