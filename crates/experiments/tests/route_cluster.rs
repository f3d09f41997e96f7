//! Cluster-mode guarantees of the `flexserve route` tier, exercised
//! over real TCP against real worker daemons:
//!
//! * **migration equivalence** — a session live-migrated between
//!   workers (drain + re-join) steps, places, totals and checkpoints
//!   **bit-identically** to a session that never moved, for ONTH, ONBR
//!   and OFFSTAT and for sessions with a substrate-event schedule;
//! * **chaos** — a worker killed with SIGKILL mid-run has its sessions
//!   resurrected from their last checkpoints with the lost rounds
//!   replayed, landing exactly where an uninterrupted run lands;
//! * **skew balancing** — a lopsided placement table is spread until
//!   the per-worker counts differ by at most `skew=`;
//! * the router relays the worker error contract (404/409/413/429)
//!   and maps transport failures to 502;
//! * merged listings annotate rows with their worker and expose
//!   `migrated_to` tombstones over HTTP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flexserve_experiments::serve::route::ring::{HashRing, DEFAULT_REPLICAS};
use flexserve_experiments::serve::route::{run_on, RouteOptions};
use flexserve_experiments::serve::{serve_on, ServeOptions, SessionConfig, SessionManager};
use flexserve_workload::JsonValue;

mod common;
use common::{http, json, read_framed_response};

/// [`http`] against a `host:port` string (worker addresses travel as
/// strings through the router API).
fn http_str(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    http(addr.parse().expect("worker addr"), method, path, body)
}

/// The cell every test session plays (strategy parameterized).
fn cell_args(strat: &str, ck: &Path, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "topo=unit-line:12".to_string(),
        "wl=uniform:req=4".to_string(),
        format!("strat={strat}"),
        "rounds=60".to_string(),
        "seed=7".to_string(),
        "k=4".to_string(),
        format!("checkpoint={}", ck.display()),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// A `POST /sessions` body for `name` with the given args.
fn create_body(name: &str, args: &[String]) -> String {
    let quoted: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
    format!("{{\"name\":\"{name}\",\"args\":[{}]}}", quoted.join(","))
}

/// A unique temp path per test artifact (tests in this binary run in
/// parallel threads; colliding checkpoint files would cross-talk).
fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("flexserve-route-{tag}.ckpt.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts an in-thread worker daemon on an ephemeral port. Returns its
/// `host:port` address string and the join handle. The worker's default
/// session checkpoints into the temp dir so tests leave no droppings.
fn start_worker(tag: &str, extra: &[&str]) -> (String, std::thread::JoinHandle<()>) {
    let ck = temp_path(&format!("worker-default-{tag}"));
    let mut args = cell_args("onth", &ck, &[]);
    args.extend(extra.iter().map(|s| s.to_string()));
    let opts = ServeOptions::parse(&args).expect("worker args");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
    let addr = listener.local_addr().expect("worker addr");
    let handle = std::thread::spawn(move || {
        serve_on(listener, &opts).expect("worker run");
    });
    (format!("{addr}"), handle)
}

/// Starts an in-thread router over `workers` on an ephemeral port.
fn start_router(workers: &[String], extra: &[&str]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut args = vec![format!("workers={}", workers.join("+"))];
    args.extend(extra.iter().map(|s| s.to_string()));
    let opts = RouteOptions::parse(&args).expect("router args");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().expect("router addr");
    let handle = std::thread::spawn(move || {
        run_on(listener, &opts).expect("router run");
    });
    (addr, handle)
}

fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
}

/// The reference: the same session served by a bare [`SessionManager`]
/// that never migrates. Step/placement/metrics/checkpoint responses from
/// the routed session must match it byte for byte.
fn reference(name: &str, args: &[String]) -> SessionManager {
    let mgr = SessionManager::new(8);
    let cfg = SessionConfig::parse(args, name).expect("reference config");
    mgr.create(name, cfg).expect("reference create");
    mgr
}

/// Where `name` currently lives according to `GET /cluster`.
fn worker_of(router: SocketAddr, name: &str) -> String {
    let (status, body) = http(router, "GET", "/cluster", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    let sessions = v.get("sessions").and_then(JsonValue::as_array).unwrap();
    for row in sessions {
        if row.get("name").and_then(JsonValue::as_str) == Some(name) {
            return row
                .get("worker")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
        }
    }
    panic!("session {name:?} not in the cluster view: {body}");
}

/// Blanks every `uptime_seconds` value (the one wall-clock field in
/// metrics and checkpoint documents) so the rest compares bitwise.
fn scrub_uptime(text: &str) -> String {
    const KEY: &str = "\"uptime_seconds\":";
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        out.push_str(KEY);
        out.push('0');
        let tail = &rest[at + KEY.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Steps the routed session and the reference once each and asserts the
/// response bodies are byte-identical.
fn step_both(router: SocketAddr, name: &str, reference: &SessionManager, label: &str) {
    let (status, routed) = http(router, "POST", &format!("/sessions/{name}/step"), "");
    assert_eq!(status, 200, "{label}: {routed}");
    let expected = reference.step(name, "").expect("reference step").render();
    assert_eq!(
        routed,
        format!("{expected}\n"),
        "{label}: routed step body diverged from the unmigrated reference"
    );
}

/// The full drain + re-join migration equivalence drill for one strategy:
/// every step body, the final placement, the cumulative totals and the
/// checkpoint document must be byte-identical to a never-migrated run.
fn migration_equivalence(strat: &str, extra_cell: &[&str]) {
    let routed_ck = temp_path(&format!("eq-{strat}-routed"));
    let ref_ck = temp_path(&format!("eq-{strat}-ref"));
    let name = format!("mover-{strat}");

    let (wa, ha) = start_worker(&format!("eq-{strat}-a"), &[]);
    let (wb, hb) = start_worker(&format!("eq-{strat}-b"), &[]);
    // A long health interval keeps the background loop quiet: every
    // migration in this test is triggered explicitly.
    let (router, hr) = start_router(&[wa.clone(), wb.clone()], &["health-interval=60"]);

    let args = cell_args(strat, &routed_ck, extra_cell);
    let (status, body) = http(router, "POST", "/sessions", &create_body(&name, &args));
    assert_eq!(status, 200, "{body}");
    let mgr = reference(&name, &cell_args(strat, &ref_ck, extra_cell));

    let home = worker_of(router, &name);
    let away = if home == wa { wb.clone() } else { wa.clone() };

    for t in 0..12 {
        step_both(
            router,
            &name,
            &mgr,
            &format!("{strat} t={t} (before drain)"),
        );
    }

    // Drain the session's worker: the router live-migrates it across.
    let (status, body) = http(router, "DELETE", &format!("/workers/{home}"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        worker_of(router, &name),
        away,
        "session must move off the drained worker"
    );
    let (_, body) = http(router, "GET", "/cluster", "");
    assert_eq!(json(&body).get("live_workers").unwrap().as_u64(), Some(1));

    // The drained worker keeps a `migrated_to` tombstone (it still runs —
    // draining is a router-side operation).
    let (status, body) = http_str(&home, "GET", "/sessions", "");
    assert_eq!(status, 200, "{body}");
    let rows = json(&body)
        .get("sessions")
        .and_then(JsonValue::as_array)
        .unwrap()
        .to_vec();
    let tomb = rows
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name.as_str()))
        .unwrap_or_else(|| panic!("no tombstone for {name:?} on {home}: {body}"));
    assert_eq!(
        tomb.get("status").and_then(JsonValue::as_str),
        Some("migrated")
    );
    assert_eq!(
        tomb.get("migrated_to").and_then(JsonValue::as_str),
        Some(away.as_str())
    );
    assert_eq!(tomb.get("final_t").and_then(JsonValue::as_u64), Some(12));
    assert!(
        tomb.get("evicted").is_none(),
        "migration is not idle eviction: {body}"
    );

    for t in 12..20 {
        step_both(router, &name, &mgr, &format!("{strat} t={t} (after drain)"));
    }

    // Re-join the drained worker: the ring re-forms and the session
    // migrates home — a second live migration on the same session.
    let (status, body) = http(
        router,
        "POST",
        "/workers",
        &format!("{{\"addr\":\"{home}\"}}"),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        worker_of(router, &name),
        home,
        "ring owner reclaims the session on re-join"
    );

    for t in 20..24 {
        step_both(
            router,
            &name,
            &mgr,
            &format!("{strat} t={t} (after re-join)"),
        );
    }

    // Placement: byte-identical.
    let (status, routed) = http(router, "GET", &format!("/sessions/{name}/placement"), "");
    assert_eq!(status, 200, "{routed}");
    assert_eq!(
        routed,
        format!("{}\n", mgr.placement(&name).unwrap().render())
    );

    // Cumulative totals: byte-identical modulo wall-clock uptime.
    let (status, routed) = http(router, "GET", &format!("/sessions/{name}/metrics"), "");
    assert_eq!(status, 200, "{routed}");
    let routed_cum = json(&routed).get("cumulative").unwrap().clone();
    let ref_cum = mgr
        .metrics(&name)
        .unwrap()
        .get("cumulative")
        .unwrap()
        .clone();
    assert_eq!(routed_cum.get("rounds_served").unwrap().as_u64(), Some(24));
    assert_eq!(
        scrub_uptime(&routed_cum.render()),
        scrub_uptime(&ref_cum.render()),
        "cumulative totals diverged after two migrations"
    );

    // Checkpoint document: byte-identical modulo uptime.
    let (status, routed) = http(router, "POST", &format!("/sessions/{name}/checkpoint"), "");
    assert_eq!(status, 200, "{routed}");
    let expected = mgr.checkpoint(&name).unwrap();
    assert_eq!(
        scrub_uptime(&routed),
        scrub_uptime(&expected),
        "checkpoint bytes diverged after two migrations"
    );

    stop(router, hr);
    http_str(&wa, "POST", "/shutdown", "");
    http_str(&wb, "POST", "/shutdown", "");
    ha.join().unwrap();
    hb.join().unwrap();
    mgr.shutdown_all();
    let _ = std::fs::remove_file(&routed_ck);
    let _ = std::fs::remove_file(&ref_ck);
}

#[test]
fn migrated_sessions_are_bit_identical_onth() {
    migration_equivalence("onth", &[]);
}

#[test]
fn migrated_sessions_are_bit_identical_onbr() {
    migration_equivalence("onbr", &[]);
}

#[test]
fn migrated_sessions_are_bit_identical_offstat() {
    migration_equivalence("offstat", &[]);
}

#[test]
fn evented_sessions_migrate_with_their_schedule() {
    // The fail fires before the migration (mutated link state must ride
    // the checkpoint), the recover after it (the pending schedule must
    // ride too).
    migration_equivalence("onth", &["events=3:fail-link:0-1,15:recover-link:0-1"]);
}

#[test]
fn killed_workers_sessions_resurrect_and_replay() {
    let routed_ck = temp_path("chaos-routed");
    let ref_ck = temp_path("chaos-ref");
    let name = "phoenix";

    // Workers as real processes — this test kills one with SIGKILL.
    let spawn = |tag: &str| -> (std::process::Child, String) {
        let ck = temp_path(&format!("chaos-default-{tag}"));
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
            .arg("serve")
            .args(cell_args("onth", &ck, &["port=0"]))
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn worker process");
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("worker stdout") == 0 {
                panic!("worker exited before announcing its address");
            }
            if let Some(at) = line.find("http://") {
                let rest = &line[at + "http://".len()..];
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                break rest[..end].to_string();
            }
        };
        // Keep draining so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        (child, addr)
    };
    let (mut child_a, wa) = spawn("a");
    let (mut child_b, wb) = spawn("b");
    let (router, hr) = start_router(
        &[wa.clone(), wb.clone()],
        &["health-interval=0.1", "mark-down=2", "request-timeout=5"],
    );

    let args = cell_args("onth", &routed_ck, &[]);
    let (status, body) = http(router, "POST", "/sessions", &create_body(name, &args));
    assert_eq!(status, 200, "{body}");
    let mgr = reference(name, &cell_args("onth", &ref_ck, &[]));

    // Rounds 0-4, checkpoint at t=5, then rounds 5-6 past the snapshot —
    // the resurrection must replay exactly those two.
    for t in 0..5 {
        step_both(router, name, &mgr, &format!("chaos t={t}"));
    }
    let (status, _) = http(router, "POST", &format!("/sessions/{name}/checkpoint"), "");
    assert_eq!(status, 200);
    for t in 5..7 {
        step_both(router, name, &mgr, &format!("chaos t={t}"));
    }

    let home = worker_of(router, name);
    let (victim, survivor) = if home == wa {
        (&mut child_a, wb.clone())
    } else {
        (&mut child_b, wa.clone())
    };
    victim.kill().expect("SIGKILL the session's worker");
    victim.wait().expect("reap the killed worker");

    // The health loop marks the worker down and resurrects the session
    // on the survivor, replaying rounds 5 and 6 from the checkpoint.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if worker_of(router, name) == survivor {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "session was not resurrected on the survivor in time"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, body) = http(router, "GET", "/cluster", "");
    let v = json(&body);
    assert_eq!(v.get("live_workers").unwrap().as_u64(), Some(1), "{body}");
    let row = v
        .get("sessions")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
        .unwrap()
        .clone();
    assert_eq!(
        row.get("next_t").unwrap().as_u64(),
        Some(7),
        "replay must restore the pre-crash round counter: {body}"
    );

    // Rounds 7-11 continue bit-identically to the uninterrupted run.
    for t in 7..12 {
        step_both(
            router,
            name,
            &mgr,
            &format!("chaos t={t} (after resurrection)"),
        );
    }
    let (status, routed) = http(router, "GET", &format!("/sessions/{name}/placement"), "");
    assert_eq!(status, 200, "{routed}");
    assert_eq!(
        routed,
        format!("{}\n", mgr.placement(name).unwrap().render())
    );

    stop(router, hr);
    let survivor_child = if home == wa {
        &mut child_b
    } else {
        &mut child_a
    };
    survivor_child.kill().expect("stop the survivor");
    survivor_child.wait().expect("reap the survivor");
    mgr.shutdown_all();
    let _ = std::fs::remove_file(&routed_ck);
    let _ = std::fs::remove_file(&ref_ck);
}

#[test]
fn skew_balancing_spreads_a_lopsided_table() {
    let (wa, ha) = start_worker("skew-a", &[]);
    let (wb, hb) = start_worker("skew-b", &[]);
    let (router, hr) = start_router(
        &[wa.clone(), wb.clone()],
        &["skew=1", "health-interval=0.1"],
    );

    // Pick four names the ring maps onto worker A — the same ring the
    // router builds, reconstructed client-side from the real addresses.
    let mut ring = HashRing::new(DEFAULT_REPLICAS);
    ring.add(&wa);
    ring.add(&wb);
    let names: Vec<String> = (0..10_000)
        .map(|i| format!("skew-{i}"))
        .filter(|n| ring.owner(n) == Some(wa.as_str()))
        .take(4)
        .collect();
    assert_eq!(names.len(), 4, "ring must own four of ten thousand names");

    let mut cks = Vec::new();
    for n in &names {
        let ck = temp_path(&format!("skew-{n}"));
        let (status, body) = http(
            router,
            "POST",
            "/sessions",
            &create_body(n, &cell_args("onth", &ck, &[])),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            worker_of(router, n),
            wa,
            "ring placement puts every pick on A"
        );
        cks.push(ck);
    }

    // The health loop's skew pass migrates until max - min <= 1.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, body) = http(router, "GET", "/cluster", "");
        let v = json(&body);
        assert_eq!(v.get("skew").unwrap().as_u64(), Some(1), "{body}");
        let counts: Vec<u64> = v
            .get("workers")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("sessions").unwrap().as_u64().unwrap())
            .collect();
        if counts == [2, 2] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "skew balance did not converge: counts {counts:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A session moved at t=0 is still bit-identical to a fresh solo run.
    let moved = names
        .iter()
        .find(|n| worker_of(router, n) == wb)
        .expect("someone moved to B");
    let ref_ck = temp_path("skew-ref");
    let mgr = reference(moved, &cell_args("onth", &ref_ck, &[]));
    for t in 0..3 {
        step_both(router, moved, &mgr, &format!("skew t={t}"));
    }

    stop(router, hr);
    http_str(&wa, "POST", "/shutdown", "");
    http_str(&wb, "POST", "/shutdown", "");
    ha.join().unwrap();
    hb.join().unwrap();
    mgr.shutdown_all();
    for ck in cks {
        let _ = std::fs::remove_file(&ck);
    }
    let _ = std::fs::remove_file(&ref_ck);
}

#[test]
fn router_relays_the_session_error_contract() {
    // A one-worker cluster whose worker is already full (its default
    // session occupies the single slot).
    let (wa, ha) = start_worker("err-a", &["max-sessions=1"]);
    let (router, hr) = start_router(
        std::slice::from_ref(&wa),
        &["health-interval=60", "request-timeout=1"],
    );
    let ck = temp_path("err");

    // 429 from the worker is relayed verbatim.
    let (status, body) = http(
        router,
        "POST",
        "/sessions",
        &create_body("overflow", &cell_args("onth", &ck, &[])),
    );
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("max-sessions"), "{body}");

    // Unknown sessions are 404 on every scoped route.
    for (method, path) in [
        ("GET", "/sessions/ghost/placement"),
        ("GET", "/sessions/ghost/metrics"),
        ("POST", "/sessions/ghost/step"),
        ("POST", "/sessions/ghost/checkpoint"),
        ("DELETE", "/sessions/ghost"),
    ] {
        let (status, body) = http(router, method, path, "");
        assert_eq!(status, 404, "{method} {path}: {body}");
        assert!(body.contains("on the cluster"), "{body}");
    }
    let (status, body) = http(
        router,
        "POST",
        "/sessions/ghost/events",
        r#"{"events": "9:fail-link:0-1"}"#,
    );
    assert_eq!(status, 404, "{body}");

    // Malformed creates are 400 without touching any worker.
    for bad in [
        "not json",
        r#"{"args":["topo=unit-line:12"]}"#,
        r#"{"name":"x","args":"nope"}"#,
        r#"{"name":"x","args":["zap=1"]}"#,
    ] {
        let (status, body) = http(router, "POST", "/sessions", bad);
        assert_eq!(status, 400, "{bad}: {body}");
    }

    // Unknown endpoints advertise the router inventory.
    let (status, body) = http(router, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("GET /cluster"), "{body}");
    assert!(body.contains("DELETE /workers/<addr>"), "{body}");

    // Fleet management errors.
    let (status, body) = http(router, "POST", "/workers", "not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(router, "POST", "/workers", r#"{"addr":"127.0.0.1:1"}"#);
    assert_eq!(status, 502, "{body}");
    let (status, body) = http(
        router,
        "POST",
        "/workers",
        &format!("{{\"addr\":\"{wa}\"}}"),
    );
    assert_eq!(status, 409, "{body}");
    let (status, body) = http(router, "DELETE", "/workers/127.0.0.1:2", "");
    assert_eq!(status, 404, "{body}");
    let (status, body) = http(router, "DELETE", &format!("/workers/{wa}"), "");
    assert_eq!(status, 409, "last live worker must refuse to drain: {body}");

    // Front-end hardening holds at the router too: an oversized declared
    // body is a 413 before any of it is read, a stalled half-request a
    // 408 after the request timeout.
    let mut stream = TcpStream::connect(router).unwrap();
    stream
        .write_all(b"POST /sessions HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    let mut stream = TcpStream::connect(router).unwrap();
    stream.write_all(b"POST /sessions HT").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");

    stop(router, hr);

    // A second cluster for the transport-failure contract: its worker
    // shuts down underneath the router (no mark-down — the long health
    // interval keeps the dead worker on the ring).
    let (wb, hb) = start_worker("err-b", &[]);
    let (router, hr) = start_router(std::slice::from_ref(&wb), &["health-interval=60"]);
    let ck2 = temp_path("err-dup");
    let body = create_body("dup", &cell_args("onth", &ck2, &[]));
    let (status, resp) = http(router, "POST", "/sessions", &body);
    assert_eq!(status, 200, "{resp}");
    let (status, resp) = http(router, "POST", "/sessions", &body);
    assert_eq!(status, 409, "duplicate create: {resp}");

    http_str(&wb, "POST", "/shutdown", "");
    hb.join().unwrap();
    let (status, resp) = http(router, "POST", "/sessions/dup/step", "");
    assert_eq!(status, 502, "{resp}");
    assert!(resp.contains("unreachable"), "{resp}");
    let (status, resp) = http(
        router,
        "POST",
        "/sessions",
        &create_body("late", &cell_args("onth", &ck2, &[])),
    );
    assert_eq!(status, 502, "{resp}");

    stop(router, hr);
    http_str(&wa, "POST", "/shutdown", "");
    ha.join().unwrap();
    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_file(&ck2);
}

#[test]
fn merged_listings_annotate_workers_and_expose_tombstones() {
    let (wa, ha) = start_worker("list-a", &[]);
    let (wb, hb) = start_worker("list-b", &[]);
    let (router, hr) = start_router(&[wa.clone(), wb.clone()], &["health-interval=60"]);

    // One session per worker, names picked via the client-side ring.
    let mut ring = HashRing::new(DEFAULT_REPLICAS);
    ring.add(&wa);
    ring.add(&wb);
    let on_a = (0..10_000)
        .map(|i| format!("list-{i}"))
        .find(|n| ring.owner(n) == Some(wa.as_str()))
        .unwrap();
    let on_b = (0..10_000)
        .map(|i| format!("list-{i}"))
        .find(|n| ring.owner(n) == Some(wb.as_str()))
        .unwrap();
    let ck_a = temp_path("list-on-a");
    let ck_b = temp_path("list-on-b");
    for (n, ck) in [(&on_a, &ck_a), (&on_b, &ck_b)] {
        let (status, body) = http(
            router,
            "POST",
            "/sessions",
            &create_body(n, &cell_args("onth", ck, &[])),
        );
        assert_eq!(status, 200, "{body}");
    }

    let (status, body) = http(router, "GET", "/sessions", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    // `count` is the router's own table; the workers' default sessions
    // appear in the merged rows but are not router-managed.
    assert_eq!(v.get("count").unwrap().as_u64(), Some(2), "{body}");
    assert_eq!(
        v.get("workers").unwrap().as_str_array().unwrap().len(),
        2,
        "{body}"
    );
    let rows = v
        .get("sessions")
        .and_then(JsonValue::as_array)
        .unwrap()
        .to_vec();
    let find = |name: &str| {
        rows.iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no row for {name:?}: {body}"))
            .clone()
    };
    assert_eq!(
        find(&on_a).get("worker").unwrap().as_str(),
        Some(wa.as_str())
    );
    assert_eq!(
        find(&on_b).get("worker").unwrap().as_str(),
        Some(wb.as_str())
    );
    assert_eq!(find(&on_a).get("status").unwrap().as_str(), Some("live"));
    // Each worker's own default session is annotated too.
    assert_eq!(
        rows.iter()
            .filter(|r| r.get("name").and_then(JsonValue::as_str) == Some("default"))
            .count(),
        2,
        "{body}"
    );

    // Drain A: its session migrates to B and the merged listing shows
    // the migrated tombstone on A's listing.
    let (status, body) = http(router, "DELETE", &format!("/workers/{wa}"), "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_str(&wa, "GET", "/sessions", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    let tomb = v
        .get("sessions")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(on_a.as_str()))
        .unwrap()
        .clone();
    assert_eq!(tomb.get("status").unwrap().as_str(), Some("migrated"));
    assert_eq!(tomb.get("migrated_to").unwrap().as_str(), Some(wb.as_str()));

    // Deleting through the router forwards the plain (non-migration)
    // flavor and drops the table entry.
    let (status, body) = http(router, "DELETE", &format!("/sessions/{on_b}"), "");
    assert_eq!(status, 200, "{body}");
    assert!(json(&body).get("migrated_to").is_none(), "{body}");
    let (_, body) = http(router, "GET", "/sessions", "");
    assert_eq!(
        json(&body).get("count").unwrap().as_u64(),
        Some(1),
        "{body}"
    );

    stop(router, hr);
    http_str(&wa, "POST", "/shutdown", "");
    http_str(&wb, "POST", "/shutdown", "");
    ha.join().unwrap();
    hb.join().unwrap();
    let _ = std::fs::remove_file(&ck_a);
    let _ = std::fs::remove_file(&ck_b);
}

/// Sends one keep-alive request on `stream` and reads its framed
/// response, leaving the connection open.
fn keep_alive_exchange(stream: &mut BufReader<TcpStream>, path: &str) -> u16 {
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.get_mut().write_all(request.as_bytes()).unwrap();
    read_framed_response(stream).0
}

/// Idle keep-alive clients hold connections, not request threads: with a
/// single router thread and two clients idling between requests, a third
/// client is still answered at once rather than after the keep-alive
/// window.
#[test]
fn idle_keep_alive_clients_cannot_starve_the_router() {
    let (wa, ha) = start_worker("starve", &[]);
    let (router, hr) = start_router(
        std::slice::from_ref(&wa),
        &["threads=1", "health-interval=60"],
    );
    let mut idle = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(router).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut stream = BufReader::new(stream);
        assert_eq!(keep_alive_exchange(&mut stream, "/cluster"), 200);
        idle.push(stream);
    }
    let started = Instant::now();
    let (status, body) = http(router, "GET", "/cluster", "");
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        waited < Duration::from_secs(1),
        "a third client waited {waited:?} behind two idle ones"
    );
    // the idle connections are still open and still served
    for stream in &mut idle {
        assert_eq!(keep_alive_exchange(stream, "/cluster"), 200);
    }
    drop(idle);
    stop(router, hr);
    http_str(&wa, "POST", "/shutdown", "");
    ha.join().unwrap();
}
