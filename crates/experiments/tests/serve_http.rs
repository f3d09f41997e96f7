//! End-to-end exercise of the `flexserve serve` daemon over real TCP:
//! drive rounds through `POST /step`, snapshot through `POST /checkpoint`,
//! restart the daemon from the checkpoint file, and assert the resumed
//! placement matches an uninterrupted session bit for bit.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use flexserve_core::initial_center;
use flexserve_experiments::serve::{serve_on, ServeOptions};
use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::CellSpec;
use flexserve_sim::{CostParams, EventedSession, LoadModel, SubstrateEvents};
use flexserve_workload::{RequestSource, ScenarioStream};

mod common;
use common::{http, json, read_framed_response};

fn the_cell() -> Vec<String> {
    [
        "topo=unit-line:12",
        "wl=uniform:req=4",
        "strat=onth",
        "rounds=60",
        "seed=5",
        "k=4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn start_daemon(extra: &[&str]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut args = the_cell();
    args.extend(extra.iter().map(|s| s.to_string()));
    let opts = ServeOptions::parse(&args).expect("parse serve args");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_on(listener, &opts).expect("daemon run");
    });
    (addr, handle)
}

#[test]
fn keep_alive_drives_many_requests_down_one_connection() {
    let (addr, handle) = start_daemon(&[]);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Six exchanges down the same TCP connection: HTTP/1.1 without a
    // Connection header is keep-alive by default.
    for t in 0..3u64 {
        writer
            .write_all(b"POST /step HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .expect("send step");
        let (status, connection, body) = read_framed_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(connection, "keep-alive");
        assert_eq!(json(&body).get("t").unwrap().as_u64(), Some(t));
    }
    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send metrics");
    let (status, connection, body) = read_framed_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");
    assert_eq!(json(&body).get("rounds_served").unwrap().as_u64(), Some(3));

    // Error responses stay framed and keep the connection alive too.
    writer
        .write_all(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send bad route");
    let (status, connection, _) = read_framed_response(&mut reader);
    assert_eq!(status, 404);
    assert_eq!(connection, "keep-alive");

    // Connection: close is honored: answered, then EOF.
    writer
        .write_all(b"GET /placement HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send close");
    let (status, connection, _) = read_framed_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "close");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "server must close after Connection: close");

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn serve_steps_checkpoints_and_resumes_identically() {
    let ck: PathBuf = std::env::temp_dir().join("flexserve-serve-http-test.ckpt.json");
    let _ = std::fs::remove_file(&ck);
    let ck_arg = format!("checkpoint={}", ck.display());

    // --- first daemon: 20 source-driven rounds, checkpoint, shutdown ---
    let (addr, handle) = start_daemon(&[&ck_arg]);

    for t in 0..20u64 {
        let (status, body) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200, "step {t}: {body}");
        let v = json(&body);
        assert_eq!(v.get("t").unwrap().as_u64(), Some(t));
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(4));
        assert!(
            v.get("costs")
                .unwrap()
                .get("total")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    // placement + metrics agree on where we are
    let (status, body) = http(addr, "GET", "/placement", "");
    assert_eq!(status, 200);
    let placement_mid = json(&body);
    assert_eq!(placement_mid.get("t").unwrap().as_u64(), Some(20));
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = json(&body);
    assert_eq!(metrics.get("rounds_served").unwrap().as_u64(), Some(20));
    assert_eq!(metrics.get("resumed_at").unwrap().as_u64(), Some(0));
    assert_eq!(metrics.get("strategy").unwrap().as_str(), Some("ONTH"));
    assert!(metrics.get("step_seconds_total").unwrap().as_f64().unwrap() >= 0.0);

    // an explicit-origins step works and advances t
    let (status, body) = http(addr, "POST", "/step", r#"{"origins":[11,11,0]}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("t").unwrap().as_u64(), Some(20));
    // …but a bogus body is a 400 and does NOT advance t
    let (status, _) = http(addr, "POST", "/step", r#"{"origins":[99]}"#);
    assert_eq!(status, 400);
    let (_, body) = http(addr, "GET", "/placement", "");
    assert_eq!(json(&body).get("t").unwrap().as_u64(), Some(21));

    // The explicit round above diverged the daemon from the pure-source
    // run, so restart clean for the determinism half below.
    let (status, ck_body) = http(addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200);
    assert!(ck_body.contains(flexserve_sim::CHECKPOINT_FORMAT));
    assert!(
        ck_body.contains("\"metrics\""),
        "v2 checkpoints carry cumulative metrics: {ck_body}"
    );
    assert!(ck.exists(), "checkpoint file must be written");
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    // --- determinism: fresh daemon, 20 rounds, checkpoint, restart,
    //     20 more — must equal 40 uninterrupted rounds ---------------
    let _ = std::fs::remove_file(&ck);
    let (addr, handle) = start_daemon(&[&ck_arg]);
    for _ in 0..20 {
        let (status, _) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200);
    }
    let (status, _) = http(addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200);
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    let (addr, handle) = start_daemon(&[&ck_arg, "resume=true"]);
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = json(&body);
    assert_eq!(metrics.get("resumed_at").unwrap().as_u64(), Some(20));
    assert_eq!(metrics.get("next_t").unwrap().as_u64(), Some(20));
    // v2 checkpoints carry the lifetime totals across the restart: the 20
    // checkpointed rounds (and their cost) are already on the books while
    // this process has served none.
    assert_eq!(metrics.get("rounds_served").unwrap().as_u64(), Some(0));
    let cumulative = metrics.get("cumulative").unwrap();
    assert_eq!(cumulative.get("rounds_served").unwrap().as_u64(), Some(20));
    assert!(
        cumulative
            .get("total_cost")
            .unwrap()
            .get("total")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    for _ in 0..20 {
        let (status, _) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200);
    }
    let (_, body) = http(addr, "GET", "/placement", "");
    let resumed = json(&body);
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    let (ref_t, ref_active) = evented_reference_after(40, "");
    assert_eq!(resumed.get("t").unwrap().as_u64(), Some(ref_t));
    let active: Vec<usize> = resumed
        .get("active")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|n| n.as_usize().unwrap())
        .collect();
    assert_eq!(
        active, ref_active,
        "resumed daemon placement must match the uninterrupted session"
    );

    let _ = std::fs::remove_file(&ck);
}

#[test]
fn mixed_explicit_steps_do_not_desync_the_source_across_resume() {
    // Rounds with distinct request counts (1, 2, 3, 4, 5) so a skipped
    // or repeated source round is visible in the /step response.
    let dir = std::env::temp_dir();
    let replay = dir.join("flexserve-serve-mixed.jsonl");
    let ck = dir.join("flexserve-serve-mixed.ckpt.json");
    let lines: String = (0..5u64)
        .map(|t| {
            format!(
                "{{\"t\":{t},\"origins\":[{}]}}\n",
                vec!["1"; t as usize + 1].join(",")
            )
        })
        .collect();
    std::fs::write(&replay, lines).unwrap();
    let _ = std::fs::remove_file(&ck);

    let ck_arg = format!("checkpoint={}", ck.display());
    let source_arg = format!("source={}", replay.display());

    // Daemon A: 2 source rounds (sizes 1, 2), then 2 explicit rounds —
    // t is now 4 but only 2 source rounds were consumed.
    let (addr, handle) = start_daemon(&[&ck_arg, &source_arg]);
    for expected in [1u64, 2] {
        let (status, body) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            json(&body).get("requests").unwrap().as_u64(),
            Some(expected)
        );
    }
    for _ in 0..2 {
        let (status, _) = http(addr, "POST", "/step", r#"{"origins":[0]}"#);
        assert_eq!(status, 200);
    }
    let (status, body) = http(addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"source_rounds\":2"), "{body}");
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    // Daemon B (resumed): the next source-driven round must be round 2
    // (size 3) — fast-forwarding by t=4 would wrongly serve round 4.
    let (addr, handle) = start_daemon(&[&ck_arg, &source_arg, "resume=true"]);
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = json(&body);
    assert_eq!(metrics.get("next_t").unwrap().as_u64(), Some(4));
    assert_eq!(metrics.get("source_rounds").unwrap().as_u64(), Some(2));
    let (status, body) = http(addr, "POST", "/step", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    assert_eq!(v.get("t").unwrap().as_u64(), Some(4));
    assert_eq!(
        v.get("requests").unwrap().as_u64(),
        Some(3),
        "resume must continue the source where the checkpointed history left it"
    );
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    let _ = std::fs::remove_file(&replay);
    let _ = std::fs::remove_file(&ck);
}

/// The same cell driven directly through an uninterrupted
/// `EventedSession` with the full `schedule` (empty for a static
/// substrate) — the reference the daemon must match bit for bit,
/// including across its fail → append-recover → checkpoint → resume path.
fn evented_reference_after(rounds: usize, schedule: &str) -> (u64, Vec<usize>) {
    let cell = CellSpec::new(
        "unit-line:12".parse().unwrap(),
        "uniform:req=4".parse().unwrap(),
        "onth".parse().unwrap(),
    );
    let env = ExperimentEnv::from_spec(&cell.topology, 5).unwrap();
    let params = CostParams::default().with_max_servers(4);
    let ctx = env.context(params, LoadModel::Linear);
    let strategy = cell.strategy.instantiate_online(&ctx, 5).unwrap();
    let mut session = EventedSession::new(
        Arc::clone(&env.graph),
        Arc::clone(&env.matrix),
        SubstrateEvents::parse(schedule).unwrap(),
        params,
        LoadModel::Linear,
        strategy,
        initial_center(&ctx),
    );
    let scenario =
        cell.workload
            .instantiate(&env.graph, &env.matrix, cell.t_periods, cell.lambda, 5);
    let mut source = ScenarioStream::new(scenario, Some(60));
    for _ in 0..rounds {
        let batch = source.next_round().unwrap().unwrap();
        session.step(&batch).unwrap();
    }
    (
        session.t(),
        session.fleet().active().iter().map(|n| n.index()).collect(),
    )
}

#[test]
fn substrate_events_over_http_with_resume_and_hardening() {
    let ck = std::env::temp_dir().join("flexserve-serve-events.ckpt.json");
    let _ = std::fs::remove_file(&ck);
    let ck_arg = format!("checkpoint={}", ck.display());

    // Daemon with an initial schedule and a tight request timeout (for
    // the 408 probe below).
    let (addr, handle) = start_daemon(&[&ck_arg, "events=3:fail-link:5-6", "request-timeout=1"]);
    for _ in 0..4 {
        let (status, body) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200, "{body}");
    }

    // Live-append a recovery; past events are refused.
    let (status, body) = http(
        addr,
        "POST",
        "/sessions/default/events",
        r#"{"events": "8:recover-link:5-6"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    assert_eq!(v.get("appended").unwrap().as_u64(), Some(1));
    assert_eq!(
        v.get("events").unwrap().as_str(),
        Some("3:fail-link:5-6,8:recover-link:5-6")
    );
    let (status, _) = http(
        addr,
        "POST",
        "/sessions/default/events",
        r#"{"events": "0:fail-node:2"}"#,
    );
    assert_eq!(status, 400);

    // The checkpoint records the whole schedule.
    let (status, body) = http(addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"substrate_events\":\"3:fail-link:5-6,8:recover-link:5-6\""),
        "{body}"
    );

    // Front-end hardening over the wire: an oversized declared body is a
    // 413 before any of it is read...
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /step HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    // ...and a stalled half-request times out with a 408.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"POST /st").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    // Resume (the checkpoint restores its own schedule) and play through
    // the recovery at round 8.
    let (addr, handle) = start_daemon(&[&ck_arg, "resume=true"]);
    let (_, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(json(&body).get("resumed_at").unwrap().as_u64(), Some(4));
    for _ in 0..6 {
        let (status, body) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200, "{body}");
    }
    let (_, body) = http(addr, "GET", "/placement", "");
    let resumed = json(&body);
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();

    let (ref_t, ref_active) = evented_reference_after(10, "3:fail-link:5-6,8:recover-link:5-6");
    assert_eq!(resumed.get("t").unwrap().as_u64(), Some(ref_t));
    let active: Vec<usize> = resumed
        .get("active")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|n| n.as_usize().unwrap())
        .collect();
    assert_eq!(
        active, ref_active,
        "resumed evented daemon must match the uninterrupted evented session"
    );

    let _ = std::fs::remove_file(&ck);
}

#[test]
fn serve_source_exhaustion_and_unknown_routes() {
    let ck = std::env::temp_dir().join("flexserve-serve-http-test2.ckpt.json");
    let ck_arg = format!("checkpoint={}", ck.display());
    let mut args = the_cell();
    // tiny source: 3 rounds only
    for a in &mut args {
        if a.starts_with("rounds=") {
            *a = "rounds=3".into();
        }
    }
    args.push(ck_arg);
    let opts = ServeOptions::parse(&args).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve_on(listener, &opts).unwrap();
    });

    for _ in 0..3 {
        let (status, _) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200);
    }
    let (status, body) = http(addr, "POST", "/step", "");
    assert_eq!(status, 410, "exhausted source must be 410: {body}");
    assert!(body.contains("exhausted"));
    // explicit bodies still work after exhaustion
    let (status, _) = http(addr, "POST", "/step", r#"{"origins":[1]}"#);
    assert_eq!(status, 200);

    let (status, body) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("endpoints"));

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_file(&ck);
}

/// Requests pipelined in one write are answered in order without
/// waiting on a reactor tick, and a client that half-closes after its
/// last request still gets every answer before the server closes.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = start_daemon(&[]);
    let mut writer = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let step = "POST /step HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
    let pipeline = format!("{step}{step}GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n{step}");
    let started = std::time::Instant::now();
    writer
        .write_all(pipeline.as_bytes())
        .expect("send pipeline");
    writer.shutdown(Shutdown::Write).expect("half-close");
    for (key, value) in [("t", 0), ("t", 1), ("rounds_served", 2), ("t", 2)] {
        let (status, _, body) = read_framed_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(json(&body).get(key).unwrap().as_u64(), Some(value));
    }
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("EOF after the half-close");
    assert!(rest.is_empty(), "a drained half-closed peer is closed");
    let took = started.elapsed();
    assert!(took.as_millis() < 500, "pipelined answers took {took:?}");

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
}

/// A connection that never sends a byte closes quietly once the request
/// timeout passes (no 408: there is no request to answer), and requests
/// pipelined behind `POST /shutdown` are never served: the front end
/// answers the shutdown itself and closes.
#[test]
fn idle_connections_close_quietly_and_nothing_follows_shutdown() {
    let (addr, handle) = start_daemon(&["request-timeout=0.3"]);
    let mut idle = TcpStream::connect(addr).expect("connect");
    let mut received = String::new();
    idle.read_to_string(&mut received).expect("quiet close");
    assert_eq!(received, "");

    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .write_all(
            b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\nPOST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /placement HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send pipeline");
    let mut out = String::new();
    client
        .read_to_string(&mut out)
        .expect("answers, then close");
    assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
    assert!(out.contains("rounds_served"), "{out}");
    assert!(!out.contains("\"active\""), "{out}");
    assert!(
        out.ends_with("Connection: close\r\n\r\n{\"ok\":true}\n"),
        "{out}"
    );
    handle.join().unwrap();
}
