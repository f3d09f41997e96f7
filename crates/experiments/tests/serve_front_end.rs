//! The front end's pool against a live daemon: SIGTERM drains it at once
//! and checkpoints every session, a connection running a long batch
//! leaves the other threads free to answer other connections, and a
//! daemon killed outright resumes from its last checkpoint.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use flexserve_experiments::serve::{serve_on, ServeOptions};

mod common;
use common::{http, json, read_framed_response};

const CELL: [&str; 6] = [
    "topo=unit-line:8",
    "wl=uniform:req=3",
    "strat=onth",
    "rounds=40",
    "seed=3",
    "k=4",
];

/// Creates session `name` from cell args over HTTP.
fn create_session(addr: SocketAddr, name: &str, args: &[String]) {
    let args: Vec<String> = args.iter().map(|a| format!("{a:?}")).collect();
    let body = format!("{{\"name\":{name:?},\"args\":[{}]}}", args.join(","));
    let (status, resp) = http(addr, "POST", "/sessions", &body);
    assert_eq!(status, 200, "create {name}: {resp}");
}

/// Spawns `flexserve <args>` and returns it with the address it
/// announces on its first stdout line.
fn spawn_announced(args: &[String]) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn flexserve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("announcement");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in announcement {line:?}"))
        .parse()
        .expect("bound address");
    (child, addr)
}

/// SIGTERM reaches the pool through its wake pipe, not a polling thread:
/// the daemon begins its graceful shutdown at once, closes an idle
/// keep-alive connection, writes every session's checkpoint and exits.
#[test]
fn sigterm_checkpoints_every_session_and_exits_promptly() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = std::env::temp_dir().join(format!("flexserve-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = |name: &str| dir.join(format!("{name}.json"));
    let cell_with = |name: &str| -> Vec<String> {
        let mut args: Vec<String> = CELL.iter().map(|s| s.to_string()).collect();
        args.push(format!("checkpoint={}", checkpoint(name).display()));
        args
    };
    let mut daemon_args: Vec<String> = ["serve", "bind=127.0.0.1:0", "workers=2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    daemon_args.extend(cell_with("default"));
    let (mut daemon, addr) = spawn_announced(&daemon_args);

    // Each session stops at its own round, so each checkpoint shows it
    // was written at shutdown rather than earlier.
    let stepped = [("default", 3u64), ("s0", 5), ("s1", 7)];
    for (name, rounds) in stepped {
        if name != "default" {
            create_session(addr, name, &cell_with(name));
        }
        for _ in 0..rounds {
            let (status, body) = http(addr, "POST", &format!("/sessions/{name}/step"), "");
            assert_eq!(status, 200, "{body}");
        }
    }
    // An idle keep-alive client must not hold the shutdown up.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(b"GET /sessions HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_framed_response(&mut BufReader::new(&idle));
    assert_eq!(status, 200);

    let sent = Instant::now();
    // SAFETY: `kill` is libc's, declared with its C signature; it only
    // sends a signal to the child this test spawned.
    assert_eq!(unsafe { kill(daemon.id() as i32, SIGTERM) }, 0);
    let exit = loop {
        if let Some(exit) = daemon.try_wait().expect("wait") {
            break exit;
        }
        if sent.elapsed() > Duration::from_secs(10) {
            let _ = daemon.kill();
            panic!("daemon still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let took = sent.elapsed();
    let written: Vec<Option<u64>> = stepped
        .iter()
        .map(|(name, _)| {
            let text = std::fs::read_to_string(checkpoint(name)).ok()?;
            json(&text).get("t").and_then(|t| t.as_u64())
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(exit.success(), "daemon exited with {exit}");
    assert!(
        took < Duration::from_secs(2),
        "SIGTERM took {took:?} to stop the daemon"
    );
    let expected: Vec<Option<u64>> = stepped.iter().map(|&(_, t)| Some(t)).collect();
    assert_eq!(written, expected, "checkpointed t per session");
}

/// A daemon whose log reader has gone still shuts down on SIGTERM: the
/// read ends of its stdout and stderr pipes close after the
/// announcement, so every later log line fails with `EPIPE`, and the
/// daemon must still exit within 2 s and checkpoint its session.
#[test]
fn sigterm_shuts_down_after_the_log_reader_has_gone() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let checkpoint = std::env::temp_dir().join(format!(
        "flexserve-sigterm-epipe-{}.json",
        std::process::id()
    ));
    let mut args: Vec<String> = ["serve", "bind=127.0.0.1:0", "workers=2"]
        .iter()
        .chain(CELL.iter())
        .map(|s| s.to_string())
        .collect();
    args.push(format!("checkpoint={}", checkpoint.display()));
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn flexserve");
    let mut line = String::new();
    BufReader::new(daemon.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("announcement");
    // Both read ends close here.
    drop(daemon.stderr.take());
    let addr: SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in announcement {line:?}"));
    for _ in 0..4 {
        let (status, body) = http(addr, "POST", "/sessions/default/step", "");
        assert_eq!(status, 200, "{body}");
    }

    let sent = Instant::now();
    // SAFETY: `kill` is libc's, declared with its C signature; it only
    // sends a signal to the child this test spawned.
    assert_eq!(unsafe { kill(daemon.id() as i32, SIGTERM) }, 0);
    let exit = loop {
        if let Some(exit) = daemon.try_wait().expect("wait") {
            break exit;
        }
        if sent.elapsed() > Duration::from_secs(10) {
            let _ = daemon.kill();
            panic!("daemon still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let took = sent.elapsed();
    let written = std::fs::read_to_string(&checkpoint)
        .ok()
        .and_then(|text| json(&text).get("t").and_then(|t| t.as_u64()));
    let _ = std::fs::remove_file(&checkpoint);
    assert!(exit.success(), "daemon exited with {exit}");
    assert!(
        took < Duration::from_secs(2),
        "SIGTERM took {took:?} to stop the daemon"
    );
    assert_eq!(written, Some(4), "checkpointed t");
}

/// Any idle thread serves any ready connection: while one connection's
/// 4096-round batch holds a pool thread, a request on a second connection
/// is answered by the other. (It reads a different session: `GET
/// /sessions` takes every session's lock, so it waits for the batch by
/// design.)
#[test]
fn a_long_batch_does_not_hold_up_other_connections() {
    let mut args: Vec<String> = CELL.iter().map(|s| s.to_string()).collect();
    let default_ck = std::env::temp_dir().join(format!(
        "flexserve-front-end-default-{}.json",
        std::process::id()
    ));
    let big_ck = std::env::temp_dir().join(format!(
        "flexserve-front-end-big-{}.json",
        std::process::id()
    ));
    args.push(format!("checkpoint={}", default_ck.display()));
    args.push("workers=2".into());
    let opts = ServeOptions::parse(&args).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        serve_on(listener, &opts).unwrap();
    });
    let big: Vec<String> = [
        "topo=er:500",
        "wl=time-zones:p=50,req=50",
        "strat=onth",
        "seed=1000",
        "rounds=5000",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("checkpoint={}", big_ck.display())])
    .collect();
    create_session(addr, "big", &big);

    // The batch's first response byte marks the end of its computation
    // (its ~800 KB answer takes a while longer to drain).
    let batch = std::thread::spawn(move || {
        let body = r#"{"n": 4096}"#;
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /sessions/big/step HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut first = [0u8; 1];
        stream.read_exact(&mut first).unwrap();
        let computed = Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        let head = String::from_utf8_lossy(&rest[..rest.len().min(16)]).into_owned();
        (format!("{}{head}", first[0] as char), computed)
    });
    // Let the batch reach its pool thread before the second request.
    std::thread::sleep(Duration::from_millis(20));
    let (status, body) = http(addr, "GET", "/sessions/default/metrics", "");
    let answered = Instant::now();
    assert_eq!(status, 200, "{body}");
    let (batch_head, computed) = batch.join().unwrap();
    assert!(batch_head.starts_with("HTTP/1.1 200 "), "{batch_head}");
    assert!(
        answered < computed,
        "the read waited {:?} for the batch to finish",
        answered.saturating_duration_since(computed)
    );

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&default_ck);
    let _ = std::fs::remove_file(&big_ck);
}

/// A spawned daemon that a failing assertion does not leave running.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Crash recovery: a daemon killed (SIGKILL) after a checkpoint at t=5
/// and two more rounds restarts with `resume=true` at t=5, replays the
/// two lost rounds from its fast-forwarded source, and lands on the
/// placement of an uninterrupted 7-round run.
#[test]
fn a_killed_daemon_resumes_where_its_checkpoint_left_off() {
    let dir = std::env::temp_dir().join(format!("flexserve-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = |checkpoint: &str, resume: bool| {
        let mut args: Vec<String> = [
            "serve",
            "topo=unit-line:12",
            "wl=uniform:req=4",
            "strat=onth",
            "rounds=60",
            "seed=5",
            "k=4",
            "port=0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.push(format!("checkpoint={}", dir.join(checkpoint).display()));
        if resume {
            args.push("resume=true".into());
        }
        let (child, addr) = spawn_announced(&args);
        (Daemon(child), addr)
    };
    let steps = |addr: SocketAddr, n: usize| {
        for _ in 0..n {
            let (status, body) = http(addr, "POST", "/step", "");
            assert_eq!(status, 200, "{body}");
        }
    };
    let placement_then_shutdown = |mut daemon: Daemon, addr: SocketAddr| {
        let (status, placement) = http(addr, "GET", "/placement", "");
        assert_eq!(status, 200, "{placement}");
        assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
        assert!(daemon.0.wait().unwrap().success());
        placement
    };

    // Checkpoint at t=5, then play two rounds the crash loses.
    let (crashed, addr) = daemon("crash.json", false);
    steps(addr, 5);
    assert_eq!(http(addr, "POST", "/checkpoint", "").0, 200);
    steps(addr, 2);
    drop(crashed);

    // The restart resumes at t=5 and replays rounds 5 and 6.
    let (resumed, addr) = daemon("crash.json", true);
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics}");
    assert_eq!(
        json(&metrics).get("resumed_at").and_then(|t| t.as_u64()),
        Some(5),
        "{metrics}"
    );
    steps(addr, 2);
    let recovered = placement_then_shutdown(resumed, addr);

    let (reference, addr) = daemon("reference.json", false);
    steps(addr, 7);
    let uninterrupted = placement_then_shutdown(reference, addr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(recovered, uninterrupted);
    assert_eq!(json(&recovered).get("t").and_then(|t| t.as_u64()), Some(7));
}
