//! Batched stepping and the epoll front end, end to end over real TCP:
//! a batch of k rounds must equal the same k rounds stepped singly —
//! step bodies, placement, cumulative metrics, and checkpoint bytes —
//! for every online strategy and for schedules whose substrate events
//! fire mid-batch; oversized and malformed batches keep their error
//! contract; and ten thousand idle keep-alive connections cost the
//! daemon file descriptors, not threads.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use flexserve_experiments::serve::{raise_nofile_limit, serve_on, ServeOptions};
use flexserve_workload::JsonValue;

mod common;
use common::{http, json};

fn start_daemon(cell: &[&str]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let args: Vec<String> = cell.iter().map(|s| s.to_string()).collect();
    let opts = ServeOptions::parse(&args).expect("parse serve args");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_on(listener, &opts).expect("daemon run");
    });
    (addr, handle)
}

/// Zeroes the wall-clock fields (`uptime_seconds`, `step_seconds_total`)
/// everywhere in a document. Everything else a session reports is
/// deterministic and must match bit for bit.
fn zero_timing(v: &mut JsonValue) {
    match v {
        JsonValue::Obj(pairs) => {
            for (key, value) in pairs {
                if key == "uptime_seconds" || key == "step_seconds_total" {
                    *value = JsonValue::from(0u64);
                } else {
                    zero_timing(value);
                }
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                zero_timing(item);
            }
        }
        _ => {}
    }
}

fn normalized(body: &str) -> String {
    let mut v = json(body);
    zero_timing(&mut v);
    v.render()
}

/// Creates a session on the daemon from cell args plus a checkpoint path.
fn create_session(addr: SocketAddr, name: &str, args: &[String]) {
    let body = JsonValue::Obj(vec![
        ("name".into(), JsonValue::from(name)),
        (
            "args".into(),
            JsonValue::Arr(args.iter().map(|a| JsonValue::from(a.as_str())).collect()),
        ),
    ])
    .render();
    let (status, resp) = http(addr, "POST", "/sessions", &body);
    assert_eq!(status, 200, "create {name}: {resp}");
}

/// The tentpole contract: one batch of k rounds is bit-identical to the
/// same k rounds stepped singly — the per-round documents, the final
/// placement, the cumulative metrics, and the checkpoint file — for
/// every online strategy and for an `events=` schedule that fires in
/// the middle of the batch.
#[test]
fn batch_of_k_equals_k_single_steps_bitwise() {
    let dir = std::env::temp_dir().join(format!("flexserve-batch-bitwise-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: &[(&str, &str, &str)] = &[
        ("onth", "strat=onth", ""),
        ("onbr", "strat=onbr", ""),
        ("offstat", "strat=offstat", ""),
        // The fail-link event at round 6 fires inside the second batch.
        ("evented", "strat=onth", "events=6:fail-link:2-3"),
    ];
    let (addr, handle) = start_daemon(&[
        "topo=unit-line:8",
        "wl=uniform:req=3",
        "strat=onth",
        "rounds=60",
        "seed=3",
        "k=4",
        "max-sessions=16",
    ]);
    for (label, strat, events) in cases {
        let mut base = vec![
            "topo=unit-line:8".to_string(),
            "wl=uniform:req=3".to_string(),
            strat.to_string(),
            "rounds=60".to_string(),
            "seed=3".to_string(),
            "k=4".to_string(),
        ];
        if !events.is_empty() {
            base.push(events.to_string());
        }
        let singles_name = format!("{label}-singles");
        let batch_name = format!("{label}-batch");
        let mut singles_args = base.clone();
        singles_args.push(format!(
            "checkpoint={}",
            dir.join(format!("{singles_name}.json")).display()
        ));
        let mut batch_args = base.clone();
        batch_args.push(format!(
            "checkpoint={}",
            dir.join(format!("{batch_name}.json")).display()
        ));
        create_session(addr, &singles_name, &singles_args);
        create_session(addr, &batch_name, &batch_args);

        // 12 single steps vs a 5-batch and a 7-batch of the same rounds.
        let mut singly = Vec::new();
        for t in 0..12 {
            let (status, body) = http(addr, "POST", &format!("/sessions/{singles_name}/step"), "");
            assert_eq!(status, 200, "{label} single step {t}: {body}");
            singly.push(json(&body).render());
        }
        let mut batched = Vec::new();
        for n in ["{\"n\": 5}", "{\"n\": 7}"] {
            let (status, body) = http(addr, "POST", &format!("/sessions/{batch_name}/step"), n);
            assert_eq!(status, 200, "{label} batch step: {body}");
            match json(&body) {
                JsonValue::Arr(rows) => batched.extend(rows.iter().map(JsonValue::render)),
                other => panic!("{label}: batch reply must be an array, got {other:?}"),
            }
        }
        assert_eq!(batched, singly, "{label}: step bodies must match bitwise");

        // Placement, metrics (timing zeroed), and checkpoint bytes.
        let (_, p1) = http(
            addr,
            "GET",
            &format!("/sessions/{singles_name}/placement"),
            "",
        );
        let (_, p2) = http(
            addr,
            "GET",
            &format!("/sessions/{batch_name}/placement"),
            "",
        );
        assert_eq!(p1, p2, "{label}: placement must match bitwise");
        let (_, m1) = http(
            addr,
            "GET",
            &format!("/sessions/{singles_name}/metrics"),
            "",
        );
        let (_, m2) = http(addr, "GET", &format!("/sessions/{batch_name}/metrics"), "");
        let m1 = normalized(&m1).replace(&singles_name, "X");
        let m2 = normalized(&m2).replace(&batch_name, "X");
        assert_eq!(m1, m2, "{label}: cumulative metrics must match");
        let (s1, c1) = http(
            addr,
            "POST",
            &format!("/sessions/{singles_name}/checkpoint"),
            "",
        );
        let (s2, c2) = http(
            addr,
            "POST",
            &format!("/sessions/{batch_name}/checkpoint"),
            "",
        );
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(
            normalized(&c1),
            normalized(&c2),
            "{label}: checkpoint bytes must match"
        );
    }
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversized_batches_keep_the_error_contract() {
    let ck = std::env::temp_dir().join("flexserve-batch-errors.ckpt.json");
    let ck_arg = format!("checkpoint={}", ck.display());
    let (addr, handle) = start_daemon(&[
        "topo=unit-line:8",
        "wl=uniform:req=3",
        "strat=onth",
        "rounds=40",
        "seed=3",
        "k=4",
        &ck_arg,
    ]);

    // The legacy single-session endpoint takes batches too.
    let (status, body) = http(addr, "POST", "/step", "{\"n\": 2}");
    assert_eq!(status, 200, "{body}");
    match json(&body) {
        JsonValue::Arr(rows) => assert_eq!(rows.len(), 2),
        other => panic!("batch reply must be an array, got {other:?}"),
    }

    // Malformed batches: 400, nothing applied.
    for bad in ["[]", "{\"n\": 0}", "{\"n\": \"three\"}"] {
        let (status, body) = http(addr, "POST", "/step", bad);
        assert_eq!(status, 400, "{bad}: {body}");
    }
    let (status, body) = http(
        addr,
        "POST",
        "/step",
        "[{\"origins\": [1]}, {\"origins\": [99]}]",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("batch[1]"), "{body}");
    let (_, body) = http(addr, "GET", "/placement", "");
    assert_eq!(
        json(&body).get("t").unwrap().as_u64(),
        Some(2),
        "failed batches must not advance t"
    );

    // Oversized batches: 413 in both forms, still under the 16 MiB body
    // cap (this is the round cap firing, not the byte cap).
    let (status, body) = http(addr, "POST", "/step", "{\"n\": 4097}");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("4096"), "{body}");
    let huge = format!("[{}]", vec!["{}"; 4097].join(","));
    let (status, body) = http(addr, "POST", "/step", &huge);
    assert_eq!(status, 413, "{body}");

    // Exhaustion fails a straddling batch whole (410), then serves the
    // restored remainder: 38 rounds remain of 40.
    let (status, body) = http(addr, "POST", "/step", "{\"n\": 39}");
    assert_eq!(status, 410, "{body}");
    let (status, body) = http(addr, "POST", "/step", "{\"n\": 38}");
    assert_eq!(status, 200, "{body}");
    match json(&body) {
        JsonValue::Arr(rows) => {
            assert_eq!(rows.len(), 38);
            assert_eq!(rows[0].get("t").unwrap().as_u64(), Some(2));
        }
        other => panic!("batch reply must be an array, got {other:?}"),
    }

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_file(&ck);
}

/// Reads `Threads:` out of a `/proc/<pid>/status` document.
fn thread_count(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Spawns `flexserve <args>` and returns it with the address it
/// announces on its first stdout line.
fn spawn_announced(args: &[&str]) -> (std::process::Child, SocketAddr) {
    use std::io::BufRead;
    let exe = env!("CARGO_BIN_EXE_flexserve");
    let mut child = std::process::Command::new(exe)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn flexserve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("announcement");
    let rest = line
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in announcement {line:?}"));
    let addr = rest
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .expect("bound address");
    (child, addr)
}

/// Holds `target` idle connections to `child` and checks that it keeps
/// answering `method path` with a 200, that its fd table holds the
/// connections, and that its thread count stays flat.
fn soak(child: &std::process::Child, addr: SocketAddr, target: usize, method: &str, path: &str) {
    // Warm up first so the fixed pools (reactors, workers, reaper) exist
    // before the baseline sample — the soak must not be credited for
    // threads the process always runs.
    let (status, body) = http(addr, method, path, "");
    assert_eq!(status, 200, "{body}");
    let baseline_threads = thread_count(child.id());
    let mut held = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(stream) => held.push(stream),
            Err(e) => panic!("connection {i} of {target} failed: {e}"),
        }
    }

    // It still answers while holding every idle connection...
    let (status, body) = http(addr, method, path, "");
    assert_eq!(status, 200, "{body}");
    // ...its fd table shows the connections are really held...
    let fds = std::fs::read_dir(format!("/proc/{}/fd", child.id()))
        .expect("proc fd dir")
        .count();
    assert!(
        fds >= target,
        "{path} server holds {fds} fds for {target} connections"
    );
    // ...and they cost threads nothing: the reactor pool is fixed.
    let threads = thread_count(child.id());
    assert!(
        threads <= baseline_threads + 2,
        "thread count must not scale with connections \
         (baseline {baseline_threads}, under load {threads})"
    );
    assert!(
        threads < 32,
        "absolute thread bound blown: {threads} threads"
    );
}

/// The connection-scaling contract: ten thousand idle keep-alive
/// connections are held by the fixed reactor pool — the thread count
/// stays flat while the fd count grows with the connections — and
/// requests are still answered under that load. Both tiers run on the
/// same front end, so the serve daemon and a router in front of it are
/// soaked alike. Each runs as a subprocess so the processes' descriptor
/// budgets are independent.
#[test]
#[cfg(target_os = "linux")]
fn ten_thousand_idle_connections_cost_fds_not_threads() {
    let ck = std::env::temp_dir().join("flexserve-batch-soak.ckpt.json");
    let ck_arg = format!("checkpoint={}", ck.display());
    let (mut daemon, addr) = spawn_announced(&[
        "serve",
        "topo=unit-line:8",
        "wl=uniform:req=3",
        "strat=onth",
        "rounds=40",
        "seed=3",
        "k=4",
        "bind=127.0.0.1:0",
        "workers=2",
        "reactor-threads=2",
        // Idle fresh connections live until this deadline; generous so
        // the slow ramp-up below cannot get early connections reaped.
        "request-timeout=120",
        &ck_arg,
    ]);

    let available = raise_nofile_limit();
    // Budget for the client side: our own sockets plus slack for the
    // harness. The test environment caps fds at 20k, which still leaves
    // the full 10k target.
    let target = 10_000.min(available.saturating_sub(512) as usize);
    assert!(
        target >= 4_096,
        "fd limit {available} too low to exercise connection scaling"
    );
    soak(&daemon, addr, target, "POST", "/step");

    // The router in front of that daemon: its listings cross the proxy
    // hop while it holds the same load.
    let (mut router, router_addr) = spawn_announced(&[
        "route",
        &format!("workers={addr}"),
        "bind=127.0.0.1:0",
        "threads=2",
        "health-interval=60",
        "request-timeout=120",
    ]);
    soak(&router, router_addr, target, "GET", "/sessions");

    for (child, addr) in [(&mut router, router_addr), (&mut daemon, addr)] {
        let (status, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        let exit = child.wait().expect("process exit");
        assert!(exit.success(), "{addr} exited with {exit}");
    }
    let _ = std::fs::remove_file(&ck);
}

/// Sessions are data, not threads: each runs on whichever worker serves
/// its request, under its own lock, so creating 32 sessions leaves the
/// daemon's thread count where its fixed pools put it.
#[test]
#[cfg(target_os = "linux")]
fn sessions_cost_no_threads() {
    let dir = std::env::temp_dir().join(format!("flexserve-batch-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cell = [
        "topo=unit-line:8",
        "wl=uniform:req=3",
        "strat=onth",
        "rounds=40",
        "seed=3",
        "k=4",
    ];
    let ck_arg = format!("checkpoint={}", dir.join("default.json").display());
    let mut daemon_args = vec!["serve", "bind=127.0.0.1:0", "workers=2", "max-sessions=40"];
    daemon_args.extend(cell);
    daemon_args.push(&ck_arg);
    let (mut daemon, addr) = spawn_announced(&daemon_args);

    // Warm up first so the fixed pools exist before the baseline sample.
    let (status, body) = http(addr, "POST", "/step", "");
    assert_eq!(status, 200, "{body}");
    let baseline_threads = thread_count(daemon.id());
    for i in 0..32 {
        let name = format!("s{i}");
        let mut args: Vec<String> = cell.iter().map(|s| s.to_string()).collect();
        args.push(format!(
            "checkpoint={}",
            dir.join(format!("{name}.json")).display()
        ));
        create_session(addr, &name, &args);
    }
    let (status, listing) = http(addr, "GET", "/sessions", "");
    let threads = thread_count(daemon.id());
    // Stop the daemon before asserting, so a failure leaves no process.
    let (shutdown, _) = http(addr, "POST", "/shutdown", "");
    let exit = daemon.wait().expect("process exit");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(status, 200, "{listing}");
    assert_eq!(json(&listing).get("count").unwrap().as_u64(), Some(33));
    assert!(
        threads <= baseline_threads + 2,
        "thread count must not scale with sessions \
         (baseline {baseline_threads}, with 32 more sessions {threads})"
    );
    assert_eq!(shutdown, 200);
    assert!(exit.success(), "daemon exited with {exit}");
}
