//! Multi-session daemon guarantees, exercised over real TCP:
//!
//! * two sessions on different topologies, stepped from concurrently
//!   interleaved connections, produce placements **bit-identical** to
//!   each cell served alone (no cross-session interference);
//! * checkpoint + restart (evict/recreate) of one session leaves the
//!   other session untouched;
//! * `flexserve-checkpoint-v1` files written before the v2 metrics bump
//!   still resume;
//! * the session surface's error contract (404/409/429) holds.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

use flexserve_core::initial_center;
use flexserve_experiments::serve::{serve_on, ServeOptions};
use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::CellSpec;
use flexserve_sim::{CostParams, LoadModel, SimSession};
use flexserve_workload::{RequestSource, ScenarioStream};

mod common;
use common::{http, json};

/// Cell A: the daemon's default session.
const CELL_A: [&str; 6] = [
    "topo=unit-line:12",
    "wl=uniform:req=4",
    "strat=onth",
    "rounds=60",
    "seed=5",
    "k=4",
];

/// Cell B: a different substrate, workload sizing and seed.
const CELL_B: [&str; 6] = [
    "topo=star:9",
    "wl=uniform:req=2",
    "strat=onth",
    "rounds=60",
    "seed=9",
    "k=3",
];

fn start_daemon(extra: &[&str]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut args: Vec<String> = CELL_A.iter().map(|s| s.to_string()).collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    let opts = ServeOptions::parse(&args).expect("parse serve args");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_on(listener, &opts).expect("daemon run");
    });
    (addr, handle)
}

/// `POST /sessions` body for cell B under `name`, with optional extra
/// session args (checkpoint=, resume=).
fn create_body(name: &str, extra: &[&str]) -> String {
    let args: Vec<String> = CELL_B
        .iter()
        .chain(extra.iter())
        .map(|a| format!("\"{a}\""))
        .collect();
    format!("{{\"name\":\"{name}\",\"args\":[{}]}}", args.join(","))
}

/// The placement a cell reaches when served alone, stepped `steps` rounds
/// straight off its scenario source — the reference every daemon session
/// must match bit for bit.
fn solo_placement(cell_args: &[&str], steps: usize) -> (u64, Vec<usize>) {
    let lookup = |key: &str| {
        cell_args
            .iter()
            .find_map(|a| a.strip_prefix(&format!("{key}=")))
            .unwrap()
            .to_string()
    };
    let cell = CellSpec::new(
        lookup("topo").parse().unwrap(),
        lookup("wl").parse().unwrap(),
        lookup("strat").parse().unwrap(),
    );
    let seed: u64 = lookup("seed").parse().unwrap();
    let k: usize = lookup("k").parse().unwrap();
    let rounds: u64 = lookup("rounds").parse().unwrap();
    let env = ExperimentEnv::from_spec(&cell.topology, seed).unwrap();
    let ctx = env.context(CostParams::default().with_max_servers(k), LoadModel::Linear);
    let strategy = cell.strategy.instantiate_online(&ctx, seed).unwrap();
    let mut session = SimSession::new(ctx, strategy, initial_center(&ctx));
    let scenario =
        cell.workload
            .instantiate(&env.graph, &env.matrix, cell.t_periods, cell.lambda, seed);
    let mut source = ScenarioStream::new(scenario, Some(rounds));
    for _ in 0..steps {
        let batch = source.next_round().unwrap().unwrap();
        session.step(&batch);
    }
    (
        session.t(),
        session.fleet().active().iter().map(|n| n.index()).collect(),
    )
}

fn assert_placement(addr: SocketAddr, path: &str, expected: &(u64, Vec<usize>), label: &str) {
    let (status, body) = http(addr, "GET", path, "");
    assert_eq!(status, 200, "{label}: {body}");
    let v = json(&body);
    assert_eq!(v.get("t").unwrap().as_u64(), Some(expected.0), "{label}");
    let active: Vec<usize> = v
        .get("active")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|n| n.as_usize().unwrap())
        .collect();
    assert_eq!(
        active, expected.1,
        "{label}: daemon placement must match the solo run"
    );
}

#[test]
fn interleaved_sessions_match_solo_runs_bit_identically() {
    let (addr, handle) = start_daemon(&[]);
    let (status, body) = http(addr, "POST", "/sessions", &create_body("beta", &[]));
    assert_eq!(status, 200, "{body}");
    let info = json(&body);
    assert_eq!(info.get("name").unwrap().as_str(), Some("beta"));
    assert_eq!(info.get("status").unwrap().as_str(), Some("live"));

    // Step both sessions from two concurrent client threads — 30 rounds
    // each, interleaving however the scheduler pleases.
    let steppers: Vec<_> = [
        ("/sessions/default/step", 30u64),
        ("/sessions/beta/step", 30u64),
    ]
    .into_iter()
    .map(|(path, rounds)| {
        std::thread::spawn(move || {
            for t in 0..rounds {
                let (status, body) = http(addr, "POST", path, "");
                assert_eq!(status, 200, "{path} round {t}: {body}");
                assert_eq!(json(&body).get("t").unwrap().as_u64(), Some(t), "{path}");
            }
        })
    })
    .collect();
    for stepper in steppers {
        stepper.join().expect("stepper thread");
    }

    // Both placements are bit-identical to the same cells served alone —
    // concurrency changed nothing.
    assert_placement(
        addr,
        "/sessions/default/placement",
        &solo_placement(&CELL_A, 30),
        "default",
    );
    assert_placement(
        addr,
        "/sessions/beta/placement",
        &solo_placement(&CELL_B, 30),
        "beta",
    );
    // the legacy alias reads the same default session
    assert_placement(
        addr,
        "/placement",
        &solo_placement(&CELL_A, 30),
        "legacy alias",
    );

    // The listing names both sessions with their cell specs.
    let (status, body) = http(addr, "GET", "/sessions", "");
    assert_eq!(status, 200);
    let list = json(&body);
    assert_eq!(list.get("count").unwrap().as_u64(), Some(2));
    let sessions = list.get("sessions").unwrap().as_array().unwrap();
    let names: Vec<&str> = sessions
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["beta", "default"], "sorted by name");
    assert!(sessions[0]
        .get("spec")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("star:9"));
    assert!(sessions[1]
        .get("spec")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unit-line:12"));

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn per_session_checkpoint_restart_leaves_the_other_untouched() {
    let ck: PathBuf = std::env::temp_dir().join("flexserve-serve-sessions-beta.ckpt.json");
    let _ = std::fs::remove_file(&ck);
    let ck_arg = format!("checkpoint={}", ck.display());

    let (addr, handle) = start_daemon(&[]);
    let (status, body) = http(addr, "POST", "/sessions", &create_body("beta", &[&ck_arg]));
    assert_eq!(status, 200, "{body}");

    for _ in 0..20 {
        let (status, _) = http(addr, "POST", "/sessions/default/step", "");
        assert_eq!(status, 200);
        let (status, _) = http(addr, "POST", "/sessions/beta/step", "");
        assert_eq!(status, 200);
    }

    // Checkpoint and evict beta; default keeps its position throughout.
    let default_placement = solo_placement(&CELL_A, 20);
    assert_placement(
        addr,
        "/sessions/default/placement",
        &default_placement,
        "default@20",
    );
    let (status, ck_body) = http(addr, "POST", "/sessions/beta/checkpoint", "");
    assert_eq!(status, 200, "{ck_body}");
    assert!(ck_body.contains(flexserve_sim::CHECKPOINT_FORMAT));
    let (status, body) = http(addr, "DELETE", "/sessions/beta", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    assert_eq!(v.get("rounds_served").unwrap().as_u64(), Some(20));
    assert_eq!(v.get("final_t").unwrap().as_u64(), Some(20));
    let (status, _) = http(addr, "GET", "/sessions/beta/placement", "");
    assert_eq!(status, 404, "evicted session must be gone");

    // Restart beta from its checkpoint — mid-daemon, no daemon restart.
    let resume_body = create_body("beta", &[&ck_arg, "resume=true"]);
    let (status, body) = http(addr, "POST", "/sessions", &resume_body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("resumed_at").unwrap().as_u64(), Some(20));
    // cumulative metrics carried over the restart (v2 checkpoint)
    let (_, body) = http(addr, "GET", "/sessions/beta/metrics", "");
    let metrics = json(&body);
    assert_eq!(metrics.get("rounds_served").unwrap().as_u64(), Some(0));
    assert_eq!(
        metrics
            .get("cumulative")
            .unwrap()
            .get("rounds_served")
            .unwrap()
            .as_u64(),
        Some(20)
    );

    for _ in 0..20 {
        let (status, _) = http(addr, "POST", "/sessions/beta/step", "");
        assert_eq!(status, 200);
    }
    // Beta continued exactly where an uninterrupted solo run would be…
    assert_placement(
        addr,
        "/sessions/beta/placement",
        &solo_placement(&CELL_B, 40),
        "beta@40",
    );
    // …and default never noticed any of it.
    assert_placement(
        addr,
        "/sessions/default/placement",
        &default_placement,
        "default after",
    );

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn v1_checkpoint_files_resume_over_http() {
    // Fabricate a pre-v2 checkpoint: play cell A solo for 10 rounds and
    // write its snapshot with the old format tag (a v1 document is a v2
    // document minus the metrics block, which a bare SimSession snapshot
    // does not carry anyway).
    let cell = CellSpec::new(
        "unit-line:12".parse().unwrap(),
        "uniform:req=4".parse().unwrap(),
        "onth".parse().unwrap(),
    );
    let env = ExperimentEnv::from_spec(&cell.topology, 5).unwrap();
    let ctx = env.context(CostParams::default().with_max_servers(4), LoadModel::Linear);
    let strategy = cell.strategy.instantiate_online(&ctx, 5).unwrap();
    let mut session = SimSession::new(ctx, strategy, initial_center(&ctx));
    let scenario =
        cell.workload
            .instantiate(&env.graph, &env.matrix, cell.t_periods, cell.lambda, 5);
    let mut source = ScenarioStream::new(scenario, Some(60));
    for _ in 0..10 {
        let batch = source.next_round().unwrap().unwrap();
        session.step(&batch);
    }
    let v1_text = session.snapshot().unwrap().to_json().replace(
        flexserve_sim::CHECKPOINT_FORMAT,
        flexserve_sim::CHECKPOINT_FORMAT_V1,
    );
    assert!(v1_text.contains("flexserve-checkpoint-v1"));
    let ck: PathBuf = std::env::temp_dir().join("flexserve-serve-sessions-v1.ckpt.json");
    std::fs::write(&ck, &v1_text).unwrap();

    let ck_arg = format!("checkpoint={}", ck.display());
    let (addr, handle) = start_daemon(&[&ck_arg, "resume=true"]);
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = json(&body);
    assert_eq!(metrics.get("resumed_at").unwrap().as_u64(), Some(10));
    // v1 carries no cost totals, but the round counter is exact
    assert_eq!(
        metrics
            .get("cumulative")
            .unwrap()
            .get("rounds_served")
            .unwrap()
            .as_u64(),
        Some(10)
    );
    for _ in 0..10 {
        let (status, _) = http(addr, "POST", "/step", "");
        assert_eq!(status, 200);
    }
    assert_placement(
        addr,
        "/placement",
        &solo_placement(&CELL_A, 20),
        "v1 resume",
    );

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn session_surface_error_contract() {
    let (addr, handle) = start_daemon(&["max-sessions=2"]);

    // unknown session: 404 on every scoped route
    for (method, path) in [
        ("POST", "/sessions/ghost/step"),
        ("GET", "/sessions/ghost/placement"),
        ("GET", "/sessions/ghost/metrics"),
        ("POST", "/sessions/ghost/checkpoint"),
        ("DELETE", "/sessions/ghost"),
    ] {
        let (status, body) = http(addr, method, path, "");
        assert_eq!(status, 404, "{method} {path}: {body}");
    }

    // duplicate name: 409
    let (status, body) = http(addr, "POST", "/sessions", &create_body("default", &[]));
    assert_eq!(status, 409, "{body}");

    // capacity: max-sessions=2 is full after default + beta
    let (status, _) = http(addr, "POST", "/sessions", &create_body("beta", &[]));
    assert_eq!(status, 200);
    let (status, body) = http(addr, "POST", "/sessions", &create_body("gamma", &[]));
    assert_eq!(status, 429, "{body}");
    // …and frees up after an eviction
    let (status, _) = http(addr, "DELETE", "/sessions/beta", "");
    assert_eq!(status, 200);
    let (status, body) = http(addr, "POST", "/sessions", &create_body("gamma", &[]));
    assert_eq!(status, 200, "{body}");

    // malformed creation bodies: 400
    for bad in [
        "",
        "{}",
        r#"{"name":"x","args":["topo=er:50"]}"#,
        r#"{"name":"bad/name","args":[]}"#,
    ] {
        let (status, body) = http(addr, "POST", "/sessions", bad);
        assert_eq!(status, 400, "{bad:?}: {body}");
    }

    // the 404 endpoint inventory names the session routes
    let (status, body) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("POST /sessions"), "{body}");

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap();
}
