//! Before/after perf harness: times the serial reference against the
//! optimized implementation of the measured hot paths — the all-pairs
//! `DistanceMatrix` build plus its incremental single-event repair
//! (500-node Waxman), one 20-seed sweep cell, the strategy hot path's
//! one-pass transposed candidate scan vs the naive per-candidate
//! window rescan (same 500-node Waxman, 240-round commuter window),
//! a cold-vs-warm substrate
//! fetch through the distance-matrix cache, the batch-vs-stepped game
//! loop (`run_online` vs `SimSession::step`),
//! sequential-vs-concurrent multi-session stepping through the serve
//! daemon's `SessionManager`, the cluster-mode routing tax
//! (stepping a session directly against its worker vs through the
//! `flexserve route` tier), the batched-stepping win of the serve
//! daemon (`{"n": k}` batch bodies vs one round per request over real
//! TCP) and the event-driven front end's connection scaling (a
//! subprocess daemon holding thousands of idle keep-alive connections
//! on its fixed reactor pool) — and records the results as
//! `BENCH_apsp.json` (an array: full build, repair-vs-rebuild),
//! `BENCH_sweeps.json` (an array: sweep cell, candidate scan, trace
//! sharing), `BENCH_trace.json` (packed-vs-JSONL trace
//! ingestion, see docs/TRACES.md), `BENCH_cache.json` and
//! `BENCH_serve.json` (an array of the five serving benches) in the
//! repository root (schema: docs/BENCHMARKS.md).
//!
//! Usage: `cargo run --release -p flexserve-bench --bin perf_report`.
//!
//! Speedup scales with the worker count (`RAYON_NUM_THREADS`, default =
//! available cores); the JSON records the thread count alongside the
//! timings so numbers from different machines are comparable.

use std::io::Write as _;
use std::time::Instant;

use flexserve_bench::{sweep_cell, waxman_env, SWEEP_SEEDS};
use flexserve_core::{access_cost_window, initial_center, EpochWindow, OnTh, WindowIndex};
use flexserve_experiments::serve::route::proxy::http_call;
use flexserve_experiments::serve::{route, serve_on, ServeOptions, SessionConfig, SessionManager};
use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::{
    average, average_serial, DistCache, StrategySpec, TopologySpec, TraceCache, TraceKey,
};
use flexserve_graph::{DistanceMatrix, NodeId};
use flexserve_sim::{run_online, CostParams, LoadModel, SimContext, SimSession};
use flexserve_workload::{
    file_source, pack_jsonl_file, record, CommuterScenario, LoadVariant, PackedReplay, PackedTrace,
    RequestSource, DEFAULT_WINDOW_ROUNDS,
};

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One report object. `extra` is appended verbatim after the standard
/// fields (`,\n  "key": value` pairs), keeping every entry a flat object.
fn entry_json(name: &str, serial_s: f64, parallel_s: f64, detail: &str, extra: &str) -> String {
    let threads = rayon::current_num_threads();
    let speedup = serial_s / parallel_s;
    // 9 decimals: warm cache fetches are sub-microsecond, and the schema
    // promises speedup == serial_seconds / parallel_seconds is
    // reproducible from the recorded values.
    format!(
        "{{\n  \"bench\": \"{name}\",\n  \"detail\": \"{detail}\",\n  \"threads\": {threads},\n  \"serial_seconds\": {serial_s:.9},\n  \"parallel_seconds\": {parallel_s:.9},\n  \"speedup\": {speedup:.3}{extra}\n}}"
    )
}

fn write_file(path: &str, content: &str) {
    let mut f = std::fs::File::create(path).expect("create report");
    f.write_all(content.as_bytes()).expect("write report");
}

fn announce(path: &str, name: &str, serial_s: f64, parallel_s: f64) {
    println!(
        "{name}: serial {serial_s:.3}s, parallel {parallel_s:.3}s, speedup {:.2}x \
         on {} thread(s) -> {path}",
        serial_s / parallel_s,
        rayon::current_num_threads()
    );
}

fn write_report(path: &str, name: &str, serial_s: f64, parallel_s: f64, detail: &str) {
    let mut json = entry_json(name, serial_s, parallel_s, detail, "");
    json.push('\n');
    write_file(path, &json);
    announce(path, name, serial_s, parallel_s);
}

fn main() {
    let reps = 5;

    // --- APSP: 500-node Waxman ----------------------------------------
    let g = waxman_env(500, 7);
    let serial = time_median(reps, || {
        std::hint::black_box(DistanceMatrix::build_serial(&g));
    });
    let parallel = time_median(reps, || {
        std::hint::black_box(DistanceMatrix::build(&g));
    });
    let apsp_entry = entry_json(
        "apsp_build",
        serial,
        parallel,
        "DistanceMatrix::build on a 500-node Waxman substrate (CSR + per-thread scratch)",
        "",
    );
    announce("BENCH_apsp.json", "apsp_build", serial, parallel);

    // --- APSP repair vs rebuild: single link event ----------------------
    // The substrate-event plane's hot path: one link fails mid-run and
    // the distance matrix must catch up. "Serial" is the full rebuild
    // every event would otherwise pay; "parallel" is the incremental
    // `DistanceMatrix::repair`, re-running Dijkstra only from the dirty
    // source rows (proptest-pinned bitwise-identical to the rebuild).
    let edge = g.edges().next().expect("waxman substrate has edges");
    let mut failed = g.clone();
    failed
        .set_edge_latency(edge.source, edge.target, f64::INFINITY)
        .expect("edge exists");
    let update = flexserve_graph::EdgeUpdate {
        a: edge.source,
        b: edge.target,
        old_latency: edge.latency,
        new_latency: f64::INFINITY,
    };
    let full = DistanceMatrix::build(&g);
    let rows_repaired = {
        let mut m = full.clone();
        m.repair(&failed, &[update])
    };
    let rebuild = time_median(reps, || {
        std::hint::black_box(DistanceMatrix::build(&failed));
    });
    // The pre-event matrices are cloned outside the timed closure: repair
    // mutates in place, and the clone is not part of the repaired path's
    // cost (a live session already owns its matrix).
    let mut pool: Vec<DistanceMatrix> = (0..reps).map(|_| full.clone()).collect();
    let repair = time_median(reps, || {
        let mut m = pool.pop().expect("one pre-cloned matrix per rep");
        std::hint::black_box(m.repair(&failed, &[update]));
    });
    let extra = format!(
        ",\n  \"rows_repaired\": {rows_repaired},\n  \"rows_total\": {}",
        g.node_count()
    );
    let repair_entry = entry_json(
        "repair_vs_rebuild",
        rebuild,
        repair,
        "single link failure on the 500-node Waxman substrate: full \
         DistanceMatrix::build vs incremental repair of the dirty source rows",
        &extra,
    );
    announce("BENCH_apsp.json", "repair_vs_rebuild", rebuild, repair);
    write_file(
        "BENCH_apsp.json",
        &format!("[\n{apsp_entry},\n{repair_entry}\n]\n"),
    );

    // --- Sweep cell: 20 seeds -----------------------------------------
    let env = ExperimentEnv::erdos_renyi(100, 3);
    let seeds: Vec<u64> = (0..SWEEP_SEEDS).collect();
    let serial = time_median(reps, || {
        std::hint::black_box(average_serial(&seeds, |seed| sweep_cell(&env, seed)));
    });
    let parallel = time_median(reps, || {
        std::hint::black_box(average(&seeds, |seed| sweep_cell(&env, seed)));
    });
    let sweep_entry = entry_json(
        "sweep_cell",
        serial,
        parallel,
        "20-seed ONTH commuter cell (ER-100 substrate, 240 rounds) through runner::average",
        "",
    );
    announce("BENCH_sweeps.json", "sweep_cell", serial, parallel);

    // --- Trace sharing: 3-strategy figure cell --------------------------
    // The shared-trace evaluation plane's saving: a figure cell evaluates
    // k strategies on the *same* demand, which used to be regenerated and
    // re-recorded per strategy. "Serial" is the independent plane (each
    // strategy records its own workload); "parallel" is the shared plane
    // (one recording through a TraceCache, every strategy reads the
    // Arc-held rounds). The simulation itself still runs per strategy, so
    // the bound is k·(record+run) / (record + k·run).
    const TRACE_STRATEGIES: [StrategySpec; 3] = [
        StrategySpec::OnTh,
        StrategySpec::OnBrFixed,
        StrategySpec::OnBrDyn,
    ];
    const TRACE_ROUNDS: u64 = 240;
    let trace_ctx = env.context(CostParams::default(), LoadModel::Linear);
    let record_fresh = || {
        let mut scenario =
            CommuterScenario::with_matrix(&env.graph, &env.matrix, 8, 5, LoadVariant::Dynamic, 11);
        record(&mut scenario, TRACE_ROUNDS)
    };
    let independent = time_median(reps, || {
        for strat in TRACE_STRATEGIES {
            let trace = record_fresh();
            std::hint::black_box(strat.run(&trace_ctx, &trace, 11));
        }
    });
    let shared = time_median(reps, || {
        let cache = TraceCache::with_capacity_bytes(TraceCache::DEFAULT_CAPACITY_BYTES);
        let key = TraceKey {
            substrate: env.graph.fingerprint(),
            workload: "commuter-dynamic".into(),
            t_periods: 8,
            lambda: 5,
            rounds: TRACE_ROUNDS,
            seed: 11,
        };
        // Every strategy fetches, as grouped cells do: the first records,
        // the rest hit.
        for strat in TRACE_STRATEGIES {
            let trace = cache.get_or_record(key.clone(), record_fresh);
            std::hint::black_box(strat.run(&trace_ctx, &trace, 11));
        }
    });
    // The removed k× term on its own: one demand materialization.
    let record_s = time_median(reps, || {
        std::hint::black_box(record_fresh());
    });
    let extra = format!(
        ",\n  \"strategies\": {},\n  \"rounds\": {TRACE_ROUNDS},\n  \
         \"record_seconds\": {record_s:.9}",
        TRACE_STRATEGIES.len()
    );
    let trace_entry = entry_json(
        "trace_sharing",
        independent,
        shared,
        "3-strategy figure cell (ONTH+ONBR-fixed+ONBR-dyn, ER-100 commuter-dynamic, \
         240 rounds): per-strategy demand recording vs one TraceCache-shared trace",
        &extra,
    );
    announce("BENCH_sweeps.json", "trace_sharing", independent, shared);

    // --- Candidate scan: naive rescan vs one-pass transposed scoring -----
    // The strategy hot path (docs/ARCHITECTURE.md "strategy hot path"):
    // scoring every A ∪ {v} addition candidate over an epoch window.
    // "Serial" is the naive per-candidate rescan every strategy used to
    // pay — access_cost_window on the extended active set, once per
    // inactive node; "parallel" is the WindowIndex one-pass scan:
    // rebuild (included, strategies pay it per epoch) + one transposed
    // sweep scoring all candidates. Both are timed on an ONTH-shaped
    // cell — the 500-node Waxman substrate from the APSP bench, a
    // 240-round commuter window, 8 active servers — and the harness
    // asserts the argmin (v, cost) agrees before reporting (the scan is
    // proptest-pinned bitwise in crates/core/tests/candidate_scan.rs).
    const SCAN_ROUNDS: u64 = 240;
    const SCAN_SERVERS: usize = 8;
    let scan_ctx = SimContext::new(&g, &full, CostParams::default(), LoadModel::Linear);
    let scan_window = {
        let mut scenario = CommuterScenario::with_matrix(&g, &full, 8, 5, LoadVariant::Dynamic, 11);
        let trace = record(&mut scenario, SCAN_ROUNDS);
        let mut w = EpochWindow::new();
        for round in trace.iter() {
            w.push(round);
        }
        w
    };
    let active: Vec<NodeId> = (0..SCAN_SERVERS)
        .map(|i| NodeId::new(i * g.node_count() / SCAN_SERVERS))
        .collect();
    let candidates: Vec<NodeId> = g.nodes().filter(|v| !active.contains(v)).collect();
    let naive_scan = || -> (NodeId, f64) {
        let mut with_v = active.clone();
        with_v.push(candidates[0]);
        let mut best: Option<(NodeId, f64)> = None;
        for &v in &candidates {
            *with_v.last_mut().unwrap() = v;
            let cost = access_cost_window(&scan_ctx, &with_v, &scan_window);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((v, cost));
            }
        }
        best.expect("at least one candidate")
    };
    let one_pass = |index: &mut WindowIndex, scores: &mut Vec<f64>, counts: &mut Vec<usize>| {
        index.rebuild(&scan_ctx, &active, &scan_window);
        index.score_all_additions(&scan_ctx, &candidates, scores, counts);
        let mut best: Option<(NodeId, f64)> = None;
        for (j, &v) in candidates.iter().enumerate() {
            if best.is_none_or(|(_, c)| scores[j] < c) {
                best = Some((v, scores[j]));
            }
        }
        best.expect("at least one candidate")
    };
    let mut index = WindowIndex::new();
    let (mut scores, mut counts) = (Vec::new(), Vec::new());
    let naive_best = naive_scan();
    let scan_best = one_pass(&mut index, &mut scores, &mut counts);
    assert_eq!(naive_best.0, scan_best.0, "scan argmin drifted");
    assert_eq!(
        naive_best.1.to_bits(),
        scan_best.1.to_bits(),
        "scan cost not bit-identical"
    );
    let naive_s = time_median(reps, || {
        std::hint::black_box(naive_scan());
    });
    let scan_s = time_median(reps, || {
        std::hint::black_box(one_pass(&mut index, &mut scores, &mut counts));
    });
    let extra = format!(
        ",\n  \"candidates\": {},\n  \"rounds\": {SCAN_ROUNDS},\n  \"servers\": {SCAN_SERVERS}",
        candidates.len()
    );
    let scan_entry = entry_json(
        "candidate_scan",
        naive_s,
        scan_s,
        "epoch candidate scoring on a 500-node Waxman ONTH cell (240-round \
         commuter window, 8 servers): naive per-candidate access_cost_window \
         rescan vs WindowIndex rebuild + one-pass transposed scan (bitwise \
         argmin asserted)",
        &extra,
    );
    announce("BENCH_sweeps.json", "candidate_scan", naive_s, scan_s);
    write_file(
        "BENCH_sweeps.json",
        &format!("[\n{sweep_entry},\n{scan_entry},\n{trace_entry}\n]\n"),
    );

    // --- Packed trace plane: JSONL parse vs packed replay ---------------
    // The trace-ingestion saving of `flexserve trace pack`
    // (docs/TRACES.md): one million synthetic rounds written as JSONL,
    // packed once into `flexserve-trace-v1`, then fully consumed through
    // both replay sources. "Serial" is the JSONL parse (per-line JSON +
    // fold); "parallel" is the packed replay (mmap + varint frames).
    // The extra fields record the pack ratio and the resident bytes of
    // one DEFAULT_WINDOW_ROUNDS replay window — the O(window) footprint
    // a million-round serve session actually holds.
    const PACK_ROUNDS: u64 = 1_000_000;
    const PACK_UNIVERSE: usize = 100;
    let tmp = |name: &str| {
        std::env::temp_dir()
            .join(format!("flexserve-perf-{name}"))
            .display()
            .to_string()
    };
    let jsonl_path = tmp("trace.jsonl");
    let pack_path = tmp("trace.ftr");
    {
        // Stream-generate the JSONL (never materialize the trace): a few
        // deterministic origins per round, like a recorded demand file.
        let file = std::fs::File::create(&jsonl_path).expect("create bench jsonl");
        let mut out = std::io::BufWriter::new(file);
        for t in 0..PACK_ROUNDS {
            let a = (t * 7) % PACK_UNIVERSE as u64;
            let b = (t * 13 + 5) % PACK_UNIVERSE as u64;
            writeln!(out, "{{\"t\":{t},\"origins\":[{a},{a},{b},{}]}}", t % 10)
                .expect("write bench jsonl");
        }
        out.flush().expect("flush bench jsonl");
    }
    let pack_s = time_median(reps, || {
        std::hint::black_box(pack_jsonl_file(&jsonl_path, &pack_path).expect("pack bench jsonl"));
    });
    let jsonl_bytes = std::fs::metadata(&jsonl_path).expect("jsonl meta").len();
    let packed_bytes = std::fs::metadata(&pack_path).expect("pack meta").len();
    let consume = |source: &mut dyn RequestSource| {
        let mut rounds = 0u64;
        while let Some(round) = source.next_round().expect("replay round") {
            std::hint::black_box(&round);
            rounds += 1;
        }
        assert_eq!(rounds, PACK_ROUNDS);
    };
    let jsonl_parse = time_median(reps, || {
        let mut source = file_source(&jsonl_path, PACK_UNIVERSE).expect("open bench jsonl");
        consume(&mut source);
    });
    let packed_replay = time_median(reps, || {
        let mut source = PackedReplay::open(&pack_path, PACK_UNIVERSE).expect("open bench pack");
        consume(&mut source);
    });
    let resident_window_bytes = PackedTrace::open(&pack_path)
        .expect("open bench pack")
        .window(PACK_ROUNDS / 2, DEFAULT_WINDOW_ROUNDS)
        .expect("bench window")
        .memory_bytes();
    println!(
        "trace pack: {jsonl_bytes} JSONL bytes -> {packed_bytes} packed ({:.1}x), \
         one {DEFAULT_WINDOW_ROUNDS}-round window resident = {resident_window_bytes} bytes",
        jsonl_bytes as f64 / packed_bytes as f64
    );
    let extra = format!(
        ",\n  \"rounds\": {PACK_ROUNDS},\n  \"jsonl_bytes\": {jsonl_bytes},\n  \
         \"packed_bytes\": {packed_bytes},\n  \"pack_ratio\": {:.3},\n  \
         \"pack_seconds\": {pack_s:.9},\n  \"window_rounds\": {DEFAULT_WINDOW_ROUNDS},\n  \
         \"resident_window_bytes\": {resident_window_bytes}",
        jsonl_bytes as f64 / packed_bytes as f64
    );
    let pack_entry = entry_json(
        "trace_pack",
        jsonl_parse,
        packed_replay,
        "one million synthetic rounds consumed end to end: JSONL parse \
         (file_source) vs flexserve-trace-v1 packed replay (PackedReplay, \
         mmap + varint frames); extra fields record the pack ratio and the \
         resident bytes of one default replay window",
        &extra,
    );
    announce("BENCH_trace.json", "trace_pack", jsonl_parse, packed_replay);
    write_file("BENCH_trace.json", &format!("[\n{pack_entry}\n]\n"));
    std::fs::remove_file(&jsonl_path).ok();
    std::fs::remove_file(&pack_path).ok();

    // --- Distance-matrix cache: cold vs warm substrate fetch ------------
    // The multi-figure redundancy the cache removes: the same (topology,
    // seed) substrate requested again (as every extra algorithm or
    // workload on one substrate does) costs a map lookup instead of a
    // full graph build + APSP.
    let cache = DistCache::with_capacity_bytes(DistCache::DEFAULT_CAPACITY_BYTES);
    let spec: TopologySpec = "er:300".parse().expect("valid spec");
    let key = spec.to_string();
    let cold = time_median(reps, || {
        cache.clear();
        std::hint::black_box(
            cache
                .get_or_build(&key, 11, || spec.build(11))
                .expect("er:300 builds"),
        );
    });
    cache.clear();
    cache
        .get_or_build(&key, 11, || spec.build(11))
        .expect("er:300 builds");
    let warm = time_median(reps, || {
        std::hint::black_box(
            cache
                .get_or_build(&key, 11, || spec.build(11))
                .expect("er:300 builds"),
        );
    });
    write_report(
        "BENCH_cache.json",
        "dist_cache",
        cold,
        warm,
        "ER-300 substrate fetch through DistCache: cold build+APSP vs warm cache hit",
    );

    // --- Serving: batch loop vs stepped SimSession ----------------------
    // `run_online` is a thin wrapper over `SimSession::step`, so the
    // stepper must cost the same per round as the batch loop it replaced
    // (speedup ~1.0 = the serving refactor is free). The recorded
    // `parallel_seconds / rounds` is the per-round `/step` latency floor
    // of the `flexserve serve` daemon.
    let serve_env = ExperimentEnv::erdos_renyi(100, 3);
    let serve_rounds: u64 = 240;
    let ctx = serve_env.context(CostParams::default(), LoadModel::Linear);
    let mut scenario = CommuterScenario::with_matrix(
        &serve_env.graph,
        &serve_env.matrix,
        8,
        5,
        LoadVariant::Dynamic,
        11,
    );
    let trace = record(&mut scenario, serve_rounds);
    let batch = time_median(reps, || {
        let mut strat = OnTh::new();
        std::hint::black_box(run_online(&ctx, &trace, &mut strat, initial_center(&ctx)));
    });
    let stepped = time_median(reps, || {
        let mut session = SimSession::new(ctx, OnTh::new(), initial_center(&ctx));
        for round in trace.iter() {
            std::hint::black_box(session.step(round));
        }
    });
    println!(
        "per-round SimSession::step latency: {:.1} us over {serve_rounds} rounds",
        stepped / serve_rounds as f64 * 1e6
    );
    let step_entry = entry_json(
        "serve_step",
        batch,
        stepped,
        "ONTH commuter run (ER-100, 240 rounds): batch run_online vs stepped \
         SimSession::step (per-round serve latency = parallel_seconds / 240)",
        "",
    );
    announce("BENCH_serve.json", "serve_step", batch, stepped);

    // --- Serving: multi-session throughput through the SessionManager ---
    // The serve daemon's concurrency claim, measured: 4 sessions on the
    // same cached ER-100 substrate, each stepped SESSION_ROUNDS rounds
    // through SessionManager::step (the full actor-channel serving path),
    // once one session after another ("serial") and once from 4
    // concurrent driver threads, as the HTTP worker pool would
    // ("parallel"). Sessions share no mutable state, so the concurrent
    // aggregate should scale with cores.
    const SESSIONS: usize = 4;
    const SESSION_ROUNDS: u64 = 240;
    let session_args: Vec<String> = [
        "topo=er:100",
        "wl=commuter-dynamic",
        "strat=onth",
        "rounds=240",
        "seed=3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let run_sessions = |concurrent: bool| -> f64 {
        let manager = SessionManager::new(SESSIONS);
        let names: Vec<String> = (0..SESSIONS).map(|i| format!("bench-{i}")).collect();
        for name in &names {
            let cfg = SessionConfig::parse(&session_args, name).expect("session args");
            manager.create(name, cfg).expect("session creation");
        }
        let t = Instant::now();
        if concurrent {
            std::thread::scope(|scope| {
                for name in &names {
                    scope.spawn(|| {
                        for _ in 0..SESSION_ROUNDS {
                            manager.step(name, "").expect("step");
                        }
                    });
                }
            });
        } else {
            for name in &names {
                for _ in 0..SESSION_ROUNDS {
                    manager.step(name, "").expect("step");
                }
            }
        }
        let secs = t.elapsed().as_secs_f64();
        manager.shutdown_all();
        secs
    };
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    let sequential = median((0..reps).map(|_| run_sessions(false)).collect());
    let concurrent = median((0..reps).map(|_| run_sessions(true)).collect());
    let total_steps = (SESSIONS as u64 * SESSION_ROUNDS) as f64;
    println!(
        "multi-session aggregate: {:.0} steps/s sequential, {:.0} steps/s over \
         {SESSIONS} concurrent sessions",
        total_steps / sequential,
        total_steps / concurrent
    );
    let extra = format!(
        ",\n  \"sessions\": {SESSIONS},\n  \"rounds_per_session\": {SESSION_ROUNDS},\n  \
         \"steps_per_sec_sequential\": {:.1},\n  \"steps_per_sec_concurrent\": {:.1}",
        total_steps / sequential,
        total_steps / concurrent
    );
    let sessions_entry = entry_json(
        "serve_sessions",
        sequential,
        concurrent,
        "4 ONTH commuter sessions (shared ER-100 substrate, 240 rounds each) \
         through SessionManager::step: one-after-another vs 4 concurrent \
         driver threads (aggregate steps/sec in the extra fields)",
        &extra,
    );
    announce("BENCH_serve.json", "serve_sessions", sequential, concurrent);

    // --- Serving: cluster-mode routing tax -------------------------------
    // What `flexserve route` costs per request: the same session stepped
    // over real TCP, once directly against its serve worker ("serial")
    // and once through a router fronting that worker ("parallel" — one
    // placement lookup plus one proxied hop on top, so the speedup is
    // expected below 1.0; the entry bounds the tax). Explicit-body steps
    // keep the measurement independent of the session's source cap.
    const ROUTE_ROUNDS: u64 = 240;
    let proxy_timeout = std::time::Duration::from_secs(5);
    let ck = |name: &str| {
        std::env::temp_dir()
            .join(format!("flexserve-perf-{name}.json"))
            .display()
            .to_string()
    };
    let worker_listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind bench worker");
    let worker_addr = format!(
        "127.0.0.1:{}",
        worker_listener.local_addr().expect("worker addr").port()
    );
    let worker_args: Vec<String> = [
        "topo=er:100".to_string(),
        "wl=commuter-dynamic".to_string(),
        "strat=onth".to_string(),
        "rounds=240".to_string(),
        "seed=3".to_string(),
        format!("checkpoint={}", ck("route-default")),
    ]
    .to_vec();
    let worker_thread = std::thread::spawn(move || {
        let opts = ServeOptions::parse(&worker_args).expect("worker args");
        serve_on(worker_listener, &opts).expect("bench worker");
    });
    let router_listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind bench router");
    let router_addr = format!(
        "127.0.0.1:{}",
        router_listener.local_addr().expect("router addr").port()
    );
    let route_args: Vec<String> = vec![
        format!("workers={worker_addr}"),
        // keep the health loop out of the timed window
        "health-interval=60".to_string(),
    ];
    let router_thread = std::thread::spawn(move || {
        let opts = route::RouteOptions::parse(&route_args).expect("route args");
        route::run_on(router_listener, &opts).expect("bench router");
    });
    let create = format!(
        "{{\"name\": \"route-bench\", \"args\": [\"topo=er:100\", \"wl=commuter-dynamic\", \
         \"strat=onth\", \"rounds=240\", \"seed=3\", \"checkpoint={}\"]}}",
        ck("route-bench")
    );
    let (status, body) =
        http_call(&router_addr, "POST", "/sessions", &create, proxy_timeout).expect("create");
    assert_eq!(status, 200, "create via router: {body}");
    let round = "{\"origins\": [3, 17]}";
    let step_path = "/sessions/route-bench/step";
    let step_loop = |addr: &str| {
        for _ in 0..ROUTE_ROUNDS {
            let (status, body) =
                http_call(addr, "POST", step_path, round, proxy_timeout).expect("step");
            assert_eq!(status, 200, "step via {addr}: {body}");
        }
    };
    let direct = time_median(reps, || step_loop(&worker_addr));
    let routed = time_median(reps, || step_loop(&router_addr));
    println!(
        "routing tax: {:.1} us/step direct, {:.1} us/step through the router",
        direct / ROUTE_ROUNDS as f64 * 1e6,
        routed / ROUTE_ROUNDS as f64 * 1e6
    );
    let extra = format!(
        ",\n  \"rounds\": {ROUTE_ROUNDS},\n  \"steps_per_sec_direct\": {:.1},\n  \
         \"steps_per_sec_routed\": {:.1}",
        ROUTE_ROUNDS as f64 / direct,
        ROUTE_ROUNDS as f64 / routed
    );
    let route_entry = entry_json(
        "route_overhead",
        direct,
        routed,
        "one ONTH commuter session (ER-100) stepped 240 rounds over TCP: \
         directly against its serve worker vs through the flexserve route \
         tier (per-request routing tax; speedup below 1.0 expected)",
        &extra,
    );
    announce("BENCH_serve.json", "route_overhead", direct, routed);
    let (status, _) =
        http_call(&router_addr, "POST", "/shutdown", "", proxy_timeout).expect("router shutdown");
    assert_eq!(status, 200);
    let (status, _) =
        http_call(&worker_addr, "POST", "/shutdown", "", proxy_timeout).expect("worker shutdown");
    assert_eq!(status, 200);
    router_thread.join().expect("router thread");
    worker_thread.join().expect("worker thread");

    // --- Serving: batched stepping over real TCP -------------------------
    // What the `{"n": k}` batch body buys: on a cell whose simulation step
    // is cheap (unit-line:8, ~1-2 us), a single-round `POST /step` is
    // dominated by HTTP framing plus the actor-channel hop. "Serial" steps
    // BATCHED_TOTAL source-driven rounds one request per round (over a
    // warm keep-alive connection); "parallel" steps the same number of
    // rounds in BATCH_SIZE-round batches — one request and one channel
    // hop per batch, bit-identical bodies (tests/serve_batch.rs).
    const BATCH_SIZE: u64 = 256;
    const BATCHED_TOTAL: u64 = 1024;
    let batch_listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind batch bench");
    let batch_addr = format!(
        "127.0.0.1:{}",
        batch_listener.local_addr().expect("batch addr").port()
    );
    let batch_args: Vec<String> = [
        "topo=unit-line:8".to_string(),
        "wl=uniform:req=3".to_string(),
        "strat=onth".to_string(),
        "rounds=1000000".to_string(),
        "seed=3".to_string(),
        "k=4".to_string(),
        format!("checkpoint={}", ck("batch-default")),
    ]
    .to_vec();
    let batch_thread = std::thread::spawn(move || {
        let opts = ServeOptions::parse(&batch_args).expect("batch bench args");
        serve_on(batch_listener, &opts).expect("batch bench daemon");
    });
    // probe until the daemon accepts (it builds its substrate first)
    let (status, body) =
        http_call(&batch_addr, "GET", "/placement", "", proxy_timeout).expect("batch bench up");
    assert_eq!(status, 200, "batch bench daemon: {body}");
    let singles = time_median(reps, || {
        for _ in 0..BATCHED_TOTAL {
            let (status, body) =
                http_call(&batch_addr, "POST", "/step", "", proxy_timeout).expect("single step");
            assert_eq!(status, 200, "single step: {body}");
        }
    });
    let batch_body = format!("{{\"n\": {BATCH_SIZE}}}");
    let batched = time_median(reps, || {
        for _ in 0..BATCHED_TOTAL / BATCH_SIZE {
            let (status, body) =
                http_call(&batch_addr, "POST", "/step", &batch_body, proxy_timeout)
                    .expect("batched step");
            assert_eq!(status, 200, "batched step: {body}");
        }
    });
    println!(
        "batched stepping: {:.0} steps/s single-round requests, {:.0} steps/s in \
         {BATCH_SIZE}-round batches",
        BATCHED_TOTAL as f64 / singles,
        BATCHED_TOTAL as f64 / batched
    );
    let extra = format!(
        ",\n  \"rounds\": {BATCHED_TOTAL},\n  \"batch_rounds\": {BATCH_SIZE},\n  \
         \"steps_per_sec_single\": {:.1},\n  \"steps_per_sec_batched\": {:.1}",
        BATCHED_TOTAL as f64 / singles,
        BATCHED_TOTAL as f64 / batched
    );
    let batched_entry = entry_json(
        "batched_step",
        singles,
        batched,
        "1024 source-driven rounds on a unit-line:8 ONTH cell over real TCP: \
         one POST /step per round vs {\\\"n\\\": 256} batches (one request + one \
         actor-channel hop per batch)",
        &extra,
    );
    announce("BENCH_serve.json", "batched_step", singles, batched);
    let (status, _) = http_call(&batch_addr, "POST", "/shutdown", "", proxy_timeout)
        .expect("batch bench shutdown");
    assert_eq!(status, 200);
    batch_thread.join().expect("batch bench thread");

    // --- Serving: connection scaling on the event-driven front end -------
    // The epoll reactor's claim: idle keep-alive connections cost fds,
    // not threads. A subprocess daemon (so the two processes' fd budgets
    // are independent) serves one step round-trip with no load ("serial")
    // and the same round-trip while this process holds thousands of idle
    // connections against it ("parallel" — speedup ~1.0 means held
    // connections are free); the extra fields record the daemon's thread
    // count before and during, flat by construction of the fixed pools.
    let flexserve_bin = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .join("flexserve");
    let mut daemon = std::process::Command::new(&flexserve_bin)
        .args([
            "serve",
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=onth",
            "rounds=1000000",
            "seed=3",
            "k=4",
            "bind=127.0.0.1:0",
            "workers=2",
            "reactor-threads=2",
            "request-timeout=300",
            &format!("checkpoint={}", ck("scaling-default")),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn scaling daemon");
    let scaling_addr = {
        use std::io::BufRead as _;
        let stdout = daemon.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announcement");
        line.split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in announcement {line:?}"))
            .to_string()
    };
    let daemon_threads = |pid: u32| -> u64 {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:"))
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(0)
    };
    let one_step = || {
        let (status, body) =
            http_call(&scaling_addr, "POST", "/step", "", proxy_timeout).expect("scaling step");
        assert_eq!(status, 200, "scaling step: {body}");
    };
    one_step(); // warm up the daemon's pools and the pooled connection
    let idle_step = time_median(reps, one_step);
    let threads_idle = daemon_threads(daemon.id());
    let limit = flexserve_experiments::serve::raise_nofile_limit();
    let connections = 10_000.min(limit.saturating_sub(512)) as usize;
    let mut held = Vec::with_capacity(connections);
    for i in 0..connections {
        let conn = std::net::TcpStream::connect(&scaling_addr)
            .unwrap_or_else(|e| panic!("held connection {i} of {connections}: {e}"));
        held.push(conn);
    }
    let loaded_step = time_median(reps, one_step);
    let threads_loaded = daemon_threads(daemon.id());
    println!(
        "connection scaling: {connections} idle connections held, daemon threads \
         {threads_idle} -> {threads_loaded}, step {:.2} ms idle vs {:.2} ms loaded",
        idle_step * 1e3,
        loaded_step * 1e3
    );
    let extra = format!(
        ",\n  \"connections\": {connections},\n  \"daemon_threads_idle\": {threads_idle},\n  \
         \"daemon_threads_loaded\": {threads_loaded},\n  \"step_ms_under_load\": {:.3}",
        loaded_step * 1e3
    );
    let scaling_entry = entry_json(
        "connection_scaling",
        idle_step,
        loaded_step,
        "one /step round-trip against a subprocess daemon (unit-line:8 ONTH, \
         epoll front end, 2 reactor threads): unloaded vs while holding 10k \
         idle keep-alive connections (speedup ~1.0 = held connections are free)",
        &extra,
    );
    announce(
        "BENCH_serve.json",
        "connection_scaling",
        idle_step,
        loaded_step,
    );
    drop(held);
    let (status, _) =
        http_call(&scaling_addr, "POST", "/shutdown", "", proxy_timeout).expect("scaling shutdown");
    assert_eq!(status, 200);
    let exit = daemon.wait().expect("scaling daemon exit");
    assert!(exit.success(), "scaling daemon exited with {exit}");

    write_file(
        "BENCH_serve.json",
        &format!(
            "[\n{step_entry},\n{sessions_entry},\n{route_entry},\n{batched_entry},\n{scaling_entry}\n]\n"
        ),
    );
}
