//! The two serving workloads: `serve-er500` (one `flexserve serve`
//! daemon, strategy-heavy sessions on 500-node substrates) and
//! `serve-routed-mix` (a `flexserve route` router in front of two serve
//! workers, cheap sessions fed from packed traces, a mix of single steps,
//! batched steps and placement reads).
//!
//! A run brings the cluster up several times (the median is `setup_s`),
//! warms it, then offers open-loop traffic at each fixed rate. When the
//! traffic ends, every session's `rounds_served` and cumulative cost from
//! `GET …/metrics` must equal, bit for bit, an in-process replay of the
//! same source rounds through `EventedSession`.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexserve_core::initial_center;
use flexserve_experiments::serve::{SessionConfig, SessionManager, SourceKind};
use flexserve_experiments::ExperimentEnv;
use flexserve_graph::{DistanceMatrix, NodeId};
use flexserve_sim::{CostBreakdown, EventedSession};
use flexserve_workload::{
    replay_source, JsonValue, PackWriter, PackedReplay, RequestSource, RoundRequests,
    ScenarioStream,
};

use crate::http::{announced_addr, Client};
use crate::loadgen::{self, Kind, Mix, Phase, Rng};
use crate::stats::{median, tail};
use crate::sys::{self, Proc};
use crate::trace::{DecideLog, TimedStrategy, Tracer};
use crate::{Ctx, Report};

/// Cluster start-ups per run; their median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Unrecorded traffic at the nominal rate before the measured phases.
const WARMUP_S: f64 = 1.0;
/// Share of the measured time spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;
/// Timings are summarised per window holding about this many samples of
/// the request kind for a tail (p99 with twenty beyond), or for a median,
/// and at least `MIN_WINDOW_S` long.
const TAIL_SAMPLES: f64 = 2000.0;
const MEDIAN_SAMPLES: f64 = 100.0;
const MIN_WINDOW_S: f64 = 1.0;
/// The run is invalid when the generator wrote its requests this late
/// (p99) — the numbers would measure the generator, not the program.
const LAG_LIMIT_MS: f64 = 10.0;
/// Closed-loop requests per layer probe in the traced run.
const PROBE_N: usize = 1000;
/// Batched steps per in-process batch probe in the traced run.
const PROBE_BATCHES: usize = 100;
/// Packed-trace rounds decoded by the in-process replay probe.
const PROBE_PACKED: u64 = 20_000;
/// Daemon thread keys: no more threads than the machine's two cores.
const SERVE_KEYS: [&str; 2] = ["workers=2", "reactor-threads=1"];
const ROUTE_KEYS: [&str; 1] = ["threads=2"];

/// One session: its name and its `POST /sessions` arguments.
pub struct SessionDef {
    name: String,
    args: Vec<String>,
}

/// A serving workload.
pub struct Workload {
    /// Two workers behind a router, or one daemon.
    routed: bool,
    sessions: Vec<SessionDef>,
    /// Packed demand files written at set-up: (path, rounds, stream).
    traces: Vec<(PathBuf, u64, u64)>,
    mix: Mix,
    /// The fixed offered rates (requests per second), ascending.
    rates: Vec<f64>,
    /// Index of the nominal rate in `rates`.
    nominal: usize,
    /// Step p99 a rate must meet to count towards `throughput_per_s`.
    limit_ms: f64,
}

/// `serve-er500`: four sessions on `er:500` substrates, each a scenario ×
/// strategy pair, stepped from their scenario sources. The substrates use
/// the paper's default seeds 1000–1003: how often a strategy rescans
/// depends on the substrate, so drawing them from `--seed` would make the
/// seed, not the program, set the tail. `--seed` drives the traffic.
pub fn er500(ctx: &Ctx) -> Workload {
    let combos = [
        ("time-zones:p=50,req=50", "onth"),
        ("time-zones:p=50,req=50", "onbr-dyn"),
        ("commuter-dynamic", "onth"),
        ("commuter-dynamic", "onbr-dyn"),
    ];
    let sessions = combos
        .iter()
        .enumerate()
        .map(|(i, (wl, strat))| SessionDef {
            name: format!("er{i}"),
            args: vec![
                "topo=er:500".into(),
                format!("wl={wl}"),
                format!("strat={strat}"),
                format!("seed={}", 1000 + i),
                "rounds=1000000000".into(),
                format!(
                    "checkpoint={}",
                    ctx.tmp.join(format!("ck-er{i}.json")).display()
                ),
            ],
        })
        .collect();
    Workload {
        routed: false,
        sessions,
        traces: Vec::new(),
        mix: Mix {
            batch_share: 0.05,
            read_share: 0.10,
            batch_rounds: 4,
        },
        rates: vec![200.0, 400.0, 600.0],
        nominal: 1,
        limit_ms: 50.0,
    }
}

/// `serve-routed-mix`: six cheap `unit-line:8` sessions behind the
/// router, each replaying its own packed trace written from the seed.
pub fn routed_mix(ctx: &Ctx) -> Workload {
    let mut rng = Rng::new(ctx.seed, 2);
    let mix = Mix {
        batch_share: 0.02,
        read_share: 0.15,
        batch_rounds: 64,
    };
    let rates = vec![800.0, 1200.0, 1600.0];
    let n = 6usize;
    // Enough rounds for the whole run at the top rate, with slack for
    // Poisson variation and the traced run's probes.
    let requests = rates[rates.len() - 1] * (ctx.seconds + WARMUP_S) * 1.3;
    let rounds = (requests * mix.rounds_per_request() / n as f64 * 2.0) as u64
        + PROBE_PACKED
        + (PROBE_N + PROBE_BATCHES * 64) as u64 * 2;
    let mut sessions = Vec::new();
    let mut traces = Vec::new();
    for i in 0..n {
        let path = ctx.tmp.join(format!("demand-r{i}.ftr"));
        sessions.push(SessionDef {
            name: format!("r{i}"),
            args: vec![
                "topo=unit-line:8".into(),
                "wl=uniform:req=1".into(),
                format!("strat={}", if i % 2 == 0 { "onth" } else { "onbr-dyn" }),
                "k=4".into(),
                format!("seed={}", 1 + rng.below(1_000_000)),
                format!("source={}", path.display()),
                format!(
                    "checkpoint={}",
                    ctx.tmp.join(format!("ck-r{i}.json")).display()
                ),
            ],
        });
        traces.push((
            path,
            rounds,
            ctx.seed.wrapping_mul(31).wrapping_add(i as u64),
        ));
    }
    Workload {
        routed: true,
        sessions,
        traces,
        mix,
        rates,
        nominal: 1,
        limit_ms: 50.0,
    }
}

/// Writes one packed demand trace: 1–4 requests per round on 8 nodes.
fn write_trace(path: &Path, rounds: u64, stream: u64) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = PackWriter::new(BufWriter::new(file))?;
    let mut rng = Rng::new(stream, 3);
    for _ in 0..rounds {
        let k = 1 + rng.below(4);
        let origins: Vec<NodeId> = (0..k).map(|_| NodeId::new(rng.below(8))).collect();
        writer.write_round(&RoundRequests::new(origins))?;
    }
    writer.finish()?;
    Ok(())
}

/// The running daemons of one set-up.
struct Cluster {
    workers: Vec<(Proc, SocketAddr)>,
    router: Option<(Proc, SocketAddr)>,
}

impl Cluster {
    /// Where clients send requests.
    fn front(&self) -> SocketAddr {
        match &self.router {
            Some((_, addr)) => *addr,
            None => self.workers[0].1,
        }
    }

    /// CPU time used so far by every process, summed (s).
    fn cpu_s(&self) -> f64 {
        let procs = self.workers.iter().chain(self.router.iter());
        procs.map(|(p, _)| p.cpu_s()).sum()
    }

    /// Peak resident set of every process, summed (MB).
    fn rss_mb(&self) -> f64 {
        let procs = self.workers.iter().chain(self.router.iter());
        procs.map(|(p, _)| p.vm_hwm_kb()).sum::<u64>() as f64 / 1024.0
    }

    /// Shuts the router and then the workers down and reaps them; returns
    /// whether every process exited cleanly.
    fn shut_down(mut self) -> bool {
        let mut clean = true;
        let procs = self.router.iter_mut().chain(self.workers.iter_mut());
        for (proc, addr) in procs {
            if let Ok(mut c) = Client::connect(*addr, Duration::from_secs(5)) {
                let _ = c.call("POST", "/shutdown", "");
            }
            clean &= proc.finish(Duration::from_secs(10));
        }
        clean
    }
}

/// Starts the daemons, writes the demand traces and creates every
/// session; returns the cluster and how long that took.
fn bring_up(ctx: &Ctx, wl: &Workload) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    for (path, rounds, stream) in &wl.traces {
        write_trace(path, *rounds, *stream)?;
    }
    let start = |args: Vec<String>, label: &str| -> Result<(Proc, SocketAddr), String> {
        let mut cmd = sys::command(&ctx.bin);
        cmd.args(&args);
        let (proc, line) = Proc::start(cmd, label, Duration::from_secs(60))?;
        let addr = announced_addr(&line)?;
        Ok((proc, addr))
    };
    let mut workers = Vec::new();
    for w in 0..if wl.routed { 2 } else { 1 } {
        // The command line's default session is a cheap, unused cell.
        let mut args: Vec<String> = [
            "serve",
            "topo=unit-line:8",
            "wl=uniform:req=1",
            "strat=static",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(SERVE_KEYS.iter().map(|s| s.to_string()));
        args.push("port=0".into());
        args.push(format!(
            "checkpoint={}",
            ctx.tmp.join(format!("ck-default-{w}.json")).display()
        ));
        workers.push(start(args, &format!("serve worker {w}"))?);
    }
    let mut cluster = Cluster {
        workers,
        router: None,
    };
    if wl.routed {
        let fleet: Vec<String> = cluster.workers.iter().map(|(_, a)| a.to_string()).collect();
        let mut args = vec!["route".to_string(), format!("workers={}", fleet.join("+"))];
        args.extend(ROUTE_KEYS.iter().map(|s| s.to_string()));
        args.push("port=0".into());
        cluster.router = Some(start(args, "router")?);
    }
    let mut client = Client::connect(cluster.front(), Duration::from_secs(60))?;
    for s in &wl.sessions {
        let body = JsonValue::Obj(vec![
            ("name".into(), JsonValue::from(s.name.as_str())),
            (
                "args".into(),
                JsonValue::Arr(s.args.iter().map(|a| JsonValue::from(a.as_str())).collect()),
            ),
        ]);
        client.ok("POST", "/sessions", &body.render())?;
    }
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

/// What `GET …/metrics` says a session served.
struct Served {
    rounds: u64,
    costs: [f64; 5],
}

fn fetch_served(client: &mut Client, wl: &Workload) -> Result<Vec<Served>, String> {
    wl.sessions
        .iter()
        .map(|s| {
            let body = client.ok("GET", &format!("/sessions/{}/metrics", s.name), "")?;
            let doc = JsonValue::parse(&body)?;
            let cost = |k: &str| {
                doc.get("total_cost")
                    .and_then(|c| c.get(k))
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("{}: metrics without total_cost.{k}", s.name))
            };
            Ok(Served {
                rounds: doc
                    .get("rounds_served")
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("{}: metrics without rounds_served", s.name))?,
                costs: [
                    cost("access")?,
                    cost("running")?,
                    cost("migration")?,
                    cost("creation")?,
                    cost("total")?,
                ],
            })
        })
        .collect()
}

/// An in-process replay of one session.
struct Replayed {
    costs: [f64; 5],
    tracer: Tracer,
    decides: u64,
    reconfigs: u64,
}

/// Replays `rounds` source rounds of a session exactly as the daemon's
/// session actor plays them, with the strategy behind [`TimedStrategy`].
/// With `traced`, each layer call is recorded as a span.
fn replay(
    def: &SessionDef,
    rounds: u64,
    origin: Instant,
    traced: bool,
) -> Result<Replayed, String> {
    let cfg = SessionConfig::parse(&def.args, &def.name)?;
    let cell = &cfg.cell;
    let seed = cell.seeds[0];
    let mut tracer = Tracer::new(origin);
    let build_seed = if cell.topology.is_seeded() { seed } else { 0 };
    let (graph, _) = tracer.time("graph.gen", None, 0, || cell.topology.build(build_seed));
    let graph = graph?;
    let (matrix, _) = tracer.time("graph.apsp", None, 0, || DistanceMatrix::build(&graph));
    let env = ExperimentEnv {
        graph: Arc::new(graph),
        matrix: Arc::new(matrix),
    };
    let ctx = env.context(cell.params, cell.load);
    let log = Rc::new(RefCell::new(DecideLog::default()));
    let strategy = TimedStrategy::new(
        cell.strategy.instantiate_online(&ctx, seed)?,
        origin,
        Rc::clone(&log),
    );
    let mut session = EventedSession::new(
        (*env.graph).clone(),
        (*env.matrix).clone(),
        cell.events.clone(),
        cell.params,
        cell.load,
        strategy,
        initial_center(&ctx),
    );
    let (mut source, source_span): (Box<dyn RequestSource>, &'static str) = match &cfg.source {
        SourceKind::Scenario => {
            let scenario = cell.workload.instantiate(
                &env.graph,
                &env.matrix,
                cell.t_periods,
                cell.lambda,
                seed,
            );
            (
                Box::new(ScenarioStream::new(scenario, Some(cell.rounds))),
                "workload.next_round",
            )
        }
        SourceKind::File(path) => (
            replay_source(path, env.graph.node_count())?,
            "workload.packed_round",
        ),
        SourceKind::Stdin => return Err(format!("{}: stdin is not replayable", def.name)),
    };
    let mut totals = CostBreakdown::zero();
    for t in 0..rounds {
        let t0 = tracer.now_ns();
        let batch = source
            .next_round()?
            .ok_or(format!("{}: source ran dry at round {t}", def.name))?;
        let t1 = tracer.now_ns();
        let access = ctx.access_cost(session.fleet().active(), &batch);
        let t2 = tracer.now_ns();
        let rec = session.step(&batch)?;
        let t3 = tracer.now_ns();
        std::hint::black_box(access);
        totals += rec.costs;
        let mut log = log.borrow_mut();
        if traced {
            tracer.record(source_span, t0, t1, None, t);
            tracer.record("sim.route", t1, t2, None, t);
            let step = tracer.record("sim.step", t2, t3, None, t);
            for (a, b) in log.pending.drain(..) {
                tracer.record("core.decide", a, b, Some(step), t);
            }
        } else {
            log.pending.clear();
        }
    }
    let log = log.borrow();
    Ok(Replayed {
        costs: [
            totals.access,
            totals.running,
            totals.migration,
            totals.creation,
            totals.total(),
        ],
        tracer,
        decides: log.decides,
        reconfigs: log.reconfigs,
    })
}

/// Replays every session on up to `nproc` threads and compares each
/// against what the daemon reported; mismatches count as failures.
fn verify(
    ctx: &Ctx,
    wl: &Workload,
    served: &[Served],
    origin: Instant,
    traced: bool,
    report: &mut Report,
) -> Vec<Replayed> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<Replayed, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ctx.nproc.clamp(1, wl.sessions.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= wl.sessions.len() {
                            return out;
                        }
                        out.push((i, replay(&wl.sessions[i], served[i].rounds, origin, traced)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    let mut replays = Vec::new();
    for (i, result) in results {
        let name = &wl.sessions[i].name;
        report.attempted += 1;
        match result {
            Ok(r) => {
                let same = r
                    .costs
                    .iter()
                    .zip(&served[i].costs)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    report.failed += 1;
                    report.note(format!(
                        "MISMATCH {name}: served {:?} replayed {:?} over {} rounds",
                        served[i].costs, r.costs, served[i].rounds
                    ));
                }
                replays.push(r);
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("REPLAY FAILED {name}: {e}"));
            }
        }
    }
    replays
}

/// Window length holding about `samples` requests of `kind` at `rate`.
fn window_for(wl: &Workload, kind: Kind, rate: f64, samples: f64) -> f64 {
    let share = match kind {
        Kind::Step => 1.0 - wl.mix.batch_share - wl.mix.read_share,
        Kind::Batch => wl.mix.batch_share,
        Kind::Read => wl.mix.read_share,
    };
    (samples / (rate * share)).max(MIN_WINDOW_S)
}

/// Single-step p50 and p99, batch p50 and read p99 of a phase, each taken per
/// window and reported as the lower quartile over the windows (see
/// `Phase::windowed`).
fn nominal_latencies(wl: &Workload, at: &Phase) -> Vec<(&'static str, f64, u64, String)> {
    [
        ("step_p50_ms", Kind::Step, true),
        ("step_p99_ms", Kind::Step, false),
        ("batch_p50_ms", Kind::Batch, true),
        ("read_p99_ms", Kind::Read, false),
    ]
    .into_iter()
    .map(|(metric, kind, is_median)| {
        let samples = if is_median {
            MEDIAN_SAMPLES
        } else {
            TAIL_SAMPLES
        };
        let window = window_for(wl, kind, at.rate, samples);
        let (v, n, q) = at.windowed(kind, window, |xs| {
            if is_median {
                median(xs).map(|v| (v, 0.5))
            } else {
                tail(xs, 0.99)
            }
        });
        let how = format!(
            "p{:.1} at {:.0}/s, lower quartile of {window:.1}s windows",
            q * 100.0,
            at.rate
        );
        (metric, v, n, how)
    })
    .collect()
}

fn account(report: &mut Report, phase: &Phase) {
    report.attempted += phase.samples.len() as u64;
    report.failed += phase.failed();
}

fn session_names(wl: &Workload) -> Vec<String> {
    wl.sessions.iter().map(|s| s.name.clone()).collect()
}

fn describe_setup(ctx: &Ctx, wl: &Workload, report: &mut Report) {
    report.note(format!(
        "daemons: serve {}{}; load generator: 1 thread, {} connection(s), open-loop Poisson; \
         one SCHED_IDLE spinner per CPU during traffic",
        SERVE_KEYS.join(" "),
        if wl.routed {
            format!(" (x2) behind route {}", ROUTE_KEYS.join(" "))
        } else {
            String::new()
        },
        ctx.nproc
    ));
    report.note(format!(
        "mix: {:.0}% single steps, {:.0}% {{\"n\": {}}} batches, {:.0}% placement reads; \
         {} sessions; step p99 limit {} ms",
        (1.0 - wl.mix.batch_share - wl.mix.read_share) * 100.0,
        wl.mix.batch_share * 100.0,
        wl.mix.batch_rounds,
        wl.mix.read_share * 100.0,
        wl.sessions.len(),
        wl.limit_ms
    ));
    for s in &wl.sessions {
        let args: Vec<&str> = s
            .args
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("checkpoint=") && !a.starts_with("source="))
            .collect();
        report.note(format!("session {}: {}", s.name, args.join(" ")));
    }
}

/// Lag p99 (ms) of the generator over `phases`; an error when it fell
/// behind, which invalidates the run.
fn check_lag(phases: &[&Phase]) -> Result<(f64, u64), String> {
    let lags: Vec<f64> = phases.iter().flat_map(|p| p.lags_ms()).collect();
    let (lag, _) = tail(&lags, 0.99).unwrap_or((0.0, 1.0));
    if lag > LAG_LIMIT_MS {
        return Err(format!(
            "run invalid: the load generator wrote its requests up to {lag:.2} ms late (p99), \
             over the {LAG_LIMIT_MS} ms limit"
        ));
    }
    Ok((lag, lags.len() as u64))
}

/// The untraced serving run.
pub fn run(ctx: &Ctx, wl: &Workload) -> Result<Report, String> {
    let mut report = Report::default();
    describe_setup(ctx, wl, &mut report);
    let mut setups = Vec::new();
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        let (c, secs) = bring_up(ctx, wl)?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            if !c.shut_down() {
                report.failed += 1;
            }
            report.attempted += 1;
        } else {
            cluster = Some(c);
        }
    }
    let cluster = cluster.expect("at least one set-up");
    let names = session_names(wl);
    let mut rng = Rng::new(ctx.seed, 7);
    let nominal = wl.rates[wl.nominal];
    let target = loadgen::Target {
        addr: cluster.front(),
        sessions: &names,
        mix: &wl.mix,
        conns: ctx.nproc,
    };
    let offer = |rate: f64, secs: f64, rng: &mut Rng| {
        let samples = loadgen::schedule(rate, secs, names.len(), &wl.mix, rng);
        loadgen::run(&target, rate, samples, None)
    };
    let spin = sys::Spinners::start();
    let warm = offer(nominal, WARMUP_S, &mut rng);
    account(&mut report, &warm);
    // The nominal rate, which most metrics come from, gets most of the
    // time; the other rates only decide `throughput_per_s`.
    let measured = (ctx.seconds - WARMUP_S).max(1.0);
    let others = (wl.rates.len() - 1) as f64;
    let mut nominal_cpu_s = 0.0;
    let phases: Vec<Phase> = wl
        .rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            if i != wl.nominal {
                return offer(r, measured * (1.0 - NOMINAL_SHARE) / others, &mut rng);
            }
            let cpu = cluster.cpu_s();
            let phase = offer(r, measured * NOMINAL_SHARE, &mut rng);
            nominal_cpu_s = cluster.cpu_s() - cpu;
            phase
        })
        .collect();
    drop(spin);
    for p in &phases {
        account(&mut report, p);
    }

    let mut client = Client::connect(cluster.front(), Duration::from_secs(30))?;
    let served = fetch_served(&mut client, wl)?;
    drop(client);
    let rss = cluster.rss_mb();
    if !cluster.shut_down() {
        report.failed += 1;
    }
    report.attempted += 1;
    verify(ctx, wl, &served, Instant::now(), false, &mut report);
    let all: Vec<&Phase> = std::iter::once(&warm).chain(&phases).collect();
    let (lag, _) = check_lag(&all)?;

    let mut max_rate = 0.0;
    for p in &phases {
        let steps = p.latencies(Kind::Step);
        let window = window_for(wl, Kind::Step, p.rate, TAIL_SAMPLES);
        let (p99, _, q) = p.windowed(Kind::Step, window, |xs| tail(xs, 0.99));
        let meets = p99 <= wl.limit_ms && p.failed() == 0 && !p.growing;
        if meets {
            max_rate = p.rate;
        }
        report.note(format!(
            "rate {:>6.0}/s: sent {:>6} failed {} step p50 {:.3} ms, windowed p{:.1} {:.3} ms, backlog max {}, lag p99 {:.3} ms{}{}",
            p.rate,
            p.samples.len(),
            p.failed(),
            median(&steps).unwrap_or(f64::NAN),
            q * 100.0,
            p99,
            p.backlog_max,
            tail(&p.lags_ms(), 0.99).map_or(0.0, |(v, _)| v),
            if p.growing { ", GROWING" } else { "" },
            if meets { "" } else { ", misses the limit" },
        ));
    }
    report.note(format!(
        "generator lag p99 {lag:.3} ms; rounds served {}",
        served.iter().map(|s| s.rounds).sum::<u64>()
    ));

    let at = &phases[wl.nominal];
    for (metric, value, n, how) in nominal_latencies(wl, at) {
        report.note(format!("{metric} {value:.3} ms over {n} samples, {how}"));
    }
    report.set(
        "throughput_per_s",
        max_rate,
        wl.rates.len() as u64,
        format!(
            "max_rate_rps: highest of {:?}/s meeting the limit",
            wl.rates
        ),
    );
    report.set(
        "cpu_ms_per_op",
        nominal_cpu_s * 1e3 / at.samples.len().max(1) as f64,
        at.samples.len() as u64,
        format!("daemons' user+system CPU per request at {nominal:.0}/s"),
    );
    report.set(
        "setup_s",
        median(&setups).expect("set-ups"),
        setups.len() as u64,
        "median cluster start-up",
    );
    report.set("peak_rss_mb", rss, 1, "VmHWM summed over the daemons");
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted,
        "1 - error_rate",
    );
    Ok(report)
}

/// Times `n` closed-loop calls on one connection; returns µs per call.
fn probe(client: &mut Client, method: &str, path: &str, n: usize, report: &mut Report) -> Vec<f64> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let ok = matches!(client.call(method, path, ""), Ok((200, _)));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        report.attempted += 1;
        if !ok {
            report.failed += 1;
        }
    }
    times
}

/// Records closed-loop probe timings as spans.
fn record_probe(tracer: &mut Tracer, name: &'static str, times: &[f64]) {
    let mut at = tracer.now_ns();
    for (i, us) in times.iter().enumerate() {
        let ns = (us * 1e3) as u64;
        tracer.record(name, at, at + ns, None, i as u64);
        at += ns;
    }
}

/// The traced serving run: the nominal rate offered untraced and then
/// traced (the difference is the tracing overhead), closed-loop probes of
/// the HTTP and routing layers, in-process probes of the session layer
/// and the packed reader, and a traced replay of every session.
pub fn run_traced(ctx: &Ctx, wl: &Workload, trace_file: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    describe_setup(ctx, wl, &mut report);
    let (cluster, _) = bring_up(ctx, wl)?;
    let spin = sys::Spinners::start();
    let names = session_names(wl);
    let nominal = wl.rates[wl.nominal];
    let phase_s = ((ctx.seconds - WARMUP_S) / 2.0).max(1.0);
    let samples = loadgen::schedule(
        nominal,
        phase_s,
        names.len(),
        &wl.mix,
        &mut Rng::new(ctx.seed, 9),
    );
    let front = cluster.front();
    let warm = loadgen::schedule(
        nominal,
        WARMUP_S,
        names.len(),
        &wl.mix,
        &mut Rng::new(ctx.seed, 8),
    );
    let target = loadgen::Target {
        addr: front,
        sessions: &names,
        mix: &wl.mix,
        conns: ctx.nproc,
    };
    let warm = loadgen::run(&target, nominal, warm, None);
    let plain = loadgen::run(&target, nominal, samples.clone(), None);
    let traced = loadgen::run(&target, nominal, samples, Some(&mut tracer));
    for p in [&warm, &plain, &traced] {
        account(&mut report, p);
    }
    for (metric, value, n, how) in nominal_latencies(wl, &plain) {
        report.set(
            &format!("loadgen.{metric}"),
            value,
            n,
            format!("untraced phase, {how}"),
        );
    }
    let (lag, lag_n) = check_lag(&[&traced])?;
    report.set("loadgen.lag_p99_ms", lag, lag_n, "traced phase");
    report.set(
        "loadgen.sent",
        traced.samples.len() as f64,
        1,
        format!("traced phase at {nominal:.0}/s"),
    );
    report.set(
        "loadgen.backlog_max",
        traced.backlog_max as f64,
        traced.samples.len() as u64,
        "traced phase",
    );
    let p50 = |p: &Phase| median(&p.latencies(Kind::Step)).unwrap_or(f64::NAN);
    report.set(
        "trace.overhead_frac",
        p50(&traced) / p50(&plain) - 1.0,
        traced.samples.len() as u64,
        format!(
            "step p50 traced {:.4} ms vs untraced {:.4} ms",
            p50(&traced),
            p50(&plain)
        ),
    );

    let mut client = Client::connect(front, Duration::from_secs(30))?;
    if wl.routed {
        // The HTTP layer alone (direct to the owning worker), then the
        // same calls through the router.
        let probe_session = &wl.sessions[0].name;
        let cluster_doc = JsonValue::parse(&client.ok("GET", "/cluster", "")?)?;
        let owner: SocketAddr = cluster_doc
            .get("sessions")
            .and_then(JsonValue::as_array)
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(probe_session))
            })
            .and_then(|r| r.get("worker").and_then(JsonValue::as_str))
            .and_then(|a| a.parse().ok())
            .ok_or("cannot find the probe session's worker in GET /cluster")?;
        let step = format!("/sessions/{probe_session}/step");
        let read = format!("/sessions/{probe_session}/placement");
        let mut direct = Client::connect(owner, Duration::from_secs(30))?;
        for (layer, c) in [("http", &mut direct), ("route", &mut client)] {
            let steps = probe(c, "POST", &step, PROBE_N, &mut report);
            let reads = probe(c, "GET", &read, PROBE_N, &mut report);
            let (s, r) = if layer == "http" {
                ("http.step", "http.read")
            } else {
                ("route.step", "route.read")
            };
            record_probe(&mut tracer, s, &steps);
            record_probe(&mut tracer, r, &reads);
        }
    }
    let served = fetch_served(&mut client, wl)?;
    drop(client);
    drop(spin);
    if !cluster.shut_down() {
        report.failed += 1;
    }
    report.attempted += 1;

    if wl.routed {
        // The session layer in-process: the same cell as the probe
        // session behind a SessionManager, no HTTP.
        let def = &wl.sessions[0];
        let mut args = def.args.clone();
        args.retain(|a| !a.starts_with("checkpoint="));
        args.push(format!(
            "checkpoint={}",
            ctx.tmp.join("ck-inproc.json").display()
        ));
        let cfg = SessionConfig::parse(&args, "inproc")?;
        let manager = SessionManager::new(4);
        manager.create("inproc", cfg).map_err(|e| e.to_string())?;
        let batch_body = format!("{{\"n\":{}}}", wl.mix.batch_rounds);
        for (name, body, n) in [
            ("sessions.step", "", PROBE_N),
            ("sessions.batch", batch_body.as_str(), PROBE_BATCHES),
        ] {
            for i in 0..n {
                let (res, _) = tracer.time(name, None, i as u64, || manager.step("inproc", body));
                report.attempted += 1;
                if res.is_err() {
                    report.failed += 1;
                }
            }
        }
        manager.shutdown_all();
        // The packed reader alone.
        let path = wl.traces[0].0.to_string_lossy().into_owned();
        let mut packed = PackedReplay::open(&path, 8)?;
        for t in 0..PROBE_PACKED {
            let (round, _) = tracer.time("workload.packed_round", None, t, || packed.next_round());
            if !matches!(round, Ok(Some(_))) {
                return Err(format!("{path}: packed trace ended at round {t}"));
            }
        }
    }

    let replays = verify(ctx, wl, &served, origin, true, &mut report);
    let (mut decides, mut reconfigs) = (0, 0);
    for r in replays {
        decides += r.decides;
        reconfigs += r.reconfigs;
        tracer.absorb(r.tracer);
    }
    tracer
        .write_jsonl(trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    report.note(format!("spans written to {}", trace_file.display()));

    let step_self = tracer.self_times_us("sim.step");
    if let Some(v) = median(&step_self) {
        report.note(format!(
            "sim.step self time p50 {v:.3} us (excluding core.decide)"
        ));
    }
    let p50_of = |name: &str| {
        let d = tracer.durations_us(name);
        (median(&d).unwrap_or(0.0), d.len() as u64)
    };
    let set_p50 = |report: &mut Report, metric: &str, span: &str, scale: f64| {
        let (v, n) = p50_of(span);
        if n > 0 {
            report.set(metric, v * scale, n, format!("median {span} span"));
        }
    };
    set_p50(&mut report, "graph.gen_ms", "graph.gen", 1e-3);
    set_p50(&mut report, "graph.apsp_ms", "graph.apsp", 1e-3);
    set_p50(
        &mut report,
        "workload.next_round_us",
        "workload.next_round",
        1.0,
    );
    set_p50(
        &mut report,
        "workload.packed_round_us",
        "workload.packed_round",
        1.0,
    );
    set_p50(&mut report, "sim.route_us", "sim.route", 1.0);
    set_p50(&mut report, "sim.step_p50_us", "sim.step", 1.0);
    let steps = tracer.durations_us("sim.step");
    if let Some((v, q)) = tail(&steps, 0.99) {
        report.set(
            "sim.step_p99_us",
            v,
            steps.len() as u64,
            format!("sim.step p{:.1}", q * 100.0),
        );
    }
    let decide = tracer.durations_us("core.decide");
    if let Some((v, q)) = tail(&decide, 0.99) {
        let n = decide.len() as u64;
        report.set(
            "core.decide_p50_us",
            median(&decide).unwrap_or(0.0),
            n,
            "median core.decide span",
        );
        report.set(
            "core.decide_p99_us",
            v,
            n,
            format!("core.decide p{:.1}", q * 100.0),
        );
        report.set(
            "core.decide_max_us",
            decide.iter().copied().fold(0.0, f64::max),
            n,
            "slowest decide",
        );
    }
    report.set(
        "core.decides",
        decides as f64,
        decides,
        "decide calls in the replay",
    );
    report.set(
        "core.reconfigs",
        reconfigs as f64,
        decides,
        "decisions that changed the configuration",
    );
    report.set(
        "core.reconfig_ratio",
        reconfigs as f64 / decides.max(1) as f64,
        decides,
        "reconfigs / decides",
    );
    if wl.routed {
        let (sim, _) = p50_of("sim.step");
        let (sessions, n) = p50_of("sessions.step");
        let (http, hn) = p50_of("http.step");
        let (route, rn) = p50_of("route.step");
        set_p50(&mut report, "sessions.step_p50_us", "sessions.step", 1.0);
        set_p50(&mut report, "sessions.batch_us", "sessions.batch", 1.0);
        report.set(
            "sessions.self_us",
            sessions - sim,
            n,
            "sessions.step p50 - sim.step p50",
        );
        set_p50(&mut report, "http.step_p50_us", "http.step", 1.0);
        set_p50(&mut report, "http.read_p50_us", "http.read", 1.0);
        report.set(
            "http.self_us",
            http - sessions,
            hn,
            "http.step p50 - sessions.step p50",
        );
        set_p50(&mut report, "route.step_p50_us", "route.step", 1.0);
        set_p50(&mut report, "route.read_p50_us", "route.read", 1.0);
        report.set(
            "route.self_us",
            route - http,
            rn,
            "route.step p50 - http.step p50",
        );
    }
    Ok(report)
}
