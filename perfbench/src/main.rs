//! `perfbench`: the flexserve benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|serve-er500|serve-routed-mix|all \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds the `flexserve`
//! binary from source, runs the named workload against it, checks the
//! outputs, prints every metric with its unit and sample count, and ends
//! with one JSON result line. With `--trace 1` it instead runs the traced
//! variant and prints the per-layer metrics. See `perfbench/README.md`.

mod figures;
mod http;
mod loadgen;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// End-to-end metrics (the untraced run), with units. Every workload
/// reports every one of them; `perfbench/README.md` gives each one's
/// meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "fraction"),
];

/// Per-layer metrics (the traced run), with units. A workload reports 0
/// with 0 samples for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("figures.fig01_s", "s"),
    ("figures.fig02_s", "s"),
    ("figures.fig03_s", "s"),
    ("figures.fig04_s", "s"),
    ("figures.fig05_s", "s"),
    ("figures.fig06_s", "s"),
    ("figures.fig07_s", "s"),
    ("figures.fig08_s", "s"),
    ("figures.fig09_s", "s"),
    ("figures.fig10_s", "s"),
    ("figures.fig11_s", "s"),
    ("figures.fig12_s", "s"),
    ("figures.fig13_s", "s"),
    ("figures.fig14_s", "s"),
    ("figures.fig15_s", "s"),
    ("figures.fig16_s", "s"),
    ("figures.fig17_s", "s"),
    ("figures.fig18_s", "s"),
    ("figures.fig19_s", "s"),
    ("figures.table1_s", "s"),
    ("cache.dist_builds", "count"),
    ("cache.dist_hit_ratio", "ratio"),
    ("traces.recordings", "count"),
    ("traces.hit_ratio", "ratio"),
    ("graph.gen_ms", "ms"),
    ("graph.apsp_ms", "ms"),
    ("workload.next_round_us", "us"),
    ("workload.packed_round_us", "us"),
    ("sim.route_us", "us"),
    ("sim.step_p50_us", "us"),
    ("sim.step_p99_us", "us"),
    ("core.decide_p50_us", "us"),
    ("core.decide_p99_us", "us"),
    ("core.decide_max_us", "us"),
    ("core.decides", "count"),
    ("core.reconfigs", "count"),
    ("core.reconfig_ratio", "ratio"),
    ("sessions.step_p50_us", "us"),
    ("sessions.self_us", "us"),
    ("sessions.batch_us", "us"),
    ("http.step_p50_us", "us"),
    ("http.read_p50_us", "us"),
    ("http.self_us", "us"),
    ("route.step_p50_us", "us"),
    ("route.read_p50_us", "us"),
    ("route.self_us", "us"),
    ("loadgen.step_p50_ms", "ms"),
    ("loadgen.step_p99_ms", "ms"),
    ("loadgen.batch_p50_ms", "ms"),
    ("loadgen.read_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// The workloads, in `all` order.
const WORKLOADS: &[&str] = &["figures", "serve-er500", "serve-routed-mix"];

/// What one run of the benchmark sees.
pub struct Ctx {
    /// The `flexserve` binary built from this checkout.
    pub bin: PathBuf,
    /// Per-run scratch directory (results, checkpoints, traces); removed
    /// when the run ends.
    pub tmp: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Cores available to the run.
    pub nproc: usize,
}

/// One metric value with its sample count and a note on how it was taken.
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples behind it.
    pub samples: u64,
    /// How it was taken (percentile used, source, ...).
    pub note: String,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Context lines printed next to the metrics (threads, rates, ...).
    pub context: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: u64, note: impl Into<String>) {
        self.metrics.insert(
            name.to_string(),
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.context.push(line.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Builds `flexserve` from the checkout in the working directory and
/// returns the binary's path.
fn build_flexserve() -> Result<PathBuf, String> {
    if !Path::new("crates/experiments/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/experiments is missing)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "flexserve-experiments",
        ])
        .args(["--bin", "flexserve"])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building flexserve failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("flexserve");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    std::fs::canonicalize(&bin).map_err(|e| e.to_string())
}

/// The per-run scratch directory under `.bench_tmp/`, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create() -> Result<TmpDir, String> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let trace_file = PathBuf::from(".bench_trace").join(format!("{name}-seed{}.jsonl", ctx.seed));
    match (name, trace) {
        ("figures", false) => figures::run(ctx),
        ("figures", true) => figures::run_traced(ctx, &trace_file),
        ("serve-er500", false) => serve::run(ctx, &serve::er500(ctx)),
        ("serve-er500", true) => serve::run_traced(ctx, &serve::er500(ctx), &trace_file),
        ("serve-routed-mix", false) => serve::run(ctx, &serve::routed_mix(ctx)),
        ("serve-routed-mix", true) => serve::run_traced(ctx, &serve::routed_mix(ctx), &trace_file),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Renders a number for the result line: every digit as measured.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Prints the human-readable table and returns the result line.
fn render(name: &str, report: &Report, trace: bool, ctx: &Ctx) -> Result<String, String> {
    println!(
        "== perfbench {name} seed={} seconds={} trace={} nproc={} rayon_threads={}",
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        ctx.nproc,
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| ctx.nproc.to_string()),
    );
    for line in &report.context {
        println!("   {line}");
    }
    println!(
        "   {:<26} {:>16} {:<8} {:>9}  note",
        "metric", "value", "unit", "samples"
    );
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(metric, unit) in wanted {
        let (value, samples, note) = match report.metrics.get(metric) {
            Some(v) => (v.value, v.samples, v.note.as_str()),
            None if trace => (0.0, 0, "not exercised by this workload"),
            None => {
                return Err(format!(
                    "{name}: end-to-end metric {metric} was not measured"
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{name}: {metric} is not finite"));
        }
        println!("   {metric:<26} {value:>16.6} {unit:<8} {samples:>9}  {note}");
        metrics.push(format!(
            "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "   attempted={} failed={} error_rate={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    // The figure pipelines read these; the benchmark always measures the
    // standard profile with default caches.
    for var in [
        "FLEXSERVE_QUICK",
        "FLEXSERVE_FULL",
        "FLEXSERVE_SILENT",
        "FLEXSERVE_RESULTS_DIR",
        "FLEXSERVE_CACHE_BYTES",
    ] {
        std::env::remove_var(var);
    }
    let bin = build_flexserve()?;
    let tmp = TmpDir::create()?;
    let ctx = Ctx {
        bin,
        tmp: tmp.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut lines = Vec::new();
    for name in &names {
        let report = run_workload(name, &ctx, args.trace)?;
        let line = render(name, &report, args.trace, &ctx)?;
        println!("{line}");
        lines.push((name, report));
    }
    if names.len() > 1 {
        // `all`: one closing line over every workload, metrics prefixed
        // with the workload name.
        let attempted: u64 = lines.iter().map(|(_, r)| r.attempted).sum();
        let failed: u64 = lines.iter().map(|(_, r)| r.failed).sum();
        let wanted = if args.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, report) in &lines {
            for &(metric, unit) in wanted {
                let value = report.metrics.get(metric).map_or(0.0, |v| v.value);
                metrics.push(format!(
                    "\"{name}.{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted.max(1),
            metrics.join(", ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
