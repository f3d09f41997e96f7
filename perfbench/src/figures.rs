//! The `figures` workload: the whole paper-figure suite at the standard
//! profile, run exactly as a user runs `flexserve run all`, with cold
//! caches (a fresh process) every pass. Its inputs are the registry's
//! fixed figure seeds, so `--seed` does not change them.

use std::path::Path;
use std::time::Instant;

use flexserve_experiments::figures::Profile;
use flexserve_experiments::{clear_global_caches, registry, DistCache, TraceCache};
use flexserve_workload::packed::fnv1a;

use crate::stats::{median, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// Digests of the standard-profile CSVs the suite must reproduce.
const DIGESTS: &str = include_str!("../figures.digests");

/// CLI start-ups timed per run. The fastest is the figures workload's
/// set-up time: a process start-up of about a millisecond is what other
/// tenants of a shared machine disturb most, and they only ever add.
const LIST_RUNS: usize = 100;

/// One `flexserve run all` pass.
struct Pass {
    wall: f64,
    /// Per registry entry: seconds from the previous entry's completion
    /// (or the spawn) to this one's, read off the CLI's progress lines.
    spans: Vec<(String, f64)>,
    maxrss_mb: f64,
    cpu_s: f64,
    failed: u64,
}

/// Compares the CSVs under `dir` against the recorded digests; returns
/// how many registry entries are missing or differ.
fn check_csvs(dir: &Path, report: &mut Report) -> u64 {
    let mut failed = 0;
    for entry in registry::FIGURES {
        let want = DIGESTS
            .lines()
            .find(|l| l.split_whitespace().next() == Some(entry.name))
            .map(|l| l.split_whitespace().skip(1).collect::<Vec<_>>().join(" "));
        let got = std::fs::read(dir.join(format!("{}.csv", entry.name)))
            .map(|b| format!("{:016x} {}", fnv1a(&b), b.len()))
            .unwrap_or_else(|_| "missing".into());
        if want.as_deref() != Some(got.as_str()) {
            failed += 1;
            report.note(format!(
                "MISMATCH {}: expected {} got {got}",
                entry.name,
                want.as_deref().unwrap_or("no digest")
            ));
        }
    }
    failed
}

fn run_all(ctx: &Ctx, dir: &Path, report: &mut Report) -> Result<Pass, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut cmd = sys::command(&ctx.bin);
    cmd.args(["run", "all"]).env("FLEXSERVE_RESULTS_DIR", dir);
    let t0 = Instant::now();
    let (child, lines, reader) = sys::spawn_stamped(cmd)?;
    let exit = sys::wait(&child);
    let wall = t0.elapsed().as_secs_f64();
    let _ = reader.join();
    let mut spans = Vec::new();
    let mut last = t0;
    for (at, line) in lines.try_iter() {
        if let Some(name) = line
            .strip_prefix('[')
            .and_then(|rest| rest.split_once("] done in"))
            .map(|(name, _)| name.to_string())
        {
            spans.push((name, at.duration_since(last).as_secs_f64()));
            last = at;
        }
    }
    let names: Vec<&str> = spans.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = registry::FIGURES.iter().map(|f| f.name).collect();
    let failed = if exit.code != Some(0) || names != expected {
        report.note(format!("run all failed: exit {:?}", exit.code));
        expected.len() as u64
    } else {
        check_csvs(dir, report)
    };
    Ok(Pass {
        wall,
        spans,
        maxrss_mb: exit.maxrss_kb as f64 / 1024.0,
        cpu_s: exit.cpu_s,
        failed,
    })
}

/// Times the CLI's start-up: `flexserve list`, a read-only registry
/// query that does no simulation.
fn time_list(ctx: &Ctx, report: &mut Report) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(LIST_RUNS);
    for _ in 0..LIST_RUNS {
        let mut cmd = sys::command(&ctx.bin);
        cmd.arg("list");
        let (wall, exit) = sys::run_quiet(cmd)?;
        report.attempted += 1;
        if exit.code != Some(0) {
            report.failed += 1;
        }
        times.push(wall.as_secs_f64());
    }
    Ok(times)
}

/// The untraced figures run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let list = time_list(ctx, &mut report)?;
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let dir = ctx.tmp.join(format!("results-{}", passes.len()));
        let pass = run_all(ctx, &dir, &mut report)?;
        report.attempted += registry::FIGURES.len() as u64;
        report.failed += pass.failed;
        let _ = std::fs::remove_dir_all(&dir);
        let next_would_end = started.elapsed().as_secs_f64() + pass.wall;
        passes.push(pass);
        if next_would_end > ctx.seconds {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let suite = median(&walls).expect("at least one pass");
    let spans: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.spans.iter().map(|(_, s)| s * 1e3))
        .collect();
    let slowest: Vec<f64> = passes
        .iter()
        .map(|p| p.spans.iter().map(|(_, s)| s * 1e3).fold(0.0, f64::max))
        .collect();
    let list_ms: Vec<f64> = list.iter().map(|s| s * 1e3).collect();
    let (read, q) = tail(&list_ms, 0.99).expect("list runs");
    let n = passes.len() as u64;

    report.note(format!(
        "{} pass(es) of `flexserve run all` (standard profile, cold caches), {} CLI start-ups",
        passes.len(),
        list.len()
    ));
    report.note(format!(
        "run all {:.3} s (figures_s); median figure span {:.1} ms, slowest {:.1} ms; \
         flexserve list p{:.0} {read:.3} ms",
        suite,
        median(&spans).unwrap_or(0.0),
        median(&slowest).unwrap_or(0.0),
        q * 100.0
    ));
    report.set(
        "throughput_per_s",
        registry::FIGURES.len() as f64 / suite,
        n,
        "figures per second of run all (20 / figures_s)",
    );
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    report.set(
        "cpu_ms_per_op",
        median(&cpu).unwrap_or(0.0) * 1e3 / registry::FIGURES.len() as f64,
        n,
        "run all user+system CPU per figure",
    );
    report.set(
        "setup_s",
        list.iter().copied().fold(f64::INFINITY, f64::min),
        list.len() as u64,
        "fastest flexserve list start-up",
    );
    let rss: Vec<f64> = passes.iter().map(|p| p.maxrss_mb).collect();
    report.set(
        "peak_rss_mb",
        median(&rss).unwrap_or(0.0),
        n,
        "run all VmHWM",
    );
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted,
        "1 - error_rate",
    );
    Ok(report)
}

/// The traced figures run: one untraced `run all` for reference, then
/// the same registry entries called in-process with a span around each,
/// cold caches, and the cache counters read at the end.
pub fn run_traced(ctx: &Ctx, trace_file: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = ctx.tmp.join("results-untraced");
    let untraced = run_all(ctx, &dir, &mut report)?;
    report.attempted += registry::FIGURES.len() as u64;
    report.failed += untraced.failed;

    let traced_dir = ctx.tmp.join("results-traced");
    // Single-threaded here: no other thread reads the environment.
    std::env::set_var("FLEXSERVE_RESULTS_DIR", &traced_dir);
    std::env::set_var("FLEXSERVE_SILENT", "1");
    clear_global_caches();
    let mut tracer = Tracer::new(Instant::now());
    let suite_start = tracer.now_ns();
    for entry in registry::FIGURES {
        tracer.time(format!("figures.{}", entry.name), None, 0, || {
            (entry.run)(Profile::Standard)
        });
    }
    let suite_end = tracer.now_ns();
    tracer.record("figures.suite", suite_start, suite_end, None, 0);
    let dist = DistCache::global().stats();
    let traces = TraceCache::global().stats();
    std::env::remove_var("FLEXSERVE_RESULTS_DIR");
    std::env::remove_var("FLEXSERVE_SILENT");
    report.attempted += registry::FIGURES.len() as u64;
    report.failed += check_csvs(&traced_dir, &mut report);
    tracer
        .write_jsonl(trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    for entry in registry::FIGURES {
        let secs = tracer.durations_us(&format!("figures.{}", entry.name))[0] / 1e6;
        report.set(
            &format!("figures.{}_s", entry.name),
            secs,
            1,
            "in-process span",
        );
    }
    let lookups = dist.hits + dist.misses;
    report.set(
        "cache.dist_builds",
        dist.misses as f64,
        lookups,
        "DistCache misses (APSP runs)",
    );
    report.set(
        "cache.dist_hit_ratio",
        dist.hit_rate(),
        lookups,
        "DistCache hits / lookups",
    );
    let lookups = traces.hits + traces.misses;
    report.set(
        "traces.recordings",
        traces.misses as f64,
        lookups,
        "TraceCache misses",
    );
    report.set(
        "traces.hit_ratio",
        traces.hit_rate(),
        lookups,
        "TraceCache hits / lookups",
    );
    let traced_suite = (suite_end - suite_start) as f64 / 1e9;
    report.set(
        "trace.overhead_frac",
        traced_suite / untraced.wall - 1.0,
        1,
        format!(
            "in-process traced {traced_suite:.3}s vs run all {:.3}s",
            untraced.wall
        ),
    );
    report.note(format!("spans written to {}", trace_file.display()));
    Ok(report)
}
