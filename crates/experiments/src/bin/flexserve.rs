//! The unified experiment CLI: one binary for every figure, table, cell
//! and sweep of the evaluation.
//!
//! ```text
//! flexserve list
//! flexserve run fig03 [fig04 ...] | all        [--profile quick|standard|full]
//! flexserve run topo=er:100 wl=commuter-dynamic strat=onth [t=8 lambda=10 ...]
//! flexserve sweep topo=er:100 wl=commuter-dynamic strat=onth+onbr-fixed lambda=5+10 ...
//! flexserve serve topo=er:100 wl=commuter-dynamic strat=onth port=7788 [...]
//! flexserve route workers=127.0.0.1:7788+127.0.0.1:7789 port=7787 [...]
//! ```
//!
//! Cell/sweep keys: `topo`, `wl`, `strat` (see `flexserve list` for the
//! spec grammar), `t`, `lambda`, `rounds`, `seeds` (`a..b` range or
//! `a+b+c` list), `load` (`linear`, `quadratic`, `power(<p>)`), `beta`,
//! `c`, `ra`, `ri`, `k`, `flipped`, `events` (a substrate-event schedule,
//! e.g. `events=5:fail-link:2-7,10:recover-link:2-7`; see docs/FAULTS.md)
//! and `out` (CSV base name). In `sweep`, the axes
//! `topo`/`wl`/`strat`/`t`/`lambda` accept `+`-separated lists and the
//! cross product of all lists is run, cell by cell.
//!
//! Every invocation writes `manifest.json` next to its CSVs (under
//! `results/` or `$FLEXSERVE_RESULTS_DIR`) recording the spec, seeds, git
//! revision and the cache and result-memo counters of the run.

use std::process::ExitCode;

use flexserve_experiments::figures::Profile;
use flexserve_experiments::manifest::{Manifest, ManifestEntry};
use flexserve_experiments::output::results_dir;
use flexserve_experiments::registry;
use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::{CellBuilder, CellSpec};
use flexserve_experiments::{DistCache, RunMemo, Table, TraceCache};

const USAGE: &str = "\
usage: flexserve <subcommand> [args]

subcommands:
  list                         print every figure, topology, workload and strategy
  run <figure>... | all        regenerate paper figures by registry name
  run <key=value>...           run a single experiment cell
  sweep <key=value>...         run the cross product of +-separated axis lists
  trace record <key=value>...  record a workload into a JSONL demand trace
                               (topo=, wl= required; t, lambda, rounds, seed,
                               out=<path.jsonl>, default results/trace.jsonl)
  trace pack <jsonl> [out=]    pack a JSONL trace into the framed binary
                               format flexserve-trace-v1 (mmap-backed
                               replay; out= defaults to the input with a
                               .ftr extension; see docs/TRACES.md)
  trace replay <key=value>...  run a cell whose demand is a recorded trace
                               (file=<path> packed or JSONL + the usual
                               cell keys; sugar for run ... wl=replay:<path>)
  serve <key=value>...         run the multi-session streaming placement daemon
                               (the command line describes the default session;
                               more sessions via POST /sessions, stepped through
                               POST /sessions/<name>/step etc., legacy aliases
                               /step /placement /metrics /checkpoint; extra
                               keys: seed, port, bind, workers, max-sessions,
                               checkpoint, resume,
                               source=scenario|stdin|<path.jsonl>; see
                               docs/SERVING.md)
  route <key=value>...         run the consistent-hash routing tier over a
                               fleet of serve daemons (workers=host:port+...
                               required; extra keys: port, bind, threads,
                               replicas, health-interval, mark-down, skew,
                               request-timeout; live-migrates sessions
                               bit-identically on ring changes and load
                               skew; see docs/CLUSTER.md)
  help                         this text

options for `run <figure>`:
  --profile quick|standard|full   sweep sizing (default: standard)

cell/sweep keys (see `flexserve list` for spec grammars):
  topo=er:100   wl=commuter-dynamic   strat=onth
  t=8  lambda=10  rounds=200  seeds=1000..1003  load=linear
  beta=40  c=400  ra=2.5  ri=0.5  k=16  flipped=true  out=sweep
  events=5:fail-link:2-7,10:recover-link:2-7   (see docs/FAULTS.md)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command_line = args.join(" ");
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", registry::list_text());
            Ok(Manifest::new())
        }
        Some("run") => run(&args[1..]),
        Some("sweep") => sweep(&args[1..], false),
        Some("trace") => trace(&args[1..]),
        Some("serve") => {
            flexserve_experiments::serve::serve_cmd(&args[1..]).map(|()| Manifest::new())
        }
        Some("route") => {
            flexserve_experiments::serve::route::route_cmd(&args[1..]).map(|()| Manifest::new())
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(Manifest::new())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(manifest) => {
            if !manifest.is_empty() {
                let dist = DistCache::global().stats();
                let traces = TraceCache::global().stats();
                let memo = RunMemo::global().stats();
                match manifest.write(&command_line, dist, traces, memo) {
                    Ok(path) => eprintln!(
                        "manifest: {} ({} artifacts; dist cache {} hits / {} misses; \
                         {} trace recordings; result memo {} hits / {} misses)",
                        path.display(),
                        manifest.len(),
                        dist.hits,
                        dist.misses,
                        traces.misses,
                        memo.hits,
                        memo.misses
                    ),
                    Err(e) => {
                        eprintln!("error: cannot write manifest: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `trace` dispatch: `record` materializes a workload into a JSONL demand
/// trace; `pack` converts a JSONL trace into the framed binary
/// `flexserve-trace-v1` format; `replay` runs a cell against a recorded
/// trace (sugar for `run ... wl=replay:<path>`), making a recorded trace
/// a scenario like any other.
fn trace(args: &[String]) -> Result<Manifest, String> {
    match args.first().map(String::as_str) {
        Some("record") => trace_record(&args[1..]),
        Some("pack") => trace_pack(&args[1..]),
        Some("replay") => trace_replay(&args[1..]),
        _ => Err(format!(
            "trace: expected `trace record`, `trace pack` or `trace replay`\n{USAGE}"
        )),
    }
}

/// `flexserve trace record topo=... wl=... [t= lambda= rounds= seed= out=]`
/// — builds the substrate (through the distance-matrix cache), records
/// the workload and writes the rounds in the JSONL replay schema of
/// `docs/SERVING.md`.
fn trace_record(args: &[String]) -> Result<Manifest, String> {
    let mut builder = CellBuilder::new();
    let mut out: Option<String> = None;
    for arg in args {
        let (key, v) = arg
            .split_once('=')
            .ok_or_else(|| format!("trace record: expected key=value, got {arg:?}"))?;
        match key {
            "out" => out = Some(v.to_string()),
            "topo" | "wl" | "t" | "lambda" | "rounds" | "seed" => {
                builder.apply(key, v)?;
            }
            _ => return Err(format!("trace record: unknown key {key:?}")),
        }
    }
    builder.apply("strat", "static")?;
    let cell = builder
        .build()
        .map_err(|_| "trace record: topo= and wl= are required")?;
    let (t_periods, lambda, rounds, seed) =
        (cell.t_periods, cell.lambda, cell.rounds, cell.seeds[0]);
    if rounds == 0 || t_periods == 0 || lambda == 0 {
        return Err("trace record: t, lambda and rounds must be >= 1".into());
    }
    let out = out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("trace.jsonl"));

    let (topology, workload) = (&cell.topology, &cell.workload);
    let env = ExperimentEnv::from_spec(topology, seed)?;
    workload.validate_replay(env.graph.node_count())?;
    let trace = cell.record(&env, seed)?;

    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, trace.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!(
        "recorded {} rounds ({} requests) of {workload} over {topology} -> {}",
        trace.len(),
        trace.total_requests(),
        out.display()
    );

    let mut manifest = Manifest::new();
    manifest.add(ManifestEntry {
        artifact: out.display().to_string(),
        kind: "trace".into(),
        spec: format!(
            "{topology} x {workload} (T={t_periods}, lambda={lambda}, rounds={rounds}, seed={seed})"
        ),
        seeds: vec![seed],
        fingerprints: vec![env.graph.fingerprint()],
    });
    Ok(manifest)
}

/// `flexserve trace pack <jsonl> [out=<path>]` — streams a JSONL demand
/// trace into the framed binary `flexserve-trace-v1` format (one round
/// resident at a time on both sides). The output defaults to the input
/// path with a `.ftr` extension; every replay entry point
/// (`wl=replay:`, `source=`, `trace replay`) auto-detects the format by
/// magic, so the pack is a drop-in replacement for the JSONL original.
fn trace_pack(args: &[String]) -> Result<Manifest, String> {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    for arg in args {
        match arg.split_once('=') {
            Some(("out", v)) => out = Some(v.to_string()),
            Some((key, _)) => return Err(format!("trace pack: unknown key {key:?}")),
            None if input.is_none() => input = Some(arg.clone()),
            None => return Err(format!("trace pack: unexpected argument {arg:?}")),
        }
    }
    let input = input.ok_or("trace pack: expected `trace pack <trace.jsonl> [out=<path>]`")?;
    let out = out.unwrap_or_else(|| {
        std::path::Path::new(&input)
            .with_extension("ftr")
            .display()
            .to_string()
    });
    if out == input {
        return Err(format!(
            "trace pack: out={out} would overwrite the input; pick another path"
        ));
    }
    let jsonl_bytes = std::fs::metadata(&input)
        .map_err(|e| format!("cannot open {input}: {e}"))?
        .len();
    let summary = flexserve_workload::pack_jsonl_file(&input, &out)?;
    let ratio = if summary.bytes > 0 {
        jsonl_bytes as f64 / summary.bytes as f64
    } else {
        0.0
    };
    eprintln!(
        "packed {} rounds ({} origins universe) {} -> {}: {} -> {} bytes ({ratio:.2}x)",
        summary.rounds, summary.universe, input, out, jsonl_bytes, summary.bytes
    );

    let mut manifest = Manifest::new();
    manifest.add(ManifestEntry {
        artifact: out.clone(),
        kind: "trace-pack".into(),
        spec: format!(
            "{} <- {input} (rounds={}, universe={}, {jsonl_bytes} -> {} bytes, ratio={ratio:.2})",
            flexserve_workload::PACKED_FORMAT,
            summary.rounds,
            summary.universe,
            summary.bytes
        ),
        seeds: Vec::new(),
        fingerprints: Vec::new(),
    });
    Ok(manifest)
}

/// `flexserve trace replay file=<path> topo=... strat=... [cell keys]` —
/// runs a cell whose workload is the recorded trace.
fn trace_replay(args: &[String]) -> Result<Manifest, String> {
    let mut cell_args: Vec<String> = Vec::new();
    let mut file: Option<String> = None;
    for arg in args {
        match arg.split_once('=') {
            Some(("file", v)) => file = Some(v.to_string()),
            Some(("wl", _)) => {
                return Err("trace replay: the workload is the trace; use file=, not wl=".into())
            }
            _ => cell_args.push(arg.clone()),
        }
    }
    let file = file.ok_or("trace replay: file=<path> is required (packed or JSONL)")?;
    cell_args.push(format!("wl=replay:{file}"));
    sweep(&cell_args, true)
}

/// `run` dispatch: figure names (or `all`) vs a cell expression.
fn run(args: &[String]) -> Result<Manifest, String> {
    if args.is_empty() {
        return Err(format!("run: nothing to run\n{USAGE}"));
    }
    if args.iter().any(|a| a.contains('=') && !a.starts_with("--")) {
        return sweep(args, true);
    }

    let mut profile = Profile::Standard;
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => {
                let v = it.next().ok_or("run: --profile needs a value")?;
                profile = match v.as_str() {
                    "quick" => Profile::Quick,
                    "standard" => Profile::Standard,
                    "full" => Profile::Full,
                    _ => return Err(format!("run: unknown profile {v:?}")),
                };
            }
            name => names.push(name),
        }
    }
    if names.is_empty() {
        return Err(format!("run: nothing to run\n{USAGE}"));
    }
    if names == ["all"] {
        names = registry::FIGURES.iter().map(|f| f.name).collect();
    }
    for name in &names {
        if registry::figure(name).is_none() {
            return Err(format!(
                "run: unknown figure {name:?} (see `flexserve list`)"
            ));
        }
    }

    let entries: Vec<&registry::FigureEntry> = names
        .iter()
        .map(|name| registry::figure(name).expect("checked above"))
        .collect();
    registry::run_figures(&entries, profile, |entry, table, secs| {
        table.print();
        eprintln!("[{}] done in {secs:.1}s", entry.name);
    });

    let mut manifest = Manifest::new();
    for name in names {
        manifest.add(ManifestEntry {
            artifact: format!("{name}.csv"),
            kind: "figure".into(),
            spec: format!("{name} ({profile:?} profile)"),
            seeds: Vec::new(),
            fingerprints: Vec::new(),
        });
    }
    Ok(manifest)
}

fn parse_seeds(v: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = v.split_once("..") {
        let a: u64 = a.parse().map_err(|_| format!("seeds: bad start {a:?}"))?;
        let b: u64 = b.parse().map_err(|_| format!("seeds: bad end {b:?}"))?;
        if b <= a {
            return Err(format!("seeds: empty range {v:?}"));
        }
        Ok((a..b).collect())
    } else {
        v.split('+')
            .map(|s| s.parse().map_err(|_| format!("seeds: bad seed {s:?}")))
            .collect()
    }
}

/// The cell keys a sweep accepts as `+`-separated lists, outermost first.
const AXES: [&str; 5] = ["topo", "wl", "strat", "t", "lambda"];

/// Parses a cell expression or sweep into every cell of the cross
/// product of its axis lists, plus the CSV base name. `seeds` and `out`
/// are handled here; every other key goes through [`CellBuilder`], the
/// cell grammar `serve` and `POST /sessions` share.
fn parse_args(args: &[String], single_cell: bool) -> Result<(Vec<CellSpec>, String), String> {
    let mut base = CellBuilder::new();
    let mut lists: [Vec<&str>; 5] = Default::default();
    let mut seeds = vec![1000, 1001, 1002];
    let mut out = if single_cell { "cell" } else { "sweep" }.to_string();
    for arg in args {
        let (key, v) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {arg:?}\n{USAGE}"))?;
        if let Some(axis) = AXES.iter().position(|&a| a == key) {
            lists[axis] = v.split('+').collect();
            // Parse every value up front, before any cell runs.
            for part in &lists[axis] {
                CellBuilder::new().apply(key, part)?;
            }
            continue;
        }
        match key {
            "seeds" => seeds = parse_seeds(v)?,
            "out" => out = v.to_string(),
            // Cells average over `seeds=`; the builder's single `seed=`
            // is not a run/sweep key.
            _ if key != "seed" && base.apply(key, v)? => {}
            _ => return Err(format!("unknown key {key:?}\n{USAGE}")),
        }
    }
    if lists[..3].iter().any(Vec::is_empty) {
        return Err("topo=, wl= and strat= are required (see `flexserve list`)".into());
    }
    let mut builders = vec![base];
    for (key, list) in AXES.iter().zip(&lists).filter(|(_, l)| !l.is_empty()) {
        builders = builders
            .iter()
            .flat_map(|b| list.iter().map(move |v| (b.clone(), v)))
            .map(|(mut b, v)| b.apply(key, v).map(|_| b))
            .collect::<Result<_, _>>()?;
    }
    if single_cell && builders.len() != 1 {
        return Err(format!(
            "run: a cell expression must name exactly one cell ({} given); \
             use `flexserve sweep` for lists",
            builders.len()
        ));
    }
    let cells = builders
        .into_iter()
        .map(|b| {
            let mut cell = b.build()?;
            cell.seeds = seeds.clone();
            Ok(cell)
        })
        .collect::<Result<_, String>>()?;
    Ok((cells, out))
}

/// Runs all cells of the cross product and writes one CSV + manifest.
fn sweep(args: &[String], single_cell: bool) -> Result<Manifest, String> {
    let (cells, out) = parse_args(args, single_cell)?;
    let first = &cells[0];
    let mut table = Table::new(
        format!(
            "flexserve {}: {} (rounds={}, {} seeds, load={}, {})",
            if single_cell { "cell" } else { "sweep" },
            out,
            first.rounds,
            first.seeds.len(),
            first.load,
            first.params.summary()
        ),
        &[
            "topology",
            "workload",
            "strategy",
            "T",
            "lambda",
            "mean_total",
            "std_total",
            "access",
            "running",
            "migration",
            "creation",
        ],
    );

    // Validate every cell of the cross product before any expensive work:
    // a mid-sweep infeasibility (e.g. OPT on a too-large substrate) must
    // reject the sweep up front, not discard hours of completed cells.
    // The lease keeps what validation builds for the cells that run on
    // it; each cell gives back a seed's share as soon as that seed has run.
    let lease = DistCache::global().lease(cells.iter().flat_map(CellSpec::substrates));
    for cell in &cells {
        cell.validate()
            .map_err(|e| format!("infeasible cell [{}]: {e}", cell.describe()))?;
    }

    let mut manifest = Manifest::new();
    for cell in &cells {
        let res = cell.run_under(&lease)?;
        let mean = res.summary.mean();
        table.row(vec![
            cell.topology.to_string(),
            cell.workload.to_string(),
            cell.strategy.to_string(),
            cell.t_periods.to_string(),
            cell.lambda.to_string(),
            format!("{:.2}", res.summary.mean_total()),
            format!("{:.2}", res.summary.std_total()),
            format!("{:.2}", mean.access),
            format!("{:.2}", mean.running),
            format!("{:.2}", mean.migration),
            format!("{:.2}", mean.creation),
        ]);
        manifest.add(ManifestEntry {
            artifact: format!("{out}.csv"),
            kind: if single_cell { "cell" } else { "sweep" }.into(),
            spec: cell.describe(),
            seeds: cell.seeds.clone(),
            fingerprints: vec![res.fingerprint],
        });
    }
    table.print();
    table
        .save_csv(&out)
        .map_err(|e| format!("cannot write {out}.csv: {e}"))?;
    eprintln!(
        "wrote {}",
        results_dir().join(format!("{out}.csv")).display()
    );
    Ok(manifest)
}
