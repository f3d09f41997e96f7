//! Golden tests pinning the `flexserve` CLI surface.
//!
//! * Every registry figure at the quick profile must reproduce its
//!   captured CSV (`golden/<name>_quick.csv`) byte for byte — the
//!   distance-matrix cache, the result memo, the registry dispatch and any
//!   refactor of the figure pipelines may never change experiment output.
//!   Since the strategies score candidates through the window scoring
//!   index and its bound-pruned scan (`WindowIndex` in `flexserve-core`),
//!   these goldens also pin that scan end to end: any non-bit-identical
//!   scoring or pruning change shifts placements and shows up here as a
//!   CSV diff.
//! * Two ER-500 sweeps (`golden/er500_sweep.csv`, default and flipped
//!   parameters) pin the candidate scan at the standard figures' scale,
//!   which the quick goldens (n ≤ 60) do not reach.
//! * `flexserve list` output must stay stable (the docs and CI smoke job
//!   reference its names).
//! * `flexserve run`/`sweep` accept exactly the cell grammar of
//!   `CellBuilder` plus `seeds=` and `out=`, and refuse everything else.
//! * A figure suite builds each substrate its figures declare exactly
//!   once and retains none afterwards; so does a sweep.
//! * A bad line in a JSONL replay refuses a sweep, with its line number,
//!   before any cell runs.
//! * Ignored by default (seconds in a release build; CI runs it with
//!   `--ignored`): every standard-profile figure CSV matches the FNV-1a
//!   digest and length the benchmark checks (`perfbench/figures.digests`).
//!
//! The quick figure runs and the cache assertions share one test: they
//! both mutate process environment variables and write the same
//! artifacts, and Rust runs a binary's tests on concurrent threads. The
//! standard run takes the same lock ([`FIGURE_RUNS`]) before it sets the
//! results directory.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

use flexserve_experiments::figures::Profile;
use flexserve_experiments::registry::{self, FigureEntry};
use flexserve_experiments::{
    DistCache, ExperimentEnv, StrategySpec, SubstrateKey, TopologySpec, WorkloadSpec,
};
use flexserve_sim::{CostParams, LoadModel};
use flexserve_workload::packed::fnv1a;
use flexserve_workload::{CommuterScenario, JsonValue};

/// `flexserve list` output.
const LIST_GOLDEN: &str = include_str!("golden/list.txt");

/// FNV-1a digest and byte length of each standard-profile figure CSV, as
/// the benchmark's figures workload checks them.
const STANDARD_DIGESTS: &str = include_str!("../../../perfbench/figures.digests");

/// Held by every test that runs figures in this process: each points
/// `FLEXSERVE_RESULTS_DIR` at its own directory and reads the global
/// cache's counters.
static FIGURE_RUNS: Mutex<()> = Mutex::new(());

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_quick.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The distinct substrate keys the quick suite declares.
fn declared_quick_substrates() -> HashSet<SubstrateKey> {
    (registry::FIGURES.iter())
        .flat_map(|entry| (entry.plan)(Profile::Quick).substrates().to_vec())
        .collect()
}

#[test]
fn every_figure_is_byte_identical_to_its_golden_and_hits_the_cache() {
    // Route artifacts to a scratch dir so the test never touches the
    // real results/ tree. The other tests in this binary read no
    // environment variables and run no figure in this process, except the
    // ignored standard run, which waits for the lock.
    let _runs = FIGURE_RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("flexserve-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FLEXSERVE_RESULTS_DIR", &dir);
    let cache = DistCache::global();
    let check = |entry: &FigureEntry, table: &flexserve_experiments::Table| {
        let want = golden(entry.name);
        assert_eq!(
            table.to_csv(),
            want,
            "{} must reproduce golden/{}_quick.csv byte-for-byte",
            entry.name,
            entry.name
        );
        // The file on disk is the same bytes.
        let on_disk = std::fs::read_to_string(dir.join(format!("{}.csv", entry.name))).unwrap();
        assert_eq!(on_disk, want, "{} on disk", entry.name);
    };

    // Each figure alone, under its own lease, builds exactly the
    // substrates it declares: an undeclared substrate would be built
    // again after its cell dropped it, and a declared one the figure never
    // reads would not be built at all.
    for entry in registry::FIGURES {
        let declared = (entry.plan)(Profile::Quick).substrates().len() as u64;
        let before = cache.stats().misses;
        let tables = registry::run_figures(&[entry], Profile::Quick, |_, _, _| {});
        assert_eq!(
            cache.stats().misses - before,
            declared,
            "{} must build each of the substrates it declares once",
            entry.name
        );
        assert!(cache.is_empty(), "{} left a substrate behind", entry.name);
        check(entry, &tables[0]);
    }

    // The whole suite under one lease builds each distinct declared
    // substrate once, however its figures interleave, and retains none
    // afterwards.
    let entries: Vec<&FigureEntry> = registry::FIGURES.iter().collect();
    let before = cache.stats().misses;
    let reported = std::sync::Mutex::new(Vec::new());
    let tables = registry::run_figures(&entries, Profile::Quick, |entry, table, _| {
        check(entry, table);
        reported.lock().unwrap().push(entry.name);
    });
    assert_eq!(
        cache.stats().misses - before,
        declared_quick_substrates().len() as u64,
        "the quick suite builds one matrix per distinct declared substrate"
    );
    assert!(cache.is_empty(), "the suite retains no substrate");
    let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
    assert_eq!(reported.into_inner().unwrap(), names, "reported in order");
    for (entry, table) in entries.iter().zip(&tables) {
        check(entry, table);
    }

    // fig03 evaluates 3 strategies × 2 seeds per size against shared
    // substrates, recording each cell's demand once; fig11 and fig13–19
    // request many identical OPT and OFFSTAT runs, which the result memo
    // answers once. Memoized or not, the bytes above stayed golden.
    let traces = flexserve_experiments::TraceCache::global().stats();
    assert!(
        traces.misses >= 1,
        "expected the figure runs to record demand, got {traces:?}"
    );
    let memo = flexserve_experiments::RunMemo::global().stats();
    assert!(
        memo.hits >= 1,
        "expected the OPT figures to share strategy runs, got {memo:?}"
    );

    // Probe: a fig03 substrate fetched after the suite is built afresh;
    // fetched again while a lease names it, it is a hit even though no
    // cell holds it.
    let lease = cache.lease(vec![TopologySpec::ErdosRenyi { n: 30 }.key(1000)]);
    let misses = cache.stats().misses;
    drop(ExperimentEnv::erdos_renyi(30, 1000));
    assert_eq!(cache.stats().misses, misses + 1, "nothing was retained");
    let hits = cache.stats().hits;
    let env = ExperimentEnv::erdos_renyi(30, 1000);
    let after = cache.stats();
    assert_eq!(
        (after.hits, after.misses),
        (hits + 1, misses + 1),
        "a lookup made while a lease is held is a hit"
    );
    // Re-running one of fig03's strategy runs answers from the memo.
    let t = CommuterScenario::t_for_network_size(30);
    let rounds = Profile::Quick.rounds(500);
    let demand = WorkloadSpec::CommuterDynamic.record(&env, t, 10, rounds, 1000 ^ 0xABCD);
    let ctx = env.context(CostParams::default(), LoadModel::Linear);
    let memoized = StrategySpec::OnTh.run(&ctx, &demand, 1000);
    let after = flexserve_experiments::RunMemo::global().stats();
    assert_eq!(
        (after.hits, after.misses),
        (memo.hits + 1, memo.misses),
        "re-running a fig03 strategy must hit the result memo"
    );
    let fresh = StrategySpec::OnTh.evaluate(&ctx, &demand, 1000);
    assert_eq!(memoized.total().to_bits(), fresh.total().to_bits());
    drop((demand, env, lease));
    assert!(cache.is_empty(), "the released lease freed the substrate");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "the standard profile takes seconds in a release build; CI runs it with --ignored"]
fn standard_figures_match_the_benchmark_digests() {
    let _runs = FIGURE_RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("flexserve-standard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FLEXSERVE_RESULTS_DIR", &dir);
    let entries: Vec<&FigureEntry> = registry::FIGURES.iter().collect();
    registry::run_figures(&entries, Profile::Standard, |_, _, _| {});
    let mismatches: Vec<String> = (registry::FIGURES.iter())
        .filter_map(|entry| {
            let want = STANDARD_DIGESTS.lines().find_map(|line| {
                let mut fields = line.split_whitespace();
                (fields.next() == Some(entry.name)).then(|| fields.collect::<Vec<_>>().join(" "))
            });
            let bytes = std::fs::read(dir.join(format!("{}.csv", entry.name))).unwrap();
            let got = format!("{:016x} {}", fnv1a(&bytes), bytes.len());
            (want.as_deref() != Some(got.as_str()))
                .then(|| format!("{}: expected {want:?}, got {got}", entry.name))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "standard-profile CSVs differ from perfbench/figures.digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn list_output_is_stable() {
    assert_eq!(
        registry::list_text(),
        LIST_GOLDEN,
        "`flexserve list` changed; update tests/golden/list.txt and docs/FIGURES.md deliberately"
    );
}

/// Runs the `flexserve` binary with results routed to `dir`; returns the
/// exit code, stdout and stderr.
fn flexserve_output(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    flexserve_on(dir, None, args)
}

/// [`flexserve_output`] on `threads` rayon threads, when given.
fn flexserve_on(dir: &Path, threads: Option<&str>, args: &[&str]) -> (Option<i32>, String, String) {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"));
    if let Some(threads) = threads {
        cmd.env("RAYON_NUM_THREADS", threads);
    }
    let out = cmd
        .args(args)
        .env("FLEXSERVE_RESULTS_DIR", dir)
        .output()
        .expect("spawn flexserve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// [`flexserve_output`] without stdout.
fn flexserve(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let (code, _, err) = flexserve_output(dir, args);
    (code, err)
}

/// The names of the `[name] done in Xs` lines of `stderr`, in order.
fn done_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix('[')?.split_once("] done in "))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn run_prints_concurrent_entries_in_argument_order() {
    let dir = std::env::temp_dir().join(format!("flexserve-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names = ["fig05", "fig01", "fig03"];
    let (code, out, err) =
        flexserve_output(&dir, &[&["run", "--profile", "quick"], &names[..]].concat());
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(done_lines(&err), names, "{err}");
    let titles: Vec<&str> = out.lines().filter(|l| l.starts_with("# ")).collect();
    let want: Vec<String> = names
        .iter()
        .map(|name| golden(name).lines().next().unwrap().to_string())
        .collect();
    assert_eq!(titles, want, "{out}");
    for name in names {
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
        assert_eq!(csv, golden(name), "{name}");
    }

    // `run all` keeps registry order and builds each declared substrate
    // once, at one thread and at several. fig11 and fig13–19 request the
    // same OPT and OFFSTAT runs, which the result memo answers once: it
    // hits, and runs the same distinct runs at any thread count.
    let registry_order: Vec<&str> = registry::FIGURES.iter().map(|f| f.name).collect();
    let declared = declared_quick_substrates().len() as u64;
    let mut memo_misses = Vec::new();
    for threads in ["1", "4"] {
        let (code, _, err) =
            flexserve_on(&dir, Some(threads), &["run", "all", "--profile", "quick"]);
        assert_eq!(code, Some(0), "{err}");
        assert_eq!(done_lines(&err), registry_order, "{err}");
        assert_eq!(
            counter(&dir, "distance_matrix_cache", "misses"),
            declared,
            "RAYON_NUM_THREADS={threads}: one build per declared substrate"
        );
        assert!(
            counter(&dir, "result_memo", "hits") > 0,
            "RAYON_NUM_THREADS={threads}: the figures share OPT runs: {err}"
        );
        memo_misses.push(counter(&dir, "result_memo", "misses"));
    }
    assert_eq!(
        memo_misses[0], memo_misses[1],
        "memo misses at 1 and 4 threads"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counter `block.key` recorded in `dir/manifest.json`.
fn counter(dir: &Path, block: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let manifest = JsonValue::parse(&text).unwrap();
    (manifest.get(block))
        .and_then(|counters| counters.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no {block}.{key} in {text}"))
}

#[test]
fn a_sweep_builds_each_substrate_once() {
    // Validation builds each cell's first substrate before any cell runs;
    // the sweep's lease keeps it for the three cells that read it.
    let dir = std::env::temp_dir().join(format!("flexserve-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (code, err) = flexserve(
        &dir,
        &[
            "sweep",
            "topo=er:200",
            "wl=commuter-dynamic",
            "strat=onth+onbr+offstat",
            "seeds=1+2",
        ],
    );
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(
        counter(&dir, "distance_matrix_cache", "misses"),
        2,
        "one build per seed: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_replay_line_rejects_the_sweep_before_any_cell_runs() {
    // A cell reads its JSONL replay once, when it records the demand; the
    // sweep's up-front validation still parses every line of it first.
    let dir = std::env::temp_dir().join(format!("flexserve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let lines: Vec<String> = (0..20)
        .map(|t| format!("{{\"t\":{t},\"origins\":[{},{}]}}", t % 8, (t * 3) % 8))
        .collect();
    let good = dir.join("good.jsonl");
    std::fs::write(&good, lines.join("\n") + "\n").unwrap();
    let mut broken = lines.clone();
    broken[15] = "{\"t\":15,\"origins\":[1,oops]}".into();
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, broken.join("\n") + "\n").unwrap();

    let sweep = |file: &Path, rounds: &str| {
        flexserve(
            &dir,
            &[
                "sweep",
                "topo=unit-line:8",
                &format!("wl=replay:{}", file.display()),
                "strat=onth+onbr-fixed",
                rounds,
                "seeds=5",
                "k=4",
                "out=replay",
            ],
        )
    };
    let (code, err) = sweep(&good, "rounds=20");
    assert_eq!(code, Some(0), "{err}");
    let csv = std::fs::read_to_string(dir.join("replay.csv")).unwrap();
    assert_eq!(
        csv.lines()
            .filter(|l| l.starts_with("unit-line:8,"))
            .count(),
        2
    );
    std::fs::remove_file(dir.join("replay.csv")).unwrap();

    // Line 16 is past the ten rounds the cells play, and still refused.
    for rounds in ["rounds=20", "rounds=10"] {
        let (code, err) = sweep(&bad, rounds);
        assert_eq!(code, Some(2), "{rounds}: {err}");
        assert!(err.contains("bad.jsonl line 16: json:"), "{rounds}: {err}");
        assert!(!err.contains("panicked"), "{rounds}: {err}");
        assert!(!dir.join("replay.csv").exists(), "{rounds}: a cell ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn er500_sweeps_are_byte_identical_to_their_goldens() {
    let dir = std::env::temp_dir().join(format!("flexserve-er500-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (flipped, out, golden_name) in [
        ("false", "er500", "er500_sweep"),
        ("true", "er500_flipped", "er500_flipped_sweep"),
    ] {
        let (code, err) = flexserve(
            &dir,
            &[
                "sweep",
                "topo=er:500",
                "wl=time-zones:p=50,req=50",
                "strat=onbr-fixed+onbr-dyn+onth",
                "t=16",
                "lambda=10",
                "rounds=60",
                "seeds=1000",
                &format!("flipped={flipped}"),
                &format!("out={out}"),
            ],
        );
        assert_eq!(code, Some(0), "{err}");
        let csv = std::fs::read_to_string(dir.join(format!("{out}.csv"))).unwrap();
        let want = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(format!("{golden_name}.csv")),
        )
        .unwrap();
        assert_eq!(csv, want, "golden/{golden_name}.csv");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_and_sweep_accept_the_cell_grammar_and_nothing_else() {
    let dir = std::env::temp_dir().join(format!("flexserve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cell = ["run", "topo=unit-line:6", "wl=uniform:req=2", "strat=onth"];

    // Flags without a figure name are an error, not a silent no-op.
    let (code, err) = flexserve(&dir, &["run", "--profile", "quick"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("run: nothing to run"), "{err}");
    assert!(!dir.join("manifest.json").exists());

    // Every scalar cell key, with flipped overridden by an explicit beta.
    let mut args = cell.to_vec();
    args.extend([
        "t=4",
        "lambda=3",
        "rounds=12",
        "seeds=1+2",
        "load=quadratic",
        "flipped=true",
        "beta=7",
        "ra=2",
        "ri=0.5",
        "k=3",
        "events=4:degrade-link:2-3:2",
        "out=cli",
    ]);
    let (code, err) = flexserve(&dir, &args);
    assert_eq!(code, Some(0), "{err}");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    for want in [
        "T=4, lambda=3, rounds=12, 2 seeds",
        "beta=7 c=40 Ra=2 Ri=0.5 k=3",
        "load=quadratic, events=4:degrade-link:2-3:2",
    ] {
        assert!(manifest.contains(want), "{want}: {manifest}");
    }

    // A sweep crosses its lists; `run` refuses them.
    let (code, err) = flexserve(
        &dir,
        &[
            "sweep",
            "topo=unit-line:6",
            "wl=uniform",
            "strat=onth+static",
            "t=2+4",
            "rounds=5",
            "seeds=1",
            "out=cli",
        ],
    );
    assert_eq!(code, Some(0), "{err}");
    let csv = std::fs::read_to_string(dir.join("cli.csv")).unwrap();
    let rows = csv.lines().filter(|l| l.starts_with("unit-line:6,"));
    assert_eq!(rows.count(), 4, "2x2 cells:\n{csv}");
    let (code, err) = flexserve(&dir, &[&cell[..], &["t=2+4"]].concat());
    assert_eq!(code, Some(2));
    assert!(err.contains("exactly one cell (2 given)"), "{err}");

    // `seed=` (serve's single seed), unknown keys and bad values fail.
    for bad in ["seed=1", "bogus=1", "port=0", "k=many", "t=2+x"] {
        let (code, err) = flexserve(&dir, &[&cell[..], &[bad]].concat());
        assert_eq!(code, Some(2), "{bad}: {err}");
        let key = bad.split('=').next().unwrap();
        assert!(err.contains(key), "{bad}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
