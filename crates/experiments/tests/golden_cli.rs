//! Golden tests pinning the `flexserve` CLI surface.
//!
//! * Every registry figure at the quick profile must reproduce its
//!   captured CSV (`golden/<name>_quick.csv`) byte for byte — the
//!   distance-matrix and trace caches, the registry dispatch and any
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
//!
//! The figure runs and the cache assertions share one test: they both
//! mutate process environment variables and write the same artifacts, and
//! Rust runs a binary's tests on concurrent threads.

use std::path::Path;

use flexserve_experiments::figures::Profile;
use flexserve_experiments::{registry, ExperimentEnv, WorkloadSpec};
use flexserve_workload::CommuterScenario;

/// `flexserve list` output.
const LIST_GOLDEN: &str = include_str!("golden/list.txt");

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_quick.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_figure_is_byte_identical_to_its_golden_and_hits_the_cache() {
    // Route artifacts to a scratch dir so the test never touches the
    // real results/ tree. The other tests in this binary read no
    // environment variables.
    let dir = std::env::temp_dir().join(format!("flexserve-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FLEXSERVE_RESULTS_DIR", &dir);

    for entry in registry::FIGURES {
        let want = golden(entry.name);
        let table = (entry.run)(Profile::Quick);
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
    }

    // fig03 evaluates 3 strategies × 2 seeds per size against shared
    // substrates and shared demand traces, recorded once per seed group;
    // the suite only *fills* the process-wide caches, and repeat lookups
    // (the next figure, a sweep, or the probes below) hit. Cached or not,
    // the bytes above stayed golden.
    let dist = flexserve_experiments::DistCache::global().stats();
    assert!(
        dist.misses >= 1,
        "expected the figure runs to fill the distance-matrix cache, got {dist:?}"
    );
    let traces = flexserve_experiments::TraceCache::global().stats();
    assert!(
        traces.misses >= 1,
        "expected the figure runs to record shared demand traces, got {traces:?}"
    );

    // Probe: re-requesting one of fig03's cells answers from both caches.
    let env = ExperimentEnv::erdos_renyi(30, 1000);
    assert!(
        flexserve_experiments::DistCache::global().stats().hits > dist.hits,
        "re-fetching a fig03 substrate must hit the distance-matrix cache"
    );
    let t = CommuterScenario::t_for_network_size(30);
    let rounds = Profile::Quick.rounds(500);
    WorkloadSpec::CommuterDynamic.shared_trace(&env, t, 10, rounds, 1000 ^ 0xABCD);
    assert!(
        flexserve_experiments::TraceCache::global().stats().hits > traces.hits,
        "re-recording a fig03 demand trace must hit the trace cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
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

    let (code, _, err) = flexserve_output(&dir, &["run", "all", "--profile", "quick"]);
    assert_eq!(code, Some(0), "{err}");
    let registry_order: Vec<&str> = registry::FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(done_lines(&err), registry_order, "{err}");
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
