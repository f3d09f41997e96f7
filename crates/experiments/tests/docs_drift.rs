//! Documentation drift guards.
//!
//! The figure/table map in `docs/FIGURES.md` and the registry behind
//! `flexserve list` describe the same catalog; this test golden-snapshots
//! the doc's cell table against `registry::FIGURES` so neither can change
//! without the other (the list output itself is pinned separately in
//! `golden_cli.rs`). `docs/SERVING.md` is likewise pinned to the serve
//! daemon's endpoint surface, and the doc tree's cross-links are checked
//! so a renamed file can't leave dangling references.

use flexserve_experiments::registry;

const FIGURES_MD: &str = include_str!("../../../docs/FIGURES.md");
const SERVING_MD: &str = include_str!("../../../docs/SERVING.md");
const ARCHITECTURE_MD: &str = include_str!("../../../docs/ARCHITECTURE.md");
const README_MD: &str = include_str!("../../../README.md");
const FLEXSERVE_RS: &str = include_str!("../src/bin/flexserve.rs");

/// Registry names appearing in the FIGURES.md table, in document order.
fn doc_table_names() -> Vec<String> {
    FIGURES_MD
        .lines()
        .filter_map(|line| {
            // table rows look like: | `fig03` | Fig. 3 | ... | `results/fig03.csv` |
            let rest = line.strip_prefix("| `")?;
            let (name, rest) = rest.split_once('`')?;
            rest.starts_with(" |").then(|| name.to_string())
        })
        .collect()
}

#[test]
fn figures_md_table_matches_the_registry_exactly() {
    let doc = doc_table_names();
    let registry: Vec<String> = registry::FIGURES
        .iter()
        .map(|f| f.name.to_string())
        .collect();
    assert_eq!(
        doc, registry,
        "docs/FIGURES.md table rows must list exactly the registry figures, in \
         registry (paper) order — update both together"
    );
}

#[test]
fn figures_md_rows_name_their_csv_artifacts() {
    for f in registry::FIGURES {
        let row = FIGURES_MD
            .lines()
            .find(|l| l.starts_with(&format!("| `{}` |", f.name)))
            .unwrap_or_else(|| panic!("docs/FIGURES.md has no row for {}", f.name));
        assert!(
            row.contains(&format!("results/{}.csv", f.name)),
            "{}'s row must name its CSV artifact: {row}",
            f.name
        );
    }
}

#[test]
fn serving_md_documents_every_endpoint() {
    for endpoint in [
        // session-scoped surface
        "POST /sessions",
        "GET /sessions",
        "POST /sessions/<name>/step",
        "GET /sessions/<name>/placement",
        "GET /sessions/<name>/metrics",
        "POST /sessions/<name>/checkpoint",
        "POST /sessions/<name>/events",
        "DELETE /sessions/<name>",
        // legacy aliases of the default session
        "POST /step",
        "GET /placement",
        "GET /metrics",
        "POST /checkpoint",
        "POST /shutdown",
    ] {
        assert!(
            SERVING_MD.contains(&format!("`{endpoint}`")),
            "docs/SERVING.md must document {endpoint}"
        );
    }
    // both checkpoint format tags are load-bearing for external tooling:
    // v2 is what the daemon writes, v1 is the promised-compatible past
    assert!(SERVING_MD.contains(flexserve_sim::CHECKPOINT_FORMAT));
    assert!(SERVING_MD.contains(flexserve_sim::CHECKPOINT_FORMAT_V1));
    // the serve keys added with the session manager (and the idle
    // reaper) stay documented
    for key in [
        "`bind=",
        "`workers=",
        "`reactor-threads=",
        "`max-sessions=",
        "`idle-evict=",
        "`request-timeout=",
    ] {
        assert!(
            SERVING_MD.contains(key),
            "docs/SERVING.md must document the {key} serve key"
        );
    }
    // the event-driven front end and the batch-step surface added with it
    for s in [
        "event-driven front end",
        "epoll",
        "event_loop.rs",
        "Batched stepping",
        "4096 rounds",
        "serve_batch.rs",
    ] {
        assert!(SERVING_MD.contains(s), "docs/SERVING.md must document {s}");
    }
    // persistent-connection semantics are part of the HTTP contract
    assert!(
        SERVING_MD.contains("keep-alive"),
        "docs/SERVING.md must document keep-alive connection semantics"
    );
    assert!(
        SERVING_MD.contains("Idle eviction"),
        "docs/SERVING.md must document the idle-evict behavior"
    );
    assert!(
        SERVING_MD.contains("\"evicted\": true"),
        "docs/SERVING.md must document the GET /sessions tombstone rows"
    );
    // the hardening status codes and the checkpointed event log are part
    // of the daemon's external contract
    for s in ["408", "413", "substrate_events", "SIGTERM"] {
        assert!(SERVING_MD.contains(s), "docs/SERVING.md must document {s}");
    }
}

#[test]
fn faults_md_documents_the_event_plane() {
    const FAULTS_MD: &str = include_str!("../../../docs/FAULTS.md");
    // the cell key and every event kind of the grammar
    assert!(
        FAULTS_MD.contains("`events=`"),
        "docs/FAULTS.md must document the events= cell key"
    );
    for kind in [
        "fail-link",
        "recover-link",
        "fail-node",
        "recover-node",
        "degrade-link",
    ] {
        assert!(
            FAULTS_MD.contains(&format!("`{kind}`")),
            "docs/FAULTS.md must document the {kind} event kind"
        );
    }
    // penalty semantics, the injection endpoint and the checkpoint field
    for s in [
        "UNREACHABLE_PENALTY",
        "`POST /sessions/<name>/events`",
        "substrate_events",
        "repair_vs_rebuild",
        "DistanceMatrix::repair",
    ] {
        assert!(FAULTS_MD.contains(s), "docs/FAULTS.md must document {s}");
    }
    // the rest of the doc tree points at the fault reference
    for (name, doc) in [
        ("README.md", README_MD),
        ("docs/ARCHITECTURE.md", ARCHITECTURE_MD),
        ("docs/SERVING.md", SERVING_MD),
    ] {
        assert!(doc.contains("FAULTS.md"), "{name} must link docs/FAULTS.md");
    }
}

#[test]
fn architecture_and_benchmarks_document_the_demand_plane() {
    // the two-planes split is the architecture's load-bearing refactor
    assert!(
        ARCHITECTURE_MD.contains("demand plane") && ARCHITECTURE_MD.contains("placement plane"),
        "docs/ARCHITECTURE.md must describe the demand/placement plane split"
    );
    for name in [
        "RoundTrace",
        "TraceCache",
        "RunMemo",
        "trace_equivalence.rs",
    ] {
        assert!(
            ARCHITECTURE_MD.contains(name),
            "docs/ARCHITECTURE.md must mention {name}"
        );
    }
}

#[test]
fn architecture_and_benchmarks_document_the_strategy_hot_path() {
    // the one-pass transposed scan is the strategy plane's hot path;
    // the architecture doc must name the machinery and its invariant
    assert!(
        ARCHITECTURE_MD.contains("strategy hot path"),
        "docs/ARCHITECTURE.md must carry the strategy-hot-path paragraph"
    );
    for name in [
        "WindowIndex",
        "CandidateScratch",
        "bit-identity",
        "candidate_scan",
    ] {
        assert!(
            ARCHITECTURE_MD.contains(name),
            "docs/ARCHITECTURE.md must mention {name}"
        );
    }
    // the paragraph itself must explain how migrations are scored: the
    // lower bound that prunes them and why pruning keeps the winner
    let paragraph = ARCHITECTURE_MD
        .split("\n\n")
        .find(|p| p.contains("**The strategy hot path**"))
        .expect("strategy-hot-path paragraph")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    for name in ["survivor_bounds", "lower bound", "first minimum"] {
        assert!(
            paragraph.contains(name),
            "the strategy-hot-path paragraph must name {name}"
        );
    }
}

#[test]
fn traces_md_documents_the_packed_plane() {
    const TRACES_MD: &str = include_str!("../../../docs/TRACES.md");
    // the format tag is the on-disk contract — the doc must carry the
    // exact string the code stamps
    assert!(
        TRACES_MD.contains(flexserve_workload::PACKED_FORMAT),
        "docs/TRACES.md must name the {} format tag",
        flexserve_workload::PACKED_FORMAT
    );
    // the CLI entry point and both code-level packing paths
    for s in [
        "trace pack",
        "pack_jsonl_file",
        "PackWriter",
        "PackedTrace",
        "PackedReplay",
        "packed_trace.rs",
    ] {
        assert!(TRACES_MD.contains(s), "docs/TRACES.md must document {s}");
    }
    // the magic strings are part of the layout
    assert!(
        TRACES_MD.contains("FXTRACE1") && TRACES_MD.contains("FXTRIDX1"),
        "docs/TRACES.md must show both magic strings"
    );
    // the CLI usage string keeps advertising the pack subcommand
    assert!(
        FLEXSERVE_RS.contains("trace pack <jsonl> [out=]"),
        "flexserve usage must advertise the trace pack subcommand"
    );
    // the rest of the doc tree points at the trace reference
    for (name, doc) in [
        ("README.md", README_MD),
        ("docs/ARCHITECTURE.md", ARCHITECTURE_MD),
        ("docs/SERVING.md", SERVING_MD),
    ] {
        assert!(doc.contains("TRACES.md"), "{name} must link docs/TRACES.md");
    }
    // one reader decodes every pack: the retired second reader's entry
    // points are named nowhere (spelled in pieces, like the names below)
    for (path, text) in doc_tree() {
        for retired in [
            concat!("open", "_streaming"),
            concat!("open", "_mmap"),
            concat!("uses", "_mmap"),
        ] {
            assert!(
                !text.contains(retired),
                "{} must not name the retired packed reader ({retired})",
                path.display()
            );
        }
    }
}

#[test]
fn cluster_md_documents_the_routing_tier() {
    const CLUSTER_MD: &str = include_str!("../../../docs/CLUSTER.md");
    // every endpoint the router's 404 body advertises is documented
    // (backticked), router-only and proxied alike
    for endpoint in flexserve_experiments::serve::route::ROUTER_ENDPOINT_LIST
        .split(',')
        .map(|e| e.split_whitespace().collect::<Vec<_>>().join(" "))
    {
        assert!(
            CLUSTER_MD.contains(&format!("`{endpoint}`")),
            "docs/CLUSTER.md must document {endpoint}"
        );
    }
    // every route key stays documented
    for key in [
        "`workers`",
        "`port`",
        "`bind`",
        "`threads`",
        "`replicas`",
        "`health-interval`",
        "`mark-down`",
        "`skew`",
        "`request-timeout`",
    ] {
        assert!(
            CLUSTER_MD.contains(key),
            "docs/CLUSTER.md must document the {key} route key"
        );
    }
    // the migration protocol's externally visible pieces
    for s in [
        "migrated_to",
        "resume=true",
        "bit-identical",
        "route_cluster.rs",
        "uptime_seconds",
    ] {
        assert!(CLUSTER_MD.contains(s), "docs/CLUSTER.md must document {s}");
    }
    // the migrated tombstone flavor and the DELETE hand-off body live in
    // the serving reference
    assert!(
        SERVING_MD.contains("migrated_to"),
        "docs/SERVING.md must document the migrated_to tombstone flavor"
    );
    assert!(
        SERVING_MD.contains("\"status\": \"migrated\""),
        "docs/SERVING.md must show the migrated tombstone row"
    );
    // the proxy's batch relay and connection pool stay documented
    for s in ["proxy.rs", "keep-alive"] {
        assert!(CLUSTER_MD.contains(s), "docs/CLUSTER.md must document {s}");
    }
    assert!(
        CLUSTER_MD.contains("Batched stepping"),
        "docs/CLUSTER.md must note that batched step bodies are relayed verbatim"
    );
    // the rest of the doc tree points at the cluster guide
    for (name, doc) in [
        ("README.md", README_MD),
        ("docs/ARCHITECTURE.md", ARCHITECTURE_MD),
        ("docs/SERVING.md", SERVING_MD),
    ] {
        assert!(
            doc.contains("CLUSTER.md"),
            "{name} must link docs/CLUSTER.md"
        );
    }
}

#[test]
fn both_tiers_document_the_one_front_end() {
    const CLUSTER_MD: &str = include_str!("../../../docs/CLUSTER.md");
    let serving = [
        "one HTTP front end",
        "try_parse_request",
        "blocking fallback",
    ];
    let cluster = ["event_loop.rs", "408", "413"];
    let architecture = ["one event-driven front end"];
    for (name, doc, pins) in [
        ("docs/SERVING.md", SERVING_MD, &serving[..]),
        ("docs/CLUSTER.md", CLUSTER_MD, &cluster[..]),
        ("docs/ARCHITECTURE.md", ARCHITECTURE_MD, &architecture[..]),
    ] {
        // the framing rules hold at both tiers' edges alike
        for pin in pins.iter().chain(&["Transfer-Encoding", "TCP_NODELAY"]) {
            assert!(doc.contains(pin), "{name} must document {pin}");
        }
    }
}

#[test]
fn doc_tree_cross_links_hold() {
    assert!(
        README_MD.contains("docs/SERVING.md"),
        "README must link the serving guide"
    );
    assert!(
        ARCHITECTURE_MD.contains("SERVING.md"),
        "ARCHITECTURE must link the serving guide from the module map"
    );
    assert!(FIGURES_MD.contains("registry.rs"));
}

/// Every Markdown document a reader is pointed at: the README, the
/// verify skill and `docs/*.md`, with their text.
fn doc_tree() -> Vec<(std::path::PathBuf, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the repository root");
    let mut docs = vec![
        root.join("README.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("read docs/") {
        let path = entry.expect("docs/ entry").path();
        if path.extension().is_some_and(|ext| ext == "md") {
            docs.push(path);
        }
    }
    docs.into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (path, text)
        })
        .collect()
}

// Retired names below are spelled in pieces so a repository-wide grep
// for them finds only the change history.

#[test]
fn no_doc_names_the_retired_perf_harness() {
    // `perfbench/` (driven by `BENCHMARK.json`) is the one perf harness;
    // the doc tree must not point readers at the retired one
    for (path, text) in doc_tree() {
        for retired in [
            concat!("perf", "_report"),
            concat!("BENCH", "_"),
            concat!("flexserve", "-bench"),
            "BENCHMARKS.md",
        ] {
            assert!(
                !text.contains(retired),
                "{} must not name the retired perf harness ({retired})",
                path.display()
            );
        }
    }
}

#[test]
fn no_doc_names_the_retired_trace_budget() {
    // recorded demand is no longer retained, so it has no byte budget
    let retired = concat!("FLEXSERVE_", "TRACE_BYTES");
    for (path, text) in doc_tree() {
        assert!(
            !text.contains(retired),
            "{} must not name the retired {retired}",
            path.display()
        );
    }
}

#[test]
fn nothing_names_the_retired_profile_variables() {
    // `--profile` is the one way to pick a sizing profile
    let usage = ("src/bin/flexserve.rs".into(), FLEXSERVE_RS.to_string());
    for (path, text) in doc_tree().into_iter().chain([usage]) {
        for retired in [
            concat!("FLEXSERVE_", "QUICK"),
            concat!("FLEXSERVE_", "FULL"),
        ] {
            assert!(
                !text.contains(retired),
                "{} must not name the retired {retired}",
                path.display()
            );
        }
    }
}

#[test]
fn no_doc_names_the_retired_static_session() {
    // `EventedSession` is the one session type; a static substrate is an
    // empty event schedule
    let retired = concat!("Sim", "Session");
    for (path, text) in doc_tree() {
        assert!(
            !text.contains(retired),
            "{} must not name the retired {retired}",
            path.display()
        );
    }
}

#[test]
fn no_doc_describes_the_retired_session_actors() {
    // A session is data behind its own lock, run on the calling worker;
    // no session owns a thread or a command channel ("reactor thread"
    // names the front end's event loops and stays)
    for (path, text) in doc_tree() {
        let text = text.to_lowercase();
        for retired in [concat!("actor", " thread"), concat!("actor", " channel")] {
            let named = text
                .match_indices(retired)
                .any(|(at, _)| !text[..at].ends_with(|c: char| c.is_alphabetic()));
            assert!(
                !named,
                "{} must not describe the retired session {retired}",
                path.display()
            );
        }
    }
}

#[test]
fn no_doc_names_the_retired_replay_scenarios() {
    // a replay is read by one fallible stream (`WorkloadSpec::source`);
    // the infallible scenario adapters and their helpers are gone
    for (path, text) in doc_tree() {
        for retired in [
            concat!("Packed", "Scenario"),
            concat!("Trace", "Scenario"),
            concat!("load", "_replay"),
            concat!("try", "_instantiate"),
            concat!("DEFAULT", "_WINDOW_ROUNDS"),
            concat!("next", "_rounds"),
        ] {
            assert!(
                !text.contains(retired),
                "{} must not name the retired {retired}",
                path.display()
            );
        }
    }
}

#[test]
fn no_doc_names_the_retired_cache_budget() {
    // matrices live as long as their holders and leases; there is no byte
    // budget to set
    for (path, text) in doc_tree() {
        for retired in [
            concat!("FLEXSERVE", "_CACHE_BYTES"),
            concat!("DEFAULT", "_CAPACITY_BYTES"),
        ] {
            assert!(
                !text.contains(retired),
                "{} must not name the retired {retired}",
                path.display()
            );
        }
    }
}
