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
    const BENCHMARKS_MD: &str = include_str!("../../../docs/BENCHMARKS.md");
    // the two-planes split is the architecture's load-bearing refactor
    assert!(
        ARCHITECTURE_MD.contains("demand plane") && ARCHITECTURE_MD.contains("placement plane"),
        "docs/ARCHITECTURE.md must describe the demand/placement plane split"
    );
    for name in ["RoundTrace", "TraceCache", "trace_equivalence.rs"] {
        assert!(
            ARCHITECTURE_MD.contains(name),
            "docs/ARCHITECTURE.md must mention {name}"
        );
    }
    // the trace-sharing bench entry stays documented with its schema
    assert!(
        BENCHMARKS_MD.contains("`trace_sharing`"),
        "docs/BENCHMARKS.md must document the BENCH_sweeps.json trace_sharing entry"
    );
    // as does the incremental-repair entry added with the event plane
    assert!(
        BENCHMARKS_MD.contains("`repair_vs_rebuild`"),
        "docs/BENCHMARKS.md must document the BENCH_apsp.json repair_vs_rebuild entry"
    );
}

#[test]
fn architecture_and_benchmarks_document_the_strategy_hot_path() {
    const BENCHMARKS_MD: &str = include_str!("../../../docs/BENCHMARKS.md");
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
    // and the bench entry stays documented with its extra fields
    assert!(
        BENCHMARKS_MD.contains("`candidate_scan`"),
        "docs/BENCHMARKS.md must document the BENCH_sweeps.json candidate_scan entry"
    );
    for field in ["`candidates`", "`rounds`", "`servers`"] {
        assert!(
            BENCHMARKS_MD.contains(field),
            "docs/BENCHMARKS.md must document the candidate_scan {field} field"
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
        "PackedScenario",
        "PackedReplay",
        "packed_trace.rs",
    ] {
        assert!(TRACES_MD.contains(s), "docs/TRACES.md must document {s}");
    }
    // the magic strings and the windowing constant are part of the layout
    assert!(
        TRACES_MD.contains("FXTRACE1") && TRACES_MD.contains("FXTRIDX1"),
        "docs/TRACES.md must show both magic strings"
    );
    assert!(
        TRACES_MD.contains("4096"),
        "docs/TRACES.md must state the default window size"
    );
    // the CLI usage string keeps advertising the pack subcommand
    assert!(
        include_str!("../src/bin/flexserve.rs").contains("trace pack <jsonl> [out=]"),
        "flexserve usage must advertise the trace pack subcommand"
    );
    // the bench entry stays documented with its schema
    const BENCHMARKS_MD: &str = include_str!("../../../docs/BENCHMARKS.md");
    assert!(
        BENCHMARKS_MD.contains("`trace_pack`") && BENCHMARKS_MD.contains("resident_window_bytes"),
        "docs/BENCHMARKS.md must document the BENCH_trace.json trace_pack entry"
    );
    // the rest of the doc tree points at the trace reference
    for (name, doc) in [
        ("README.md", README_MD),
        ("docs/ARCHITECTURE.md", ARCHITECTURE_MD),
        ("docs/SERVING.md", SERVING_MD),
    ] {
        assert!(doc.contains("TRACES.md"), "{name} must link docs/TRACES.md");
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
    // the serving bench entries stay documented with their schemas
    const BENCHMARKS_MD: &str = include_str!("../../../docs/BENCHMARKS.md");
    for entry in ["`route_overhead`", "`batched_step`", "`connection_scaling`"] {
        assert!(
            BENCHMARKS_MD.contains(entry),
            "docs/BENCHMARKS.md must document the BENCH_serve.json {entry} entry"
        );
    }
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
