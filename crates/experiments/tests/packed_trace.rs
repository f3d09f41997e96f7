//! The packed trace plane's pinning suite (`flexserve-trace-v1`, see
//! `docs/TRACES.md`):
//!
//! * **Equivalence** — JSONL → `trace pack` → packed replay is bitwise
//!   identical to direct JSONL replay (per-round [`RoundRequests`] and
//!   end-to-end strategy cost), across topology × workload × seed tuples,
//!   on both backings (a mapped file, bytes in memory); and packing is a
//!   fixed point (`pack(unpack(pack(x)))` is byte-identical).
//! * **Corruption robustness** — byte-level mutations of a valid pack
//!   (truncations, magic/trailer flips, fingerprint and frame-index
//!   mismatches, out-of-order `t`) all fail with clean errors on both
//!   backings: no panics, no partial traces.
//! * **Windowed == full** — a 10⁵-round pack replayed through windows of
//!   size 1, 7, 4096 and whole-trace matches full materialization
//!   bitwise, and a serve session over a packed source resumed mid-trace
//!   from a checkpoint continues bit-identically (the
//!   `checkpoint_resume` invariant extended to packed sources).
//! * **O(window) residency** — a 10⁶-round pack replays via frame-index
//!   seeks without ever materializing, with a bounded resident window.

use proptest::prelude::*;

mod common;

use flexserve_experiments::serve::{ServeError, SessionConfig, SessionManager};
use flexserve_experiments::setup::ExperimentEnv;
use flexserve_experiments::spec::{StrategySpec, TopologySpec, WorkloadSpec};
use flexserve_graph::NodeId;
use flexserve_sim::{CostParams, LoadModel};
use flexserve_workload::packed::fnv1a;
use flexserve_workload::{
    pack_jsonl_file, replay_source, JsonValue, PackWriter, PackedReplay, PackedTrace,
    RequestSource, RoundRequests, RoundTrace,
};

/// Small substrates spanning the generator families (one APSP per case).
const TOPOLOGIES: &[&str] = &["unit-line:12", "er:30", "star:9", "ring:16", "grid:4x4"];

/// Workload families, bare specs as `flexserve run wl=` takes them.
const WORKLOADS: &[&str] = &[
    "uniform:req=3",
    "commuter-dynamic",
    "commuter-static",
    "time-zones",
    "onoff",
];

fn temp(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("flexserve-packed-{tag}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// Records a workload spec's demand exactly as a cell would.
fn fresh_trace(
    workload: &WorkloadSpec,
    env: &ExperimentEnv,
    lambda: u64,
    seed: u64,
    rounds: u64,
) -> RoundTrace {
    (*workload.record(env, 8, lambda, rounds, seed)).clone()
}

/// Every backing a pack can be opened on: the file mapped by `open`, and
/// its bytes handed to `from_bytes`.
fn open_all_modes(path: &str) -> Vec<(&'static str, Result<PackedTrace, String>)> {
    let bytes = std::fs::read(path).unwrap();
    vec![
        ("mmap", PackedTrace::open(path)),
        ("owned", PackedTrace::from_bytes(path, bytes)),
    ]
}

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// JSONL → pack → replay == direct JSONL replay, per round and for
    /// the end-to-end ONTH cost, on both backings; pack is a fixed point.
    #[test]
    fn packed_replay_is_bitwise_identical_to_jsonl(
        topo_idx in 0..TOPOLOGIES.len(),
        wl_idx in 0..WORKLOADS.len(),
        seed in 0u64..1000,
        lambda in 1u64..12,
        rounds in 10u64..40,
    ) {
        let topology: TopologySpec = TOPOLOGIES[topo_idx].parse().unwrap();
        let workload: WorkloadSpec = WORKLOADS[wl_idx].parse().unwrap();
        let env = ExperimentEnv::from_spec(&topology, seed).unwrap();
        let reference = fresh_trace(&workload, &env, lambda, seed, rounds);

        let jsonl = temp(&format!("eq-{topo_idx}-{wl_idx}.jsonl"));
        let pack = temp(&format!("eq-{topo_idx}-{wl_idx}.ftr"));
        std::fs::write(&jsonl, reference.to_jsonl()).unwrap();
        let summary = pack_jsonl_file(&jsonl, &pack).unwrap();
        prop_assert_eq!(summary.rounds, rounds);

        // Per-round equality on both packed backings and through the
        // format-sniffing replay_source entry point.
        for (mode, opened) in open_all_modes(&pack) {
            let packed = opened.unwrap();
            prop_assert_eq!(packed.materialize().unwrap(), reference.clone(), "{}", mode);
        }
        let mut sniffed = replay_source(&pack, env.graph.node_count()).unwrap();
        let lowered = RoundTrace::from_source(sniffed.as_mut(), None).unwrap();
        prop_assert_eq!(lowered, reference.clone());

        // Packing is deterministic and a fixed point: packing the
        // unpacked pack reproduces the file byte for byte.
        let bytes = std::fs::read(&pack).unwrap();
        let packed = PackedTrace::open(&pack).unwrap();
        prop_assert_eq!(packed.materialize().unwrap().to_packed(), bytes.clone());
        prop_assert_eq!(reference.to_packed(), bytes);

        // End-to-end strategy cost: a cell whose workload replays the
        // pack matches one replaying the JSONL original bit for bit.
        let ctx = env.context(CostParams::default().with_max_servers(4), LoadModel::Linear);
        let wl_jsonl: WorkloadSpec = format!("replay:{jsonl}").parse().unwrap();
        let wl_pack: WorkloadSpec = format!("replay:{pack}").parse().unwrap();
        let from_jsonl = fresh_trace(&wl_jsonl, &env, lambda, seed, rounds);
        let from_pack = fresh_trace(&wl_pack, &env, lambda, seed, rounds);
        prop_assert_eq!(&from_jsonl, &from_pack);
        let a = StrategySpec::OnTh.evaluate(&ctx, &from_jsonl, seed);
        let b = StrategySpec::OnTh.evaluate(&ctx, &from_pack, seed);
        prop_assert_eq!(a.access.to_bits(), b.access.to_bits());
        prop_assert_eq!(a.running.to_bits(), b.running.to_bits());
        prop_assert_eq!(a.migration.to_bits(), b.migration.to_bits());
        prop_assert_eq!(a.creation.to_bits(), b.creation.to_bits());

        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&pack).ok();
    }
}

// ---------------------------------------------------------------------------
// Corruption robustness
// ---------------------------------------------------------------------------

/// A valid multi-round pack to mutate.
fn victim_pack() -> Vec<u8> {
    let env = ExperimentEnv::from_spec(&"unit-line:12".parse().unwrap(), 7).unwrap();
    let workload: WorkloadSpec = "uniform:req=4".parse().unwrap();
    fresh_trace(&workload, &env, 6, 7, 30).to_packed()
}

/// Recomputes the header fingerprint after a deliberate frame mutation,
/// so the mutation reaches the validation layer *behind* the hash.
fn refingerprint(bytes: &mut [u8]) {
    let len = bytes.len();
    let idx_off = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let fp = fnv1a(&bytes[32..idx_off]);
    bytes[24..32].copy_from_slice(&fp.to_le_bytes());
}

/// Asserts both backings reject `bytes` with a clean error mentioning
/// `needle` (an empty needle = any clean error).
fn assert_corrupt(bytes: &[u8], tag: &str, needle: &str) {
    let path = temp(&format!("corrupt-{tag}.ftr"));
    std::fs::write(&path, bytes).unwrap();
    for (mode, opened) in open_all_modes(&path) {
        match opened {
            Ok(_) => panic!("{tag} ({mode}): corrupt pack must not open"),
            Err(e) => assert!(
                e.contains(needle),
                "{tag} ({mode}): error {e:?} must mention {needle:?}"
            ),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_packs_fail_cleanly_in_both_readers() {
    let valid = victim_pack();

    // Truncations: inside the header, just short of the minimum, and
    // mid-frame (which also destroys the trailer).
    assert_corrupt(&valid[..10], "header", "truncated");
    assert_corrupt(&valid[..47], "min-len", "truncated");
    assert_corrupt(&valid[..valid.len() / 2], "mid-frame", "");
    assert_corrupt(&valid[..valid.len() - 8], "no-trailer", "");

    // Bad leading magic.
    let mut bad = valid.clone();
    bad[0] ^= 0x40;
    assert_corrupt(&bad, "magic", "bad magic");

    // Bad trailer magic.
    let mut bad = valid.clone();
    let at = valid.len() - 1;
    bad[at] ^= 0x40;
    assert_corrupt(&bad, "trailer", "corrupt trailer");

    // A flipped fingerprint field.
    let mut bad = valid.clone();
    bad[24] ^= 0x01;
    assert_corrupt(&bad, "fingerprint-field", "fingerprint mismatch");

    // A flipped frame byte (the hash catches silent bit rot).
    let mut bad = valid.clone();
    bad[36] ^= 0x01;
    assert_corrupt(&bad, "frame-bit", "fingerprint mismatch");

    // A lying round count.
    let mut bad = valid.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert_corrupt(&bad, "rounds", "corrupt frame index");

    // A lying index offset.
    let mut bad = valid.clone();
    let at = valid.len() - 16;
    bad[at] = bad[at].wrapping_add(8);
    assert_corrupt(&bad, "index-offset", "corrupt frame index");

    // A mutated index entry (frame 1 no longer starts where frame 0
    // ends). The frame region itself is untouched, so the fingerprint
    // still matches — the index walk must catch it.
    let idx_off =
        u64::from_le_bytes(valid[valid.len() - 16..valid.len() - 8].try_into().unwrap()) as usize;
    let mut bad = valid.clone();
    bad[idx_off + 8] = bad[idx_off + 8].wrapping_add(1);
    assert_corrupt(&bad, "index-entry", "frame index mismatch");

    // A mutated frame length prefix, re-fingerprinted so only the
    // structural walk can object: frame 1 then starts mid-air.
    let mut bad = valid.clone();
    bad[32] = bad[32].wrapping_add(1);
    refingerprint(&mut bad);
    assert_corrupt(&bad, "length-prefix", "frame index mismatch");
}

/// Re-stamps frame `frame` of a valid pack with `t = frame + 1` and
/// re-fingerprints it: the pack passes every open-time structural check,
/// and only the decode-time `t` validation is left to object.
fn restamp(bytes: &mut [u8], frame: usize) {
    let len = bytes.len();
    let idx_off = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let entry = idx_off + 8 * frame;
    // The frame's `t` varint sits 4 bytes past its length prefix; bumping
    // its low byte adds 1 unless that byte's 7 payload bits are all set.
    let at = u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap()) as usize + 4;
    assert!(
        bytes[at] & 0x7f < 0x7f,
        "frame {frame}: t does not bump in place"
    );
    bytes[at] += 1;
    refingerprint(bytes);
}

/// [`victim_pack`] with frame 1 re-stamped `t=2` (see [`restamp`]).
fn out_of_order_pack() -> Vec<u8> {
    let mut bad = victim_pack();
    restamp(&mut bad, 1);
    bad
}

#[test]
fn out_of_order_t_is_caught_at_decode_time_in_both_readers() {
    let bad = out_of_order_pack();
    let path = temp("corrupt-out-of-order.ftr");
    std::fs::write(&path, &bad).unwrap();
    for (mode, opened) in open_all_modes(&path) {
        let packed = opened.unwrap_or_else(|e| panic!("{mode}: open must succeed: {e}"));
        // Round 0 is intact ...
        packed.round(0).unwrap();
        // ... round 1 carries the wrong t.
        let err = packed.round(1).err().unwrap();
        assert!(
            err.contains("out-of-order round (expected t=1, got t=2)"),
            "{mode}: {err:?}"
        );
        // The same protects streaming replay (no partial rounds emitted).
        let mut replay = PackedReplay::from_trace(packed, 12).unwrap();
        replay.next_round().unwrap();
        assert!(replay.next_round().is_err(), "{mode}: replay must fail too");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn undecodable_frame_exits_2_from_run_and_trace_replay() {
    let path = temp("corrupt-cli.ftr");
    std::fs::write(&path, out_of_order_pack()).unwrap();
    let results = temp("corrupt-cli-results");
    let cell = [
        "topo=unit-line:12",
        "strat=onth",
        "rounds=30",
        "seeds=1+2",
        "k=4",
    ];
    let run: Vec<String> = ["run".to_string(), format!("wl=replay:{path}")]
        .into_iter()
        .chain(cell.map(String::from))
        .collect();
    let replay: Vec<String> = ["trace", "replay", &format!("file={path}")]
        .map(String::from)
        .into_iter()
        .chain(cell.map(String::from))
        .collect();
    for args in [run, replay] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
            .args(&args)
            .env("FLEXSERVE_RESULTS_DIR", &results)
            .output()
            .expect("spawn flexserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error:") && stderr.contains("out-of-order round"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&results).ok();
}

/// Spawns `flexserve serve` with `args` (stderr to `stderr`) and returns
/// it with the address it announced.
fn spawn_daemon(
    args: &[String],
    stderr: std::process::Stdio,
) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead;
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_flexserve"))
        .arg("serve")
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn flexserve");
    let mut line = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in announcement {line:?}"));
    (daemon, addr)
}

/// A serve session on a pack whose frame 1 does not decode opens (the
/// pack is structurally sound), serves round 0 and answers 400 at
/// round 1 without panicking, and keeps serving: the daemon's other
/// routes and a `SessionManager`'s other sessions still answer.
#[test]
fn undecodable_frame_fails_a_serve_session_cleanly() {
    let path = temp("corrupt-serve.ftr");
    std::fs::write(&path, out_of_order_pack()).unwrap();
    let checkpoint = temp("corrupt-serve-ck.json");
    let args = [
        "topo=unit-line:12".to_string(),
        format!("wl=replay:{path}"),
        "strat=onth".into(),
        "k=4".into(),
        "port=0".into(),
        format!("checkpoint={checkpoint}"),
    ];
    let (daemon, addr) = spawn_daemon(&args, std::process::Stdio::piped());
    let step = |body| common::http(addr, "POST", "/sessions/default/step", body);
    assert_eq!(step("").0, 200, "round 0 decodes");
    let (status, body) = step("");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("out-of-order round"), "{body}");
    let (status, body) = common::http(addr, "GET", "/sessions/default/metrics", "");
    assert_eq!(status, 200, "the session stays live: {body}");
    common::http(addr, "POST", "/shutdown", "");
    let out = daemon.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");

    let mgr = SessionManager::new(4);
    let good_ck = temp("corrupt-serve-good.json");
    let cell = |wl: &str, ck: &str| {
        let args: Vec<String> = ["topo=unit-line:12", wl, "strat=onth", "k=4"]
            .iter()
            .map(|s| s.to_string())
            .chain([format!("checkpoint={ck}")])
            .collect();
        SessionConfig::parse(&args, "cell").unwrap()
    };
    mgr.create("good", cell("wl=uniform:req=2", &good_ck))
        .unwrap();
    mgr.create("bad", cell(&format!("wl=replay:{path}"), &checkpoint))
        .unwrap();
    assert!(mgr.step("bad", "").is_ok(), "round 0 decodes");
    match mgr.step("bad", "") {
        Err(ServeError::Bad(msg)) => assert!(msg.contains("out-of-order round"), "{msg}"),
        other => panic!("a bad round must be a 400: {:?}", other.map(|v| v.render())),
    }
    assert!(mgr.step("good", "").is_ok(), "the daemon keeps serving");
    assert!(mgr.metrics("bad").is_ok(), "the bad session stays live");
    mgr.shutdown_all();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(&good_ck).ok();
}

// ---------------------------------------------------------------------------
// Windowed == full
// ---------------------------------------------------------------------------

/// Deterministic synthetic demand, cheap enough for 10⁵–10⁶ rounds: a
/// couple of origins whose ids and counts are simple functions of `t`.
fn synthetic_round(t: u64, universe: u64) -> RoundRequests {
    let a = (t * 7) % universe;
    let b = (t * 13 + 5) % universe;
    let mut counts = vec![(NodeId::new(a as usize), 1 + (t % 3) as usize)];
    if b != a {
        counts.push((NodeId::new(b as usize), 1 + (t % 5) as usize));
    }
    RoundRequests::from_counts(counts)
}

/// Streams `rounds` synthetic rounds into a pack at `path`.
fn write_synthetic_pack(path: &str, rounds: u64, universe: u64) {
    let file = std::fs::File::create(path).unwrap();
    let mut writer = PackWriter::new(std::io::BufWriter::new(file)).unwrap();
    for t in 0..rounds {
        writer.write_round(&synthetic_round(t, universe)).unwrap();
    }
    let (summary, _) = writer.finish().unwrap();
    assert_eq!(summary.rounds, rounds);
}

#[test]
fn windowed_views_match_full_materialization_bitwise() {
    const ROUNDS: u64 = 100_000;
    let path = temp("window-1e5.ftr");
    write_synthetic_pack(&path, ROUNDS, 97);

    for (mode, opened) in open_all_modes(&path) {
        let packed = opened.unwrap();
        let full = packed.materialize().unwrap();
        assert_eq!(full.len() as u64, ROUNDS);
        for window in [1u64, 7, 4096, ROUNDS] {
            let mut start = 0u64;
            while start < ROUNDS {
                let view = packed.window(start, window).unwrap();
                assert_eq!(
                    view,
                    full.slice(start as usize, (start + window) as usize),
                    "{mode}: window [{start}, {start}+{window}) diverged"
                );
                start += window;
            }
        }
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn million_round_pack_replays_with_o_window_residency() {
    const ROUNDS: u64 = 1_000_000;
    const UNIVERSE: u64 = 997;
    let path = temp("million.ftr");
    write_synthetic_pack(&path, ROUNDS, UNIVERSE);

    for (mode, opened) in open_all_modes(&path) {
        let packed = opened.unwrap();
        assert_eq!(packed.len(), ROUNDS, "{mode}");
        assert_eq!(packed.origin_universe(), UNIVERSE, "{mode}");

        // O(1) frame-index seeks: spot-check rounds far apart without
        // decoding anything in between, never materializing.
        for t in [0u64, 1, 123_456, 500_000, ROUNDS - 1] {
            assert_eq!(
                packed.round(t).unwrap(),
                synthetic_round(t, UNIVERSE),
                "{mode}: round {t}"
            );
        }

        // A mid-trace window stays small: the resident decoded bytes are
        // O(window), not O(trace).
        let view = packed.window(123_456, 2048).unwrap();
        assert_eq!(view.len(), 2048);
        assert_eq!(view.round(0), &synthetic_round(123_456, UNIVERSE));
        assert!(
            view.memory_bytes() < 1 << 20,
            "{mode}: 2048-round window must stay under 1 MiB, got {}",
            view.memory_bytes()
        );
    }

    // The replay source fast-forwards by index seek (resume path): skip
    // a million-ish rounds in O(1) and read the tail.
    let mut replay = PackedReplay::open(&path, UNIVERSE as usize).unwrap();
    replay.skip(ROUNDS - 10).unwrap();
    for t in ROUNDS - 10..ROUNDS {
        assert_eq!(
            replay.next_round().unwrap().unwrap(),
            synthetic_round(t, UNIVERSE),
            "tail round {t}"
        );
    }
    assert!(replay.next_round().unwrap().is_none());
    std::fs::remove_file(&path).ok();
}

/// Peak resident set (`VmHWM`, kB) of a `flexserve serve` daemon on
/// `unit-line:8` after it has stepped 300 source rounds, with `extra`
/// (its workload, and its source if any) appended to its arguments.
#[cfg(target_os = "linux")]
fn daemon_peak_rss_kb(tag: &str, extra: &[String]) -> u64 {
    let checkpoint = temp(&format!("rss-{tag}.json"));
    let args: Vec<String> = [
        "topo=unit-line:8",
        "strat=onth",
        "k=4",
        "rounds=1000",
        "port=0",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("checkpoint={checkpoint}")])
    .chain(extra.iter().cloned())
    .collect();
    let (mut daemon, addr) = spawn_daemon(&args, std::process::Stdio::null());
    let (status, body) = common::http(addr, "POST", "/sessions/default/step", r#"{"n":300}"#);
    assert_eq!(status, 200, "{tag}: {body}");
    let proc_status = std::fs::read_to_string(format!("/proc/{}/status", daemon.id())).unwrap();
    let hwm = proc_status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status");
    common::http(addr, "POST", "/shutdown", "");
    daemon.wait().unwrap();
    std::fs::remove_file(&checkpoint).ok();
    hwm
}

/// Opening a multi-MB pack leaves none of it resident: a daemon serving
/// 300 rounds from it, as `source=` or as a `wl=replay:` workload, peaks
/// less than 1 MiB above one serving a generator (reading the whole file
/// at open would add all 5 MB).
#[cfg(target_os = "linux")]
#[test]
fn a_served_pack_is_resident_only_where_replay_reads() {
    let path = temp("resident.ftr");
    write_synthetic_pack(&path, 250_000, 8);
    let size = std::fs::metadata(&path).unwrap().len();
    assert!(
        size > 4 << 20,
        "the pack must be multi-MB, got {size} bytes"
    );
    let generator = "wl=uniform:req=2".to_string();
    let scenario = daemon_peak_rss_kb("scenario", std::slice::from_ref(&generator));
    let packed = daemon_peak_rss_kb("pack", &[generator, format!("source={path}")]);
    let replayed = daemon_peak_rss_kb("replay", &[format!("wl=replay:{path}")]);
    std::fs::remove_file(&path).ok();
    for (via, peak) in [("source=", packed), ("wl=replay:", replayed)] {
        assert!(
            peak < scenario + 1024,
            "{via}: peak RSS {peak} kB on a {size}-byte pack vs {scenario} kB without one"
        );
    }
}

// ---------------------------------------------------------------------------
// Serve: packed source, checkpoint + resume bit-identical
// ---------------------------------------------------------------------------

fn session_args(source: &str, checkpoint: &str) -> Vec<String> {
    vec![
        "topo=unit-line:8".into(),
        "wl=uniform:req=3".into(),
        "strat=onth".into(),
        "rounds=40".into(),
        "seed=3".into(),
        "k=4".into(),
        format!("source={source}"),
        format!("checkpoint={checkpoint}"),
    ]
}

/// A serve session over a packed source steps identically to one over
/// the JSONL original, and resuming mid-trace from a checkpoint
/// continues bit-identically (every step body and the final placement).
#[test]
fn serve_session_over_packed_source_resumes_bit_identically() {
    const STEPS: usize = 36;
    const CUT: usize = 17;
    let dir = std::env::temp_dir().join(format!("flexserve-packed-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("demand.jsonl").display().to_string();
    let pack = dir.join("demand.ftr").display().to_string();

    // Demand: a recorded uniform trace, packed and JSONL side by side.
    let env = ExperimentEnv::from_spec(&"unit-line:8".parse().unwrap(), 3).unwrap();
    let workload: WorkloadSpec = "uniform:req=3".parse().unwrap();
    let trace = fresh_trace(&workload, &env, 10, 3, STEPS as u64);
    std::fs::write(&jsonl, trace.to_jsonl()).unwrap();
    std::fs::write(&pack, trace.to_packed()).unwrap();

    // Reference: uninterrupted sessions over the JSONL and packed files.
    let mgr = SessionManager::new(8);
    let ck_a = dir.join("ref-jsonl.json").display().to_string();
    let ck_b = dir.join("ref-pack.json").display().to_string();
    mgr.create(
        "ref-jsonl",
        SessionConfig::parse(&session_args(&jsonl, &ck_a), "ref-jsonl").unwrap(),
    )
    .unwrap();
    mgr.create(
        "ref-pack",
        SessionConfig::parse(&session_args(&pack, &ck_b), "ref-pack").unwrap(),
    )
    .unwrap();
    let mut reference = Vec::with_capacity(STEPS);
    for t in 0..STEPS {
        let a = mgr.step("ref-jsonl", "").unwrap().render();
        let b = mgr.step("ref-pack", "").unwrap().render();
        assert_eq!(a, b, "step {t}: packed and JSONL sources must agree");
        reference.push(a);
    }
    let reference_placement = mgr.placement("ref-pack").unwrap().render();
    assert_eq!(
        reference_placement,
        mgr.placement("ref-jsonl").unwrap().render()
    );

    // Interrupted run: step to CUT over the packed source, checkpoint,
    // tear the session down, resume, and finish the horizon.
    let ck = dir.join("resume.json").display().to_string();
    let mut cell = session_args(&pack, &ck);
    mgr.create("resumer", SessionConfig::parse(&cell, "resumer").unwrap())
        .unwrap();
    for step in reference.iter().take(CUT) {
        assert_eq!(&mgr.step("resumer", "").unwrap().render(), step);
    }
    mgr.checkpoint("resumer").unwrap();
    mgr.remove("resumer").unwrap();

    cell.push("resume=true".into());
    let info = mgr
        .create("resumer", SessionConfig::parse(&cell, "resumer").unwrap())
        .unwrap();
    assert_eq!(info.get("resumed_at").unwrap().as_u64(), Some(CUT as u64));
    assert!(
        info.get("source")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("packed replay"),
        "resumed session must be on the packed source: {}",
        info.render()
    );
    for (t, step) in reference.iter().enumerate().skip(CUT) {
        assert_eq!(
            &mgr.step("resumer", "").unwrap().render(),
            step,
            "resumed step {t} diverged from the uninterrupted run"
        );
    }
    assert_eq!(
        mgr.placement("resumer").unwrap().render(),
        reference_placement
    );

    // The packed file ends exactly at the horizon: the next pull is a
    // clean exhaustion, mirroring the JSONL behavior.
    assert!(mgr.step("resumer", "").is_err());
    assert!(mgr.step("ref-pack", "").is_err());

    // Resuming past the end of a *shorter* pack fails cleanly at create.
    let short = dir.join("short.ftr").display().to_string();
    std::fs::write(&short, trace.slice(0, CUT - 1).to_packed()).unwrap();
    let mut short_cell = session_args(&short, &ck);
    short_cell.push("resume=true".into());
    match mgr.create(
        "too-short",
        SessionConfig::parse(&short_cell, "too-short").unwrap(),
    ) {
        Ok(_) => panic!("resume from a too-short pack must fail"),
        Err(e) => {
            let msg = format!("{e:?}");
            assert!(
                msg.contains("shorter than the checkpoint"),
                "unexpected error: {msg}"
            );
        }
    }

    mgr.shutdown_all();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Serve: `wl=replay:` on the scenario source
// ---------------------------------------------------------------------------

/// A `SessionManager` cell on `unit-line:12` (`strat=onth k=4 seed=7`)
/// with workload `wl`, horizon `rounds` and checkpoint `ck`, plus `extra`.
fn replay_cell(wl: &str, rounds: u64, ck: &str, extra: &[&str]) -> SessionConfig {
    let args: Vec<String> = ["topo=unit-line:12", "strat=onth", "k=4", "seed=7"]
        .iter()
        .map(|s| s.to_string())
        .chain([
            format!("wl={wl}"),
            format!("rounds={rounds}"),
            format!("checkpoint={ck}"),
        ])
        .chain(extra.iter().map(|s| s.to_string()))
        .collect();
    SessionConfig::parse(&args, "cell").unwrap()
}

/// `wl=replay:` sessions on a 30-round recording, served with
/// `rounds=40`: packed and JSONL replays step bodies byte-identical to
/// the generator session they were recorded from while the file lasts,
/// identical to each other (`"requests":0`) through the padding, then
/// run dry with 410; a checkpoint taken in the padding resumes
/// bit-identically.
#[test]
fn replay_workload_sessions_step_like_their_generator_then_pad() {
    const RECORDED: u64 = 30;
    const HORIZON: u64 = 40;
    const CUT: usize = 35;
    let dir = std::env::temp_dir().join(format!("flexserve-replay-wl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).display().to_string();
    let env = ExperimentEnv::from_spec(&"unit-line:12".parse().unwrap(), 7).unwrap();
    let generator = "uniform:req=4";
    let trace = fresh_trace(&generator.parse().unwrap(), &env, 6, 7, RECORDED);
    let (jsonl, pack) = (file("demand.jsonl"), file("demand.ftr"));
    std::fs::write(&jsonl, trace.to_jsonl()).unwrap();
    std::fs::write(&pack, trace.to_packed()).unwrap();
    let replays = [format!("replay:{pack}"), format!("replay:{jsonl}")];

    let mgr = SessionManager::new(8);
    mgr.create(
        "gen",
        replay_cell(generator, HORIZON, &file("gen.json"), &[]),
    )
    .unwrap();
    for (i, wl) in replays.iter().enumerate() {
        let ck = file(&format!("r{i}.json"));
        mgr.create(&format!("r{i}"), replay_cell(wl, HORIZON, &ck, &[]))
            .unwrap();
    }
    let mut reference = Vec::new();
    for t in 0..HORIZON {
        let packed = mgr.step("r0", "").unwrap().render();
        let jsonl_body = mgr.step("r1", "").unwrap().render();
        let generated = mgr.step("gen", "").unwrap().render();
        assert_eq!(packed, jsonl_body, "t={t}: pack and JSONL replays diverged");
        if t < RECORDED {
            assert_eq!(
                packed, generated,
                "t={t}: replay diverged from its generator"
            );
        } else {
            assert!(packed.contains("\"requests\":0"), "t={t}: {packed}");
        }
        reference.push(packed);
    }
    for name in ["r0", "r1"] {
        assert!(matches!(mgr.step(name, ""), Err(ServeError::Exhausted)));
    }

    // Checkpoint inside the padding, resume, and finish the horizon.
    for (i, wl) in replays.iter().enumerate() {
        let (name, ck) = (format!("cut{i}"), file(&format!("cut{i}.json")));
        mgr.create(&name, replay_cell(wl, HORIZON, &ck, &[]))
            .unwrap();
        for step in reference.iter().take(CUT) {
            assert_eq!(&mgr.step(&name, "").unwrap().render(), step);
        }
        mgr.checkpoint(&name).unwrap();
        mgr.remove(&name).unwrap();
        let info = mgr
            .create(&name, replay_cell(wl, HORIZON, &ck, &["resume=true"]))
            .unwrap();
        assert_eq!(info.get("resumed_at").unwrap().as_u64(), Some(CUT as u64));
        for (t, step) in reference.iter().enumerate().skip(CUT) {
            assert_eq!(
                &mgr.step(&name, "").unwrap().render(),
                step,
                "{wl}: resumed step {t} diverged"
            );
        }
        assert!(matches!(mgr.step(&name, ""), Err(ServeError::Exhausted)));
    }
    mgr.shutdown_all();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Serve: a round that does not decode fails its step, not its session
// ---------------------------------------------------------------------------

/// Serves `clean` with frame `bad_t` re-stamped (see [`restamp`]) beside
/// a twin session on `clean` itself, once as `wl=replay:` on the
/// scenario source and once as `source=`. Both sessions play `lead`
/// (step bodies, all 200 and equal); the bad session's `failing` batch
/// then answers 400. From there single steps serve every round up to
/// `bad_t` with the twin's bodies, the step at `bad_t` answers 400 naming
/// it, `metrics` still answers and the checkpoint stands at `bad_t`.
fn a_bad_round_fails_its_step(
    tag: &str,
    topo: &str,
    clean: &[u8],
    bad_t: u64,
    lead: &[&str],
    failing: &str,
) {
    let dir =
        std::env::temp_dir().join(format!("flexserve-bad-round-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).display().to_string();
    let (good, bad) = (file("good.ftr"), file("bad.ftr"));
    std::fs::write(&good, clean).unwrap();
    let mut bytes = clean.to_vec();
    restamp(&mut bytes, bad_t as usize);
    std::fs::write(&bad, bytes).unwrap();
    let rounds = PackedTrace::open(&good).unwrap().len();

    let cell = |pack: &str, scenario: bool, ck: &str| {
        let mut args: Vec<String> = [topo, "strat=onth", "k=4"]
            .iter()
            .map(|s| s.to_string())
            .chain([format!("rounds={rounds}"), format!("checkpoint={ck}")])
            .collect();
        if scenario {
            args.push(format!("wl=replay:{pack}"));
        } else {
            args.push("wl=uniform:req=2".into());
            args.push(format!("source={pack}"));
        }
        SessionConfig::parse(&args, "cell").unwrap()
    };
    let mgr = SessionManager::new(4);
    for scenario in [false, true] {
        let via = if scenario { "wl=replay:" } else { "source=" };
        let ck = file(&format!("bad-{scenario}.json"));
        mgr.create("twin", cell(&good, scenario, &file("twin.json")))
            .unwrap();
        mgr.create("bad", cell(&bad, scenario, &ck)).unwrap();
        for body in lead {
            let twin = mgr.step("twin", body).unwrap().render();
            let got = mgr
                .step("bad", body)
                .unwrap_or_else(|e| panic!("{via} {body}: {e}"));
            assert_eq!(got.render(), twin, "{via} {body}");
        }
        match mgr.step("bad", failing) {
            Err(ServeError::Bad(msg)) => {
                assert!(msg.contains(&format!("t={bad_t}")), "{via}: {msg}")
            }
            other => panic!(
                "{via} {failing}: want 400, got {:?}",
                other.map(|v| v.render())
            ),
        }
        loop {
            let placement = mgr.placement("bad").unwrap();
            let t = placement.get("t").unwrap().as_u64().unwrap();
            if t == bad_t {
                break;
            }
            let twin = mgr.step("twin", "").unwrap().render();
            let got = mgr
                .step("bad", "")
                .unwrap_or_else(|e| panic!("{via} t={t}: {e}"));
            assert_eq!(got.render(), twin, "{via}: round {t}");
        }
        for _ in 0..2 {
            match mgr.step("bad", "") {
                Err(ServeError::Bad(msg)) => {
                    assert!(msg.contains(&format!("t={bad_t}")), "{via}: {msg}")
                }
                other => panic!("{via}: want 400, got {:?}", other.map(|v| v.render())),
            }
        }
        let metrics = mgr.metrics("bad").unwrap();
        assert_eq!(
            metrics.get("next_t").unwrap().as_u64(),
            Some(bad_t),
            "{via}"
        );
        let saved = JsonValue::parse(&mgr.checkpoint("bad").unwrap()).unwrap();
        assert_eq!(saved.get("t").unwrap().as_u64(), Some(bad_t), "{via}");
        assert_eq!(
            saved.get("source_rounds").unwrap().as_u64(),
            Some(bad_t),
            "{via}"
        );
        mgr.remove("twin").unwrap();
        mgr.remove("bad").unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon-sized pack whose frame 5000 does not decode: the batches
/// before it are served, the one that reaches it answers 400 and applies
/// nothing, and the session keeps serving up to t=5000.
#[test]
fn a_bad_frame_mid_pack_fails_the_step_that_reaches_it() {
    let path = temp("bad-mid-10k.ftr");
    write_synthetic_pack(&path, 10_000, 8);
    let clean = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    a_bad_round_fails_its_step(
        "10k",
        "topo=unit-line:8",
        &clean,
        5000,
        &[r#"{"n":4096}"#, r#"{"n":900}"#],
        r#"{"n":10}"#,
    );
}

/// A batch whose source fails mid-pull keeps the rounds it pulled before
/// the failure: they are served next, and the checkpoint counts them.
#[test]
fn a_failed_batch_keeps_the_rounds_it_pulled() {
    a_bad_round_fails_its_step(
        "batch",
        "topo=unit-line:12",
        &victim_pack(),
        20,
        &[""; 10],
        r#"{"n":15}"#,
    );
}
