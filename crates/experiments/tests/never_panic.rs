//! Never-panic fuzzers for the inputs the experiments crate reads: the
//! JSON parser ([`JsonValue::parse`], which reads every `/step`, `/events`
//! and session-create body and every checkpoint), the cell grammar
//! ([`CellBuilder::apply`] plus [`CellBuilder::build`], reached from the
//! command line and from `POST /sessions` bodies) and the packed trace
//! reader ([`PackedTrace::from_bytes`] and [`PackedTrace::open`], behind
//! every `wl=replay:` and `source=` pack, which must agree). Inputs are
//! arbitrary bytes, and truncations, byte flips and byte deletions of
//! valid documents. Every call must return `Ok` or `Err`.

use std::sync::OnceLock;

use flexserve_experiments::serve::{SessionConfig, SessionManager};
use flexserve_experiments::CellBuilder;
use flexserve_graph::NodeId;
use flexserve_workload::packed::fnv1a;
use flexserve_workload::{
    JsonValue, PackedReplay, PackedTrace, RequestSource, RoundRequests, RoundTrace,
};
use proptest::prelude::*;

/// A daemon checkpoint taken mid-schedule: the v2 engine document with
/// strategy state, metrics, events and the daemon's `source_rounds`.
fn valid_checkpoint() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("flexserve-fuzz-{}", std::process::id()));
        let ck = dir.join("fuzz.json");
        let args: Vec<String> = [
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=onth",
            "rounds=40",
            "seed=3",
            "k=4",
            "events=2:fail-link:3-4,5:recover-link:3-4",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([format!("checkpoint={}", ck.display())])
        .collect();
        let mgr = SessionManager::new(1);
        mgr.create("fuzz", SessionConfig::parse(&args, "fuzz").unwrap())
            .unwrap();
        for _ in 0..6 {
            mgr.step("fuzz", "").unwrap();
        }
        mgr.step("fuzz", r#"{"origins": [1, 6, 6]}"#).unwrap();
        let doc = mgr.checkpoint("fuzz").unwrap();
        mgr.shutdown_all();
        let _ = std::fs::remove_dir_all(&dir);
        doc
    })
}

/// A small document that uses every string escape, a surrogate pair
/// among them, so truncations and edits land inside escapes.
const ESCAPES: &str =
    r#"{"s": "a\u00e9\ud83d\ude00\n\t\r\b\f\"\\\/b", "n": [-1.5e3, 0, true, null, {}]}"#;

/// A valid argument list that sets every cell key.
const CELL: [&str; 15] = [
    "topo=er:60",
    "wl=time-zones:p=80,req=5",
    "strat=onbr-dyn",
    "t=6",
    "lambda=5",
    "rounds=40",
    "seed=7",
    "load=power(1.5)",
    "beta=400",
    "c=40",
    "ra=1.5",
    "ri=0.5",
    "k=4",
    "flipped=true",
    "events=2:fail-link:0-1,3:degrade-link:1-2:2.5,4:fail-node:5",
];

/// Bytes that JSON and the cell grammar give meaning to, so biased noise
/// reaches past the first token more often than uniform bytes do.
const ALPHABET: &[u8] = b"{}[]\":,\\/ubfnrt0123456789+-.eEaAdDfF=:xyz \n\t\xc3\xa9\xf0\x9f";

/// `base` truncated at `cut` (modulo its length + 1), then edited by each
/// `(position, op)`: an `op` below 256 is XORed into the byte, a larger
/// one deletes it.
fn mangle(base: &[u8], cut: usize, edits: &[(usize, u32)]) -> Vec<u8> {
    let mut bytes = base[..cut % (base.len() + 1)].to_vec();
    for &(at, op) in edits {
        if !bytes.is_empty() {
            let i = at % bytes.len();
            match u8::try_from(op) {
                Ok(mask) => bytes[i] ^= mask,
                Err(_) => drop(bytes.remove(i)),
            }
        }
    }
    bytes
}

/// Parses `bytes` as JSON; a document that parses renders to text that
/// parses and renders to the same text.
fn check_json(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(value) = JsonValue::parse(&text) {
        let once = value.render();
        let again = JsonValue::parse(&once).map(|v| v.render());
        prop_assert_eq!(again, Ok(once));
    }
}

/// A valid pack: a dozen rounds over five origins, some empty, with
/// counts large enough to need multi-byte varints.
fn valid_pack() -> Vec<u8> {
    let rounds = (0..12usize)
        .map(|t| {
            let counts = (0..t % 4).map(|i| (NodeId::new((t + 2 * i) % 5), 1 + 90 * i * t));
            RoundRequests::from_counts(counts.collect())
        })
        .collect();
    RoundTrace::new(rounds).to_packed()
}

/// Recomputes the header fingerprint over the frame region the trailer
/// names, when the bytes still hold both, so edits reach the checks and
/// the decoder behind the hash.
fn refingerprint(bytes: &mut [u8]) {
    let Some(trailer) = bytes.len().checked_sub(16).filter(|&at| at >= 32) else {
        return;
    };
    let index = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap());
    let region = usize::try_from(index)
        .ok()
        .and_then(|end| bytes.get(32..end));
    if let Some(region) = region {
        let fingerprint = fnv1a(region);
        bytes[24..32].copy_from_slice(&fingerprint.to_le_bytes());
    }
}

/// A well-formed pack (header, index, trailer, fingerprint) around
/// arbitrary frame payloads, each led by its round's `t` (one varint byte
/// below 128 rounds), so it opens and the frame decoder reads the noise.
fn wrap_frames(universe: u64, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut frames = Vec::new();
    let mut index = Vec::new();
    for (t, noise) in payloads.iter().enumerate() {
        index.push(32 + frames.len() as u64);
        frames.extend_from_slice(&(1 + noise.len() as u32).to_le_bytes());
        frames.push(t as u8);
        frames.extend_from_slice(noise);
    }
    let mut bytes = b"FXTRACE1".to_vec();
    for word in [payloads.len() as u64, universe, fnv1a(&frames)] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.extend_from_slice(&frames);
    let index_offset = bytes.len() as u64;
    for word in index.into_iter().chain([index_offset]) {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.extend_from_slice(b"FXTRIDX1");
    bytes
}

/// Opens `bytes` as a pack; one that opens decodes every round, and a
/// replay over it agrees round by round up to the first error or the
/// end.
fn check_pack(bytes: Vec<u8>) {
    let Ok(trace) = PackedTrace::from_bytes("fuzz", bytes) else {
        return;
    };
    let decoded: Vec<_> = (0..trace.len()).map(|t| trace.round(t)).collect();
    let mut replay = PackedReplay::from_trace(trace, usize::MAX).unwrap();
    for round in decoded {
        let failed = round.is_err();
        prop_assert_eq!(replay.next_round(), round.map(Some));
        if failed {
            return;
        }
    }
    prop_assert_eq!(replay.next_round(), Ok(None));
}

/// [`check_pack`], after writing `bytes` to a file named by `tag` and
/// opening it there too: both constructors must agree, on the same error
/// or on the same rounds and fingerprint.
fn check_pack_file(tag: &str, bytes: Vec<u8>) {
    let path =
        std::env::temp_dir().join(format!("flexserve-fuzz-{tag}-{}.ftr", std::process::id()));
    let path = path.to_str().unwrap();
    std::fs::write(path, &bytes).unwrap();
    let from_file = PackedTrace::open(path);
    // An open pack's mapping outlives its name.
    std::fs::remove_file(path).unwrap();
    match (from_file, PackedTrace::from_bytes(path, bytes.clone())) {
        (Err(file), Err(memory)) => prop_assert_eq!(file, memory),
        (Ok(file), Ok(memory)) => {
            prop_assert_eq!(file.fingerprint(), memory.fingerprint());
            prop_assert_eq!(file.len(), memory.len());
            for t in 0..file.len() {
                prop_assert_eq!(file.round(t), memory.round(t));
            }
        }
        (file, memory) => panic!(
            "open and from_bytes disagree: {:?} vs {:?}",
            file.err(),
            memory.err()
        ),
    }
    check_pack(bytes);
}

/// Applies every `key=value` argument to a fresh builder, as a session
/// body does, then builds; a cell that builds can describe itself.
fn check_cell(args: &[Vec<u8>]) {
    let mut builder = CellBuilder::new();
    for arg in args {
        let arg = String::from_utf8_lossy(arg);
        let Some((key, value)) = arg.split_once('=') else {
            continue;
        };
        if builder.apply(key, value).is_err() {
            return;
        }
    }
    if let Ok(cell) = builder.build() {
        let _ = cell.describe();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parser_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(0u32..256, 0..300),
    ) {
        let bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        check_json(&bytes);
    }

    #[test]
    fn json_parser_never_panics_on_json_like_noise(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..300),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_json(&bytes);
    }

    #[test]
    fn json_parser_never_panics_on_mangled_documents(
        escapes in 0u32..2,
        cut in 0usize..4000,
        edits in prop::collection::vec((0usize..4000, 1u32..512), 0..4),
    ) {
        let base = if escapes == 1 { ESCAPES } else { valid_checkpoint() }.as_bytes();
        // Half the cases keep the whole document and only edit bytes.
        let cut = if cut % 2 == 0 { base.len() } else { cut };
        check_json(&mangle(base, cut, &edits));
    }

    #[test]
    fn packed_reader_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(0u32..256, 0..300),
        framed in 0u32..2,
    ) {
        let mut bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        // Half the cases carry both magics, so they reach the index walk.
        if framed == 1 {
            bytes.splice(0..0, *b"FXTRACE1");
            bytes.extend_from_slice(b"FXTRIDX1");
        }
        check_pack_file("arbitrary", bytes);
    }

    #[test]
    fn packed_reader_never_panics_on_mangled_packs(
        cut in 0usize..400,
        edits in prop::collection::vec((0usize..400, 1u32..512), 0..4),
        refingerprinted in 0u32..2,
    ) {
        let base = valid_pack();
        // Half the cases keep the whole pack and only edit bytes.
        let cut = if cut % 2 == 0 { base.len() } else { cut };
        let mut bytes = mangle(&base, cut, &edits);
        if refingerprinted == 1 {
            refingerprint(&mut bytes);
        }
        check_pack_file("mangled", bytes);
    }

    #[test]
    fn packed_decoder_never_panics_on_noise_frames(
        universe in 0u64..16,
        frames in prop::collection::vec(prop::collection::vec(0u32..512, 0..24), 0..8),
    ) {
        // Half the noise is bytes below 8: one-byte varints that pass for
        // origin counts, deltas and counts.
        let payloads: Vec<Vec<u8>> = frames
            .iter()
            .map(|noise| noise.iter().map(|&b| if b < 256 { b as u8 } else { (b % 8) as u8 }).collect())
            .collect();
        let bytes = wrap_frames(universe, &payloads);
        prop_assert!(PackedTrace::from_bytes("fuzz", bytes.clone()).is_ok());
        check_pack(bytes);
    }

    #[test]
    fn cell_grammar_never_panics_on_arbitrary_args(
        args in prop::collection::vec(
            (0usize..CELL.len() + 1, prop::collection::vec(0usize..ALPHABET.len(), 0..40)),
            0..8,
        ),
    ) {
        // A real key (or none) followed by noise, so values reach the
        // per-key parsers.
        let args: Vec<Vec<u8>> = args
            .iter()
            .map(|(key, picks)| {
                let mut arg = match CELL.get(*key) {
                    Some(kv) => kv.split_once('=').unwrap().0.as_bytes().to_vec(),
                    None => Vec::new(),
                };
                arg.push(b'=');
                arg.extend(picks.iter().map(|&i| ALPHABET[i]));
                arg
            })
            .collect();
        check_cell(&args);
    }

    #[test]
    fn cell_grammar_never_panics_on_mangled_args(
        which in 0usize..CELL.len(),
        cut in 0usize..80,
        edits in prop::collection::vec((0usize..80, 1u32..512), 0..3),
    ) {
        let mut args: Vec<Vec<u8>> = CELL.iter().map(|a| a.as_bytes().to_vec()).collect();
        // Half the cases keep the whole argument and only edit bytes.
        let cut = if cut % 2 == 0 { args[which].len() } else { cut };
        args[which] = mangle(&args[which], cut, &edits);
        check_cell(&args);
    }
}

/// The fixtures the fuzzers mangle are themselves valid.
#[test]
fn fixtures_parse_and_build() {
    let doc = valid_checkpoint();
    let value = JsonValue::parse(doc).unwrap();
    assert_eq!(value.get("t").unwrap().as_u64(), Some(7));
    assert_eq!(value.get("source_rounds").unwrap().as_u64(), Some(6));
    let value = JsonValue::parse(ESCAPES).unwrap();
    assert_eq!(
        value.get("s").unwrap().as_str(),
        Some("a\u{e9}\u{1F600}\n\t\r\u{8}\u{c}\"\\/b")
    );
    let mut builder = CellBuilder::new();
    for arg in CELL {
        let (key, value) = arg.split_once('=').unwrap();
        assert_eq!(builder.apply(key, value), Ok(true), "{arg}");
    }
    let cell = builder.build().unwrap();
    assert_eq!(cell.params.max_servers, 4);
    assert_eq!(cell.events.len(), 3);
    let pack = PackedTrace::from_bytes("fixture", valid_pack()).unwrap();
    assert_eq!(pack.materialize().unwrap().len(), 12);
    assert_eq!(pack.round(11).unwrap().len(), 1 + 991 + 1981);
}
