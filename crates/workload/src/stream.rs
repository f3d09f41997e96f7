//! Streaming request sources.
//!
//! The batch pipeline records a [`Scenario`] into a
//! [`Trace`](crate::scenario::Trace) up front; a
//! serving system cannot — rounds arrive one at a time, possibly from
//! outside the process. A [`RequestSource`] is the streaming form of a
//! scenario: a fallible, possibly finite iterator of [`RoundRequests`].
//! Three sources cover the serving layer's needs:
//!
//! * [`ScenarioStream`] — any [`Scenario`] driven round by round (every
//!   generator in this crate gains a streaming form through it),
//! * [`JsonlReplay`] — a JSONL replay file or any [`BufRead`]: one JSON
//!   object per line, `{"origins": [<node id>, ...]}` (ids repeat for
//!   multiplicity; an optional `"t"` field is validated against the
//!   stream position when present),
//! * [`stdin_source`] — the same JSONL schema read line-buffered from
//!   standard input, for piping live demand into `flexserve serve`.
//!
//! [`replay_source`] opens a replay file of either format (JSONL, or a
//! packed trace as [`PackedReplay`](crate::packed::PackedReplay)), and
//! [`Padded`] pads a replay with empty rounds up to a horizon — together
//! the one reader behind `wl=replay:<path>` and `source=<path>`.
//!
//! The schema is documented for external producers in `docs/SERVING.md`.

use std::io::BufRead;

use flexserve_graph::NodeId;

use crate::json::JsonValue;
use crate::request::RoundRequests;
use crate::scenario::Scenario;

/// A streaming producer of request rounds.
///
/// `next_round` returns `Ok(None)` when the source is exhausted (a replay
/// file ended, a round budget ran out) and `Err` for malformed input —
/// sources over in-process generators never fail.
pub trait RequestSource {
    /// The next round of requests, or `None` when the source is done.
    fn next_round(&mut self) -> Result<Option<RoundRequests>, String>;

    /// Discards up to the next `n` rounds (the resume fast-forward) and
    /// returns how many it discarded: fewer than `n` only when the source
    /// ran dry, and the caller decides whether that is an error. The
    /// default pulls and drops rounds one by one; sources with an index
    /// (packed traces) override it with an O(1) seek.
    fn skip(&mut self, n: u64) -> Result<u64, String> {
        for k in 0..n {
            if self.next_round()?.is_none() {
                return Ok(k);
            }
        }
        Ok(n)
    }

    /// Short human-readable description for logs and `/metrics`.
    fn describe(&self) -> String {
        "request source".to_string()
    }
}

/// A [`Scenario`] as a [`RequestSource`]: rounds are generated on demand,
/// optionally capped at `limit` rounds (`None` = unbounded).
pub struct ScenarioStream {
    scenario: Box<dyn Scenario>,
    t: u64,
    limit: Option<u64>,
}

impl ScenarioStream {
    /// Streams `scenario` from round 0, stopping after `limit` rounds when
    /// given.
    pub fn new(scenario: Box<dyn Scenario>, limit: Option<u64>) -> Self {
        ScenarioStream {
            scenario,
            t: 0,
            limit,
        }
    }
}

impl RequestSource for ScenarioStream {
    fn next_round(&mut self) -> Result<Option<RoundRequests>, String> {
        if self.limit.is_some_and(|l| self.t >= l) {
            return Ok(None);
        }
        let batch = self.scenario.requests(self.t);
        self.t += 1;
        Ok(Some(batch))
    }

    fn describe(&self) -> String {
        match self.limit {
            Some(l) => format!("{} (first {l} rounds)", self.scenario.describe()),
            None => self.scenario.describe(),
        }
    }
}

/// A source padded with empty rounds: it replays `inner`, then emits
/// empty rounds until `rounds` rounds came out, then ends. A source
/// longer than `rounds` is cut there. This is how a `wl=replay:` file
/// shorter than the cell's horizon runs out of demand, on the batch and
/// serve paths alike.
pub struct Padded {
    inner: Box<dyn RequestSource + Send>,
    t: u64,
    rounds: u64,
    /// Whether `inner` has run dry (every later round is padding).
    dry: bool,
}

impl Padded {
    /// Pads (or cuts) `inner` to exactly `rounds` rounds.
    pub fn new(inner: Box<dyn RequestSource + Send>, rounds: u64) -> Self {
        Padded {
            inner,
            t: 0,
            rounds,
            dry: false,
        }
    }
}

impl RequestSource for Padded {
    fn next_round(&mut self) -> Result<Option<RoundRequests>, String> {
        if self.t >= self.rounds {
            return Ok(None);
        }
        let round = if self.dry {
            None
        } else {
            self.inner.next_round()?
        };
        self.dry = round.is_none();
        self.t += 1;
        Ok(Some(round.unwrap_or_else(RoundRequests::empty)))
    }

    fn skip(&mut self, n: u64) -> Result<u64, String> {
        let n = n.min(self.rounds - self.t);
        if !self.dry {
            self.dry = self.inner.skip(n)? < n;
        }
        self.t += n;
        Ok(n)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Renders one round as its JSONL line (without the trailing newline):
/// `{"t":<round>,"origins":[...]}`.
pub fn round_to_jsonl(t: u64, batch: &RoundRequests) -> String {
    JsonValue::Obj(vec![
        ("t".into(), JsonValue::from(t)),
        (
            "origins".into(),
            JsonValue::Arr(batch.iter().map(|o| JsonValue::from(o.index())).collect()),
        ),
    ])
    .render()
}

/// Parses the `{"origins": [...]}` object shared by JSONL replay lines and
/// the `POST /step` request body. `max_node` bounds the valid node ids
/// (the substrate's node count).
pub fn parse_round(value: &JsonValue, max_node: usize) -> Result<RoundRequests, String> {
    let origins = value
        .get("origins")
        .ok_or("round: missing \"origins\" array")?
        .as_array()
        .ok_or("round: \"origins\" must be an array")?;
    // Collect first, canonicalize once: per-origin `push` would binary
    // insert into the sorted counts vec (O(k²) for adversarially ordered
    // bodies on the serve hot path); `new` does one sort + fold.
    let mut ids = Vec::with_capacity(origins.len());
    for o in origins {
        let id = o
            .as_usize()
            .ok_or_else(|| format!("round: bad origin {}", o.render()))?;
        if id >= max_node {
            return Err(format!(
                "round: origin {id} out of range (substrate has {max_node} nodes)"
            ));
        }
        ids.push(NodeId::new(id));
    }
    Ok(RoundRequests::new(ids))
}

/// A JSONL replay: one round per line, in time order.
///
/// Blank lines are skipped. Lines with a `"t"` field are validated
/// against the stream position, so a truncated or shuffled replay fails
/// loudly instead of silently shifting demand in time. For the same
/// reason a failure is final: every later pull returns the same error,
/// so the round after a bad line is never served in its place.
pub struct JsonlReplay<R: BufRead> {
    reader: R,
    /// Rounds already emitted (== the expected `t` of the next line).
    t: u64,
    max_node: usize,
    label: String,
    /// The error that ended the replay, if one did.
    failed: Option<String>,
}

impl<R: BufRead> JsonlReplay<R> {
    /// Replays rounds from `reader`, validating origins against a
    /// substrate of `max_node` nodes.
    pub fn new(reader: R, max_node: usize, label: impl Into<String>) -> Self {
        JsonlReplay {
            reader,
            t: 0,
            max_node,
            label: label.into(),
            failed: None,
        }
    }

    /// Reads and checks the next non-blank line.
    fn read_round(&mut self) -> Result<Option<RoundRequests>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("{}: read error: {e}", self.label))?;
            if n == 0 {
                return Ok(None);
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        let value = JsonValue::parse(line.trim())
            .map_err(|e| format!("{} line {}: {e}", self.label, self.t + 1))?;
        if let Some(t) = value.get("t") {
            let t = t
                .as_u64()
                .ok_or_else(|| format!("{} line {}: bad \"t\"", self.label, self.t + 1))?;
            if t != self.t {
                return Err(format!(
                    "{}: out-of-order round (expected t={}, got t={t})",
                    self.label, self.t
                ));
            }
        }
        let batch = parse_round(&value, self.max_node)
            .map_err(|e| format!("{} line {}: {e}", self.label, self.t + 1))?;
        self.t += 1;
        Ok(Some(batch))
    }
}

impl<R: BufRead> RequestSource for JsonlReplay<R> {
    fn next_round(&mut self) -> Result<Option<RoundRequests>, String> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let round = self.read_round();
        if let Err(e) = &round {
            self.failed = Some(e.clone());
        }
        round
    }

    fn describe(&self) -> String {
        format!("jsonl replay {}", self.label)
    }
}

/// Opens a JSONL replay file.
pub fn file_source(
    path: &str,
    max_node: usize,
) -> Result<JsonlReplay<std::io::BufReader<std::fs::File>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(JsonlReplay::new(
        std::io::BufReader::new(file),
        max_node,
        path,
    ))
}

/// Opens a replay file of either format, sniffing the leading magic:
/// a `flexserve-trace-v1` pack becomes a
/// [`PackedReplay`](crate::packed::PackedReplay) (a mapped file, read
/// into memory only where mapping fails), anything else a
/// [`JsonlReplay`]. This is the one
/// entry point behind `wl=replay:<path>` and `source=<path>`, so packed
/// and JSONL traces are interchangeable everywhere.
pub fn replay_source(path: &str, max_node: usize) -> Result<Box<dyn RequestSource + Send>, String> {
    if crate::packed::is_packed_file(path)? {
        Ok(Box::new(crate::packed::PackedReplay::open(path, max_node)?))
    } else {
        Ok(Box::new(file_source(path, max_node)?))
    }
}

/// A JSONL replay over standard input (line-buffered), for piping live
/// demand into a serving process.
pub fn stdin_source(max_node: usize) -> JsonlReplay<std::io::BufReader<std::io::Stdin>> {
    JsonlReplay::new(std::io::BufReader::new(std::io::stdin()), max_node, "stdin")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::record;
    use crate::uniform::UniformScenario;
    use flexserve_graph::gen::unit_line;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn scenario_stream_matches_recorded_trace() {
        let g = unit_line(10).unwrap();
        let trace = record(&mut UniformScenario::new(&g, 4, 7), 12);
        let mut stream = ScenarioStream::new(Box::new(UniformScenario::new(&g, 4, 7)), Some(12));
        let mut streamed = Vec::new();
        while let Some(batch) = stream.next_round().unwrap() {
            streamed.push(batch);
        }
        assert_eq!(streamed.len(), 12);
        for (t, batch) in streamed.iter().enumerate() {
            assert_eq!(batch, trace.round(t), "round {t} must match the trace");
        }
        assert!(stream.next_round().unwrap().is_none(), "limit is sticky");
    }

    #[test]
    fn scenario_stream_skip_resumes_mid_stream() {
        let g = unit_line(10).unwrap();
        let trace = record(&mut UniformScenario::new(&g, 4, 7), 12);
        let mut stream = ScenarioStream::new(Box::new(UniformScenario::new(&g, 4, 7)), Some(12));
        assert_eq!(stream.skip(6).unwrap(), 6);
        let batch = stream.next_round().unwrap().unwrap();
        assert_eq!(&batch, trace.round(6));
        // Skipping past the limit reports how far it got.
        assert_eq!(stream.skip(100).unwrap(), 5);
        assert!(stream.next_round().unwrap().is_none());
    }

    #[test]
    fn padded_source_cuts_and_skips_into_the_padding() {
        let text = "{\"origins\":[1]}\n{\"origins\":[2,2]}\n{\"origins\":[3]}\n";
        let replay = || Box::new(JsonlReplay::new(text.as_bytes(), 5, "test"));
        // A horizon shorter than the file cuts it.
        let mut cut = Padded::new(replay(), 2);
        assert_eq!(
            cut.next_round().unwrap().unwrap(),
            RoundRequests::new(vec![n(1)])
        );
        assert_eq!(cut.next_round().unwrap().unwrap().len(), 2);
        assert!(cut.next_round().unwrap().is_none());
        // A skip past the file lands in the padding, and one past the
        // horizon stops there.
        let mut padded = Padded::new(replay(), 6);
        assert_eq!(padded.skip(4).unwrap(), 4);
        assert!(padded.next_round().unwrap().unwrap().is_empty());
        assert_eq!(padded.skip(10).unwrap(), 1);
        assert!(padded.next_round().unwrap().is_none());
        assert_eq!(padded.describe(), "jsonl replay test");
        // A round that does not parse fails the pull or the skip.
        let bad = || {
            Box::new(JsonlReplay::new(
                "{\"origins\":[1]}\nnope\n".as_bytes(),
                5,
                "bad",
            ))
        };
        let mut padded = Padded::new(bad(), 4);
        padded.next_round().unwrap();
        assert!(padded.next_round().is_err());
        assert!(Padded::new(bad(), 4).skip(3).is_err());
    }

    #[test]
    fn jsonl_round_trip() {
        let mut batch = RoundRequests::empty();
        batch.push_many(n(3), 2);
        batch.push(n(0));
        let line = round_to_jsonl(5, &batch);
        // origins render in origin order (the batch's canonical form)
        assert_eq!(line, r#"{"t":5,"origins":[0,3,3]}"#);
        let parsed = parse_round(&JsonValue::parse(&line).unwrap(), 10).unwrap();
        assert_eq!(parsed, batch);
    }

    #[test]
    fn jsonl_replay_reads_lines_in_order() {
        let text = "\
{\"t\":0,\"origins\":[1,1]}\n\
\n\
{\"t\":1,\"origins\":[]}\n\
{\"origins\":[2]}\n";
        let mut replay = JsonlReplay::new(text.as_bytes(), 5, "test");
        assert_eq!(
            replay.next_round().unwrap().unwrap(),
            RoundRequests::new(vec![n(1), n(1)])
        );
        assert!(replay.next_round().unwrap().unwrap().is_empty());
        assert_eq!(
            replay.next_round().unwrap().unwrap(),
            RoundRequests::new(vec![n(2)])
        );
        assert!(replay.next_round().unwrap().is_none());
    }

    #[test]
    fn jsonl_replay_rejects_bad_input() {
        // out-of-range origin
        let mut replay = JsonlReplay::new("{\"origins\":[9]}\n".as_bytes(), 5, "test");
        assert!(replay.next_round().unwrap_err().contains("out of range"));
        // out-of-order t
        let mut replay = JsonlReplay::new("{\"t\":3,\"origins\":[]}\n".as_bytes(), 5, "test");
        assert!(replay.next_round().unwrap_err().contains("out-of-order"));
        // not json, and the failure is final: the good line after the
        // bad one is never served in its place
        let mut replay = JsonlReplay::new("not json\n{\"origins\":[1]}\n".as_bytes(), 5, "test");
        let err = replay.next_round().unwrap_err();
        assert_eq!(replay.next_round().unwrap_err(), err);
        // not an origins object
        let mut replay = JsonlReplay::new("[1,2]\n".as_bytes(), 5, "test");
        assert!(replay
            .next_round()
            .unwrap_err()
            .contains("missing \"origins\""));
    }

    #[test]
    fn file_source_round_trips_a_written_replay() {
        let g = unit_line(8).unwrap();
        let trace = record(&mut UniformScenario::new(&g, 3, 11), 6);
        let path = std::env::temp_dir().join("flexserve-stream-test.jsonl");
        let mut text = String::new();
        for (t, round) in trace.iter().enumerate() {
            text.push_str(&round_to_jsonl(t as u64, round));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        let mut source = file_source(path.to_str().unwrap(), 8).unwrap();
        for t in 0..6 {
            assert_eq!(&source.next_round().unwrap().unwrap(), trace.round(t));
        }
        assert!(source.next_round().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
        assert!(file_source("/nonexistent/replay.jsonl", 8).is_err());
    }

    #[test]
    fn describes() {
        let g = unit_line(4).unwrap();
        let stream = ScenarioStream::new(Box::new(UniformScenario::new(&g, 1, 0)), Some(3));
        assert!(stream.describe().contains("first 3 rounds"));
        let replay = JsonlReplay::new("".as_bytes(), 4, "demo.jsonl");
        assert!(replay.describe().contains("demo.jsonl"));
    }
}
