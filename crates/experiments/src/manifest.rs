//! The `results/manifest.json` provenance record.
//!
//! Every `flexserve` CLI invocation writes one manifest describing the
//! artifacts it produced: which spec generated each CSV, over which seeds,
//! at which git revision, plus the distance-matrix cache, demand
//! recording and result-memo counters for the whole run (so multi-cell
//! sweeps document how much APSP and strategy work was shared). The document is built as
//! a [`JsonValue`] and written by [`JsonValue::render_pretty`] (one
//! `"key": value` per line, two-space indentation); the entries of earlier
//! runs are read back with [`JsonValue::parse`].

use std::path::PathBuf;

use flexserve_workload::JsonValue;

use crate::cache::CacheStats;
use crate::output::results_dir;

/// Provenance of one artifact (one CSV file).
#[derive(Clone, Debug)]
pub struct ManifestEntry {
    /// Artifact file name (`fig03.csv`, `sweep.csv`, …).
    pub artifact: String,
    /// What produced it: `figure`, `cell` or `sweep`.
    pub kind: String,
    /// Canonical spec: registry figure name, or the cell description
    /// including topology/workload/strategy and parameters.
    pub spec: String,
    /// Seeds averaged over (empty for figures, which pick seeds per
    /// profile internally).
    pub seeds: Vec<u64>,
    /// `Graph::fingerprint` of the substrates involved (first seed per
    /// cell; empty when not applicable).
    pub fingerprints: Vec<u64>,
}

/// A whole-run manifest: entries plus run-level provenance.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    entries: Vec<ManifestEntry>,
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (e.g. running from an exported tarball).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Manifest::default()
    }

    /// Records one produced artifact.
    pub fn add(&mut self, entry: ManifestEntry) {
        self.entries.push(entry);
    }

    /// Number of recorded artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no artifacts were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the manifest as pretty-printed JSON. Top-level `command`,
    /// `git` and the counters of the distance-matrix cache, the demand
    /// recordings (`trace_cache`, recordings as `misses`) and the result
    /// memo describe this invocation; `carried` holds
    /// artifact entries of *earlier* invocations (see [`Manifest::write`])
    /// appended after this run's entries, so the manifest accumulates
    /// provenance for everything still in the results directory. Each
    /// entry records its own `git` revision.
    pub fn to_json(
        &self,
        command: &str,
        cache: CacheStats,
        traces: CacheStats,
        memo: CacheStats,
        carried: &[JsonValue],
    ) -> String {
        let git = git_describe();
        let artifacts = self
            .entries
            .iter()
            .map(|e| e.to_value(&git))
            .chain(carried.iter().cloned())
            .collect();
        let doc = JsonValue::Obj(vec![
            ("tool".into(), "flexserve".into()),
            ("command".into(), command.into()),
            ("git".into(), git.into()),
            ("distance_matrix_cache".into(), cache_value(cache)),
            ("trace_cache".into(), cache_value(traces)),
            ("result_memo".into(), cache_value(memo)),
            ("artifacts".into(), JsonValue::Arr(artifacts)),
        ]);
        doc.render_pretty() + "\n"
    }

    /// Writes the manifest to `<results dir>/manifest.json`, creating the
    /// directory, and returns the path. An existing manifest's entries are
    /// carried forward for artifacts this run did *not* (re)produce, so
    /// `run fig03` followed by `run fig04` leaves provenance for both
    /// CSVs on disk; re-produced artifacts replace their old entry.
    pub fn write(
        &self,
        command: &str,
        cache: CacheStats,
        traces: CacheStats,
        memo: CacheStats,
    ) -> std::io::Result<PathBuf> {
        self.write_to(&results_dir(), command, cache, traces, memo)
    }

    /// [`Manifest::write`] with an explicit directory (tests use this to
    /// avoid touching process environment).
    pub fn write_to(
        &self,
        dir: &std::path::Path,
        command: &str,
        cache: CacheStats,
        traces: CacheStats,
        memo: CacheStats,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        let produced: Vec<&str> = self.entries.iter().map(|e| e.artifact.as_str()).collect();
        // Carry the earlier entries this run did not reproduce: they
        // describe files still on disk. A manifest that does not parse
        // carries nothing; the next full `run all` regenerates every entry.
        let previous = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .unwrap_or(JsonValue::Null);
        let carried: Vec<JsonValue> = (previous.get("artifacts"))
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter(|entry| {
                entry
                    .get("artifact")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|artifact| !produced.contains(&artifact))
            })
            .cloned()
            .collect();
        std::fs::write(&path, self.to_json(command, cache, traces, memo, &carried))?;
        Ok(path)
    }
}

impl ManifestEntry {
    /// The entry as a manifest `artifacts` element, stamped with `git`.
    fn to_value(&self, git: &str) -> JsonValue {
        let fingerprints = self
            .fingerprints
            .iter()
            .map(|f| format!("{f:016x}").into())
            .collect();
        JsonValue::Obj(vec![
            ("artifact".into(), self.artifact.as_str().into()),
            ("kind".into(), self.kind.as_str().into()),
            ("spec".into(), self.spec.as_str().into()),
            ("git".into(), git.into()),
            (
                "seeds".into(),
                JsonValue::Arr(self.seeds.iter().map(|&s| s.into()).collect()),
            ),
            (
                "substrate_fingerprints".into(),
                JsonValue::Arr(fingerprints),
            ),
        ])
    }
}

/// One cache's counters, its hit rate rounded to four decimals.
fn cache_value(stats: CacheStats) -> JsonValue {
    JsonValue::Obj(vec![
        ("hits".into(), stats.hits.into()),
        ("misses".into(), stats.misses.into()),
        (
            "hit_rate".into(),
            ((stats.hit_rate() * 1e4).round() / 1e4).into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new();
        m.add(ManifestEntry {
            artifact: "fig03.csv".into(),
            kind: "figure".into(),
            spec: "fig03".into(),
            seeds: vec![1000, 1001],
            fingerprints: vec![0xdead_beef],
        });
        m
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let cache = CacheStats { hits: 3, misses: 1 };
        let traces = CacheStats { hits: 2, misses: 1 };
        let memo = CacheStats {
            hits: 150,
            misses: 756,
        };
        let json = sample().to_json("run fig03", cache, traces, memo, &[]);
        // The line-oriented layout the CI greps read.
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\n  \"command\": \"run fig03\","));
        assert!(json.contains("\"artifact\": \"fig03.csv\""));
        // The same facts, read back through the parser.
        let doc = JsonValue::parse(&json).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("run fig03"));
        let dist = doc.get("distance_matrix_cache").unwrap();
        assert_eq!(dist.get("hits").unwrap().as_u64(), Some(3));
        assert_eq!(dist.get("hit_rate").unwrap().as_f64(), Some(0.75));
        let trace = doc.get("trace_cache").unwrap();
        assert_eq!(trace.get("hit_rate").unwrap().as_f64(), Some(0.6667));
        assert!(json.contains("\"hit_rate\": 0.6667"));
        let memo = doc.get("result_memo").unwrap();
        assert_eq!(memo.get("hits").unwrap().as_u64(), Some(150));
        assert_eq!(memo.get("misses").unwrap().as_u64(), Some(756));
        let entry = &doc.get("artifacts").unwrap().as_array().unwrap()[0];
        let seeds: Vec<u64> = (entry.get("seeds").unwrap().as_array().unwrap())
            .iter()
            .map(|s| s.as_u64().unwrap())
            .collect();
        assert_eq!(seeds, [1000, 1001]);
        assert_eq!(
            entry.get("substrate_fingerprints").unwrap().as_str_array(),
            Some(vec!["00000000deadbeef".to_string()])
        );
    }

    fn one_entry(artifact: &str, spec: &str) -> Manifest {
        let mut m = Manifest::new();
        m.add(ManifestEntry {
            artifact: artifact.into(),
            kind: "figure".into(),
            spec: spec.into(),
            seeds: vec![1],
            fingerprints: vec![7],
        });
        m
    }

    #[test]
    fn write_accumulates_and_replaces_entries() {
        let dir = std::env::temp_dir().join("flexserve-manifest-merge-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheStats::default();

        one_entry("fig03.csv", "fig03 v1")
            .write_to(&dir, "run fig03", cache, cache, cache)
            .unwrap();
        one_entry("fig04.csv", "fig04 v1")
            .write_to(&dir, "run fig04", cache, cache, cache)
            .unwrap();
        let json = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        // Both artifacts' provenance survives, and the file parses.
        assert!(json.contains("\"artifact\": \"fig03.csv\""), "{json}");
        assert!(json.contains("\"artifact\": \"fig04.csv\""), "{json}");
        assert!(json.contains("\"command\": \"run fig04\""));
        assert!(JsonValue::parse(&json).is_ok(), "{json}");

        // Re-producing fig03 replaces its entry rather than duplicating.
        one_entry("fig03.csv", "fig03 v2")
            .write_to(&dir, "run fig03", cache, cache, cache)
            .unwrap();
        let json = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert_eq!(json.matches("\"artifact\": \"fig03.csv\"").count(), 1);
        assert!(json.contains("fig03 v2"));
        assert!(!json.contains("fig03 v1"));
        assert!(json.contains("\"artifact\": \"fig04.csv\""));
        assert!(JsonValue::parse(&json).is_ok(), "{json}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        let spec = "a\"b\\c\nd\u{1}";
        let json = one_entry("odd.csv", spec).to_json(
            "run",
            CacheStats::default(),
            CacheStats::default(),
            CacheStats::default(),
            &[],
        );
        assert!(json.contains(r#""spec": "a\"b\\c\nd\u0001""#), "{json}");
        let doc = JsonValue::parse(&json).unwrap();
        let entry = &doc.get("artifacts").unwrap().as_array().unwrap()[0];
        assert_eq!(entry.get("spec").unwrap().as_str(), Some(spec));
    }

    #[test]
    fn carries_entries_from_a_manifest_in_the_earlier_fixed_layout() {
        // A manifest as the line-by-line writer of earlier versions laid
        // it out: four-decimal hit rates, seeds and fingerprints inline.
        const EARLIER: &str = r#"{
  "tool": "flexserve",
  "command": "run fig03 fig04",
  "git": "0863250",
  "distance_matrix_cache": {
    "hits": 3,
    "misses": 1,
    "evictions": 0,
    "hit_rate": 0.7500
  },
  "trace_cache": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "hit_rate": 0.0000
  },
  "artifacts": [
    {
      "artifact": "fig03.csv",
      "kind": "figure",
      "spec": "fig03",
      "git": "0863250",
      "seeds": [],
      "substrate_fingerprints": []
    },
    {
      "artifact": "fig04.csv",
      "kind": "figure",
      "spec": "fig04 \"quoted\"",
      "git": "0863250",
      "seeds": [1000, 1001],
      "substrate_fingerprints": ["00000000deadbeef"]
    }
  ]
}
"#;
        let dir = std::env::temp_dir().join("flexserve-manifest-earlier-layout-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), EARLIER).unwrap();
        let cache = CacheStats::default();
        one_entry("fig03.csv", "fig03 v2")
            .write_to(&dir, "run fig03", cache, cache, cache)
            .unwrap();
        let json = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let doc = JsonValue::parse(&json).unwrap();
        let artifacts = doc.get("artifacts").unwrap().as_array().unwrap();
        let field = |i: usize, key: &str| artifacts[i].get(key).cloned().unwrap();
        assert_eq!(artifacts.len(), 2, "{json}");
        // This run's fig03 replaces the earlier one; fig04 is carried
        // whole, its own git revision included.
        assert_eq!(field(0, "spec").as_str(), Some("fig03 v2"));
        assert_eq!(field(1, "artifact").as_str(), Some("fig04.csv"));
        assert_eq!(field(1, "spec").as_str(), Some("fig04 \"quoted\""));
        assert_eq!(field(1, "git").as_str(), Some("0863250"));
        assert_eq!(field(1, "seeds").render(), "[1000,1001]");
        assert_eq!(
            field(1, "substrate_fingerprints").as_str_array(),
            Some(vec!["00000000deadbeef".to_string()])
        );
        assert!(json.contains("\"artifact\": \"fig04.csv\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_above_2_pow_53_are_recorded_exactly() {
        let seeds = [9_007_199_254_740_993, u64::MAX];
        let mut m = Manifest::new();
        m.add(ManifestEntry {
            artifact: "cell.csv".into(),
            kind: "cell".into(),
            spec: "big seeds".into(),
            seeds: seeds.to_vec(),
            fingerprints: Vec::new(),
        });
        let dir = std::env::temp_dir().join("flexserve-manifest-big-seed-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheStats::default();
        m.write_to(&dir, "run", cache, cache, cache).unwrap();
        let json = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(json.contains("9007199254740993"), "{json}");
        assert!(json.contains("18446744073709551615"), "{json}");
        // Carried into the next run's manifest unchanged.
        one_entry("other.csv", "other")
            .write_to(&dir, "run", cache, cache, cache)
            .unwrap();
        let doc =
            JsonValue::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
        let carried = &doc.get("artifacts").unwrap().as_array().unwrap()[1];
        let read: Vec<u64> = (carried.get("seeds").unwrap().as_array().unwrap())
            .iter()
            .map(|s| s.as_u64().unwrap())
            .collect();
        assert_eq!(read, seeds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}
