//! A minimal hand-rolled JSON value, parser and renderer.
//!
//! The workspace deliberately has no serde (no network, vendored deps
//! only; see `docs/ARCHITECTURE.md` §Provenance), but the serving layer
//! needs to *read* JSON, not only write it: checkpoint files are restored,
//! JSONL replay traces are parsed, and the `flexserve serve` daemon
//! decodes request bodies. This module is the one JSON implementation all
//! of those share.
//!
//! Scope is exactly what those consumers need:
//!
//! * objects preserve insertion order (a `Vec` of pairs, not a map) so
//!   rendering is deterministic,
//! * numbers are `f64`, rendered with Rust's shortest-round-trip `Display`
//!   and parsed with `str::parse::<f64>`, so a finite float survives a
//!   render → parse cycle **bit-identically** — the property the
//!   checkpoint/resume determinism tests pin,
//! * except integers: `u64`/`usize` values and every integer literal that
//!   fits in a `u64` are held exactly ([`JsonValue::Int`]), so seeds and
//!   counters above 2^53 survive; as a float such a value reads as the
//!   literal's `f64` parse would,
//! * no `\uXXXX` escapes beyond the control range, no comments, no
//!   trailing commas.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number that is not a non-negative integer literal within
    /// `u64` (integral floats are exact up to 2^53).
    Num(f64),
    /// A non-negative integer literal within `u64`, held exactly.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; pairs keep insertion order for deterministic rendering.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object. Returns `None` for non-objects and
    /// missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            // Rounds to nearest, exactly as parsing the literal as f64 does.
            JsonValue::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer: any [`JsonValue::Int`], or a
    /// float with no fractional part up to 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`JsonValue::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a vector of owned strings, if it is an array whose
    /// every element is a string (`["topo=er:100", "strat=onth"]` —
    /// the serve daemon's `POST /sessions` argument lists). `None` when
    /// the value is not an array or any element is not a string.
    pub fn as_str_array(&self) -> Option<Vec<String>> {
        self.as_array()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }

    /// Renders the value as compact JSON (no whitespace).
    ///
    /// Non-finite numbers have no JSON representation and render as
    /// `null`; every float the simulation checkpoints is a finite cost.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders the value as indented JSON: each array element and each
    /// `"key": value` pair on its own line, two spaces per nesting level,
    /// no trailing newline. Numbers and strings render as in
    /// [`render`](Self::render).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// Appends the value to `out`: compact when `indent` is `None`,
    /// otherwise pretty-printed with the value at nesting level `indent`.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // `Display` for f64 is shortest-round-trip: parsing the
                    // rendered text recovers the exact same bits.
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            JsonValue::Str(s) => render_str(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    start_item(out, i, inner);
                    item.render_into(out, inner);
                }
                if !items.is_empty() {
                    line_break(out, indent);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    start_item(out, i, inner);
                    render_str(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render_into(out, inner);
                }
                if !pairs.is_empty() {
                    line_break(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document. Trailing non-whitespace is an error, as
    /// is nesting deeper than [`MAX_DEPTH`] (the parser is recursive; the
    /// bound turns a hostile deeply-nested input into an `Err` instead of
    /// a stack overflow).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("json: trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Maximum container nesting depth [`JsonValue::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Starts the `i`-th element of a container whose elements sit at
/// nesting level `level`: a comma after the first, then a line break
/// when pretty-printing.
fn start_item(out: &mut String, i: usize, level: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    line_break(out, level);
}

/// When pretty-printing (`level` is `Some`), a newline and the
/// indentation of nesting level `level`.
fn line_break(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as u64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "json: expected {:?} at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("json: bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "json: unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("json: unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes()[start..self.pos]).expect("ascii digits");
        if token.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        token
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("json: bad number {token:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so the run ends on a char boundary of the
            // already-valid input, and each byte is looked at once.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("json: unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let mut code = self.hex4(self.pos + 1)?;
                    self.pos += 4;
                    // A high surrogate and the escaped low one after it
                    // encode one character outside the BMP.
                    if (0xD800..0xDC00).contains(&code) {
                        let low = match self.bytes().get(self.pos + 1..self.pos + 3) {
                            Some(b"\\u") => self.hex4(self.pos + 3)?,
                            _ => return Err("json: lone surrogate in \\u escape".into()),
                        };
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err("json: lone surrogate in \\u escape".into());
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                    out.push(char::from_u32(code).ok_or("json: lone surrogate in \\u escape")?);
                }
                _ => return Err(format!("json: bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at` —
    /// exactly four ASCII hex digits, no sign or other prefix.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let digits = self.bytes().get(at..at + 4).ok_or("json: bad \\u escape")?;
        digits.iter().try_fold(0, |code, &b| {
            let digit = (b as char).to_digit(16).ok_or("json: bad \\u escape")?;
            Ok(code << 4 | digit)
        })
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("json: nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("json: expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("json: expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" -2.5 ").unwrap(), JsonValue::Num(-2.5));
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_nested() {
        let v = JsonValue::parse(r#"{"a": [1, 2], "b": {"c": "x"}, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn render_parse_round_trips_structure() {
        let v = JsonValue::Obj(vec![
            ("t".into(), JsonValue::from(12u64)),
            (
                "xs".into(),
                JsonValue::Arr(vec![JsonValue::from(0.1), JsonValue::from("q\"uote")]),
            ),
            ("flag".into(), JsonValue::Bool(false)),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        // The checkpoint determinism guarantee rests on this property.
        for &x in &[
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -0.0,
            123_456_789.123_456_78,
            2f64.powi(53) - 1.0,
        ] {
            let rendered = JsonValue::Num(x).render();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {rendered}");
        }
    }

    #[test]
    fn pretty_rendering_indents_and_parses_back() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": "x"}], "e": [], "o": {}}"#).unwrap();
        let pretty = v.render_pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\"\n    }\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
        assert_eq!(v.render(), r#"{"a":[1,{"b":"x"}],"e":[],"o":{}}"#);
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn str_array_accessor_wants_all_strings() {
        let v = JsonValue::parse(r#"["topo=er:100","strat=onth"]"#).unwrap();
        assert_eq!(
            v.as_str_array(),
            Some(vec!["topo=er:100".to_string(), "strat=onth".to_string()])
        );
        assert_eq!(JsonValue::parse("[]").unwrap().as_str_array(), Some(vec![]));
        assert_eq!(JsonValue::parse(r#"["a",1]"#).unwrap().as_str_array(), None);
        assert_eq!(JsonValue::parse("\"a\"").unwrap().as_str_array(), None);
    }

    #[test]
    fn integer_accessors_guard_fractions() {
        assert_eq!(JsonValue::Num(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Num(7.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(42.0).as_usize(), Some(42));
        assert_eq!(JsonValue::Bool(true).as_u64(), None);
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0, 1, 4096, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let rendered = JsonValue::from(n).render();
            assert_eq!(rendered, n.to_string());
            let back = JsonValue::parse(&rendered).unwrap();
            assert_eq!(back, JsonValue::Int(n));
            assert_eq!(back.as_u64(), Some(n));
            // As a float, the literal reads as `str::parse::<f64>` reads it.
            assert_eq!(
                back.as_f64().unwrap().to_bits(),
                rendered.parse::<f64>().unwrap().to_bits()
            );
        }
        // Past u64, signed, fractional or exponent literals stay floats.
        for text in ["18446744073709551616", "-1", "-0", "1.0", "1e3"] {
            let v = JsonValue::parse(text).unwrap();
            assert!(matches!(v, JsonValue::Num(_)), "{text}: {v:?}");
        }
        assert_eq!(JsonValue::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn depth_is_bounded() {
        // depths within the bound parse…
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&ok).is_ok());
        // …one past it errors instead of blowing the stack
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // a hostile unclosed prefix errors too
        let hostile = "[".repeat(100_000);
        assert!(JsonValue::parse(&hostile).is_err());
        // siblings don't accumulate depth
        let wide = format!("[{}]", vec!["[0]"; 1000].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn string_parse_time_is_linear() {
        // A 1 MiB string must parse within a linear multiple of a 1 KiB
        // one. The old charwise scan re-validated the rest of the input
        // per character, which made the 1 MiB parse about a million
        // times slower than the 1 KiB one instead of about a thousand.
        fn fastest(doc: &str, reps: usize) -> std::time::Duration {
            (0..reps)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let value = JsonValue::parse(doc).unwrap();
                    let took = start.elapsed();
                    // the quotes and the escape's backslash are gone
                    assert_eq!(value.as_str().map(str::len), Some(doc.len() - 3));
                    took
                })
                .min()
                .unwrap()
        }
        let doc = |len: usize| format!("\"é{}\\n\"", "a".repeat(len - 2));
        let small = fastest(&doc(1 << 10), 64);
        let large = fastest(&doc(1 << 20), 3);
        assert!(
            large < small * 1024 * 32,
            "1 MiB took {large:?}, 1 KiB {small:?}: not linear"
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
        assert_eq!(
            JsonValue::parse("\"héllo\"").unwrap().as_str(),
            Some("héllo")
        );
        let rendered = JsonValue::Str("\u{1}".into()).render();
        assert_eq!(rendered, "\"\\u0001\"");
        assert_eq!(JsonValue::parse(&rendered).unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} must be refused");
        }
        assert_eq!(
            JsonValue::parse(r#""\u00E9\u00e9""#).unwrap().as_str(),
            Some("éé")
        );
        // the two short escapes JSON has besides \n, \r and \t
        assert_eq!(
            JsonValue::parse(r#""\b\f""#).unwrap().as_str(),
            Some("\u{8}\u{c}")
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        assert_eq!(
            JsonValue::parse(r#""a\ud83d\ude00b""#).unwrap().as_str(),
            Some("a\u{1F600}b")
        );
        assert_eq!(
            JsonValue::parse(r#""\uDBFF\uDFFF""#).unwrap().as_str(),
            Some("\u{10FFFF}")
        );
    }

    #[test]
    fn lone_or_reversed_surrogates_are_refused() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn non_bmp_strings_round_trip() {
        let v = JsonValue::Obj(vec![(
            "emoji".into(),
            JsonValue::from("x\u{1F600}\u{10348}y"),
        )]);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }
}
