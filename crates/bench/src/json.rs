//! Minimal hand-rolled JSON for machine-readable bench output.
//!
//! The sandbox has no serde, and the data is small (a handful of bench
//! measurements per run), so this is a tiny value tree with a pretty
//! printer — just enough for `bench_results/*.json` files that are stable
//! under `diff` across PRs — plus a matching recursive-descent parser
//! ([`Json::parse`]) so the `benchdiff` tool can read two result trees
//! back and compare them.
//!
//! **The metric shape.** A bench declares which way a metric improves
//! where it writes it: [`Json::higher`] / [`Json::lower`] render
//! `{"value": x, "better": "higher"|"lower"}` (the vocabulary
//! `BENCHMARK.json` uses), and `benchdiff` reads that object back as one
//! leaf keyed by its parent path, gating regressions on the declaration.
//! A plain number is a configuration echo or a trajectory fact — it is
//! reported when it moves and never gates.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Which way a declared metric improves ([`Json::higher`] /
/// [`Json::lower`]; read back by [`Json::as_metric`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// `"better": "higher"`.
    Higher,
    /// `"better": "lower"`.
    Lower,
}

/// A JSON value. Object fields keep insertion order so output is
/// deterministic and diffs stay minimal.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// A finite float; non-finite values render as `null` (JSON has no
    /// NaN/∞), which keeps a single bad measurement from corrupting the
    /// whole file.
    Num(f64),
    /// An unsigned integer, rendered exactly (no float rounding).
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A higher-is-better metric (`x` a [`Json::Num`] or [`Json::Int`]):
    /// `{"value": x, "better": "higher"}`.
    pub fn higher(x: Json) -> Json {
        Json::metric(x, "higher")
    }

    /// A lower-is-better metric (`x` a [`Json::Num`] or [`Json::Int`]):
    /// `{"value": x, "better": "lower"}`.
    pub fn lower(x: Json) -> Json {
        Json::metric(x, "lower")
    }

    fn metric(x: Json, better: &str) -> Json {
        debug_assert!(
            matches!(x, Json::Num(_) | Json::Int(_)),
            "a metric value is a number: {x:?}"
        );
        Json::obj([("value", x), ("better", Json::str(better))])
    }

    /// The direction and value of a metric written by [`Json::higher`] /
    /// [`Json::lower`]; `None` for any other node, and for a metric whose
    /// non-finite value the writer rendered as `null`.
    pub fn as_metric(&self) -> Option<(Better, f64)> {
        let better = match self.get("better").and_then(Json::as_str)? {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            _ => return None,
        };
        let two_fields = matches!(self, Json::Obj(f) if f.len() == 2);
        let value = self.get("value").filter(|_| two_fields)?;
        Some((better, value.as_f64()?))
    }

    /// Parses a JSON document (the grammar this module writes: RFC 8259
    /// minus exotic number forms our writer never emits — it accepts
    /// leading `-`, fractions, and exponents, which covers every file in
    /// `bench_results/`). Integers without fraction/exponent that fit
    /// `u64` parse as [`Json::Int`]; everything else numeric as
    /// [`Json::Num`]; `null` (the writer's non-finite encoding) as
    /// `Json::Num(f64::NAN)`.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of this node, if it is one (`Int` widens to
    /// `f64`; the writer's `null` reads back as NaN and returns `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) if v.is_finite() => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string value of this node, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on one line with no whitespace (and no trailing newline):
    /// one JSONL record, or one element of a line-per-element array.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Renders at `depth` levels of indentation, or compact on `None`.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `Display` for f64 is the shortest round-trip form.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => render_block(out, depth, '[', ']', items.len(), |out, i| {
                items[i].render(out, inner);
            }),
            Json::Obj(fields) => render_block(out, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                out.push('"');
                escape_into(k, out);
                out.push_str(if depth.is_some() { "\": " } else { "\":" });
                v.render(out, inner);
            }),
        }
    }
}

/// Renders a `[...]`/`{...}` block: empty inline, otherwise one element
/// per line at `depth + 1` indentation, or all on one line when compact
/// (`depth` is `None`).
fn render_block(
    out: &mut String,
    depth: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut elem: impl FnMut(&mut String, usize),
) {
    let newline = |out: &mut String, indent: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent * 2));
    };
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(d) = depth {
            newline(out, d + 1);
        }
        elem(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(d) = depth {
        newline(out, d);
    }
    out.push(close);
}

/// Escapes `s` per RFC 8259 (quotes, backslash, control characters).
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    /// The document; `bytes` is its byte view and `at` always sits on a
    /// char boundary (it only ever advances by ASCII steps or whole
    /// `len_utf8()` strides).
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Num(f64::NAN)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.at += 4;
                            // Surrogates never appear in our output; map
                            // them (and any invalid scalar) to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `at` advances only by
                    // whole chars, so the boundary slice always succeeds;
                    // the checked `get` keeps that an error, not UB, if
                    // the invariant is ever broken.
                    let Some(c) = self.text.get(self.at..).and_then(|s| s.chars().next()) else {
                        return Err(self.err("not a char boundary"));
                    };
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        // Only ASCII digits/signs/dots were consumed, so the slice sits
        // on char boundaries.
        let text = &self.text[start..self.at];
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Writes `value` pretty-printed to `path`, creating parent directories.
pub fn write_json(path: impl AsRef<Path>, value: &Json) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, value.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::str("a\"b\\c\nd").to_pretty(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::Num(1.5).to_pretty(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null\n");
        assert_eq!(Json::Int(u64::MAX).to_pretty(), "18446744073709551615\n");
        assert_eq!(Json::Bool(true).to_pretty(), "true\n");
        assert_eq!(Json::Str("\u{1}".into()).to_pretty(), "\"\\u0001\"\n");
    }

    #[test]
    fn renders_nested_pretty() {
        let v = Json::obj([
            ("name", Json::str("routing")),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("ns", Json::Num(2.25))])]),
            ),
        ]);
        let expect = "{\n  \"name\": \"routing\",\n  \"empty\": [],\n  \"rows\": [\n    {\n      \"ns\": 2.25\n    }\n  ]\n}\n";
        assert_eq!(v.to_pretty(), expect);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::obj([
            ("name", Json::str("elastic \"bench\"\n")),
            ("ratio", Json::Num(1.57)),
            ("count", Json::Int(u64::MAX)),
            ("neg", Json::Num(-2.5)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Num(f64::NAN)), // renders as null
            ("rows", Json::Arr(vec![Json::Int(1), Json::obj([])])),
        ]);
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        // NaN breaks PartialEq; compare everything else field by field.
        assert_eq!(parsed.get("name"), doc.get("name"));
        assert_eq!(parsed.get("ratio"), doc.get("ratio"));
        assert_eq!(parsed.get("count"), doc.get("count"));
        assert_eq!(parsed.get("neg"), doc.get("neg"));
        assert_eq!(parsed.get("ok"), doc.get("ok"));
        assert_eq!(parsed.get("rows"), doc.get("rows"));
        assert!(matches!(parsed.get("missing"), Some(Json::Num(v)) if v.is_nan()));
    }

    #[test]
    fn parse_round_trips_committed_results() {
        // Every committed bench_results file must parse (the benchdiff
        // tool reads them back) and re-render identically after a parse —
        // the writer/parser pair is lossless on its own grammar.
        let dir = crate::figure::results_dir();
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("bench_results exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(parsed.to_pretty(), text, "{} not lossless", path.display());
            seen += 1;
        }
        assert!(seen > 0, "no committed results found");
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"a": 1, "b": 2.5, "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("7 8").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("nope").unwrap_err();
        assert!(e.to_string().contains("byte 0"));
    }

    #[test]
    fn write_json_creates_parents() {
        let dir = std::env::temp_dir().join("streambal_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        write_json(&path, &Json::Int(7)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
