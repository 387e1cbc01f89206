//! A minimal order-preserving JSON value, writer and reader.
//!
//! The run manifest must be reproducible byte for byte (it is diffed
//! against checked-in goldens), so keys keep their insertion order and the
//! rendering is fully deterministic — no external serialization crate, no
//! hash-map ordering, no locale-dependent formatting.
//!
//! Two renderings exist: [`Json::render`] pretty-prints for manifests and
//! goldens, [`Json::render_compact`] emits a single line for the `hsmd`
//! line-delimited socket protocol. [`Json::parse`] reads either form back
//! (the [`protocol`](crate::protocol) request/response codecs and tests
//! round-trip through it).

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, sizes, cycles).
    UInt(u64),
    /// A signed integer (exit codes).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array of unsigned integers.
    pub fn uints(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::UInt).collect())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one (a non-negative
    /// `Int` also qualifies — the reader cannot know which was written).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, when it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — one protocol frame.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Parses a JSON document (integers only — the manifest and protocol
    /// never write floats, so none are accepted).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars render inline; nested structures
                // get one element per line.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON parse failure, with the byte offset of the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    /// The document, and the same as bytes: scanning reads the bytes,
    /// and what it finds is sliced out of the text, which is UTF-8
    /// already.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // The writer only emits \u for control bytes;
                            // surrogate pairs never appear.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape
                    // at once. Both delimiters are ASCII, and so is
                    // whatever ended the run before this one, so the run
                    // is a slice of the text: nothing to validate again.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the manifest/protocol schema"));
        }
        if let Some(stripped) = text.strip_prefix('-') {
            if stripped.is_empty() {
                return Err(self.err("lone '-'"));
            }
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Whole runs between bytes that need an escape are copied at once.
    // Those bytes are ASCII, so every run is a slice of `s`.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_plainly() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::UInt(42).render(), "42\n");
        assert_eq!(Json::Int(-7).render(), "-7\n");
        assert_eq!(Json::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let j = Json::obj(vec![("zebra", Json::UInt(1)), ("apple", Json::UInt(2))]);
        assert_eq!(j.render(), "{\n  \"zebra\": 1,\n  \"apple\": 2\n}\n");
    }

    #[test]
    fn scalar_arrays_inline_nested_break() {
        assert_eq!(Json::uints([1, 2, 3]).render(), "[1, 2, 3]\n");
        let nested = Json::Arr(vec![Json::obj(vec![("k", Json::UInt(1))])]);
        assert_eq!(nested.render(), "[\n  {\n    \"k\": 1\n  }\n]\n");
    }

    #[test]
    fn get_finds_keys() {
        let j = Json::obj(vec![("a", Json::UInt(1))]);
        assert_eq!(j.get("a"), Some(&Json::UInt(1)));
        assert_eq!(j.get("b"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let j = Json::obj(vec![
            ("op", Json::str("sweep")),
            ("rows", Json::uints([1, 2])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let line = j.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(line, r#"{"op":"sweep","rows":[1,2],"nested":{"ok":true}}"#);
    }

    #[test]
    fn parse_round_trips_both_renderings() {
        let j = Json::obj(vec![
            ("name", Json::str("pi/hsm \"quoted\"\n")),
            ("cores", Json::UInt(4)),
            ("exit", Json::Int(-3)),
            ("flags", Json::Arr(vec![Json::Null, Json::Bool(false)])),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&j.render()).expect("pretty"), j);
        assert_eq!(Json::parse(&j.render_compact()).expect("compact"), j);
    }

    /// The string reader copies runs between delimiters: every way a run
    /// can begin and end next to an escape or a multi-byte scalar.
    #[test]
    fn strings_parse_run_by_run() {
        for text in [
            "",
            "\n",
            "\\leading escape",
            "trailing escape\"",
            "é\né",
            "两\"行\\第二\t行",
            "\u{1}π\u{1f}",
            "\"\"\\\\",
            "plain ascii with no delimiter at all",
        ] {
            let j = Json::obj(vec![(text, Json::str(text))]);
            assert_eq!(Json::parse(&j.render()).expect("pretty"), j, "{text:?}");
            assert_eq!(
                Json::parse(&j.render_compact()).expect("compact"),
                j,
                "{text:?}"
            );
        }
        assert_eq!(
            Json::parse(r#""aé\/b""#).expect("escapes the writer never emits"),
            Json::str("aé/b")
        );
        let long = format!("\"{}", "x".repeat(10_000));
        let err = Json::parse(&long).unwrap_err();
        assert_eq!(err.message, "unterminated string");
        assert_eq!(err.offset, long.len(), "reported at the end of the run");
        assert!(Json::parse("\"tail\\").is_err(), "escape cut short");
    }

    /// The writer as it was before it copied runs: one push per `char`.
    /// What the run-wise writer must agree with byte for byte.
    fn write_escaped_by_char(out: &mut String, s: &str) {
        out.push('"');
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
        out.push('"');
    }

    /// Every ASCII byte on its own (all the control bytes, both
    /// delimiters, DEL), every byte the writer escapes between, before and
    /// after scalars of two, three and four bytes, and the corpus sources
    /// (what a request line carries): written as the per-`char` writer
    /// wrote them, and read back as what was written.
    #[test]
    fn strings_are_written_run_by_run_as_they_were_char_by_char() {
        let mut cases: Vec<String> = (0u8..=0x7f).map(|b| char::from(b).to_string()).collect();
        for escaped in ['"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '/', '\u{7f}'] {
            for wide in ["é", "两", "😀"] {
                cases.push(format!("{wide}{escaped}{wide}"));
                cases.push(format!("{escaped}{wide}{escaped}"));
                cases.push(format!("{escaped}{escaped}{wide}{wide}"));
            }
        }
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        for dir in [corpus.clone(), corpus.join("adversarial")] {
            for entry in std::fs::read_dir(&dir).expect("corpus directory") {
                let path = entry.expect("corpus entry").path();
                if path.extension().is_some_and(|e| e == "c") {
                    cases.push(std::fs::read_to_string(&path).expect("corpus source"));
                }
            }
        }
        assert!(cases.len() > 128 + 27 + 8, "the corpus was found");
        for text in &cases {
            let (mut got, mut want) = (String::new(), String::new());
            write_escaped(&mut got, text);
            write_escaped_by_char(&mut want, text);
            assert_eq!(got, want, "{text:?}");
            assert_eq!(Json::parse(&got), Ok(Json::str(text.as_str())), "{text:?}");
        }
    }

    /// A mebibyte of string with an escape every 25 bytes, written and
    /// read back: the rates, next to the per-`char` writer's. Reported,
    /// not gated (`cargo test --release -p hsm-core --lib json -- --ignored
    /// --nocapture`).
    #[test]
    #[ignore = "prints rates; meaningful only with --release"]
    fn a_mebibyte_with_an_escape_every_25_bytes() {
        let unit = " s[id] += é * x[i + 1];\n";
        assert_eq!(unit.len(), 25);
        let text = unit.repeat((1 << 20) / 25);
        let rate = |work: &mut dyn FnMut() -> usize| {
            let started = std::time::Instant::now();
            let bytes: usize = (0..20).map(|_| work()).sum();
            bytes as f64 / started.elapsed().as_secs_f64() / 1e6
        };
        let mut line = String::new();
        let by_run = rate(&mut || {
            line.clear();
            write_escaped(&mut line, std::hint::black_box(&text));
            text.len()
        });
        let mut old = String::new();
        let by_char = rate(&mut || {
            old.clear();
            write_escaped_by_char(&mut old, std::hint::black_box(&text));
            text.len()
        });
        assert_eq!(line, old);
        let parsed = rate(&mut || {
            let j = Json::parse(std::hint::black_box(&line)).expect("parses");
            assert_eq!(j.as_str().map(str::len), Some(text.len()));
            line.len()
        });
        println!(
            "write: {by_run:.0} MB/s by run, {by_char:.0} MB/s by char; parse: {parsed:.0} MB/s"
        );
    }

    /// A megabyte of string parses in time linear in its length (the
    /// per-character reader re-validated the whole rest of the input for
    /// each character: seconds, not milliseconds).
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let body = "int x; /* é */\\n".repeat(70_000);
        let line = format!("{{\"source\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let j = Json::parse(&line).expect("parses");
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
        let source = j.get("source").and_then(Json::as_str).expect("source");
        assert_eq!(source.len(), body.len() - 70_000);
    }

    #[test]
    fn parse_reports_errors_with_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("1.5").is_err(), "floats are rejected");
        assert!(Json::parse("{} trailing").is_err());
        let err = Json::parse("nulL").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn parse_preserves_key_order() {
        let j = Json::parse(r#"{"z":1,"a":2}"#).expect("parses");
        assert_eq!(
            j,
            Json::Obj(vec![
                ("z".to_string(), Json::UInt(1)),
                ("a".to_string(), Json::UInt(2)),
            ])
        );
    }

    #[test]
    fn negative_numbers_parse_as_int() {
        assert_eq!(Json::parse("-12").expect("int"), Json::Int(-12));
        assert_eq!(Json::parse("12").expect("uint"), Json::UInt(12));
    }
}
