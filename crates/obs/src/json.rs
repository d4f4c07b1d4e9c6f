//! A minimal JSON value, writer, and recursive-descent parser.
//!
//! The workspace's one JSON layer: metrics exports, model files
//! (`ratio_rules::model_json`), checkpoints, the shard wire format and
//! the `BENCH_*.json` reports all go through it. It covers exactly the
//! JSON those emit (objects, arrays, strings with standard escapes,
//! finite numbers, booleans, null) and rejects everything else with a
//! byte offset.

use std::fmt::{self, Write as _};

/// 2^53: every integer up to it is exact in f64, so a count up to it
/// survives the trip through a JSON number.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// An owned JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Count view: the number as a `usize` when it is finite,
    /// non-negative, integral and at most 2^53 (past which f64 skips
    /// integers), else `None`. Decoders of counts, row offsets and
    /// versions use this instead of `as usize`, which truncates `2.5` to
    /// 2 and saturates `-5` to 0.
    pub fn as_count(&self) -> Option<usize> {
        let v = self.as_f64()?;
        // rrlint-allow: RR002 integer-valuedness test; obs is dependency-free so linalg::cmp is unavailable
        let integral = v.fract() == 0.0;
        if integral && (0.0..=MAX_EXACT_COUNT).contains(&v) {
            usize::try_from(v as u64).ok()
        } else {
            None
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Escape `s` into `out` as a JSON string literal (with quotes).
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    // rrlint-allow: RR002 integer-valuedness test; obs is dependency-free so linalg::cmp is unavailable
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        // `as i64` drops the sign of -0.0; keep it so parsing the output
        // gives back the same bits.
        if v.is_sign_negative() && v as i64 == 0 {
            out.push('-');
        }
        let _ = write!(out, "{}", v as i64);
    } else {
        // `{}` on f64 is the shortest representation that parses back
        // to the same bits, so numeric round-trips are exact.
        let _ = write!(out, "{v}");
    }
}

impl JsonValue {
    fn write_into(&self, out: &mut String, pretty: bool, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            if pretty {
                out.push('\n');
                for _ in 0..d {
                    out.push_str("  ");
                }
            }
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => write_num(*v, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write_into(out, pretty, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(k, out);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write_into(out, pretty, depth + 1);
                }
                if !members.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Serialize; `pretty` indents with two spaces.
    pub fn write(&self, pretty: bool) -> String {
        let mut out = String::new();
        self.write_into(&mut out, pretty, 0);
        if pretty {
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.write(f.alternate()))
    }
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a complete JSON document (trailing whitespace allowed).
///
/// # Errors
/// A [`ParseError`] carrying the byte offset of the first malformed
/// token, or of trailing non-whitespace after the document.
pub fn parse(s: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
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

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not emitted by our writer.
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
                    // A plain run up to the next quote or backslash, copied
                    // as one slice: both are ASCII, so the run ends on a
                    // character boundary of the input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| ParseError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_count_takes_only_exact_non_negative_integers() {
        let count = |v: f64| JsonValue::Num(v).as_count();
        assert_eq!(count(0.0), Some(0));
        assert_eq!(count(-0.0), Some(0));
        assert_eq!(count(7.0), Some(7));
        assert_eq!(count(9_007_199_254_740_992.0), Some(1 << 53));
        for bad in [-5.0, -1.0, 1.9, 2.5, 0.5, 9_007_199_254_740_994.0, 1e300] {
            assert_eq!(count(bad), None, "{bad}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(count(bad), None, "{bad}");
        }
        assert_eq!(JsonValue::Str("3".into()).as_count(), None);
        assert_eq!(JsonValue::Null.as_count(), None);
        // Parsed text goes through the same check.
        assert_eq!(parse("12").unwrap().as_count(), Some(12));
        assert_eq!(parse("12.0").unwrap().as_count(), Some(12));
        assert_eq!(parse("1e3").unwrap().as_count(), Some(1000));
        assert_eq!(parse("-5").unwrap().as_count(), None);
        assert_eq!(parse("2.5").unwrap().as_count(), None);
    }

    #[test]
    fn parses_what_it_writes() {
        let doc = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("cov scan \"fast\"\n".into())),
            ("count".into(), JsonValue::Num(42.0)),
            ("ratio".into(), JsonValue::Num(0.8527313)),
            ("big".into(), JsonValue::Num(1.25e300)),
            ("neg".into(), JsonValue::Num(-17.5)),
            ("on".into(), JsonValue::Bool(true)),
            ("nothing".into(), JsonValue::Null),
            (
                "items".into(),
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Str("two".into())]),
            ),
        ]);
        for pretty in [false, true] {
            let text = doc.write(pretty);
            let back = parse(&text).unwrap();
            assert_eq!(back, doc, "pretty={pretty} text={text}");
        }
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for v in [std::f64::consts::PI, 1e-300, 123456789.123456789, -0.1, -0.0, 0.0] {
            let text = JsonValue::Num(v).write(false);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Num(42.0).write(false), "42");
        assert_eq!(JsonValue::Num(-7.0).write(false), "-7");
    }

    #[test]
    fn control_characters_escape_and_return() {
        let s = "tab\there \u{1} quote\" backslash\\";
        let text = JsonValue::Str(s.into()).write(false);
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn strings_decode_to_the_exact_text() {
        let doc = r#""é \"ß\\日本 / \/ \n\t\r\b\f \u00e9\u0001 😀 end""#;
        let want = "é \"ß\\日本 / / \n\t\r\u{8}\u{c} é\u{1} 😀 end";
        assert_eq!(parse(doc).unwrap().as_str(), Some(want));
        // A 1 MiB value of 1-, 2-, 3- and 4-byte characters and escapes
        // comes back whole.
        let unit = "aß日😀\"\\\n\u{1}";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(big.len() >= 1 << 20);
        let text = JsonValue::Str(big.clone()).write(false);
        assert_eq!(parse(&text).unwrap().as_str(), Some(big.as_str()));
    }

    #[test]
    fn pretty_output_is_pinned() {
        let doc = JsonValue::Obj(vec![
            (
                "nums".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(-0.0),
                    JsonValue::Num(42.0),
                    JsonValue::Num(0.1),
                    JsonValue::Num(-17.25),
                    JsonValue::Num(1e16),
                    JsonValue::Num(f64::NAN),
                ]),
            ),
            ("empty".into(), JsonValue::Arr(Vec::new())),
            (
                "deep".into(),
                JsonValue::Obj(vec![("s".into(), JsonValue::Str("\u{1f}".into()))]),
            ),
        ]);
        let pretty = "{\n  \"nums\": [\n    -0,\n    42,\n    0.1,\n    -17.25,\n    \
                      10000000000000000,\n    null\n  ],\n  \"empty\": [],\n  \
                      \"deep\": {\n    \"s\": \"\\u001f\"\n  }\n}\n";
        assert_eq!(doc.write(true), pretty);
        let flat = r#"{"nums":[-0,42,0.1,-17.25,10000000000000000,null],"empty":[],"deep":{"s":"\u001f"}}"#;
        assert_eq!(doc.write(false), flat);
    }

    #[test]
    fn rejects_garbage_with_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}trailing").is_err());
        let err = parse("   @").unwrap_err();
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn lookup_helpers() {
        let doc = parse(r#"{"a": {"b": [1, 2.5]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(doc.get("missing").is_none());
    }
}
