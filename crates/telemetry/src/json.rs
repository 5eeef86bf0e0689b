//! The workspace's one JSON codec: checkpoints, the telemetry snapshot
//! and the scale report are all built as a [`JsonValue`] tree and
//! written by it.
//!
//! The vendored `serde` is a marker-only stub, so the codec is
//! hand-rolled: a small tree with a byte-stable compact writer and a
//! panic-free recursive-descent parser. Objects keep insertion order on
//! write, so encoding the same document twice produces identical bytes.
//! Floats are JSON numbers in Rust's `{:?}` form — the shortest decimal
//! that round-trips, with `1.0` kept as `1.0` rather than `Display`'s
//! `1`, so a float never reads back as an integer — and are parsed back
//! bit-exactly by `str::parse`. A non-finite float has no JSON spelling
//! and is written as `null`.

use std::fmt::{self, Write as _};

/// A parsed or under-construction JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction or exponent).
    U64(u64),
    /// Any other number. Written as `null` when not finite.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object as insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::field`] chaining.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Appends a key/value pair (no-op on non-objects) and returns the
    /// object, builder style.
    #[must_use]
    pub fn field(mut self, key: &str, value: JsonValue) -> JsonValue {
        if let JsonValue::Obj(pairs) = &mut self {
            pairs.push((key.to_string(), value));
        }
        self
    }

    /// Encodes an `f64` as a number.
    pub fn from_f64(v: f64) -> JsonValue {
        JsonValue::F64(v)
    }

    /// Encodes a string.
    pub fn string(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (`null` is not). An
    /// integer literal rounds to the nearest `f64`, as any decimal does.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::F64(v) => Some(*v),
            JsonValue::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes into `out`. Byte-stable: equal trees produce equal
    /// text.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            JsonValue::F64(_) => out.push_str("null"),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value (with optional surrounding whitespace).
///
/// # Errors
/// Fails on malformed input, trailing garbage, and integer literals that
/// overflow `u64`.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing characters after the value")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), JsonError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(want))))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') if self.eat_word("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_word("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(JsonValue::Bool(false)),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// A number token. A bare digit run is a `u64`; anything else is
    /// read by `str::parse::<f64>`, which is bit-exact for the `{:?}`
    /// form the writer emits and accepts every JSON number (plus a few
    /// spellings JSON does not, such as `1.`).
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse()
                .map(JsonValue::U64)
                .map_err(|_| self.err("integer overflows u64"))
        } else {
            text.parse()
                .map(JsonValue::F64)
                .map_err(|_| self.err("malformed number"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(b) if b < 0x80 => out.push(char::from(b)),
                Some(_) => {
                    // Multi-byte UTF-8: the source is a valid `&str`, so
                    // re-decode the full character from the byte slice.
                    let start = self.pos - 1;
                    let rest = self
                        .bytes
                        .get(start..)
                        .and_then(|tail| std::str::from_utf8(tail).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            code = code * 16 + d;
        }
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in [
            "null", "true", "false", "0", "42", "1.0", "-0.25", "1e300", "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src);
        }
    }

    #[test]
    fn nested_round_trip_is_byte_stable() {
        let v = JsonValue::obj()
            .field("a", JsonValue::U64(7))
            .field(
                "b",
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::string("x")]),
            )
            .field("c", JsonValue::obj().field("d", JsonValue::U64(0)));
        let text = v.to_string();
        assert_eq!(text, r#"{"a":7,"b":[true,"x"],"c":{"d":0}}"#);
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn floats_survive_exactly() {
        for f in [
            0.0,
            -0.0,
            1.5,
            0.1,
            1e300,
            -3.25e-17,
            f64::MAX,
            f64::MIN_POSITIVE,
            1.0,
            1e21,
        ] {
            let v = JsonValue::from_f64(f);
            let back = parse(&v.to_string()).unwrap();
            assert!(
                matches!(back, JsonValue::F64(_)),
                "{f} read back as {back:?}"
            );
            let g = back.as_f64().unwrap();
            assert_eq!(f.to_bits(), g.to_bits(), "{f}");
        }
    }

    #[test]
    fn non_finite_floats_write_null_and_null_is_not_a_number() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = JsonValue::from_f64(f).to_string();
            assert_eq!(text, "null");
            assert_eq!(parse(&text).unwrap().as_f64(), None);
        }
        // An out-of-range literal parses, to infinity.
        assert_eq!(parse("1e999").unwrap().as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}π✓";
        let text = JsonValue::string(s).to_string();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(parse("\"\\u00e9\\u2713\"").unwrap().as_str(), Some("é✓"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"f":2.5,"s":"2.5","z":null,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("f").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("s").and_then(JsonValue::as_f64), None);
        assert_eq!(v.get("z"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_inputs_error() {
        for src in [
            "",
            "tru",
            "[1,",
            "{\"a\":}",
            "\"abc",
            "-",
            "1e",
            "1-2",
            "+1",
            ".5",
            "nul",
            "{\"a\" 1}",
            "[] []",
            "99999999999999999999999999",
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
        let e = parse("nope").unwrap_err();
        assert!(e.to_string().contains("byte 0"));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":{}}"#);
    }
}
