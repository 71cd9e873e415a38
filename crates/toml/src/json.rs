//! A minimal, dependency-free JSON reader/writer for ReSim's wire
//! protocol (`resim-serve`), in the same spirit as the TOML reader:
//! just enough of the language, with **byte-offset diagnostics** so a
//! corrupted frame surfaces as a typed error rather than a panic or a
//! misparse.
//!
//! The supported subset:
//!
//! * objects, arrays, strings, booleans, `null`;
//! * integers in `i64` range and floats (anything with `.`/`e`);
//! * string escapes `\" \\ \/ \b \f \n \r \t \uXXXX` (surrogate pairs
//!   included);
//! * strict framing: exactly one value per document, nothing but
//!   whitespace after it, nesting bounded at [`MAX_DEPTH`].
//!
//! Rendering ([`JsonValue::render`]) is compact (no whitespace) and
//! deterministic — object keys render in insertion order — so a
//! rendered value is a stable single protocol line.

use std::fmt;

/// Nesting bound of the parser: deeper documents are rejected rather
/// than recursed into (a corrupt or hostile frame must not overflow
/// the stack).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no fraction or exponent spelled).
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order (duplicates are rejected at
    /// parse time).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks a member up by key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Renders the value as compact JSON (no whitespace, keys in
    /// insertion order). Round-trips through [`parse_json`] except that
    /// non-finite floats render as `null` (JSON has no spelling for
    /// them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => {
                if v.is_finite() {
                    // Always spell a fraction so the value re-parses as
                    // a float.
                    if *v == v.trunc() && v.abs() < 1e15 {
                        out.push_str(&format!("{v:.1}"));
                    } else {
                        out.push_str(&v.to_string());
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_json_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_json_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes and quotes `s` into `out` per JSON string rules: `"` and
/// `\` are backslash-escaped, `\n`, `\r` and `\t` get their short
/// forms, other control characters become `\u00XX`, and everything
/// else is copied as is.
pub fn render_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error: what went wrong and the byte offset it was
/// noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value from `input` (anything but whitespace
/// after it is an error).
///
/// ```
/// use resim_toml::json::{parse_json, JsonValue};
///
/// let v = parse_json(r#"{"verb":"submit","threads":2}"#).unwrap();
/// assert_eq!(v.get("verb").unwrap().as_str(), Some("submit"));
/// assert_eq!(v.get("threads").unwrap().as_u64(), Some(2));
/// assert!(parse_json("{\"a\":1} trailing").is_err());
/// ```
///
/// # Errors
///
/// A [`JsonError`] carrying the byte offset for syntax problems,
/// duplicate object keys, out-of-range integers, lone surrogates or
/// over-deep nesting.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(p.pos, "trailing data after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(JsonError::new(
                self.pos,
                format!("expected {:?}", char::from(b)),
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(JsonError::new(
                self.pos,
                format!("unexpected byte 0x{c:02x}"),
            )),
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::new(key_at, format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            match self.peek() {
                None => return Err(JsonError::new(at, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // A high surrogate needs its pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(JsonError::new(at, "invalid surrogate pair"));
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                        .ok_or_else(|| JsonError::new(at, "invalid code point"))?
                                } else {
                                    return Err(JsonError::new(at, "lone surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| JsonError::new(at, "lone surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::new(at, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(JsonError::new(at, "unescaped control character"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let at = self.pos;
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new(at, "truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| JsonError::new(at, "bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError::new(at, "bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_at = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_at {
            return Err(JsonError::new(start, "invalid number"));
        }
        // Leading zeros are rejected like real JSON ("01" is two tokens
        // there, i.e. trailing garbage here).
        if self.pos - digits_at > 1 && self.bytes[digits_at] == b'0' {
            return Err(JsonError::new(start, "leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_at = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_at {
                return Err(JsonError::new(start, "invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_at = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_at {
                return Err(JsonError::new(start, "invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| JsonError::new(start, "invalid number"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| JsonError::new(start, "integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        render_json_string(s, &mut out);
        out
    }

    #[test]
    fn string_escape_covers_specials() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\r\t"), "\"\\r\\t\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
        assert_eq!(quoted("plain"), "\"plain\"");
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(parse_json("0").unwrap(), JsonValue::Int(0));
        assert_eq!(parse_json("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(
            parse_json("\"hi\\n\\u0041\"").unwrap(),
            JsonValue::Str("hi\nA".into())
        );
    }

    #[test]
    fn containers_parse_and_accessors_work() {
        let v = parse_json(r#"{"a":[1,2.5,"x"],"b":{"c":null},"d":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().unwrap().len(), 3);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(parse_json("\"\\ud83d\"").is_err(), "lone surrogate");
        assert!(parse_json("\"\\ud83d\\u0041\"").is_err(), "bad pair");
    }

    #[test]
    fn malformed_documents_are_offset_diagnostics() {
        for (input, what) in [
            ("", "end of input"),
            ("{", "expected"),
            ("{\"a\":}", "unexpected"),
            ("[1,]", "unexpected"),
            ("{\"a\":1,\"a\":2}", "duplicate"),
            ("tru", "true"),
            ("\"abc", "unterminated"),
            ("01", "leading zero"),
            ("1.", "invalid number"),
            ("1e", "invalid number"),
            ("9223372036854775808", "out of range"),
            ("{\"a\":1} x", "trailing"),
            ("\"\\q\"", "invalid escape"),
            ("\"\\u12\"", "truncated"),
        ] {
            let err = parse_json(input).unwrap_err();
            assert!(err.to_string().contains(what), "{input:?} → {err}");
        }
        // Over-deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse_json(&deep).unwrap_err().to_string().contains("deep"));
    }

    #[test]
    fn render_round_trips() {
        let v = parse_json(r#"{"a":[1,2.5,"x\n"],"b":{"c":null},"n":-3,"t":true}"#).unwrap();
        let rendered = v.render();
        assert_eq!(parse_json(&rendered).unwrap(), v);
        assert!(!rendered.contains(' '), "compact: {rendered}");
        // Whole floats keep a fraction so they re-parse as floats.
        assert_eq!(JsonValue::Float(2.0).render(), "2.0");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Str("a\"b\\c\u{1}".into()).render(), "\"a\\\"b\\\\c\\u0001\"");
    }
}
