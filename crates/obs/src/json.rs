//! The workspace's one JSON module: the string escaper every writer shares
//! and a strict reader.
//!
//! Writers (the chrome trace, [`crate::MetricsSnapshot::to_json`], et-serve's
//! response builders, et-bench's reports) assemble their documents by hand
//! and need only [`escape_into`]. The reader, [`parse`], exists for the one
//! untrusted JSON input the system takes — et-serve's `/batch` body — and
//! for tests that read those writers' output back. It accepts RFC 8259 and
//! nothing more: no trailing bytes, no bare control characters, no lone
//! surrogates, no number outside `f64`, at most [`MAX_DEPTH`] nested
//! containers; every refusal carries the byte offset it happened at.

use std::fmt::{self, Write as _};
use std::ops::Index;

/// Escapes `s` as a JSON string (without surrounding quotes) into `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("String writes cannot fail"),
            c => out.push(c),
        }
    }
}

/// Appends `s` as a JSON string literal: quoted and escaped.
pub fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Deepest nesting of arrays and objects [`parse`] follows; the recursion is
/// bounded by it, so a hostile body cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal — no sign, fraction or exponent — that
    /// fits a `u64`.
    UInt(u64),
    /// Every other number.
    Float(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the last one, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else {
            return None;
        };
        members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a [`Value::UInt`]; `1.0`, `1e2` and `-0` are not one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// `value["key"]`: the member, or `Null` when absent or not an object.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }
}

/// `value[i]`: the element, or `Null` when out of range or not an array.
impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array()
            .and_then(|a| a.get(i))
            .unwrap_or(&Value::Null)
    }
}

/// Why and where [`parse`] refused a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses exactly one JSON value spanning all of `text`.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.fail("trailing bytes after the document");
    }
    Ok(value)
}

/// Escape letters and, at the same index, the characters they stand for.
const ESCAPES: (&[u8; 8], &[u8; 8]) = (b"\"\\/bfnrt", b"\"\\/\x08\x0c\n\r\t");

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary: it only ever steps over whole tokens.
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, message: &'static str) -> Result<T, JsonError> {
        let offset = self.pos;
        Err(JsonError { offset, message })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.fail("nesting deeper than MAX_DEPTH"),
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => {
                let member = |p: &mut Self| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return p.fail("expected ':'");
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                self.list(b'}', member).map(Value::Object)
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let literals = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ];
                for (word, value) in literals {
                    if rest.starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.fail("expected a value")
            }
        }
    }

    /// Parses the comma-separated items of the container whose opening
    /// bracket is at `pos`, up to and including `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or the closing bracket");
            }
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.fail("expected a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let mut plain = !self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            plain = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            plain = false;
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let literal = &self.text[start..self.pos];
        // A plain literal too large for `u64` is still a number: a float.
        if let (true, Ok(v)) = (plain, literal.parse()) {
            return Ok(Value::UInt(v));
        }
        match literal.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            _ => {
                self.pos = start;
                self.fail("number out of range")
            }
        }
    }

    /// Parses the string whose opening quote must be at `pos`.
    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return self.fail("expected a string");
        }
        let mut out = String::new();
        loop {
            match self.text[self.pos..].chars().next() {
                None => return self.fail("unterminated string"),
                Some(c) if c < ' ' => return self.fail("control character in a string"),
                Some(c) => {
                    self.pos += c.len_utf8();
                    match c {
                        '"' => return Ok(out),
                        '\\' => out.push(self.escape()?),
                        c => out.push(c),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let Some(digits) = digits.filter(|d| d.iter().all(u8::is_ascii_hexdigit)) else {
            return self.fail("expected four hex digits");
        };
        self.pos += 4;
        Ok(digits.iter().fold(0, |code, &d| {
            code * 16 + char::from(d).to_digit(16).expect("checked above")
        }))
    }

    /// Parses the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let backslash = self.pos - 1;
        if !self.eat(b'u') {
            let letter = self
                .peek()
                .and_then(|b| ESCAPES.0.iter().position(|&e| e == b));
            let Some(i) = letter else {
                return self.fail("unknown escape");
            };
            self.pos += 1;
            return Ok(char::from(ESCAPES.1[i]));
        }
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // Whatever is still a surrogate here was not half of a pair.
        char::from_u32(code).ok_or(JsonError {
            offset: backslash,
            message: "lone surrogate in a \\u escape",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_read_back() {
        let _guard = crate::tests::lock();
        let mut original: String = (0..0x20u8).map(char::from).collect();
        original.push_str("\"\\/ plain é \u{1F600}");
        let mut literal = String::new();
        quote_into(&mut literal, &original);
        assert_eq!(parse(&literal), Ok(Value::String(original)));
        // The escapes only other writers produce.
        let doc = parse(r#""\b\f\/\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("\u{8}\u{c}/é\u{1F600}"));
    }

    #[test]
    fn documents_read_back_through_the_accessors() {
        let _guard = crate::tests::lock();
        let doc = parse(r#" {"a": [1, {"b": null}], "t": true, "a": [7], "s": "x"} "#).unwrap();
        assert_eq!(doc["a"][0].as_u64(), Some(7), "the last duplicate wins");
        assert_eq!(doc["a"].as_array().map(<[Value]>::len), Some(1));
        assert_eq!(
            (doc["t"].as_bool(), doc["s"].as_str()),
            (Some(true), Some("x"))
        );
        assert_eq!(
            (doc.get("missing"), &doc["missing"]["deeper"][3]),
            (None, &Value::Null)
        );
        assert_eq!(parse("[ ]"), Ok(Value::Array(Vec::new())));
        assert_eq!(parse("{ }"), Ok(Value::Object(Vec::new())));
    }

    #[test]
    fn only_plain_non_negative_integers_are_u64() {
        let _guard = crate::tests::lock();
        for (text, uint, float) in [
            ("0", Some(0), 0.0),
            ("18446744073709551615", Some(u64::MAX), u64::MAX as f64),
            ("18446744073709551616", None, 18446744073709551616.0),
            ("-0", None, 0.0),
            ("-7", None, -7.0),
            ("1.0", None, 1.0),
            ("1e2", None, 100.0),
            ("2.5E-1", None, 0.25),
        ] {
            let v = parse(text).expect(text);
            assert_eq!((v.as_u64(), v.as_f64()), (uint, Some(float)), "{text}");
        }
        assert_eq!(parse("\"1\"").unwrap().as_u64(), None);
    }

    #[test]
    fn refusals_are_located() {
        let _guard = crate::tests::lock();
        for (text, offset) in [
            ("", 0),
            ("  ", 2),
            ("{} x", 3),
            ("[1,]", 3),
            ("[1 2]", 3),
            ("{\"a\" 1}", 5),
            ("{a: 1}", 1),
            ("{\"a\": 1,}", 8),
            ("tru", 0),
            ("\"abc", 4),
            ("\"a\nb\"", 2),
            ("\"\\x\"", 2),
            ("\"\\u12g4\"", 3),
            ("\"\\ud800\"", 1),
            ("\"\\ud800\\u0041\"", 1),
            ("\"\\udc00\"", 1),
            ("01", 1),
            ("-", 1),
            ("1.", 2),
            ("1 .5", 2),
            ("1e+", 3),
            ("1e999", 0),
            ("+1", 0),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let _guard = crate::tests::lock();
        for opening in ["[", "{\"k\":"] {
            let err = parse(&opening.repeat(100_000)).expect_err("too deep");
            assert_eq!(err.offset, MAX_DEPTH * opening.len(), "{err}");
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        assert!(parse(&("[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH))).is_ok());
    }
}
