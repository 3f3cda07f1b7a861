//! A from-scratch strict JSON parser and serializer.
//!
//! The offline dependency set does not include `serde_json`, and the
//! benchmark actually benefits from owning this layer: classifying the
//! paper's "Extra contents found in JSON" failure type requires knowing
//! *where* a parse failed (trailing prose, `//` comments, markdown fences)
//! rather than just that it failed. Errors therefore carry line/column
//! positions and a structured [`JsonErrorKind`].
//!
//! Objects preserve key order (they are backed by a `Vec` of pairs), which
//! keeps serialized netlists in the author's order — important for
//! readable golden designs and byte-stable round-trips.
//!
//! The parser accepts at most [`MAX_DEPTH`] nested arrays and objects,
//! so untrusted input (HTTP bodies, LLM responses) cannot exhaust the
//! stack. The serializer appends straight into one `String`: no
//! per-line indentation strings and no per-number temporaries.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// An unsigned integer too large for `f64` to hold exactly.
    ///
    /// [`parse`] only produces this variant for unsigned integer
    /// literals that would lose precision as `f64` (magnitude above
    /// 2⁵³ and not a multiple of a suitable power of two) — ordinary
    /// integers keep arriving as [`Value::Number`], and the two
    /// variants compare equal whenever they denote the same integer.
    /// Producers that must round-trip full-range counters (the event
    /// wire format) construct it directly for every `u64`.
    Uint(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved.
    Object(Vec<(String, Value)>),
}

/// 2⁶⁴ as `f64` — the first value *above* the `u64` range. An `f64`
/// strictly below this (and non-negative, integral) casts to `u64`
/// without saturation.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Uint(a), Value::Uint(b)) => a == b,
            // A float equals an unsigned integer exactly when it denotes
            // the same mathematical integer.
            (Value::Number(n), Value::Uint(u)) | (Value::Uint(u), Value::Number(n)) => {
                *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 && *n as u64 == *u
            }
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Borrows the object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Borrows the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric value, if this is a number. Lossy for a
    /// [`Value::Uint`] above 2⁵³ — use [`Value::as_u64`] when exactness
    /// matters.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Uint(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Returns the exact unsigned integer this value denotes, if it
    /// does: any [`Value::Uint`], or a [`Value::Number`] that is a
    /// non-negative integer representable in `u64` without rounding.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(u) => Some(*u),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => {
                let u = *n as u64;
                (u as f64 == *n).then_some(u)
            }
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A short lowercase name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) | Value::Uint(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// An unexpected character was encountered.
    UnexpectedChar(char),
    /// Input ended in the middle of a value.
    UnexpectedEnd,
    /// A number failed to parse.
    InvalidNumber,
    /// A string contained an invalid escape sequence.
    InvalidEscape,
    /// Non-whitespace content followed the first complete JSON value.
    TrailingContent,
    /// A specific token was expected (e.g. `":"`).
    Expected(&'static str),
    /// A `//` or `/* */` comment was found (JSON forbids comments; the
    /// benchmark classifies this as extra content).
    CommentFound,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    NestingTooDeep,
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so the limit bounds its stack use:
/// a hostile `[[[[…` document gets a typed error instead of overflowing
/// the stack of whichever thread parses it. Netlists nest five deep.
pub const MAX_DEPTH: usize = 128;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Error category.
    pub kind: JsonErrorKind,
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column of the offending character.
    pub column: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            JsonErrorKind::UnexpectedEnd => "unexpected end of input".to_string(),
            JsonErrorKind::InvalidNumber => "invalid number literal".to_string(),
            JsonErrorKind::InvalidEscape => "invalid string escape".to_string(),
            JsonErrorKind::TrailingContent => "unexpected content after the JSON value".to_string(),
            JsonErrorKind::Expected(tok) => format!("expected {tok}"),
            JsonErrorKind::CommentFound => "comments are not allowed in JSON".to_string(),
            JsonErrorKind::NestingTooDeep => {
                format!("arrays and objects nest deeper than {MAX_DEPTH} levels")
            }
        };
        write!(f, "{what} at line {} column {}", self.line, self.column)
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, kind: JsonErrorKind) -> JsonError {
        self.error_at(kind, self.pos)
    }

    fn error_at(&self, kind: JsonErrorKind, pos: usize) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            kind,
            line,
            column: col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) -> Result<(), JsonError> {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'/' => {
                    // Comments are a classified failure, not mere noise.
                    return Err(self.error(JsonErrorKind::CommentFound));
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws()?;
        match self.peek() {
            None => Err(self.error(JsonErrorKind::UnexpectedEnd)),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(JsonErrorKind::NestingTooDeep));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'n') => self.parse_null(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(JsonErrorKind::UnexpectedChar(other as char))),
        }
    }

    fn expect_byte(&mut self, b: u8, token: &'static str) -> Result<(), JsonError> {
        self.skip_ws()?;
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.error(JsonErrorKind::Expected(token))),
            None => Err(self.error(JsonErrorKind::UnexpectedEnd)),
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'{', "'{'")?;
        let mut entries = Vec::new();
        self.skip_ws()?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws()?;
            let key = self.parse_string()?;
            self.expect_byte(b':', "':'")?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws()?;
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(entries)),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.error(JsonErrorKind::UnexpectedChar(c as char)));
                }
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws()?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws()?;
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.error(JsonErrorKind::UnexpectedChar(c as char)));
                }
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.skip_ws()?;
        match self.peek() {
            Some(b'"') => {}
            Some(_) => return Err(self.error(JsonErrorKind::Expected("a string"))),
            None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one go. Those are all ASCII, so the run ends
            // on a char boundary.
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.parse_unicode_escape()?),
                    Some(_) => {
                        return Err(self.error_at(JsonErrorKind::InvalidEscape, self.pos - 1))
                    }
                },
                Some(b) => {
                    return Err(
                        self.error_at(JsonErrorKind::UnexpectedChar(b as char), self.pos - 1)
                    )
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, with the `\u` consumed.
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .ok_or_else(|| self.error(JsonErrorKind::UnexpectedEnd))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error_at(JsonErrorKind::InvalidEscape, self.pos - 1))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// The character of a `\u` escape, with the `\u` consumed. A high
    /// surrogate followed by a `\u` low surrogate is one astral character
    /// (RFC 8259 §7); a lone or reversed surrogate is an invalid escape,
    /// reported just after its four digits.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let after_high = self.pos;
            if self.bytes[after_high..].starts_with(b"\\u") {
                self.pos += 2;
                if let Ok(low @ 0xDC00..=0xDFFF) = self.parse_hex4() {
                    let astral = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return Ok(char::from_u32(astral).expect("a surrogate pair is a char"));
                }
            }
            self.pos = after_high;
        }
        char::from_u32(code).ok_or_else(|| self.error(JsonErrorKind::InvalidEscape))
    }

    fn parse_bool(&mut self) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(self.error(JsonErrorKind::Expected("'true' or 'false'")))
        }
    }

    fn parse_null(&mut self) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            Ok(Value::Null)
        } else {
            Err(self.error(JsonErrorKind::Expected("'null'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error_at(JsonErrorKind::InvalidNumber, start))?;
        // An unsigned integer literal that `f64` cannot hold exactly
        // keeps its exact value as a `Uint`; everything else — floats,
        // negatives, and integers f64 represents exactly — stays a
        // `Number`, so consumers matching on `Number` see what they
        // always saw.
        if !text.starts_with('-') && !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                let f = u as f64;
                if f < TWO_POW_64 && f as u64 == u {
                    return Ok(Value::Number(f));
                }
                return Ok(Value::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error_at(JsonErrorKind::InvalidNumber, start))
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with position information on malformed input,
/// including [`JsonErrorKind::TrailingContent`] when non-whitespace follows
/// the first value and [`JsonErrorKind::CommentFound`] for `//`-style
/// comments.
///
/// # Examples
///
/// ```
/// use picbench_netlist::json;
/// let v = json::parse(r#"{"a": [1, 2.5], "b": "x"}"#)?;
/// assert_eq!(v.get("b").and_then(|b| b.as_str()), Some("x"));
/// # Ok::<(), json::JsonError>(())
/// ```
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.skip_ws()?;
    if p.pos < p.bytes.len() {
        return Err(p.error(JsonErrorKind::TrailingContent));
    }
    Ok(value)
}

/// Appends the body of a JSON string literal (no quotes), copying runs
/// that need no escaping in one go.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
    }
    out.push_str(&s[start..]);
}

/// Appends the decimal digits of `u` without a temporary `String`.
fn push_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| d as char));
}

fn push_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no lexeme for NaN or infinity; `null` is the
        // conventional stand-in (what JSON.stringify emits) and keeps
        // the output parseable instead of corrupting the document.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // `0` would silently drop the sign; `-0` parses back to -0.0.
        out.push_str("-0");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        if n < 0.0 {
            out.push('-');
        }
        push_u64(out, n.abs() as u64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// The one JSON formatter: an incremental writer that appends straight
/// into a `String`. [`to_string`], [`to_string_pretty`] and
/// `Netlist::to_json_string` all drive it, so a document written from a
/// [`Value`] tree and one written field by field are byte-identical.
pub(crate) struct Writer<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; 0 writes compactly.
    indent: usize,
    level: usize,
    /// Whether the innermost open container has no entries yet.
    empty: bool,
}

impl<'a> Writer<'a> {
    pub(crate) fn new(out: &'a mut String, indent: usize) -> Self {
        Writer {
            out,
            indent,
            level: 0,
            empty: false,
        }
    }

    fn newline(&mut self) {
        const SPACES: &str = "                                                                ";
        if self.indent == 0 {
            return;
        }
        self.out.push('\n');
        let mut n = self.indent * self.level;
        while n > 0 {
            let run = n.min(SPACES.len());
            self.out.push_str(&SPACES[..run]);
            n -= run;
        }
    }

    /// Opens an object (`'{'`) or array (`'['`).
    pub(crate) fn begin(&mut self, open: char) {
        self.out.push(open);
        self.level += 1;
        self.empty = true;
    }

    /// Closes the innermost container; an empty one stays `{}` / `[]`.
    pub(crate) fn end(&mut self, close: char) {
        self.level -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(close);
        self.empty = false;
    }

    /// Starts the next array element.
    pub(crate) fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Starts the next object entry; the key is the concatenation of
    /// `parts`.
    pub(crate) fn key(&mut self, parts: &[&str]) {
        self.item();
        self.string(parts);
        self.out.push(':');
        if self.indent > 0 {
            self.out.push(' ');
        }
    }

    /// Writes a string literal holding the concatenation of `parts`.
    pub(crate) fn string(&mut self, parts: &[&str]) {
        self.out.push('"');
        for part in parts {
            escape_into(self.out, part);
        }
        self.out.push('"');
    }

    /// Writes a number; non-finite values become `null`.
    pub(crate) fn number(&mut self, n: f64) {
        push_number(self.out, n);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => self.number(*n),
            Value::Uint(u) => push_u64(self.out, *u),
            Value::String(s) => self.string(&[s]),
            Value::Array(items) => {
                self.begin('[');
                for item in items {
                    self.item();
                    self.value(item);
                }
                self.end(']');
            }
            Value::Object(entries) => {
                self.begin('{');
                for (k, val) in entries {
                    self.key(&[k]);
                    self.value(val);
                }
                self.end('}');
            }
        }
    }
}

/// Serializes a value compactly (no whitespace).
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    Writer::new(&mut out, 0).value(v);
    out
}

/// Serializes a value with 2-space indentation.
///
/// ```
/// use picbench_netlist::json::{parse, to_string_pretty};
/// let v = parse(r#"{"a":1}"#).unwrap();
/// assert_eq!(to_string_pretty(&v), "{\n  \"a\": 1\n}");
/// ```
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    Writer::new(&mut out, 2).value(v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("3.25").unwrap(), Value::Number(3.25));
        assert_eq!(parse("-10").unwrap(), Value::Number(-10.0));
        assert_eq!(parse("1e3").unwrap(), Value::Number(1000.0));
        assert_eq!(
            parse("\"hi\\nthere\"").unwrap(),
            Value::String("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": {"b": [1, {"c": null}]}, "d": "e"}"#).unwrap();
        let b = v.get("a").unwrap().get("b").unwrap();
        assert_eq!(b.as_array().unwrap().len(), 2);
        assert_eq!(v.get("d").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::String("Aé".into())
        );
    }

    #[test]
    fn utf8_passthrough() {
        assert_eq!(parse("\"µm→\"").unwrap(), Value::String("µm→".into()));
    }

    #[test]
    fn trailing_content_is_flagged() {
        let err = parse("{} trailing").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TrailingContent);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn comment_is_flagged_specifically() {
        let err = parse("{\n  // a comment\n  \"a\": 1\n}").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::CommentFound);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn truncated_document_reports_end() {
        let err = parse(r#"{"a": [1, 2"#).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::UnexpectedEnd);
    }

    #[test]
    fn error_position_is_accurate() {
        let err = parse("{\"a\": 1,\n\"b\": @}").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, JsonErrorKind::UnexpectedChar('@'));
    }

    #[test]
    fn invalid_escape_reported() {
        let err = parse(r#""bad \q escape""#).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::InvalidEscape);
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_char() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::String("\u{1F600}".into())
        );
        assert_eq!(
            parse(r#""a\uD834\uDD1Eb""#).unwrap(),
            Value::String("a\u{1D11E}b".into())
        );
        // The extremes of the astral range.
        assert_eq!(
            parse(r#""\ud800\udc00\udbff\udfff""#).unwrap(),
            Value::String("\u{10000}\u{10FFFF}".into())
        );
    }

    /// An invalid escape reported just after the high surrogate's digits.
    fn assert_invalid_escape_at(text: &str, column: usize) {
        let err = parse(text).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::InvalidEscape, "{text}");
        assert_eq!((err.line, err.column), (1, column), "{text}");
    }

    #[test]
    fn lone_high_surrogate_is_an_invalid_escape() {
        assert_invalid_escape_at(r#""\ud83d""#, 8);
        assert_invalid_escape_at(r#""\ud83dx""#, 8);
        // Followed by an escape that is not a low surrogate.
        assert_invalid_escape_at(r#""\ud83dA""#, 8);
        assert_invalid_escape_at(r#""\ud83d\ud83d""#, 8);
        assert_invalid_escape_at(r#""\ud83d\n""#, 8);
        // Followed by a malformed or truncated escape.
        assert_invalid_escape_at(r#""\ud83d\uzzzz""#, 8);
        assert_invalid_escape_at(r#""\ud83d\ude"#, 8);
    }

    #[test]
    fn lone_or_reversed_low_surrogate_is_an_invalid_escape() {
        assert_invalid_escape_at(r#""\ude00""#, 8);
        assert_invalid_escape_at(r#""\ude00\ud83d""#, 8);
    }

    #[test]
    fn string_runs_keep_multibyte_text_and_escapes_in_order() {
        assert_eq!(
            parse(r#""héllo \"wörld\"\n→ end""#).unwrap(),
            Value::String("héllo \"wörld\"\n→ end".into())
        );
        assert_eq!(parse(r#""""#).unwrap(), Value::String(String::new()));
        let err = parse("\"é\u{1}\"").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::UnexpectedChar('\u{1}'));
        assert_eq!(err.column, 4);
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let src = r#"{"netlist":{"instances":{"mmi1":"mmi"},"connections":{"a,O1":"b,I1"},"ports":{"I1":"mmi1,I1"}},"models":{"mmi":"mmi1x2"}}"#;
        let v = parse(src).unwrap();
        assert_eq!(to_string(&v), src);
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integer_formatting_avoids_trailing_zeroes() {
        for (n, text) in [
            (10.0, "10"),
            (10.5, "10.5"),
            (-0.25, "-0.25"),
            (0.0, "0"),
            (-42.0, "-42"),
            (999_999_999_999_999.0, "999999999999999"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
            (1e21, "1000000000000000000000"),
            (-2.5e-7, "-0.00000025"),
        ] {
            assert_eq!(to_string(&Value::Number(n)), text, "{n}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(to_string(&Value::Number(-0.0)), "-0");
        let back = parse("-0").unwrap().as_f64().unwrap();
        assert_eq!(back, 0.0);
        assert!(back.is_sign_negative());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Number(f64::INFINITY)), "null");
        assert_eq!(to_string(&Value::Number(f64::NEG_INFINITY)), "null");
        // The stand-in stays parseable.
        assert_eq!(parse("null").unwrap(), Value::Null);
    }

    #[test]
    fn huge_unsigned_integers_round_trip_exactly() {
        for u in [
            9_007_199_254_740_993u64, // 2^53 + 1: first f64-unrepresentable
            u64::MAX,
            u64::MAX - 1,
        ] {
            let s = u.to_string();
            let v = parse(&s).unwrap();
            assert_eq!(v, Value::Uint(u), "{s}");
            assert_eq!(v.as_u64(), Some(u));
            assert_eq!(to_string(&v), s);
        }
        // Exactly-representable big integers stay `Number` for
        // backwards-compatible pattern matching…
        let v = parse("9007199254740992").unwrap();
        assert_eq!(v, Value::Number(9_007_199_254_740_992.0));
        // …but still read back exactly through as_u64.
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_992u64));
    }

    #[test]
    fn cross_variant_number_equality() {
        assert_eq!(Value::Number(3.0), Value::Uint(3));
        assert_eq!(Value::Uint(0), Value::Number(0.0));
        assert_ne!(Value::Number(3.5), Value::Uint(3));
        assert_ne!(Value::Number(-1.0), Value::Uint(1));
        // 2^53 + 1 rounds to 2^53 as f64 — they are different integers.
        assert_ne!(
            Value::Number(9_007_199_254_740_992.0),
            Value::Uint(9_007_199_254_740_993)
        );
        assert_ne!(Value::Number(f64::NAN), Value::Uint(0));
    }

    #[test]
    fn as_u64_rejects_inexact_and_out_of_range() {
        assert_eq!(Value::Number(1.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(f64::NAN).as_u64(), None);
        assert_eq!(Value::Number(TWO_POW_64).as_u64(), None);
        assert_eq!(Value::String("3".into()).as_u64(), None);
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&parse("[]").unwrap()), "[]");
        assert_eq!(to_string(&parse("{}").unwrap()), "{}");
        assert_eq!(to_string_pretty(&parse("{}").unwrap()), "{}");
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert!(parse("[1]").unwrap().get("a").is_none());
    }

    #[test]
    fn type_names() {
        assert_eq!(parse("1").unwrap().type_name(), "number");
        assert_eq!(parse("{}").unwrap().type_name(), "object");
        assert_eq!(parse("[]").unwrap().type_name(), "array");
        assert_eq!(parse("null").unwrap().type_name(), "null");
    }

    #[test]
    fn nesting_bomb_is_a_typed_error_on_a_small_stack() {
        // 200 KB of `[` would recurse 200k frames deep without the limit.
        let bomb = "[".repeat(200_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&bomb))
            .unwrap()
            .join()
            .expect("parser must not overflow the stack")
            .unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::NestingTooDeep);
        assert_eq!((err.line, err.column), (1, MAX_DEPTH + 1));
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&deep).unwrap_err().kind,
            JsonErrorKind::NestingTooDeep
        );
    }

    #[test]
    fn escapes_match_the_per_char_rules() {
        let s = "plain \"q\" back\\slash\n\r\t\u{1}\u{1f}\u{7f} µm→ end";
        assert_eq!(
            to_string(&Value::String(s.into())),
            "\"plain \\\"q\\\" back\\\\slash\\n\\r\\t\\u0001\\u001f\u{7f} µm→ end\""
        );
        assert_eq!(
            parse(&to_string(&Value::String(s.into()))).unwrap(),
            Value::String(s.into())
        );
    }

    #[test]
    fn deep_pretty_indentation() {
        let mut v = Value::Number(1.0);
        for _ in 0..40 {
            v = Value::Array(vec![v]);
        }
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains(&format!("\n{}1\n", " ".repeat(80))));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn control_char_in_string_rejected() {
        let err = parse("\"a\u{0001}b\"").unwrap_err();
        assert!(matches!(err.kind, JsonErrorKind::UnexpectedChar(_)));
    }
}
