//! JSON text format: a deterministic printer over the [`crate::Value`] tree and one
//! streaming [`Reader`] that both the tree parser and the typed decoders use.
//!
//! The printer is deterministic: objects keep insertion order, integers print in
//! decimal, and floats use Rust's shortest round-trip formatting, so serialising
//! the same data twice yields byte-identical text.
//!
//! # Reading
//!
//! [`Reader`] is a recursive-descent lexer over the input `&str`. [`parse`] builds
//! a [`Value`] tree with it, and [`from_str`] decodes straight into the target
//! type through [`Deserialize::read`](crate::Deserialize::read), with no tree in
//! between:
//!
//! * strings and object keys come back as [`Cow::Borrowed`] slices of the input
//!   unless they hold an escape; a run of unescaped bytes is copied in one step;
//! * integers that fit `u64`/`i64` take a fast path; every other number goes
//!   through the same rule as always (integer if it can be, else `f64`);
//! * [`Reader::skip`] passes over a value without allocating, yet applies exactly
//!   the tree parser's rules: the same literal, number, escape and surrogate
//!   checks and the same nesting limit (a value nested deeper than 128 levels is
//!   an error), so skipped text is syntax-checked as strictly as parsed text;
//! * object keys follow the tree's lookup rule: the first occurrence of a key is
//!   the one decoded, later duplicates and unknown keys are skipped.
//!
//! The tree decode (`from_value(&parse(text)?)`) is the reference and the only
//! source of error text. [`from_str`] returns the typed read's value only when the
//! read and the trailing-whitespace check both succeed; on any error it decodes
//! through the tree instead, so error messages are byte-identical to the tree
//! path's and a typed read that is stricter than the tree can cost time but never
//! change a result.

use std::borrow::Cow;

use crate::{DeserializeOwned, Error, Serialize, Value};

/// Maximum nesting depth accepted by the reader.
const MAX_DEPTH: usize = 128;

/// Serialises any [`Serialize`] type into its value tree.
#[must_use]
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs any [`DeserializeOwned`] type from a value tree.
///
/// # Errors
///
/// Returns an [`Error`] when the tree does not match the target type's shape.
pub fn from_value<T: DeserializeOwned>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serialises a value as compact JSON text. The text is allocated to its exact
/// length (`capacity() == len()`), so a caller that keeps it keeps no growth slack.
#[must_use]
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_compact(&mut out, &value.to_value());
    out.shrink_to_fit();
    out
}

/// Serialises a value as human-readable, two-space-indented JSON text, allocated
/// to its exact length like [`to_string`]'s.
#[must_use]
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    out.shrink_to_fit();
    out
}

/// Parses JSON text and reconstructs a typed value, reading the text straight
/// into the target type (see the [module documentation](self)).
///
/// # Errors
///
/// Returns an [`Error`] when the text is not valid JSON or does not match the
/// target type's shape: always the error `from_value(&parse(text)?)` returns.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let mut reader = Reader::new(text);
    match T::read(&mut reader).and_then(|value| reader.finish().map(|()| value)) {
        Ok(value) => Ok(value),
        Err(_) => T::from_value(&parse(text)?),
    }
}

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax error, with a byte offset.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn write_compact(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::Uint(v) => out.push_str(&v.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_escaped(out, key);
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back to the same
        // f64 bit pattern, and is valid JSON for all finite values.
        out.push_str(&format!("{f:?}"));
    } else {
        // Non-finite floats are not representable in JSON; `Serialize for f64`
        // maps them to strings before printing, so this arm is only reachable
        // through a hand-built `Value::Float`.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A streaming JSON lexer over one input text (see the [module documentation](self)).
///
/// Every value-reading method skips the whitespace in front of its value. Object
/// and array contents are visited through callbacks that receive the reader back,
/// positioned at the next entry's value; the callback must consume that value,
/// by reading or [skipping](Self::skip) it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the current position: the depth of the next value.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    #[must_use]
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The byte offset of the next unread byte.
    #[must_use]
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Skips whitespace and returns the next byte without consuming it: the first
    /// byte of the next value (`b'"'`, `b'{'`, `b'['`, `b'n'`, …), if any.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.peek_byte()
    }

    /// Checks that only whitespace is left after the value just read.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when any other byte follows.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_whitespace();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON value"))
        }
    }

    /// Reads the next value into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] describing the first syntax error, with a byte offset.
    #[inline]
    pub fn value(&mut self) -> Result<Value, Error> {
        // Inlined into typed reads in other crates, so a scalar field costs no
        // call; containers build their tree out of line.
        match self.peek() {
            Some(b'"' | b'[' | b'{') => self.tree(),
            _ => self.scalar(),
        }
    }

    /// A string, array or object as a tree.
    fn tree(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|reader| {
                    items.push(reader.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(|reader, key| {
                    entries.push((key.into_owned(), reader.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            _ => self.scalar(),
        }
    }

    /// Passes over the next value without allocating, checking its syntax exactly
    /// as [`value`](Self::value) would.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] on the first syntax error.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.scan_string::<false>().map(drop),
            Some(b'[') => self.array(Self::skip),
            Some(b'{') => self.scan_object::<false>(|reader, _| reader.skip()),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads a string value, borrowed from the input unless it holds an escape.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the next value is not a well-formed string.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_whitespace();
        self.scan_string::<true>()
    }

    /// Reads an object, calling `entry` with each key in input order; `entry`
    /// must consume the key's value.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, or the first error `entry` returns.
    pub fn object(
        &mut self,
        entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.scan_object::<true>(entry)
    }

    /// Reads an array, calling `element` once per element; `element` must consume
    /// the element's value.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, or the first error `element` returns.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_whitespace();
        self.expect_byte(b'[')?;
        self.skip_whitespace();
        if self.peek_byte() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_whitespace();
            self.check_depth()?;
            element(self)?;
            self.skip_whitespace();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// Reads the value of an object entry into `slot` unless an earlier entry with
    /// the same key already filled it, in which case the value is skipped: the
    /// tree's first-occurrence rule for struct fields.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, or the value's decode error.
    pub fn field<T: DeserializeOwned>(&mut self, slot: &mut Option<T>) -> Result<(), Error> {
        if slot.is_none() {
            *slot = Some(T::read(self)?);
            Ok(())
        } else {
            self.skip()
        }
    }

    #[cold]
    fn error(&self, message: &str) -> Error {
        Error::custom(format!("{message} at byte {}", self.pos))
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect_byte(&mut self, expected: u8) -> Result<(), Error> {
        if self.peek_byte() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(expected))
        }
    }

    #[cold]
    fn expected(&self, byte: u8) -> Error {
        self.error(&format!("expected `{}`", byte as char))
    }

    #[inline]
    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    #[inline]
    fn check_depth(&self) -> Result<(), Error> {
        if self.depth > MAX_DEPTH {
            Err(self.error("maximum nesting depth exceeded"))
        } else {
            Ok(())
        }
    }

    /// An object whose keys are decoded (`KEYS`) or only checked.
    fn scan_object<const KEYS: bool>(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_whitespace();
        self.expect_byte(b'{')?;
        self.skip_whitespace();
        if self.peek_byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_whitespace();
            let key = self.scan_string::<KEYS>()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            self.check_depth()?;
            entry(self, key)?;
            self.skip_whitespace();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// `null`, `true`, `false` or a number.
    #[inline]
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek_byte() {
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// A string at the current position. With `KEEP` off, escapes are checked but
    /// nothing is allocated, and the returned text is meaningless.
    fn scan_string<const KEEP: bool>(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect_byte(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            self.pos += bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len() - self.pos);
            // The run ends at an ASCII byte (or the end), so it is a `str` slice.
            let chunk = &self.text[run..self.pos];
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut out) => {
                            out.push_str(chunk);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.parse_escape()?;
                    if KEEP {
                        let out = owned.get_or_insert_with(String::new);
                        out.push_str(chunk);
                        out.push(c);
                    }
                    run = self.pos;
                }
                Some(_) => return Err(self.error("unescaped control character")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, Error> {
        let Some(c) = self.peek_byte() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: must be followed by `\uXXXX` low surrogate.
                    if !self.consume_literal("\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| self.error("invalid code point"))?
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.error("unpaired surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.error("invalid code point"))?
                }
            }
            _ => return Err(self.error("invalid escape character")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek_byte() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    #[inline]
    fn number(&mut self) -> Result<Value, Error> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        // Fast path: a run of digits that fits 64 bits and is not followed by a
        // fraction or exponent is the integer `number_general` would give.
        let digits_start = start + usize::from(negative);
        let mut end = digits_start;
        let mut magnitude = Some(0u64);
        while let Some(&c) = bytes.get(end).filter(|c| c.is_ascii_digit()) {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(c - b'0')));
            end += 1;
        }
        if end > digits_start && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            match magnitude {
                Some(m) if !negative => {
                    self.pos = end;
                    return Ok(Value::Uint(m));
                }
                Some(m) if m <= 1 << 63 => {
                    self.pos = end;
                    return Ok(Value::Int((m as i64).wrapping_neg()));
                }
                _ => {}
            }
        }
        self.number_general()
    }

    /// The reference rule for the number at the current position: an integer if
    /// its text is one that fits 64 bits, else an `f64`.
    fn number_general(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek_byte() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Some(digits) = text.strip_prefix('-') {
                if digits.is_empty() {
                    return Err(self.error("invalid number"));
                }
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Uint(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "18446744073709551615"] {
            let v = parse(text).unwrap();
            assert_eq!(to_string(&v), text, "{text}");
        }
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(to_string(&Value::Float(1.5)), "1.5");
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn structures_round_trip_compactly() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x"}"#;
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v), text);
    }

    #[test]
    fn pretty_printing_is_reparsable() {
        let v = parse(r#"{"a":[1,2],"b":{},"c":[]}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\": [\n"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::Str("a\"b\\c\nd\te\u{1}\u{1F600}".to_string());
        let text = to_string(&original);
        assert_eq!(parse(&text).unwrap(), original);
        // Surrogate-pair escapes parse to the astral code point; lone ones error.
        let pair = "\"\\ud83d\\ude00\"";
        assert_eq!(parse(pair).unwrap(), Value::Str("\u{1F600}".to_string()));
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse("[1,").unwrap_err().to_string().contains("byte"));
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").unwrap_err().to_string().contains("trailing"));
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn numbers_are_integers_when_they_can_be() {
        for (text, expected) in [
            ("0", Value::Uint(0)),
            ("-0", Value::Int(0)),
            ("007", Value::Uint(7)),
            ("-01", Value::Int(-1)),
            ("18446744073709551615", Value::Uint(u64::MAX)),
            (
                "18446744073709551616",
                Value::Float(18_446_744_073_709_551_616.0),
            ),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            (
                "-9223372036854775809",
                Value::Float(-9_223_372_036_854_775_809.0),
            ),
            ("1E+2", Value::Float(100.0)),
            ("-2.5e-1", Value::Float(-0.25)),
        ] {
            assert_eq!(parse(text), Ok(expected), "{text}");
        }
        for text in ["-", "1e", "1.2.3", "1-2", "--1", "-x"] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn strings_are_borrowed_unless_escaped() {
        let mut reader = Reader::new(r#" "plain" "a\nb" "#);
        assert!(matches!(reader.string(), Ok(Cow::Borrowed("plain"))));
        assert!(matches!(reader.string(), Ok(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn skip_accepts_exactly_what_parse_accepts() {
        let nested = |depth: usize| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let mut texts: Vec<String> = [
            r#"{"a":[1,-2,3.5e1,true,false,null],"b":{"c":"\u00e9\ud83d\ude00\/"}}"#,
            r#""\q""#,
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            "\"\u{1}\"",
            "\"open",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "nul",
            "1e",
            "01",
            "[] []",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        // The top-level value has depth 0: 128 arrays put the `0` at the limit.
        texts.extend([nested(127), nested(128), nested(129)]);
        for text in &texts {
            let mut reader = Reader::new(text);
            let skipped = reader.skip().and_then(|()| reader.finish());
            assert_eq!(skipped.is_ok(), parse(text).is_ok(), "{text}");
        }
        assert!(parse(&nested(128)).is_ok());
        assert!(parse(&nested(129)).is_err());
    }

    #[test]
    fn floats_print_shortest_round_trip() {
        let v = Value::Float(0.1 + 0.2);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(to_string(&Value::Float(3.0)), "3.0");
    }
}
