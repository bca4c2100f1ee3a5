//! JSON rendering and parsing for the [`Value`] data model.
//!
//! The writer is deterministic: a given `Value` always renders to the same
//! bytes (map order is preserved, numbers have one canonical form), so equal
//! reports produce byte-identical files — the property the experiment sweep
//! harness relies on to diff runs. The parser is a strict recursive-descent
//! JSON reader (no comments, no trailing commas, `\uXXXX` escapes including
//! surrogate pairs).

use crate::{DeserializeOwned, Error, Serialize, Value};
use std::fmt::Write as _;

/// Renders a value as compact JSON (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    out
}

/// Renders a value as pretty JSON (two-space indent, one member per line).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    out
}

/// Parses JSON text and deserializes it into `T`.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    T::from_value(&parse(text)?)
}

/// Parses JSON text into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the JSON document"));
    }
    Ok(value)
}

fn render(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest-round-trip formatting is deterministic; add
                // a ".0" so integral floats re-parse as floats.
                let text = format!("{f}");
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => render_block(
            items.iter().map(|v| (None::<&str>, v)),
            b"[]",
            indent,
            depth,
            out,
        ),
        Value::Map(entries) => render_block(
            entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
            b"{}",
            indent,
            depth,
            out,
        ),
    }
}

fn render_block<'a>(
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
    brackets: &[u8; 2],
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) {
    out.push(brackets[0] as char);
    let empty = members.len() == 0;
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        if let Some(key) = key {
            render_string(key, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
        }
        render(value, indent, depth + 1, out);
    }
    if let Some(width) = indent {
        if !empty {
            out.push('\n');
            for _ in 0..width * depth {
                out.push(' ');
            }
        }
    }
    out.push(brackets[1] as char);
}

fn render_string(s: &str, out: &mut String) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::new(format!("{message} (at byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat(b']') {
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            if self.eat(b']') {
                return Ok(Value::Seq(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]` in array"));
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // consume '{'
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.eat(b'}') {
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key in object"));
            }
            let key = self.parse_string()?;
            self.skip_whitespace();
            if !self.eat(b':') {
                return Err(self.error("expected `:` after object key"));
            }
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            if self.eat(b'}') {
                return Ok(Value::Map(entries));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}` in object"));
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.pos += 1; // consume opening '"'
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                0x00..=0x1f => return Err(self.error("unescaped control character in string")),
                _ => {
                    // Consume one UTF-8 code point (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(byte);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, Error> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape sequence"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let first = self.parse_hex4()?;
                if (0xd800..0xdc00).contains(&first) {
                    // High surrogate: must be followed by \uXXXX low surrogate.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.error("unpaired surrogate in \\u escape"));
                    }
                    let second = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&second) {
                        return Err(self.error("invalid low surrogate in \\u escape"));
                    }
                    let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    char::from_u32(combined)
                        .ok_or_else(|| self.error("invalid surrogate pair in \\u escape"))?
                } else {
                    char::from_u32(first)
                        .ok_or_else(|| self.error("invalid code point in \\u escape"))?
                }
            }
            _ => return Err(self.error("unknown escape character")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        // Integer part, per the JSON grammar: "0", or a nonzero digit
        // followed by digits — leading zeros are not valid JSON.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.error("leading zeros are not allowed in numbers"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit in number")),
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid number"))
        } else if negative {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.error("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.error("integer out of range"))
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_canonical() {
        let value = Value::Map(vec![
            ("b".to_string(), Value::UInt(2)),
            (
                "a".to_string(),
                Value::Seq(vec![Value::Int(-1), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&value), r#"{"b":2,"a":[-1,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents_two_spaces() {
        let value = Value::Map(vec![("a".to_string(), Value::Seq(vec![Value::UInt(1)]))]);
        assert_eq!(to_string_pretty(&value), "{\n  \"a\": [\n    1\n  ]\n}");
        assert_eq!(to_string_pretty(&Value::Map(vec![])), "{}");
        assert_eq!(to_string_pretty(&Value::Seq(vec![])), "[]");
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let value = Value::Map(vec![
            ("name".to_string(), Value::Str("cell \"1\"\n".to_string())),
            ("n".to_string(), Value::UInt(13)),
            ("offset".to_string(), Value::Int(-42)),
            ("ratio".to_string(), Value::Float(2.5)),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            (
                "seq".to_string(),
                Value::Seq(vec![Value::UInt(1), Value::UInt(2)]),
            ),
        ]);
        let text = to_string(&value);
        assert_eq!(parse(&text), Ok(value.clone()));
        let pretty = to_string_pretty(&value);
        assert_eq!(parse(&pretty), Ok(value));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let text = to_string(&Value::Float(3.0));
        assert_eq!(text, "3.0");
        assert_eq!(parse(&text), Ok(Value::Float(3.0)));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogates() {
        assert_eq!(parse(r#""Aé""#), Ok(Value::Str("Aé".to_string())));
        assert_eq!(parse(r#""😀""#), Ok(Value::Str("😀".to_string())));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"abc",
            "[1] extra",
            "{1: 2}",
            "01",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            "-",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "parser accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_pick_the_right_variant() {
        assert_eq!(parse("42"), Ok(Value::UInt(42)));
        assert_eq!(parse("-42"), Ok(Value::Int(-42)));
        assert_eq!(parse("4.5"), Ok(Value::Float(4.5)));
        assert_eq!(parse("1e3"), Ok(Value::Float(1000.0)));
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
    }

    #[test]
    fn control_characters_are_escaped_and_restored() {
        let original = Value::Str("\u{01}\u{08}\u{0c}\ttab".to_string());
        let text = to_string(&original);
        assert_eq!(text, "\"\\u0001\\b\\f\\ttab\"");
        assert_eq!(parse(&text), Ok(original));
    }
}
