//! Offline stand-in for `serde_json`: converts between JSON text and the
//! shim `serde` crate's [`Value`] tree.
//!
//! Implements the API surface this workspace uses — [`to_string`],
//! [`from_str`], [`to_writer`], and an [`Error`] that converts into
//! `std::io::Error`. Output conventions match real serde_json: structs as
//! objects, `None` as `null`, non-finite floats as `null`, strings with
//! standard escapes.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg)
    }
}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error::new(e.msg)
    }
}

/// Serialize a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.ser(), &mut out);
    Ok(out)
}

/// Serialize a value as JSON into a writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let text = to_string(value)?;
    writer
        .write_all(text.as_bytes())
        .map_err(|e| Error::new(e.to_string()))
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::de(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest-roundtrip formatting; force a decimal point
                // so the value re-parses as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // matches real serde_json
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Most arrays and objects the parser keeps open at once (real serde_json's
/// recursion limit). The parser recurses once per level, so without a bound
/// a few kilobytes of `[` overflow the stack and abort the process; past it
/// the input is an [`Error`].
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                let combined = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| Error::new("bad \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode one UTF-8 char (input came from &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(from_str::<i32>("-3").unwrap(), -3);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1f32, -1.5, 3.4e38, 1e-20, 0.333_333_34] {
            let s = to_string(&x).unwrap();
            let back: f32 = from_str(&s).unwrap();
            assert_eq!(x, back, "{s}");
        }
        // Whole floats keep a decimal point so they stay floats.
        assert_eq!(to_string(&2.0f32).unwrap(), "2.0");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\n\"quoted\"\tλ \\ end\u{01}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![vec![1u32, 2], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
        let back: Vec<Vec<u32>> = from_str(&json).unwrap();
        assert_eq!(v, back);
        let o: Option<Vec<String>> = Some(vec!["a".into()]);
        let back2: Option<Vec<String>> = from_str(&to_string(&o).unwrap()).unwrap();
        assert_eq!(o, back2);
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(s, "é😀");
    }

    #[test]
    fn derive_roundtrip_with_skip_and_default() {
        #[derive(Debug, PartialEq, Default, serde::Serialize, serde::Deserialize)]
        struct Widget {
            name: String,
            count: u32,
            #[serde(skip)]
            cached: Option<u32>,
            #[serde(default)]
            extra: u32,
        }
        let w = Widget {
            name: "x".into(),
            count: 3,
            cached: Some(9),
            extra: 7,
        };
        let json = to_string(&w).unwrap();
        assert!(!json.contains("cached"), "skip field omitted: {json}");
        let back: Widget = from_str(&json).unwrap();
        assert_eq!(back.cached, None, "skip field defaults on load");
        assert_eq!(back.extra, 7);
        // A document written before `extra` existed still deserializes.
        let old: Widget = from_str(r#"{"name":"y","count":1}"#).unwrap();
        assert_eq!(old.extra, 0);
        // But a missing non-default field is an error.
        assert!(from_str::<Widget>(r#"{"name":"y"}"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // Far past the bound, unbalanced, objects too: an error, never an
        // abort — checked on a quarter of a default 2 MiB thread stack.
        let deep = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(|| {
                let arrays = parse(&"[".repeat(10_000)).is_err();
                let objects = parse(&r#"{"a":"#.repeat(10_000)).is_err();
                arrays && objects
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(deep);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
    }
}
