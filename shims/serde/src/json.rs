//! A small JSON document model and recursive-descent parser.
//!
//! Numbers are kept as their source text so integer width and float
//! precision are decided by the consuming `Deserialize` impl, not by a
//! lossy intermediate `f64`.

use std::fmt;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Raw number text exactly as it appeared in the document.
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Key/value pairs in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::msg(format!("expected string, got {}", other.kind()))),
        }
    }

    pub fn as_number(&self) -> Result<&str, Error> {
        match self {
            Value::Number(s) => Ok(s),
            other => Err(Error::msg(format!("expected number, got {}", other.kind()))),
        }
    }

    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(a) => Ok(a),
            other => Err(Error::msg(format!("expected array, got {}", other.kind()))),
        }
    }

    pub fn as_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(o) => Ok(o),
            other => Err(Error::msg(format!("expected object, got {}", other.kind()))),
        }
    }

    /// Struct-field lookup used by derived `Deserialize` impls.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::msg(format!("missing field `{name}`")))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Append `s` to `out` as a quoted, escaped JSON string. Unescaped runs
/// are copied as slices: every byte that needs an escape is ASCII, so a
/// run boundary is always a char boundary.
pub fn escape_str(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
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
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|_| Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::msg(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One unescaped run up to the next quote or backslash,
            // validated and copied once. Both delimiters are ASCII, so
            // they never fall inside a multi-byte sequence.
            let bytes = self.bytes;
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::msg("unterminated string"))?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| Error::msg("bad utf8"))?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
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
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| Error::msg("bad \\u escape"))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| Error::msg("bad \\u escape"))?;
                    out.push(char::from_u32(code).ok_or_else(|| Error::msg("bad \\u code point"))?);
                    self.pos += 4;
                }
                _ => return Err(Error::msg("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(Error::msg("empty number"));
        }
        Ok(Value::Number(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .unwrap()
                .to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_basics() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(v.field("b").unwrap().as_str().unwrap(), "x\ny");
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert!(matches!(v.field("d").unwrap(), Value::Null));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse("{not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    /// The parser used to re-validate the rest of the document for every
    /// character of a string (minutes for a multi-MB model payload).
    #[test]
    fn multi_megabyte_string_round_trips_in_linear_time() {
        let unit = "weights \"w\\1\"\n\tπ≈3.14159 · 雪 🦀 \u{1}\r";
        let big = unit.repeat((2 << 20) / unit.len() + 1);
        assert!(big.len() >= 2 << 20);
        let t = std::time::Instant::now();
        let mut doc = String::from("{\"payload\":");
        escape_str(&big, &mut doc);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.field("payload").unwrap().as_str().unwrap(), big);
        assert!(
            t.elapsed() < std::time::Duration::from_secs(20),
            "string round trip took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn string_escapes_and_errors() {
        let mut out = String::new();
        escape_str("a\u{0}b\u{1f}\"\\/é", &mut out);
        assert_eq!(out, r#""a\u0000b\u001f\"\\/é""#);
        assert_eq!(
            parse(&out).unwrap().as_str().unwrap(),
            "a\u{0}b\u{1f}\"\\/é"
        );
        assert_eq!(
            parse(r#""\/\b\f\u00e9""#).unwrap().as_str().unwrap(),
            "/\u{8}\u{c}é"
        );
        for bad in [
            r#""open"#,
            r#""bad \x""#,
            r#""\u12"#,
            r#""\ud800""#,
            r#""tail\"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn float_text_is_preserved() {
        let v = parse("[0.30000001192092896]").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_number().unwrap(), "0.30000001192092896");
    }
}
