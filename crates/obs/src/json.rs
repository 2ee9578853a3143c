//! Minimal std-only JSON: an ordered value tree, a writer, and a
//! recursive-descent parser.
//!
//! The workspace builds offline with no serde, so exporters construct a
//! [`Value`] tree and `Display` it; tests and CI smoke checks re-parse
//! the emitted text with [`parse`] to validate schema and spot-check
//! keys. Object keys keep insertion order, which makes emitted reports
//! diffable run over run.

use std::fmt;

/// A JSON value.
///
/// Unsigned integers get their own variant so nanosecond counters
/// round-trip exactly (an `f64` loses precision past 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written without a decimal point.
    UInt(u64),
    /// A floating-point number (non-finite values are written as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Creates an empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Inserts `key` into an object value and returns `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("set {key:?} on non-object {other:?}"),
        }
        self
    }

    /// Looks up `key` in an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload (None for other variants).
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements of an array (None for other variants).
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents (None for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `u64` (integral `Num` values included).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(u) => Some(u as f64),
            Value::Num(n) => Some(n),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::UInt(u)
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::UInt(u64::from(u))
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::UInt(u as u64)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// Writes `s` as a JSON string literal, passing runs of characters that
/// need no escape on whole.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[plain..i])?;
        match escape {
            "" => write!(f, "\\u{b:04x}")?,
            e => f.write_str(e)?,
        }
        plain = i + 1;
    }
    f.write_str(&s[plain..])?;
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{n:.1}") // keep a decimal point: stays a float on re-parse
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What was expected or found.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(JsonError { pos: p.pos, msg: "trailing characters" });
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", "expected 'true'").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false", "expected 'false'").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null", "expected 'null'").map(|_| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one whole UTF-8 character: the lead byte
                    // gives its length, so only those bytes are checked.
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => 0,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_tree() {
        let v = Value::obj()
            .set("name", "vmp")
            .set("count", 3u64)
            .set("big", u64::MAX)
            .set("ratio", 0.25)
            .set("whole", 2.0)
            .set("ok", true)
            .set("none", Value::Null)
            .set("items", vec![Value::UInt(1), Value::Str("two".into())]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str(), Some("vmp"));
        assert_eq!(back.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(back.get("whole").unwrap().as_f64(), Some(2.0));
        assert_eq!(back.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(back.get("none"), Some(&Value::Null));
        assert_eq!(back.get("items").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("quote \" slash \\ newline \n tab \t ctrl \u{1}".into());
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn writer_spells_strings_and_integers_exactly() {
        let s = Value::Str("a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{e9}\u{1f600}".into());
        let want = concat!(r#""a\"b\\c\nd\re\tf\u0001g\u001f"#, "\u{e9}\u{1f600}\"");
        assert_eq!(s.to_string(), want);
        let n = Value::Arr(vec![0u64.into(), 10u64.into(), 1986u64.into(), u64::MAX.into()]);
        assert_eq!(n.to_string(), "[0,10,1986,18446744073709551615]");
    }

    #[test]
    fn long_multibyte_string_roundtrips() {
        // Characters of 1–4 bytes, over 1 MiB in one string: a parse
        // that re-checked the rest of the input for every character
        // would be quadratic in the string's length.
        let unit = "a\u{e9}\u{20ac}\u{1f600}\"\n";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let v = Value::Arr(vec![Value::Str(text), Value::UInt(7)]);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn invalid_utf8_in_a_string_is_an_error() {
        for bad in [&b"\"\xff\""[..], b"\"\xc3\"", b"\"\xe2\x82\"", b"\"\xed\xa0\x80\""] {
            let mut p = Parser { bytes: bad, pos: 0 };
            let err = p.string().unwrap_err();
            assert_eq!((err.pos, err.msg), (1, "invalid utf-8"), "{bad:?}");
        }
    }

    #[test]
    fn whole_floats_stay_floats() {
        // A float that happens to be integral must not re-parse as UInt.
        assert_eq!(Value::Num(2.0).to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::Num(2.0));
        assert_eq!(parse("2").unwrap(), Value::UInt(2));
        assert_eq!(parse("-2").unwrap(), Value::Num(-2.0));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth limit");
        let err = parse("nulL").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn parse_accepts_nested_documents() {
        let v = parse(r#"{"a": [1, {"b": null}, "x"], "c": {"d": false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Value::Bool(false)));
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Value::Null.get("x"), None);
        assert_eq!(Value::Arr(vec![]).as_str(), None);
        assert_eq!(Value::Str("s".into()).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
    }
}
