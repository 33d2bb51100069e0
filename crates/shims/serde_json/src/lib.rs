//! Hermetic shim of the `serde_json` API subset this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`Value`] with
//! accessors, and the [`json!`] macro (object-literal form with
//! expression values).
//!
//! Output format matches upstream serde_json closely enough for the
//! workspace's artifacts: 2-space pretty indentation, insertion-ordered
//! object keys, non-finite floats serialized as `null`, and shortest
//! round-trip float formatting.

pub use serde::__private::{Number, Value};
use serde::Serialize;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for Error {}

/// `Result` alias matching upstream.
pub type Result<T> = std::result::Result<T, Error>;

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number_into(n: &Number, out: &mut String) {
    match *n {
        Number::I64(v) => out.push_str(&v.to_string()),
        Number::U64(v) => out.push_str(&v.to_string()),
        Number::F64(v) => {
            if v.is_finite() {
                // `{:?}` is Rust's shortest round-trip form and always
                // carries a `.0`/exponent marker, matching serde_json's
                // float-typed output.
                out.push_str(&format!("{v:?}"));
            } else {
                // Upstream serde_json serializes non-finite floats as null.
                out.push_str("null");
            }
        }
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => number_into(n, out),
        Value::String(s) => escape_into(s, out),
        Value::Array(a) => {
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(e, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, e)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(e, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_pretty(e, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, e)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(e, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&value.to_json_value(), &mut out);
    Ok(out)
}

/// Serialize to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_json_value(), 0, &mut out);
    Ok(out)
}

/// Convert any serializable value to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_json_value())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{} at byte {}", msg, self.pos)))
    }

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

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => self.err("unexpected character"),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("invalid literal (expected `{lit}`)"))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let str_rest =
                        std::str::from_utf8(rest).map_err(|_| Error("invalid UTF-8".into()))?;
                    let c = str_rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(|v| Value::Number(Number::F64(v)))
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(|v| Value::Number(Number::I64(v)))
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(|v| Value::Number(Number::U64(v)))
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

/// Parse a JSON document.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    T::from_json_value(v).map_err(|e| Error(e.to_string()))
}

/// Build a [`Value`] object/array/scalar literal.  Supports the forms the
/// workspace uses: `json!({"k": expr, ...})`, `json!([expr, ...])`, and
/// `json!(expr)` where `expr: Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($k.to_string(), $crate::to_value(&$v).unwrap())),*
        ])
    };
    ([ $($e:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::to_value(&$e).unwrap()),*])
    };
    ($e:expr) => { $crate::to_value(&$e).unwrap() };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({"a": 1u64, "b": json!([1.5f64, -2i64]), "s": "x\"y"});
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_is_stable_and_parseable() {
        let v = json!({"outer": vec![1u64, 2, 3], "n": 1.0f64});
        let p = to_string_pretty(&v).unwrap();
        assert!(p.contains("  \"outer\": [\n    1,"));
        let back: Value = from_str(&p).unwrap();
        assert_eq!(back["n"].as_f64(), Some(1.0));
    }

    #[test]
    fn nonfinite_floats_are_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    }

    #[test]
    fn value_accessors() {
        let v: Value = from_str(r#"{"x": [10, "s", true, null], "y": -3}"#).unwrap();
        assert_eq!(v["x"][0].as_u64(), Some(10));
        assert_eq!(v["x"][1].as_str(), Some("s"));
        assert_eq!(v["x"][2].as_bool(), Some(true));
        assert!(v["x"][3].is_null());
        assert_eq!(v["y"].as_i64(), Some(-3));
        assert!(v.get("missing").is_none());
    }
}
