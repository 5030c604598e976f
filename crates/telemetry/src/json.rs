//! A minimal JSON value, parser, and writer.
//!
//! The telemetry exporters, the simulator report codec, and the harness
//! result store all serialize to JSON lines, and the workspace builds
//! offline, so this module hand-rolls the small JSON subset they need:
//! objects, arrays, strings, numbers, booleans, and null. Numbers keep
//! their raw token so `u64` counters round-trip exactly (no detour
//! through `f64`).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless integer round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list (no duplicate handling).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Wraps an unsigned counter.
    pub fn u64(v: u64) -> Value {
        Value::Num(v.to_string())
    }

    /// Wraps a float. Non-finite values become `null` (JSON has no NaN).
    pub fn f64(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v:?}"))
        } else {
            Value::Null
        }
    }

    /// Wraps a string.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// The value under `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The string contents, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, when `self` is an integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`; `null` reads as NaN (the writer's encoding
    /// of non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
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

/// The deepest nesting of arrays and objects [`Value::parse`] accepts:
/// far above any document the system writes, and shallow enough that
/// the recursive descent never threatens a thread's stack. Without it a
/// request body of nested `[` overflows the stack and aborts the whole
/// process.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number {raw:?} at byte {start}"));
        }
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed for the
                            // store's ASCII field names; reject them.
                            let c =
                                char::from_u32(cp).ok_or_else(|| format!("bad \\u{hex} escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one multi-byte UTF-8 scalar. Decode from a
                    // bounded window — validating the whole remaining
                    // input per character is quadratic on large files.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(chunk) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()]).unwrap()
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                    let c = valid.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(xs));
        }
        loop {
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(xs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "2.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.render(), text, "{text}");
        }
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let big = u64::MAX - 3;
        let v = Value::parse(&Value::u64(big).render()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2.5,null],"b":{"c":"x\ny","d":true}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::f64(f64::NAN).render(), "null");
        assert_eq!(Value::f64(f64::INFINITY).render(), "null");
        assert!(Value::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::str("quote \" slash \\ tab \t nl \n ctl \u{1}");
        let back = Value::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn multibyte_strings_round_trip() {
        // Exercises the bounded UTF-8 decode path: 2-, 3-, and 4-byte
        // scalars, including one flush against the end of input.
        let v = Value::str("é ✓ 🚀");
        let back = Value::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        let tail = Value::parse("\"🚀\"").unwrap();
        assert_eq!(tail.as_str(), Some("🚀"));
    }

    #[test]
    fn large_documents_parse_in_linear_time() {
        // A ~3 MB array of small string-bearing objects; quadratic
        // string scanning would turn this into minutes.
        let mut doc = String::from("[");
        for i in 0..40_000 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(r#"{"name":"pipeline stage","ph":"X","ts":"#);
            doc.push_str(&i.to_string());
            doc.push('}');
        }
        doc.push(']');
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 40_000);
    }

    #[test]
    fn syntax_errors_are_reported() {
        for text in ["{", "[1,", "tru", "\"open", "{\"a\" 1}", "1 2", "{'a':1}"] {
            assert!(Value::parse(text).is_err(), "{text} should fail");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let doc = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&doc(MAX_DEPTH)).is_ok());
        let err = Value::parse(&doc(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let mixed = format!("{}1{}", r#"{"a":["#.repeat(40), "]}".repeat(40));
        assert!(Value::parse(&mixed).is_err());
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        // A spawned thread gets the default 2 MiB stack, as a daemon
        // connection thread does; unbounded recursion would abort here.
        let bomb = "[".repeat(1 << 20);
        let parsed = std::thread::spawn(move || Value::parse(&bomb).is_err())
            .join()
            .expect("parsing never panics");
        assert!(parsed);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2]}"#);
    }
}
