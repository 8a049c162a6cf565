//! A hand-rolled, deterministic JSON writer and a small parser (no
//! serde).
//!
//! The telemetry layer needs exactly one thing from JSON on the way
//! out: emitting flat records whose bytes are identical for identical
//! inputs. This module provides an append-only object builder —
//! insertion order is preserved, `f64`s use Rust's shortest-roundtrip
//! formatting (stable across runs and platforms), and non-finite floats
//! become `null` (JSON has no NaN).
//!
//! On the way back in, [`JsonValue::parse`] is a strict
//! recursive-descent parser used by the trace inspection CLI and the CI
//! line checker ([`validate_jsonl`]) — it accepts exactly one JSON value
//! per input and preserves object key order.
//!
//! ```
//! use hetmem_harness::json::JsonObject;
//!
//! let line = JsonObject::new()
//!     .str("workload", "bfs")
//!     .u64("cycles", 12345)
//!     .f64("gbps", 1.5)
//!     .finish();
//! assert_eq!(line, r#"{"workload":"bfs","cycles":12345,"gbps":1.5}"#);
//! ```

/// An append-only JSON object builder.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&fmt_f64(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value (e.g. a nested array built from
    /// other [`JsonObject`]s).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

/// Serializes a list of pre-serialized values as a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// Formats an `f64` deterministically: shortest roundtrip via `{}`,
/// `null` for NaN/infinity.
pub fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Serializes a string as a quoted, escaped JSON string value.
pub fn quote(s: &str) -> String {
    let mut buf = String::with_capacity(s.len() + 2);
    buf.push('"');
    escape_into(s, &mut buf);
    buf.push('"');
    buf
}

/// A parsed JSON value. Objects keep their key order (a `Vec`, not a
/// map — telemetry records are small and order is part of the schema).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses exactly one JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Serializes the value back to canonical JSON text: object keys in
    /// stored order, floats via [`fmt_f64`], strings escaped exactly as
    /// the writer does. `parse(render(v)) == v` for every value, and
    /// values built through [`JsonObject`] render to identical bytes.
    pub fn render(&self) -> String {
        let mut buf = String::new();
        self.render_into(&mut buf);
        buf
    }

    fn render_into(&self, buf: &mut String) {
        match self {
            JsonValue::Null => buf.push_str("null"),
            JsonValue::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => buf.push_str(&fmt_f64(*n)),
            JsonValue::Str(s) => {
                buf.push('"');
                escape_into(s, buf);
                buf.push('"');
            }
            JsonValue::Array(items) => {
                buf.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    item.render_into(buf);
                }
                buf.push(']');
            }
            JsonValue::Object(fields) => {
                buf.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    buf.push('"');
                    escape_into(k, buf);
                    buf.push_str("\":");
                    v.render_into(buf);
                }
                buf.push('}');
            }
        }
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer below 2^53. Every integer in
    /// that range parses to its own `f64`; 2^53 itself is refused
    /// because 2^53 + 1 parses to it too, so accepting it would answer
    /// for a neighbour the sender never wrote.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine surrogate pairs; lone surrogates
                            // become the replacement character.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run of plain bytes at once. Every
                    // byte that ends a run is ASCII, so the run ends on
                    // a char boundary of the `&str` input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = core::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("bad number '{text}'"),
            })
    }
}

/// Checks that every non-empty line of `text` parses as a JSON value.
/// Returns the number of lines validated.
///
/// # Errors
///
/// Returns the 1-based line number and parse error of the first bad
/// line.
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, JsonError)> {
    let mut count = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        JsonValue::parse(line).map_err(|e| (i + 1, e))?;
        count += 1;
    }
    Ok(count)
}

fn escape_into(s: &str, buf: &mut String) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_objects() {
        let line = JsonObject::new()
            .str("a", "x")
            .u64("b", 7)
            .bool("c", true)
            .finish();
        assert_eq!(line, r#"{"a":"x","b":7,"c":true}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn escapes_specials() {
        let line = JsonObject::new().str("k", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, r#"{"k":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_null_for_nan() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let line = JsonObject::new().f64("x", 2.0).finish();
        assert_eq!(line, r#"{"x":2}"#);
    }

    #[test]
    fn arrays_and_raw_nesting() {
        let inner = array(vec![
            JsonObject::new().u64("i", 0).finish(),
            JsonObject::new().u64("i", 1).finish(),
        ]);
        let line = JsonObject::new().raw("items", &inner).finish();
        assert_eq!(line, r#"{"items":[{"i":0},{"i":1}]}"#);
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let line = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("x", 0.1 + 0.2)
            .bool("ok", true)
            .raw("items", &array(vec!["1".into(), "null".into()]))
            .finish();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(0.1 + 0.2));
        // Integers stop at 2^53 - 1: 2^53 and 2^53 + 1 parse alike.
        let big = |text: &str| JsonValue::parse(text).unwrap().as_u64();
        assert_eq!(big("9007199254740991"), Some((1 << 53) - 1));
        assert_eq!(big("9007199254740992"), None);
        assert_eq!(big("9007199254740993"), None);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("items").unwrap().as_array(),
            Some(&[JsonValue::Num(1.0), JsonValue::Null][..])
        );
    }

    #[test]
    fn parser_preserves_object_key_order() {
        let v = JsonValue::parse(r#"{"z":1,"a":2}"#).unwrap();
        let JsonValue::Object(fields) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn parser_handles_nesting_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , { \"b\" : \"\\u0041\\u00e9\" } ] } ").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Num(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a":1} extra"#,
            "truer",
            "\"unterminated",
            "nan",
            "01x",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_combines_surrogate_pairs() {
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // A lone surrogate degrades to the replacement character.
        let v = JsonValue::parse(r#""\ud83dx""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}x"));
    }

    #[test]
    fn render_roundtrips_and_matches_writer_bytes() {
        let line = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("x", 0.1 + 0.2)
            .bool("ok", true)
            .raw("items", &array(vec!["1".into(), "null".into()]))
            .finish();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.render(), line, "render reproduces writer bytes");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::parse("[ 1 , 2 ]").unwrap().render(), "[1,2]");
    }

    #[test]
    fn validate_jsonl_counts_lines_and_locates_failures() {
        assert_eq!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n"), Ok(2));
        let err = validate_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.0, 2);
    }
}
