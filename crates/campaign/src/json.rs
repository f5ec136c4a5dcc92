//! A minimal JSON reader for journal records.
//!
//! The engine journals each job's payload as the raw JSON string the
//! campaign produced, and campaigns parse it back when aggregating a
//! resumed run. The workspace carries no serde, so this module is the
//! shared parser: a small recursive-descent reader producing a
//! [`Value`] tree. Object keys keep insertion order and numbers keep
//! their source text, so nothing is lost between journal and
//! re-render.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text so exact integer values
    /// survive the round-trip (journal payloads contain no floats).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; pairs keep source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `i64`, if this is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Corpus entries
/// and journal payloads nest at most six levels; the limit keeps the
/// recursive descent's stack use bounded whatever the input (a body of
/// half a million `[` would otherwise overflow the stack and abort the
/// process).
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected , or ] at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected : at byte {pos}"));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected , or }} at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            Ok(Value::Num(text.to_string()))
        }
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Journal writers only escape control characters
                        // this way; surrogate pairs never appear.
                        let ch =
                            char::from_u32(code).ok_or_else(|| format!("bad \\u{hex} escape"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal (quotes not
/// included), matching the writers in `opec-eval`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_structures() {
        let v = parse(r#"{"a": [1, -2, "x\n\"y\""], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_i64(), Some(-2));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn escape_then_parse_is_identity() {
        let s = "line1\nline2\t\"quoted\" back\\slash \u{1} end";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ))
        .is_err());
        // Half a MiB of `[` is an error, not a stack overflow.
        assert!(parse(&"[".repeat(512 * 1024)).is_err());
    }
}
