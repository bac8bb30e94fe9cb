//! Minimal deterministic JSON: an emitter whose output is a pure
//! function of the value (objects are `BTreeMap`s, so key order is
//! canonical) and a strict parser used to *validate* artifacts before
//! a resume trusts them.
//!
//! The campaign engine never emits floating-point numbers — every
//! metric is an integer (nanoseconds, counts, fixed-point milli
//! units) — which is what makes "bit-identical report bytes" a
//! checkable property rather than a formatting accident. The parser
//! still accepts floats (other tools' JSON may contain them) but
//! surfaces them as raw text, since the campaign never needs their
//! value.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (everything the campaign emits).
    UInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A number that is not a u64/i64 integer (floats, huge ints),
    /// kept as its source text — parse-only, never emitted.
    RawNum(String),
    /// A string.
    Str(String),
    /// An array, order-preserving.
    Array(Vec<Json>),
    /// An object; `BTreeMap` makes emission order canonical.
    Object(BTreeMap<String, Json>),
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum array/object nesting the parser accepts; artifacts are
/// shallow, so anything deeper is malformed input, not data.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Shorthand for an object built from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The key→value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The object field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer payload, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Render compactly (no whitespace). Deterministic: object keys
    /// emit in `BTreeMap` order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation and a stable layout — the
    /// format campaign reports and cache entries are written in.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let nl = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::NegInt(n) => out.push_str(&n.to_string()),
            Json::RawNum(s) => out.push_str(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, level + 1);
                    item.write(out, indent, level + 1);
                }
                nl(out, level);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                nl(out, level);
                out.push('}');
            }
        }
    }

    /// Parse `text` as a single JSON document (trailing whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                msg: "trailing characters after the document".into(),
            });
        }
        Ok(value)
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
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(at: usize, msg: impl Into<String>) -> JsonError {
    JsonError {
        at,
        msg: msg.into(),
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key_at = *pos;
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(text, pos, depth + 1)?;
                if map.insert(key, value).is_some() {
                    return Err(err(key_at, "duplicate object key"));
                }
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(text, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte `{}`", *c as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(err(*pos, "expected a digit"));
    }
    // Leading zeros are invalid JSON ("01"), a truncation tell.
    if bytes[int_start] == b'0' && *pos - int_start > 1 {
        return Err(err(int_start, "leading zero in number"));
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        let frac_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(err(*pos, "expected a digit after `.`"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        integral = false;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(err(*pos, "expected a digit in exponent"));
        }
    }
    // `start` and `pos` sit on ASCII bytes, so both are char boundaries.
    let text = &text[start..*pos];
    if integral {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::NegInt(n));
        }
    }
    Ok(Json::RawNum(text.to_string()))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected `\"`"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(text, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require the low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "lone surrogate in \\u escape"));
                            }
                            *pos += 2;
                            let lo = parse_hex4(text, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(err(*pos, "lone low surrogate"));
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(err(*pos, "invalid \\u escape")),
                        }
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(err(*pos, "raw control character in string"));
            }
            Some(_) => {
                // Copy the whole run of ordinary characters at once.
                // The run starts after, and ends at, an ASCII byte or
                // the end of input, so both ends are char boundaries.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

/// Parse the four hex digits of a `\uXXXX` escape; on entry `pos` is
/// at the `u`, on exit at its last hex digit.
fn parse_hex4(text: &str, pos: &mut usize) -> Result<u32, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > text.len() {
        return Err(err(*pos, "truncated \\u escape"));
    }
    let code = text
        .get(start..end)
        .and_then(|hex| {
            hex.chars()
                .try_fold(0, |code, c| Some(code * 16 + c.to_digit(16)?))
        })
        .ok_or_else(|| err(start, "invalid \\u escape"))?;
    *pos = end - 1;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_canonical_and_round_trips() {
        let v = Json::obj(vec![
            ("zeta", Json::UInt(7)),
            ("alpha", Json::Str("a\"b\\c\nd".into())),
            (
                "list",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::NegInt(-3)]),
            ),
            ("empty_obj", Json::Object(BTreeMap::new())),
            ("empty_arr", Json::Array(vec![])),
        ]);
        let compact = v.render();
        // Keys come out sorted regardless of insertion order.
        assert_eq!(
            compact,
            "{\"alpha\":\"a\\\"b\\\\c\\nd\",\"empty_arr\":[],\"empty_obj\":{},\
             \"list\":[null,true,-3],\"zeta\":7}"
        );
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"alpha\""));
    }

    #[test]
    fn parses_numbers_strictly() {
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-12").unwrap(), Json::NegInt(-12));
        assert_eq!(Json::parse("1.5").unwrap(), Json::RawNum("1.5".into()));
        assert_eq!(Json::parse("1e3").unwrap(), Json::RawNum("1e3".into()));
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("1.").is_err());
        assert!(Json::parse("--1").is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = r#"{"a": [1, 2, {"b": "text"}], "c": true}"#;
        assert!(Json::parse(full).is_ok());
        // Every proper prefix must fail — this is exactly the
        // "truncated pre-write_atomic artifact" a resume must detect.
        for cut in 1..full.len() {
            if full.is_char_boundary(cut) {
                assert!(
                    Json::parse(&full[..cut]).is_err(),
                    "prefix {cut} parsed: {}",
                    &full[..cut]
                );
            }
        }
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{} garbage").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#""Aé😀\t""#).unwrap();
        assert_eq!(parsed, Json::Str("Aé😀\t".into()));
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "bad escape");
        assert!(Json::parse("\"a\nb\"").is_err(), "raw control char");
        // Control characters emit as escapes and parse back.
        let v = Json::Str("\u{01}".into());
        assert_eq!(v.render(), "\"\\u0001\"");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_duplicate_keys_and_deep_nesting() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![("n", Json::UInt(4)), ("s", Json::Str("x".into()))]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn large_documents_round_trip() {
        // ~1 MB: many keys, plus one long string mixing multibyte
        // characters with every escape the emitter writes.
        let long: String =
            "é😀 plain \"quoted\" back\\slash\n\r\t\u{08}\u{0C}\u{01} ".repeat(12_000);
        let mut pairs: Vec<(String, Json)> = (0..20_000u64)
            .map(|i| (format!("key-{i:05}"), Json::UInt(i * 7)))
            .collect();
        pairs.push(("long".into(), Json::Str(long)));
        let v = Json::Object(pairs.into_iter().collect());
        let text = v.render_pretty();
        assert!(text.len() > 900_000, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
