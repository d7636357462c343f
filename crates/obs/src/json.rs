//! A minimal JSON writer and reader — just enough for the exporters and
//! the `verifd` wire protocol, with deterministic output (callers
//! iterate ordered maps) and no external dependencies.

/// Escape a string for use inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON number. JSON has no NaN/infinity; those
/// degrade to `null`, which every parser accepts.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is deterministic and
        // always contains a digit, which is valid JSON except for the
        // exponent-free integer case ("1" is fine too).
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Format picoseconds as a microsecond timestamp with full (sub-ps-free)
/// precision — the unit Chrome trace's `ts` field expects. Pure integer
/// arithmetic, so identical runs format identically.
pub fn ps_as_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every schema
/// this workspace speaks nests a handful of levels; the cap keeps the
/// recursive parser's stack use bounded on untrusted input.
pub const MAX_DEPTH: usize = 128;

/// Why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The document is not well-formed JSON.
    Syntax(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; `at` is the
    /// byte offset of the first bracket past the cap.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> JsonError {
        JsonError::Syntax(msg)
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// A parsed JSON value. Numbers keep their source text so 64-bit
/// integers (campaign seeds) survive without a float round-trip; object
/// members keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected, nesting capped at [`MAX_DEPTH`]).
    pub fn parse(doc: &str) -> Result<Json, JsonError> {
        let mut at = 0usize;
        let v = parse_value(doc, &mut at, 0)?;
        skip_ws(doc.as_bytes(), &mut at);
        if at != doc.len() {
            return Err(format!("trailing garbage at byte {at}").into());
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other kinds or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null` (absent-value checks on optional members).
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, lit: &str) -> Result<(), String> {
    if b[*at..].starts_with(lit.as_bytes()) {
        *at += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {at}"))
    }
}

/// Parse one value whose enclosing arrays/objects number `depth`.
/// `at` only ever stops on a character boundary of `doc`: every
/// token the parser steps over ends in an ASCII byte.
fn parse_value(doc: &str, at: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let b = doc.as_bytes();
    skip_ws(b, at);
    if matches!(b.get(*at), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(JsonError::TooDeep { at: *at });
    }
    match b.get(*at) {
        None => Err(JsonError::Syntax("unexpected end of document".to_string())),
        Some(b'n') => Ok(expect(b, at, "null").map(|()| Json::Null)?),
        Some(b't') => Ok(expect(b, at, "true").map(|()| Json::Bool(true))?),
        Some(b'f') => Ok(expect(b, at, "false").map(|()| Json::Bool(false))?),
        Some(b'"') => Ok(parse_string(doc, at).map(Json::Str)?),
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(doc, at, depth + 1)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {at}").into()),
                }
            }
        }
        Some(b'{') => {
            *at += 1;
            let mut members = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, at);
                let key = parse_string(doc, at)?;
                skip_ws(b, at);
                expect(b, at, ":")?;
                members.push((key, parse_value(doc, at, depth + 1)?));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {at}").into()),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *at;
            *at += 1;
            while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *at += 1;
            }
            let raw = &doc[start..*at];
            // Validate via the float path; the literal is kept verbatim.
            raw.parse::<f64>()
                .map_err(|_| format!("malformed number `{raw}` at byte {start}"))?;
            Ok(Json::Num(raw.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {at}", *c as char).into()),
    }
}

/// Parse a quoted string, undoing exactly the escapes [`escape`] emits
/// (plus the full `\uXXXX` form, surrogate pairs included). Runs of
/// unescaped characters are copied whole, so a string costs time
/// linear in its length.
fn parse_string(doc: &str, at: &mut usize) -> Result<String, String> {
    let b = doc.as_bytes();
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at += 1;
    let mut out = String::new();
    let mut pending_high: Option<u16> = None;
    loop {
        let c = *b.get(*at).ok_or("unterminated string")?;
        let ch = match c {
            b'"' => {
                *at += 1;
                if pending_high.is_some() {
                    return Err("unpaired surrogate in string".to_string());
                }
                return Ok(out);
            }
            b'\\' => {
                *at += 1;
                let e = *b.get(*at).ok_or("unterminated escape")?;
                *at += 1;
                match e {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hex = doc.get(*at..*at + 4).ok_or("truncated \\u escape")?;
                        let cp = u16::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *at += 4;
                        match (pending_high.take(), cp) {
                            (None, 0xD800..=0xDBFF) => {
                                pending_high = Some(cp);
                                continue;
                            }
                            (None, _) => char::from_u32(cp as u32).ok_or("invalid code point")?,
                            (Some(hi), 0xDC00..=0xDFFF) => {
                                let c =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (cp as u32 - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            }
                            (Some(_), _) => return Err("unpaired surrogate".to_string()),
                        }
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                if pending_high.is_some() {
                    return Err("unpaired surrogate in string".to_string());
                }
                // Copy the run up to the next quote or backslash. Both
                // are ASCII, so the run ends on a character boundary.
                let run = b[*at..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - *at);
                out.push_str(&doc[*at..*at + run]);
                *at += run;
                continue;
            }
        };
        if pending_high.is_some() {
            return Err("unpaired surrogate in string".to_string());
        }
        out.push(ch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn ps_to_us_keeps_full_precision() {
        assert_eq!(ps_as_us(0), "0.000000");
        assert_eq!(ps_as_us(1_234_567), "1.234567");
        assert_eq!(ps_as_us(10_000), "0.010000");
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": true}, "e": "x"}"#;
        let v = Json::parse(doc).expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert!(v.get("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn large_integers_survive_without_float_rounding() {
        let v = Json::parse("{\"seed\": 18446744073709551615}").expect("parse");
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn unescape_mirrors_escape() {
        let original = "a\"b\\c\nd\te\u{1}f — π";
        let doc = format!("\"{}\"", escape(original));
        let v = Json::parse(&doc).expect("parse");
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").expect("parse");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let deep = "[".repeat(100_000);
        assert_eq!(
            Json::parse(&deep),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objs = "{\"a\":".repeat(100_000);
        assert!(matches!(Json::parse(&objs), Err(JsonError::TooDeep { .. })));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok(), "the cap itself is legal");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "\"\\u12\"",
            "tru",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
