//! Minimal JSON value model, serializer, and parser.
//!
//! The build environment is offline and the vendored `serde` derive is a
//! no-op, so the service speaks JSON through this hand-rolled layer. Two
//! properties matter more than features:
//!
//! - **Canonical output.** Objects keep insertion order, integers and
//!   floats print through Rust's shortest-round-trip `Display`, and
//!   non-finite floats become `null` — so the same value always renders
//!   to the same bytes, which the content-addressed result cache and the
//!   byte-identical integration tests rely on.
//! - **Re-serialization is the identity** on our own output: `parse`
//!   followed by [`Json::render`] reproduces the input bytes, letting
//!   clients extract a sub-object and still compare it byte-for-byte.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part.
    Int(i64),
    /// A fractional number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload (floats with integral value included).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to the canonical compact form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `v` in the canonical float form: `null` for non-finite, `0`
/// for signed zeros (so reparsing as an integer round-trips), shortest
/// `Display` otherwise. Integral values print without a fractional part
/// and reparse as [`Json::Int`] — still byte-stable.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    }
}

/// Append `s` as a quoted JSON string in the canonical form: `"`, `\`
/// and control characters escaped, everything else (non-ASCII included)
/// verbatim. A string with nothing to escape is copied in one piece.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        write_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// The string body, escaped character by character.
fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        i64::try_from(v)
            .map(Json::Int)
            .unwrap_or(Json::Num(v as f64))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v)
            .map(Json::Int)
            .unwrap_or(Json::Num(v as f64))
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Deepest container nesting the parser accepts. The descent is
/// recursive, so without a bound a request body of ~50k `[`s (well
/// under the HTTP body cap) would overflow a connection thread's stack
/// — and a stack overflow aborts the whole process, not just the
/// request. No legitimate document comes close to this depth.
const MAX_DEPTH: u32 = 128;

/// Parse a JSON document (the whole input must be one value).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
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
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(format!("nesting deeper than {MAX_DEPTH}"))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go (UTF-8 passes through).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex_escape()?;
                            let c = match code {
                                // High surrogate: a standard encoder
                                // (e.g. json.dumps with ensure_ascii)
                                // ships non-BMP characters as a pair —
                                // decode it rather than mangle both
                                // halves to U+FFFD.
                                0xd800..=0xdbff => {
                                    if self.peek() != Some(b'\\') {
                                        return Err("lone high surrogate".to_string());
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err("lone high surrogate".to_string());
                                    }
                                    self.pos += 1;
                                    let low = self.hex_escape()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err("invalid surrogate pair".to_string());
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| "invalid surrogate pair".to_string())?
                                }
                                0xdc00..=0xdfff => {
                                    return Err("lone low surrogate".to_string());
                                }
                                _ => char::from_u32(code)
                                    .ok_or_else(|| "bad \\u escape".to_string())?,
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Four hex digits of a `\u` escape (the `\u` itself already
    /// consumed).
    fn hex_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "bad \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Num))
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_canonical_compact_form() {
        let v = Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::from(vec![1i64, 2, 3])),
            ("c", Json::obj(vec![("nested", Json::from("x\n\"y\""))])),
            ("d", Json::Bool(false)),
            ("e", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":1,"b":[1,2,3],"c":{"nested":"x\n\"y\""},"d":false,"e":null}"#
        );
    }

    #[test]
    fn floats_are_stable_and_finite() {
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(1e-6).render(), "0.000001");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_then_render_is_identity_on_own_output() {
        let v = Json::obj(vec![
            ("pi", Json::Num(std::f64::consts::PI)),
            ("tiny", Json::Num(4.9e-12)),
            ("neg", Json::Int(-42)),
            ("zero", Json::Num(0.0)),
            ("text", Json::from("tab\there — unicode ✓")),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = v.render();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.render(), text);
    }

    #[test]
    fn string_fast_path_matches_the_escaping_path() {
        for s in [
            "",
            "plain file.mmpi:12",
            "quote \" inside",
            "back\\slash",
            "line\nbreak",
            "cr\r tab\t",
            "\u{1}start",
            "end\u{1f}",
            "del \u{7f} passes through",
            "multi-byte é — ✓ \u{1f600}",
            "dir\\\"odd\".mmpi:3",
        ] {
            let mut fast = String::new();
            write_string(&mut fast, s);
            let mut slow = String::from("\"");
            write_escaped(&mut slow, s);
            slow.push('"');
            assert_eq!(fast, slow, "{s:?}");
            assert_eq!(parse(&fast).unwrap().as_str(), Some(s), "{s:?}");
            let doc = Json::obj(vec![(s, Json::from(s))]).render();
            assert_eq!(parse(&doc).unwrap().render(), doc, "{s:?}");
        }
        let mut out = String::new();
        write_string(&mut out, "\u{1}\u{7f}");
        assert_eq!(out, "\"\\u0001\u{7f}\"");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , 2.5 , \"a\\u0041b\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("k").unwrap().as_array().unwrap()[2].as_str(),
            Some("aAb")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "\"open", "{\"a\":}", "nul", "1 2", "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_is_bounded_but_generous() {
        // A pathological body must be rejected, not overflow the stack.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
        // Legitimate nesting up to the limit parses fine (and siblings
        // at the same depth do not accumulate).
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).is_ok());
        let arm = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&format!("[{arm},{arm}]")).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        // json.dumps("\u{1f600}") with ensure_ascii=True emits this pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Literal (unescaped) non-BMP characters pass straight through.
        assert_eq!(parse("\"\u{1f600}\"").unwrap().as_str(), Some("\u{1f600}"));
        for bad in [
            r#""\ud83d""#,       // lone high surrogate at end of string
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83dA""#,      // high surrogate followed by plain text
            r#""\ud83d\u0041""#, // high surrogate + non-surrogate escape
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"f":1.5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }
}
