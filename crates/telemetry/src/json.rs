//! The workspace's one JSON codec: an owned value tree, its parser and its
//! writer. Every on-disk format reads through [`Json::parse`] — trace JSONL
//! ([`EventRecord::from_json`](crate::EventRecord::from_json)), checkpoints,
//! bench reports and the perf ledger — so one grammar, one set of limits
//! and one fuzz test cover them all.
//!
//! * **Numbers are typed by syntax.** An integer literal that fits `u64`
//!   parses as [`Json::U64`], a negative one that fits `i64` as
//!   [`Json::I64`], and anything else (fraction, exponent, out of integer
//!   range, and `-0`, which must re-print with its sign) as [`Json::F64`].
//!   Checkpoint bit patterns above 2^53 stay exact, and whatever the repo's
//!   writers emit re-prints to the same bytes.
//! * **The writer shares the scalar encoding** of [`push_json_f64`] and
//!   [`push_json_str`]: non-finite floats print as `null`, finite ones in
//!   Rust's shortest round-trip decimal. Equality compares numbers by value
//!   across variants, so `parse(v.to_json()) == v` for every finite `v`.
//! * **The parser is total.** Any input yields a value or a [`JsonError`]
//!   with a byte offset, never a panic. Nesting deeper than [`MAX_DEPTH`]
//!   and numbers that overflow `f64` are errors, not a stack overflow or an
//!   infinity; the grammar is RFC 8259's, with no extensions.
//! * Objects keep their members in document order, duplicates included;
//!   [`Json::get`] returns the first match.

use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

use crate::event::{push_json_f64, push_json_str};

/// Deepest array/object nesting the parser accepts. The repo's writers
/// nest well under 16 levels; the bound only keeps hostile input from
/// exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// An owned JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl PartialEq for Json {
    /// Structural equality, except that numbers compare by value across
    /// variants: `F64(2.0)` prints as `2`, which parses back as `U64(2)`.
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::F64(a), Json::F64(b)) => a == b,
            (a, b) => matches!((a.as_int(), b.as_int()), (Some(x), Some(y)) if x == y),
        }
    }
}

impl Json {
    /// Parse one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Self::parse_spanned(text).map(|(v, _)| v)
    }

    /// [`Json::parse`], also returning the byte range of each member value
    /// of the root object, in member order (empty when the root is not an
    /// object). Lets a caller checksum the exact bytes of one member.
    pub fn parse_spanned(text: &str) -> Result<(Json, Vec<Range<usize>>), JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            root_spans: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok((v, p.root_spans))
    }

    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// A number with an exact non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|v| u64::try_from(v).ok())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Exact integer value of a number (an integral `F64` included).
    fn as_int(&self) -> Option<i128> {
        match *self {
            Json::U64(v) => Some(v.into()),
            Json::I64(v) => Some(v.into()),
            // Saturates far outside the u64/i64 range, where no integer
            // variant can be equal anyway.
            Json::F64(v) if v.fract() == 0.0 => Some(v as i128),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => push_json_f64(out, *v),
            Json::Str(s) => push_json_str(out, s),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse failure with the byte offset it was detected at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Recursive-descent parser. `pos` only ever advances over ASCII bytes or
/// over whole string runs that end at an ASCII delimiter, so it always sits
/// on a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    root_spans: Vec<Range<usize>>,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                Err(self.err(format!("unexpected character {c:?}")))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected \"{word}\"")))
        }
    }

    /// The comma-separated items of an array or object, up to `close`;
    /// the cursor is on the opening bracket and `item` parses one item.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            if p.peek() != Some(b'"') {
                return Err(p.err("expected a string key"));
            }
            let key = p.string()?;
            p.skip_ws();
            if p.peek() != Some(b':') {
                return Err(p.err("expected ':'"));
            }
            p.pos += 1;
            p.skip_ws();
            let start = p.pos;
            let value = p.value()?;
            // Only the root object (depth 1) records its member spans.
            if p.depth == 1 {
                p.root_spans.push(start..p.pos);
            }
            fields.push((key, value));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// A string literal; the cursor is on the opening quote. Unescaped runs
    /// are copied whole, so a non-ASCII character costs O(1).
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence; the cursor is just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must be followed by its low half.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("unpaired low surrogate"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = (v << 4) | d;
        }
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259 number, typed by syntax (see the module docs).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let n = self.digits();
        if n == 0 || (n > 1 && self.bytes[int_start] == b'0') {
            return Err(self.err("malformed number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("malformed number: no digits after '.'"));
            }
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number: no exponent digits"));
            }
            integral = false;
        }
        let tok = &self.text[start..self.pos];
        if integral {
            if let Some(magnitude) = tok.strip_prefix('-') {
                // `-0` stays a float: I64(0) would re-print without the sign.
                if magnitude == "0" {
                    return Ok(Json::F64(-0.0));
                }
                if let Ok(v) = tok.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = tok.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(JsonError {
                offset: start,
                message: format!("number {tok} is out of range"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#" {"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"} "#)
            .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a, [Json::U64(1), Json::F64(2.5), Json::F64(-300.0)]);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
        // Duplicate keys are kept; `get` returns the first.
        let dup = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(dup.as_obj().unwrap().len(), 2);
        assert_eq!(dup.get("k"), Some(&Json::U64(1)));
    }

    #[test]
    fn numbers_are_typed_by_syntax_and_compare_by_value() {
        for (text, want) in [
            ("0", Json::U64(0)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            ("-7", Json::I64(-7)),
            ("2.0", Json::F64(2.0)),
            ("1e3", Json::F64(1000.0)),
            ("18446744073709551616", Json::F64(18446744073709551616.0)),
            ("-9223372036854775809", Json::F64(-9223372036854775809.0)),
            // Underflow rounds to zero like any decimal.
            ("1e-999", Json::F64(0.0)),
        ] {
            let got = Json::parse(text).unwrap();
            let same_variant = std::mem::discriminant(&got) == std::mem::discriminant(&want);
            assert!(same_variant && got == want, "{text}: {got:?}");
        }
        let nz = Json::parse("-0").unwrap();
        assert!(matches!(nz, Json::F64(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(nz.to_json(), "-0");
        assert_eq!(Json::F64(16.0), Json::U64(16));
        assert_eq!(Json::I64(-3), Json::F64(-3.0));
        assert_ne!(Json::F64(2.5), Json::U64(2));
        assert_ne!(Json::F64(f64::NAN), Json::F64(f64::NAN));
        assert_ne!(Json::U64(u64::MAX), Json::F64(18446744073709551616.0));
        assert_eq!(Json::F64(42.0).as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_through_writer() {
        let doc = obj(vec![
            ("name", Json::Str("solve \"quick\"\u{1} — ü 🚀".into())),
            (
                "xs",
                Json::Arr(vec![Json::F64(0.1), Json::F64(2.0), Json::F64(-0.0)]),
            ),
            ("big", Json::U64(u64::MAX)),
            ("neg", Json::I64(i64::MIN)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            ("nested", obj(vec![("e", Json::Arr(Vec::new()))])),
        ]);
        let text = doc.to_json();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), text);
        assert_eq!(Json::F64(f64::INFINITY).to_json(), "null");
        let v = Json::parse(r#""é😀\u00e9\ud83d\ude00\/""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀é😀/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        let structure = [
            "", " ", "nul", "[1,]", "[1, 2", "12 34", "{} x", "{a:1}", "\"open",
        ];
        let members = [r#"{"a": }"#, r#"{"a":1,}"#, r#"{"a" 1}"#, "\"tab\there\""];
        let numbers = [
            "01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "NaN", "0x10", "-1e999",
        ];
        let escapes = [
            r#""\x""#,
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\u12""#,
            r#""\uZZZZ""#,
        ];
        let pairs = [r#""\ud800\u0041""#, r#""\u00é0""#];
        for bad in [&structure[..], &members, &numbers, &escapes, &pairs].concat() {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1e999]").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(err.offset, 1);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past the bound the parser returns instead of overflowing the
        // stack.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn root_member_spans_cover_exact_value_bytes() {
        let text = r#" {"a": [1, {"b": 2}] , "c":"x" ,"d" :null} "#;
        let (v, spans) = Json::parse_spanned(text).unwrap();
        let got: Vec<&str> = spans.iter().map(|r| &text[r.clone()]).collect();
        assert_eq!(got, [r#"[1, {"b": 2}]"#, r#""x""#, "null"]);
        assert_eq!(v.as_obj().unwrap().len(), spans.len());
        assert!(Json::parse_spanned("[{\"a\":1}]").unwrap().1.is_empty());
    }
}
