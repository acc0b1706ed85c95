//! A from-scratch JSON implementation.
//!
//! The paper's workload pipeline (§4, Fig. 5a) converts each execution plan
//! into a JSON document that is stored in the query catalog and consumed by
//! later phases. We reproduce that pipeline, so the workspace needs a JSON
//! value type with a serializer and a parser. The approved dependency set
//! includes `serde` but not `serde_json`, and `serde` alone cannot produce
//! JSON text, so this module implements the format directly: a tree
//! [`Json`] value, a recursive-descent [`parse`], a compact `Display`
//! serializer, and a [`Json::to_pretty_string`] emitter.
//!
//! Object key order is preserved (insertion order) so that emitted plans
//! are deterministic and stable for fingerprinting.

use crate::error::{Error, Result};
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are carried as f64, like JavaScript.
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Insertion-ordered object.
    Object(JsonObject),
}

/// An insertion-ordered JSON object.
///
/// Keys keep the order in which they were first inserted, which keeps
/// serialized plans byte-stable; a `BTreeMap` index provides O(log n)
/// lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, Json)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a key.
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Json)> for JsonObject {
    fn from_iter<T: IntoIterator<Item = (String, Json)>>(iter: T) -> Self {
        let mut obj = JsonObject::new();
        for (k, v) in iter {
            obj.insert(k, v);
        }
        obj
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Shorthand number constructor.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// Borrow as object, if this is one.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as array, if this is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Read as number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Member access for objects: `plan.get("children")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Levels of array and object nesting: 0 for a scalar, 1 for `[]` or
    /// `{}`. [`parse`] reads back exactly the documents of depth at most
    /// [`MAX_DEPTH`].
    pub fn depth(&self) -> usize {
        match self {
            Json::Array(items) => 1 + items.iter().map(Json::depth).max().unwrap_or(0),
            Json::Object(o) => 1 + o.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.value(self);
        w.finish()
    }
}

/// A streaming JSON encoder: values are written straight into one output
/// string as the caller walks its own data, so a large document (a
/// snapshot of the whole service) never exists as a [`Json`] tree.
/// [`Json`]'s own serializers are this writer driven by the tree, so
/// there is one escaper, one number formatter and one layout.
///
/// The caller is trusted to nest correctly: a [`key`](Self::key) before
/// every value inside an object, every `begin_*` closed.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Spaces per nesting level; `None` is the compact form.
    indent: Option<usize>,
    /// One entry per open container: whether it has an item yet.
    open: Vec<bool>,
    /// A key was just written; the next value belongs to it.
    after_key: bool,
}

impl JsonWriter {
    /// Compact output (what `Json::to_string` emits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Two-space indented output (what `Json::to_pretty_string` emits).
    pub fn pretty() -> Self {
        JsonWriter { indent: Some(2), ..Self::default() }
    }

    /// The encoded document.
    pub fn finish(self) -> String {
        self.out
    }

    /// Separator and layout before an array item or an object key.
    #[inline]
    fn next_item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.out.push(',');
            }
            self.newline_indent(self.open.len());
        }
    }

    #[inline]
    fn before_value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.next_item();
        }
    }

    #[inline]
    fn newline_indent(&mut self, depth: usize) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', depth * width));
        }
    }

    #[inline]
    fn begin(&mut self, bracket: char) -> &mut Self {
        self.before_value();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    /// Close the innermost container; an empty one stays `[]` / `{}`.
    #[inline]
    fn end(&mut self, bracket: char) -> &mut Self {
        if self.open.pop() == Some(true) {
            self.newline_indent(self.open.len());
        }
        self.out.push(bracket);
        self
    }

    #[inline]
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    #[inline]
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    #[inline]
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    #[inline]
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// An object key; the next value written is its value.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.next_item();
        self.escaped(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    #[inline]
    pub fn null(&mut self) -> &mut Self {
        self.before_value();
        self.out.push_str("null");
        self
    }

    #[inline]
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn number(&mut self, n: f64) -> &mut Self {
        self.before_value();
        if n.is_nan() || n.is_infinite() {
            // JSON has no NaN/Inf; plans never produce them, but be safe.
            self.out.push_str("null");
        } else if n == n.trunc() && n.abs() < 1e15 {
            let _ = write!(self.out, "{}", n as i64);
        } else {
            let _ = write!(self.out, "{}", n);
        }
        self
    }

    #[inline]
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        self.escaped(s);
        self
    }

    /// A string value that is the concatenation of `parts`, escaped as
    /// it is copied — a tagged value like `t:` + text costs one copy of
    /// the text, into the output.
    #[inline]
    pub fn string_parts(&mut self, parts: &[&str]) -> &mut Self {
        self.before_value();
        self.out.push('"');
        for part in parts {
            escape_into(&mut self.out, part);
        }
        self.out.push('"');
        self
    }

    /// A whole [`Json`] tree as the next value.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Number(n) => self.number(*n),
            Json::String(s) => self.string(s),
            Json::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Json::Object(obj) => {
                self.begin_object();
                for (k, v) in obj.iter() {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }

    #[inline]
    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }
}

/// Append `s` to `out` as JSON string content (no surrounding quotes).
#[inline]
fn escape_into(out: &mut String, s: &str) {
    // Only ASCII bytes are ever escaped, so everything between two of
    // them is copied as one run — for most strings, the whole string.
    let needs_escape = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

impl std::fmt::Display for Json {
    /// Compact serialization (`.to_string()` emits canonical JSON).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = JsonWriter::new();
        w.value(self);
        f.write_str(&w.out)
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, and a request body is parsed before it is
/// routed, so an unbounded depth would let one request exhaust a
/// thread's stack.
pub const MAX_DEPTH: usize = 512;

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::Json(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(Error::Json(format!(
                "expected '{}' at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::Json(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::Json(format!(
                "unexpected byte {:?} at position {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parse an array or object one level deeper, up to [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(Error::Json(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut obj = JsonObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            obj.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(obj)),
                _ => return Err(Error::Json(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(Error::Json(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::Json("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs: if this is a high surrogate, a low
                        // surrogate escape must follow.
                        if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(Error::Json("invalid surrogate pair".into()));
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| Error::Json("invalid code point".into()))?,
                            );
                        } else {
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::Json("invalid code point".into()))?,
                            );
                        }
                    }
                    other => {
                        return Err(Error::Json(format!(
                            "invalid escape {:?}",
                            other.map(|b| b as char)
                        )))
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(Error::Json("truncated UTF-8 sequence".into()));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::Json("invalid UTF-8 in string".into()))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| Error::Json("truncated \\u escape".into()))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::Json("invalid hex digit".into()))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::Json("invalid number".into()))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| Error::Json(format!("invalid number '{text}'")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_plan_like_document() {
        // Shaped like Listing 1 in the paper.
        let doc = r#"{"query":"SELECT * FROM incomes WHERE income > 500000",
            "physicalOp":"Clustered Index Seek","io":0.003125,"rowSize":31,
            "cpu":0.0001603,"numRows":3,
            "filters":["income GT 500000"],
            "children":[],
            "columns":{"incomes":["name","income","position"]}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("physicalOp").unwrap().as_str(), Some("Clustered Index Seek"));
        assert_eq!(v.get("numRows").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("children").unwrap().as_array().unwrap().len(), 0);
        let again = parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let s = v.to_string();
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::str("é"));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert_eq!(parse("\"héllo\"").unwrap(), Json::str("héllo"));
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(parse("-0.5").unwrap().as_f64(), Some(-0.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("2.5E-2").unwrap().as_f64(), Some(0.025));
        assert!(parse("--1").is_err());
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::num(3.0).to_string(), "3");
        assert_eq!(Json::num(3.25).to_string(), "3.25");
    }

    #[test]
    fn nesting_is_capped_not_crashing() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.depth(), MAX_DEPTH);
        assert_eq!(parse(&deepest.to_string()).unwrap(), deepest);
        assert_eq!(parse("{\"a\":[1,{}],\"b\":2}").unwrap().depth(), 3);
        assert_eq!(Json::num(1.0).depth(), 0);
        for doc in [nested(MAX_DEPTH + 1), "[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert_eq!(parse(&doc).unwrap_err().kind(), "json");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut obj = JsonObject::new();
        obj.insert("z", Json::num(1.0));
        obj.insert("a", Json::num(2.0));
        obj.insert("z", Json::num(3.0)); // replace keeps position
        let s = Json::Object(obj).to_string();
        assert_eq!(s, "{\"z\":3,\"a\":2}");
    }

    #[test]
    fn streamed_document_equals_the_tree() {
        let tree = Json::object([
            ("lsn", Json::num(7.0)),
            ("empty", Json::Array(vec![])),
            ("none", Json::Object(JsonObject::new())),
            (
                "rows",
                Json::Array(vec![
                    Json::Array(vec![Json::str("t:a\"b\\\u{1}é"), Json::Null, Json::Bool(true)]),
                    Json::Array(vec![Json::str("i:-5"), Json::num(0.25)]),
                ]),
            ),
            ("nested", Json::object([("k", Json::str("v"))])),
        ]);
        for (mut w, want) in [
            (JsonWriter::new(), tree.to_string()),
            (JsonWriter::pretty(), tree.to_pretty_string()),
        ] {
            w.begin_object();
            w.key("lsn").number(7.0);
            w.key("empty").begin_array().end_array();
            w.key("none").begin_object().end_object();
            w.key("rows").begin_array();
            w.begin_array().string_parts(&["t:", "a\"b\\\u{1}é"]).null().bool(true).end_array();
            w.begin_array().string_parts(&["i:", "-5"]).number(0.25).end_array();
            w.end_array();
            w.key("nested").value(&Json::object([("k", Json::str("v"))]));
            w.end_object();
            assert_eq!(w.finish(), want);
        }
    }

    #[test]
    fn pretty_printing_is_reparseable() {
        let v = Json::object([
            ("op", Json::str("Sort")),
            ("children", Json::Array(vec![Json::object([("op", Json::str("Filter"))])])),
        ]);
        let pretty = v.to_pretty_string();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }
}
