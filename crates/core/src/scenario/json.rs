//! A minimal, deterministic JSON value — the serialization substrate of
//! the scenario layer.
//!
//! The workspace builds hermetically, with no serialization crate (the
//! vendored `serde` is a no-op stand-in nothing derives, see
//! `vendor/README.md`), so the spec/report types serialize through this
//! hand-rolled tree. Two properties matter more than generality here:
//!
//! * **byte stability** — object keys keep insertion order and numbers
//!   render via Rust's shortest-round-trip `f64` formatting, so the same
//!   [`crate::scenario::Report`] always renders to the same bytes (the
//!   golden-fixture and cross-`SYNTS_THREADS` determinism tests rely on
//!   this);
//! * **full round-trip** — the parser accepts everything the writer
//!   emits (and standard JSON generally), so committed spec files are
//!   plain JSON editable by hand.
//!
//! The parser recurses once per array or object, so it refuses a
//! document nested deeper than 64 levels rather than let one request
//! overflow a connection thread's stack. The deepest document the system
//! writes nests 8 levels (a report), or 9 inside a journal record.

use std::fmt::Write as _;

use crate::error::OptError;

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value tree. Object fields keep insertion order (no map
/// re-sorting), which is what makes rendering deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder starting empty.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (no-op with a debug assert on other
    /// variants).
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        } else {
            debug_assert!(false, "field() on a non-object");
        }
        self
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array value from any collection of elements.
    #[must_use]
    pub fn arr(items: impl Into<Vec<Json>>) -> Json {
        Json::Arr(items.into())
    }

    /// A number value.
    #[must_use]
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// Field lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u32::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation — the format of
    /// committed spec files and golden report fixtures.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must be a single value plus whitespace).
    ///
    /// # Errors
    ///
    /// [`OptError::Spec`] with a line and column on malformed input or
    /// on nesting deeper than 64 levels.
    pub fn parse(src: &str) -> Result<Json, OptError> {
        let mut p = Parser {
            src,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest-round-trip formatting: deterministic, and the
        // parser recovers the identical f64.
        let _ = write!(out, "{x}");
    } else {
        // JSON has no NaN/Inf; `null` is the least-surprising stand-in.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    /// The document; valid UTF-8, since [`Json::parse`] takes `&str`.
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> OptError {
        // Report line:column, not a raw byte offset — remote clients see
        // this string verbatim and spec files are edited by hand.
        let mut line = 1usize;
        let mut col = 1usize;
        for &b in &self.src.as_bytes()[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        OptError::Spec(format!("json (line {line}, column {col}): {message}"))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), OptError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, OptError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, OptError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing the level
    /// past `MAX_DEPTH` before it recurses.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, OptError>) -> Result<Json, OptError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, OptError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, OptError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, OptError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .src
                                .get(self.pos..end)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos = end;
                            // Surrogates are rejected rather than paired:
                            // the writer never emits them and spec files
                            // have no use for astral escapes split in two.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => {
                    self.pos -= 1;
                    return Err(self.err("unescaped control character"));
                }
                _ => {
                    // A run of plain bytes, copied as one slice. `"`, `\`
                    // and control characters are ASCII, and no byte of a
                    // multi-byte UTF-8 sequence is ASCII, so the run ends
                    // on a character boundary.
                    let start = self.pos - 1;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, OptError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `levels` arrays (`open` = `[`) or objects, each the only element
    /// of the one around it.
    fn nest(open: &str, levels: usize) -> String {
        let (empty, close) = if open == "[" {
            ("[]", "]")
        } else {
            ("{}", "}")
        };
        format!(
            "{}{empty}{}",
            open.repeat(levels - 1),
            close.repeat(levels - 1)
        )
    }

    #[test]
    fn round_trips_typical_documents() {
        for src in [
            r#"{"a":1,"b":[true,false,null],"c":"x\ny","d":-0.5,"e":{}}"#,
            r#"[1e3,2.5E-2,0.125,17]"#,
            r#""just a string""#,
            "[]",
            "{}",
            &nest("[", 64),
            &nest("{\"k\":", 64),
            &format!("[{}]", vec![nest("[", 63); 3].join(",")),
        ] {
            let parsed = Json::parse(src).expect(src);
            let rendered = parsed.render();
            assert_eq!(Json::parse(&rendered).expect("re-parses"), parsed, "{src}");
        }
    }

    #[test]
    fn numbers_render_shortest_round_trip() {
        for x in [0.0, 1.0, -3.5, 0.1, 1e30, 123456789.0, 1.0 / 3.0] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered)
                .expect("parses")
                .as_f64()
                .expect("num");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {rendered}");
        }
    }

    #[test]
    fn object_field_order_is_preserved() {
        let j = Json::obj()
            .field("zebra", Json::num(1.0))
            .field("alpha", Json::num(2.0));
        assert_eq!(j.render(), r#"{"zebra":1,"alpha":2}"#);
    }

    #[test]
    fn pretty_rendering_is_parseable_and_stable() {
        let j = Json::obj()
            .field("name", Json::str("fig"))
            .field("grid", Json::Arr(vec![Json::num(1.0), Json::num(2.0)]));
        let pretty = j.render_pretty();
        assert!(pretty.contains("\n  \"name\": \"fig\""), "{pretty}");
        assert_eq!(Json::parse(&pretty).expect("parses"), j);
    }

    #[test]
    fn rejects_malformed_input() {
        for src in [
            "{",
            "[1,",
            "\"unterminated",
            "01x",
            "{\"a\" 1}",
            "[1] 2",
            "tru",
            &nest("[", 65),
            &nest("{\"k\":", 65),
            &"[".repeat(100_000),
        ] {
            assert!(Json::parse(src).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn parse_errors_name_line_and_column() {
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\": oops\n}").expect_err("bad literal");
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("column 8"), "{msg}");
        let err = Json::parse("[1, 2,]").expect_err("trailing comma");
        assert!(err.to_string().contains("line 1"), "{err}");
        // The 65th level is refused where it opens.
        let err = Json::parse(&nest("[", 65)).expect_err("65 levels");
        let msg = err.to_string();
        assert!(
            msg.contains("line 1, column 65): nested deeper than 64 levels"),
            "{msg}"
        );
        let err = Json::parse(&format!("[1,\n {}]", nest("{\"a\":", 64))).expect_err("65 levels");
        let msg = err.to_string();
        assert!(msg.contains("line 2, column 317): nested deeper"), "{msg}");
    }

    #[test]
    fn multi_byte_characters_parse_whole() {
        let src = "{\"k\": \"£ naïve – ∑ 🚀\", \"é\": [\"x\\ny😀\", \"\\u00e9\"]}";
        let j = Json::parse(src).expect("parses");
        assert_eq!(j.get("k").and_then(Json::as_str), Some("£ naïve – ∑ 🚀"));
        let arr = j.get("é").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_str(), Some("x\ny😀"));
        assert_eq!(arr[1].as_str(), Some("é"));
        assert_eq!(Json::parse(&j.render()).expect("round trip"), j);
        // Four bytes after \u that end inside a character are a truncated
        // escape; four that hold a whole non-hex character are invalid.
        let err = Json::parse("\"\\u0😀\"").expect_err("cut escape");
        assert!(err.to_string().contains("truncated \\u escape"), "{err}");
        let err = Json::parse("\"\\u00é\"").expect_err("non-hex escape");
        assert!(err.to_string().contains("invalid \\u escape"), "{err}");
    }

    #[test]
    fn unescaped_control_characters_are_refused_where_they_stand() {
        let err = Json::parse("[\"ab\u{1}c\"]").expect_err("control character");
        let msg = err.to_string();
        assert!(msg.contains("unescaped control character"), "{msg}");
        assert!(msg.contains("line 1, column 5"), "{msg}");
        let err = Json::parse("\"two\nlines\"").expect_err("raw newline");
        assert!(err.to_string().contains("column 5"), "{err}");
        for src in [
            "\"open",
            "\"esc\\",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\uzzzz\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(src).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode £";
        let rendered = Json::str(s).render();
        assert_eq!(
            Json::parse(&rendered).expect("parses").as_str(),
            Some(s),
            "{rendered}"
        );
    }
}
