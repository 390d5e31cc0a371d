//! The workspace's one JSON value type, [`Json`]: every document the
//! program reads or writes goes through it — experiment artifacts,
//! `xbar-svc/1` protocol lines, shard partials, `campaign.json` manifests
//! and merged stats (the workspace deliberately carries no serde).
//!
//! Numbers are kept as **raw text** in both directions: routing a `u64`
//! seed through `f64` would corrupt values above 2^53, and `f64`s written
//! with Rust's shortest-round-trip representation parse back to the
//! identical bits only when the text is handed to `str::parse::<f64>`
//! untouched. Objects keep their fields in insertion order, so a parsed
//! document re-renders to the bytes it was read from.
//!
//! Parser input can come from the network (protocol lines, remote
//! partial streams), so malformed input — duplicate keys, nesting deeper
//! than 128 levels, truncation — is a [`JsonError`], never a panic.

use std::collections::HashSet;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. Far above
/// any document the program writes (artifacts nest about five levels),
/// and low enough that the recursive parser stays well inside a default
/// thread stack whatever a peer sends.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as raw text (build with [`Json::u64`] / [`Json::f64`]).
    Num(String),
    /// A string (escapes decoded; escaped again on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: unique keys, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse error: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing garbage after document"));
        }
        Ok(value)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.parse_num()
    }

    /// The value as a `usize`, when it is an unsigned integer number.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.parse_num()
    }

    /// The value as an `f64`, when it is a number. Bit-exact for numbers
    /// written with Rust's `Display`/`Debug` shortest representation.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.parse_num()
    }

    fn parse_num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A `u64` number (decimal raw text; lossless above 2^53).
    #[must_use]
    pub fn u64(value: u64) -> Self {
        Json::Num(value.to_string())
    }

    /// A `usize` number.
    #[must_use]
    pub fn usize(value: usize) -> Self {
        Json::Num(value.to_string())
    }

    /// An `f64` number in shortest-round-trip form.
    ///
    /// # Panics
    ///
    /// Panics on NaN/Infinity — JSON has no literal for them, and every
    /// value that reaches a document must stay finite.
    #[must_use]
    pub fn f64(value: f64) -> Self {
        assert!(value.is_finite(), "artifact numbers must stay NaN/Inf-free");
        Json::Num(format!("{value:?}"))
    }

    /// A string value.
    #[must_use]
    pub fn str(value: impl Into<String>) -> Self {
        Json::Str(value.into())
    }

    /// An object from `(key, value)` pairs, preserving their order.
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys — a duplicate silently shadowing a field
    /// is exactly the kind of schema bug a written document must not
    /// carry (the parser rejects duplicates too).
    #[must_use]
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        let fields: Vec<(String, Json)> = fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        let mut seen = HashSet::with_capacity(fields.len());
        for (key, _) in &fields {
            assert!(seen.insert(key.as_str()), "duplicate object key {key:?}");
        }
        Json::Obj(fields)
    }

    /// An array from values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Renders the value as fully-expanded pretty JSON (2-space
    /// indentation, one field/element per line, no trailing newline) —
    /// the `xbar-artifact/1` layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Renders the value on a single line (`": "` after keys, `", "`
    /// between fields/elements) — the wire form of the `xbar-svc/1`
    /// protocol, still readable enough that smoke tests can grep for
    /// `"cache_hits": 1` verbatim.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders an object in the campaign-document layout (shard
    /// partials, `campaign.json`, merged stats): top-level fields one per
    /// line, an array of objects one compact element per line, every
    /// other value compact, and a trailing newline.
    #[must_use]
    pub fn render_document(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(fields) => write_seq(&mut out, "{}", fields, Some(0), |out, (key, value)| {
                write_key(out, key);
                match value {
                    Json::Arr(items) if items.iter().all(|item| matches!(item, Json::Obj(_))) => {
                        write_seq(out, "[]", items, Some(1), |out, item| item.write(out, None));
                    }
                    other => other.write(out, None),
                }
            }),
            other => other.write(&mut out, None),
        }
        out.push('\n');
        out
    }

    /// Writes the value compact (`indent` `None`) or pretty at nesting
    /// level `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, "[]", items, indent, |out, item| {
                item.write(out, inner);
            }),
            Json::Obj(fields) => write_seq(out, "{}", fields, indent, |out, (key, value)| {
                write_key(out, key);
                value.write(out, inner);
            }),
        }
    }
}

/// Writes `items` between the two bracket characters of `brackets`:
/// `", "`-separated on one line when `indent` is `None`, else one item
/// per line indented one level deeper than `indent`. Empty sequences
/// render as the bare brackets either way.
fn write_seq<T>(
    out: &mut String,
    brackets: &str,
    items: &[T],
    indent: Option<usize>,
    mut write_item: impl FnMut(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        match indent {
            None if i > 0 => out.push_str(", "),
            None => {}
            Some(level) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                write_indent(out, level + 1);
            }
        }
        write_item(out, item);
    }
    if let (Some(level), false) = (indent, items.is_empty()) {
        out.push('\n');
        write_indent(out, level);
    }
    out.push_str(close);
}

fn write_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push_str(": ");
}

/// Writes a quoted, escaped JSON string (covering the control characters
/// JSON requires).
fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// A cursor over the input bytes. The input is a `&str`, so the byte
/// stream is valid UTF-8 by construction.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    /// Consumes `byte` (after whitespace) when it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(&format!("expected {what}")));
        }
        Ok(())
    }

    /// One value at nesting `depth` (the number of enclosing containers).
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent digits")?;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(Json::Num(raw.to_owned()))
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("valid utf8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        // A key set, not a scan of `fields`: a peer-sent object with many
        // keys must not cost quadratic time.
        let mut seen = HashSet::new();
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth)?;
            if !seen.insert(key.clone()) {
                return Err(self.err("duplicate object key"));
            }
            fields.push((key, value));
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn u64_seeds_above_2_pow_53_survive() {
        let seed = u64::MAX - 7;
        let doc = format!("{{\"seed\": {seed}}}");
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_shortest_repr_roundtrips_bitwise() {
        for x in [
            0.1_f64,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.797_693_134_862_315_7e308,
            2.2e-308,
            123_456_789.123_456_78,
        ] {
            let doc = format!("{{\"x\": {x}}}");
            let v = Json::parse(&doc).expect("parses");
            let back = v.get("x").unwrap().as_f64().expect("number");
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn truncated_document_reports_an_error() {
        for doc in ["{\"a\": [1, 2", "{\"a\"", "[1,", "\"abc", "{\"a\": 1} x"] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn objects_keep_insertion_order_through_a_parse() {
        let text = r#"{"z": 1, "a": {"y": [], "b": {}}, "m": "s"}"#;
        let doc = Json::parse(text).expect("parses");
        let Json::Obj(fields) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(doc.render_compact(), text);
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_a_typed_error() {
        // Deep enough to overflow a default thread stack if the recursive
        // parser followed it; it must stop at MAX_DEPTH instead.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).expect_err("must fail");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\": ".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn writer_renders_deterministic_insertion_ordered_documents() {
        let doc = Json::obj([
            ("schema", Json::str("demo/1")),
            ("seed", Json::u64(u64::MAX - 7)),
            ("rate", Json::f64(0.1)),
            (
                "items",
                Json::arr([Json::usize(3), Json::Bool(true), Json::Null]),
            ),
            ("empty_obj", Json::obj::<String>([])),
            ("empty_arr", Json::arr([])),
        ]);
        let text = doc.render();
        // Insertion order preserved: schema renders first.
        assert!(text.starts_with("{\n  \"schema\": \"demo/1\",\n"));
        assert!(text.contains("\"empty_obj\": {}"));
        assert!(text.contains("\"empty_arr\": []"));
        // Round-trips through the raw-text-preserving parser.
        let back = Json::parse(&text).expect("rendered document parses");
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX - 7));
        assert_eq!(
            back.get("rate").unwrap().as_f64().unwrap().to_bits(),
            0.1f64.to_bits()
        );
        // Deterministic: rendering twice yields identical bytes, and the
        // parse gives back the same tree.
        assert_eq!(doc.render(), text);
        assert_eq!(back, doc);
    }

    #[test]
    fn writer_numbers_roundtrip_bitwise() {
        for x in [0.1_f64, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 2.2e-308] {
            let text = Json::obj([("x", Json::f64(x))]).render();
            let back = Json::parse(&text).expect("parses");
            assert_eq!(
                back.get("x").unwrap().as_f64().unwrap().to_bits(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn compact_rendering_is_single_line_and_reparses() {
        let doc = Json::obj([
            ("svc", Json::str("xbar-svc/1")),
            ("type", Json::str("stats")),
            ("cache_hits", Json::u64(1)),
            ("jobs", Json::arr([Json::usize(1), Json::usize(2)])),
            ("empty_obj", Json::obj::<String>([])),
            ("note", Json::str("line\nbreak")),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "wire form must stay on one line");
        assert!(line.contains("\"cache_hits\": 1"), "greppable stats field");
        assert!(line.contains("\"jobs\": [1, 2]"));
        assert!(line.contains("\"empty_obj\": {}"));
        let back = Json::parse(&line).expect("compact form reparses");
        assert_eq!(back.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(back.get("note").unwrap().as_str(), Some("line\nbreak"));
        // Pretty and compact forms agree on content.
        assert_eq!(Json::parse(&doc.render()).unwrap(), back);
    }

    #[test]
    fn document_layout_puts_fields_and_object_elements_on_their_own_lines() {
        let doc = Json::obj([
            ("schema", Json::str("demo/1")),
            ("shard", Json::obj([("index", Json::usize(1))])),
            ("names", Json::arr([Json::str("a"), Json::str("b")])),
            (
                "rows",
                Json::arr([
                    Json::obj([("n", Json::usize(1))]),
                    Json::obj([("n", Json::usize(2))]),
                ]),
            ),
        ]);
        let text = doc.render_document();
        assert_eq!(
            text,
            "{\n  \"schema\": \"demo/1\",\n  \"shard\": {\"index\": 1},\n  \
             \"names\": [\"a\", \"b\"],\n  \"rows\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap().render_document(), text);
    }

    #[test]
    #[should_panic(expected = "duplicate object key")]
    fn writer_rejects_duplicate_keys() {
        let _ = Json::obj([("a", Json::Null), ("a", Json::Null)]);
    }

    #[test]
    #[should_panic(expected = "NaN/Inf-free")]
    fn writer_rejects_nan() {
        let _ = Json::f64(f64::NAN);
    }

    #[test]
    fn escape_covers_quotes_and_controls() {
        let text = "a\"b\\c\n\u{1}";
        let line = Json::str(text).render_compact();
        assert_eq!(line, "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some(text));
    }
}
