//! Shared JSON plumbing for the machine-readable surfaces.
//!
//! Three tools speak JSON — the lint report (`symcosim-lint/1`), the
//! session report dump (`symcosim-report/1`) and the coverage certificate
//! (`symcosim-cert/1`) — and all three must be *stable*: fixed field
//! order, fixed formatting, so CI gates and golden files compare
//! byte-for-byte. [`JsonWriter`] is the single emitter they share, and
//! [`header`] stamps the common `schema`/`tool`/`version` preamble.
//!
//! [`JsonValue`] is the matching reader: a minimal recursive-descent
//! parser (std-only, like everything else in the workspace) sufficient
//! for round-tripping our own output — which `symcosim-lint --coverage`
//! does when it re-certifies a dumped session report.

use std::fmt;

/// Tool name stamped into every JSON header.
pub const TOOL: &str = "symcosim";

/// Tool version stamped into every JSON header (the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Minimal pretty-printing JSON emitter with a fixed layout: two-space
/// indentation, one field per line, no trailing spaces — deliberately
/// boring so reports diff cleanly.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has an entry (comma control).
    has_entry: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> JsonWriter {
        JsonWriter::new()
    }
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_entry: Vec::new(),
        }
    }

    /// Terminates the document with a trailing newline and returns it.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn begin_entry(&mut self) {
        if let Some(has_entry) = self.has_entry.last_mut() {
            if *has_entry {
                self.out.push(',');
            }
            *has_entry = true;
        }
        if !self.has_entry.is_empty() {
            self.newline_indent();
        }
    }

    fn key(&mut self, name: &str) {
        self.begin_entry();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\": ");
    }

    /// Opens `{` (top level or after a key written by the caller).
    pub fn open_object(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.has_entry.push(false);
    }

    /// Closes the innermost `}`.
    pub fn close_object(&mut self) {
        let had_entries = self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if had_entries {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Emits `"name": {` — close with [`JsonWriter::close_object`].
    pub fn object_field(&mut self, name: &str) {
        self.key(name);
        self.open_object();
    }

    /// Emits `"name": null`.
    pub fn null_field(&mut self, name: &str) {
        self.key(name);
        self.out.push_str("null");
    }

    /// Emits `"name": "value"` (escaped).
    pub fn string_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.push_json_string(value);
    }

    /// Emits `"name": value` for an unsigned integer.
    pub fn number_field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.out.push_str(&value.to_string());
    }

    /// Emits `"name": value` for a non-negative float, fixed at two
    /// decimals (the precision the benchmark tables print).
    pub fn float_field(&mut self, name: &str, value: f64) {
        self.key(name);
        self.out.push_str(&format!("{value:.2}"));
    }

    /// Emits `"name": true|false`.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Emits `"name": [...]` with `len` elements produced by `emit`
    /// (which writes one value per call via the `*_value` helpers).
    pub fn array_field(
        &mut self,
        name: &str,
        len: usize,
        emit: impl FnMut(&mut JsonWriter, usize),
    ) {
        self.key(name);
        self.array_value(len, emit);
    }

    /// Writes a bare `[...]` value (array element) with `len` elements
    /// produced by `emit` — the nested-array counterpart of
    /// [`JsonWriter::array_field`].
    pub fn array_value(&mut self, len: usize, mut emit: impl FnMut(&mut JsonWriter, usize)) {
        if len == 0 {
            self.out.push_str("[]");
            return;
        }
        self.out.push('[');
        self.indent += 1;
        self.has_entry.push(false);
        for index in 0..len {
            self.begin_entry();
            // The element itself must not re-trigger comma handling.
            let depth = self.has_entry.len();
            self.has_entry.push(false);
            emit(self, index);
            self.has_entry.truncate(depth);
        }
        self.has_entry.pop();
        self.indent -= 1;
        self.newline_indent();
        self.out.push(']');
    }

    /// Writes a bare string value (array element).
    pub fn string_value(&mut self, value: &str) {
        self.push_json_string(value);
    }

    /// Writes a bare unsigned integer value (array element).
    pub fn number_value(&mut self, value: u64) {
        self.out.push_str(&value.to_string());
    }

    /// Writes a bare signed integer value (array element) — used for
    /// DIMACS literals in the audit artifact.
    pub fn int_value(&mut self, value: i64) {
        self.out.push_str(&value.to_string());
    }

    /// Writes an escaped JSON string literal.
    pub fn push_json_string(&mut self, value: &str) {
        self.out.push('"');
        for ch in value.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    #[cfg(test)]
    fn raw(&self) -> &str {
        &self.out
    }
}

/// Writes the shared document header: `schema`, then `tool`, then
/// `version`. Every versioned JSON surface starts with these three fields
/// so consumers can dispatch without sniffing.
pub fn header(w: &mut JsonWriter, schema: &str) {
    w.string_field("schema", schema);
    w.string_field("tool", TOOL);
    w.string_field("version", VERSION);
}

/// A parsed JSON document.
///
/// Numbers keep their source spelling (`Number(String)`) so 64-bit counts
/// round-trip exactly; use [`JsonValue::as_u64`] to read them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source field order.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            text: input,
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != input.len() {
            return Err(parser.error("trailing data after document"));
        }
        Ok(value)
    }

    /// Field lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a signed 64-bit integer, if it is one (DIMACS
    /// literals in the audit artifact are negative for negated atoms).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
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
                _ => return Err(self.error("expected ',' or '}'")),
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        Ok(JsonValue::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.error("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run at once. It starts and
                    // ends next to an ASCII byte (a quote, a backslash or
                    // an escape), and no byte of a multi-byte UTF-8
                    // sequence is ASCII, so both ends are char boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_stable_layout() {
        let mut w = JsonWriter::new();
        w.open_object();
        header(&mut w, "symcosim-cert/1");
        w.bool_field("ok", true);
        w.array_field("xs", 2, |w, i| w.number_value(i as u64));
        w.close_object();
        let text = w.finish();
        assert!(text.starts_with("{\n  \"schema\": \"symcosim-cert/1\""));
        assert!(text.contains("\"tool\": \"symcosim\""));
        assert!(text.ends_with("}\n"));
        // Round-trips through the parser.
        let value = JsonValue::parse(&text).expect("own output parses");
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            value
                .get("xs")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let value =
            JsonValue::parse(r#"{"s": "a\"bA", "n": 4294967295, "z": null}"#).expect("parses");
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some("a\"bA"));
        assert_eq!(
            value.get("n").and_then(JsonValue::as_u64),
            Some(4_294_967_295)
        );
        assert_eq!(value.get("z"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_keeps_multibyte_text_next_to_escapes() {
        let value = JsonValue::parse(r#"["é\n→", "\u00e9x", "日本"]"#).expect("parses");
        let items: Vec<&str> = value
            .as_array()
            .expect("array")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(items, ["é\n→", "éx", "日本"]);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Decoding each character by re-validating the rest of the
        // document made this 1.5 MB string cost some 10^11 byte checks;
        // a linear parse takes milliseconds even unoptimised.
        let body = "aé→".repeat(1 << 18);
        let document = format!("{{\"s\": \"{body}\", \"n\": 1}}");
        assert!(document.len() > 1 << 20);
        let start = std::time::Instant::now();
        let value = JsonValue::parse(&document).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some(&*body));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "a {} byte document took {elapsed:?}",
            document.len()
        );
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("[1,").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn string_escaping_is_json_safe() {
        let mut w = JsonWriter::new();
        w.push_json_string("a\"b\\c\nd\u{1}");
        assert_eq!(w.raw(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
