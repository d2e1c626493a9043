//! A minimal self-contained manifest document model.
//!
//! Fleet manifests are flat two-level documents — named sections of
//! scalar or array values — written in a TOML subset. The build
//! environment is fully offline and the workspace vendors no
//! serde/toml stack, so this module carries its own line-oriented
//! reader producing a [`Document`] tree. The subset is deliberately
//! small (no nested tables, no multi-line strings, no datetimes);
//! `manifests/fleet_smoke.toml` shows everything the grammar supports.

use std::collections::BTreeMap;
use std::fmt;

/// A scalar or array manifest value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal (no decimal point or exponent). Wide enough
    /// for the full `u64` fleet-seed range *and* negative sentinels.
    Int(i128),
    /// Float literal.
    Float(f64),
    /// Quoted string.
    Str(String),
    /// `[v, v, ...]` — heterogeneous arrays are allowed (an axis may
    /// mix `-1.0` "no crash" sentinels with crash times).
    Array(Vec<Value>),
}

impl Value {
    /// Renders the value the way a manifest would write it — used as
    /// the per-axis label in fleet reports (`loss=0.1`,
    /// `forwarding=broadcast`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => s.clone(),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::label).collect();
                format!("[{}]", inner.join(","))
            }
        }
    }

    /// The value as an `f64`, accepting both int and float literals.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parsed manifest: `section name → key → value`, both levels in
/// sorted (`BTreeMap`) order so iteration is deterministic regardless
/// of declaration order in the source file.
pub type Document = BTreeMap<String, BTreeMap<String, Value>>;

/// A manifest syntax or validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description, with a line number for TOML input.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Parses the TOML subset: `[section]` headers, `key = value` lines,
/// `#` comments, single-line arrays.
pub fn parse(text: &str) -> Result<Document, ParseError> {
    let mut doc = Document::new();
    let mut section: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return err(format!("line {lineno}: unterminated section header"));
            };
            let name = name.trim();
            if name.is_empty() || name.contains('.') {
                return err(format!(
                    "line {lineno}: section names are single-level identifiers"
                ));
            }
            section = Some(name.to_owned());
            doc.entry(name.to_owned()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("line {lineno}: expected `key = value`"));
        };
        let Some(section) = section.as_ref() else {
            return err(format!("line {lineno}: `key = value` before any [section]"));
        };
        let key = key.trim();
        if key.is_empty() {
            return err(format!("line {lineno}: empty key"));
        }
        let mut scanner = Scanner::new(value.trim());
        let parsed = scanner.value().map_err(|e| ParseError {
            message: format!("line {lineno}: {}", e.message),
        })?;
        scanner.skip_ws();
        if !scanner.done() {
            return err(format!("line {lineno}: trailing characters after value"));
        }
        let entries = doc.entry(section.clone()).or_default();
        if entries.insert(key.to_owned(), parsed).is_some() {
            return err(format!("line {lineno}: duplicate key `{key}`"));
        }
    }
    Ok(doc)
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Character-level scanner for the value grammar.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            err(format!("expected `{}`", b as char))
        }
    }

    /// Parses one scalar or array value.
    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => err("expected a value"),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b't' | b'f') => self.boolean(),
            Some(b'-' | b'+' | b'0'..=b'9') => self.number(),
            Some(other) => err(format!("unexpected character `{}`", other as char)),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return err("unsupported escape sequence"),
                },
                Some(b) => out.push(b as char),
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, ParseError> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Value::Bool(value));
            }
        }
        err("expected `true` or `false`")
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'-' | b'+')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("scanned ascii")
            .replace('_', "");
        if is_float {
            match text.parse::<f64>() {
                Ok(f) => Ok(Value::Float(f)),
                Err(_) => err(format!("malformed float `{text}`")),
            }
        } else {
            match text.parse::<i128>() {
                Ok(i) if i64::try_from(i).is_ok() || u64::try_from(i).is_ok() => Ok(Value::Int(i)),
                _ => err(format!("malformed integer `{text}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {}
                _ => return err("expected `,` or `]` in array"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# a fleet manifest
[fleet]
name = "smoke"     # trailing comment
seed = 7
homes_per_config = 2

[base]
loss = 0.0
durable = false
receivers = 1

[axes]
loss = [0.0, 0.1]
forwarding = ["ring", "broadcast"]
crash_at_secs = [-1.0, 5.0]
"#;

    #[test]
    fn toml_subset_round_trip() {
        let doc = parse(TOML).unwrap();
        assert_eq!(doc["fleet"]["name"], Value::Str("smoke".into()));
        assert_eq!(doc["fleet"]["seed"], Value::Int(7));
        assert_eq!(doc["base"]["loss"], Value::Float(0.0));
        assert_eq!(doc["base"]["durable"], Value::Bool(false));
        let crash = doc["axes"]["crash_at_secs"].as_array().unwrap();
        assert_eq!(crash, &[Value::Float(-1.0), Value::Float(5.0)]);
        let modes = doc["axes"]["forwarding"].as_array().unwrap();
        assert_eq!(modes[1], Value::Str("broadcast".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("[fleet]\nseed 7\n").unwrap_err();
        assert!(e.message.contains("line 2"), "{e}");
        let e = parse("seed = 7\n").unwrap_err();
        assert!(e.message.contains("before any [section]"), "{e}");
        let e = parse("[fleet]\nseed = 7\nseed = 8\n").unwrap_err();
        assert!(e.message.contains("duplicate key"), "{e}");
        // Manifests are TOML only: a JSON document is not special-cased.
        let e = parse("{\"fleet\": {\"seed\": 7}}").unwrap_err();
        assert!(e.message.contains("line 1: expected `key = value`"), "{e}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse("[a]\nname = \"has # hash\"\n").unwrap();
        assert_eq!(doc["a"]["name"], Value::Str("has # hash".into()));
    }

    #[test]
    fn labels_render_like_the_manifest() {
        assert_eq!(Value::Float(0.1).label(), "0.1");
        assert_eq!(Value::Int(5).label(), "5");
        assert_eq!(Value::Str("ring".into()).label(), "ring");
        assert_eq!(Value::Bool(true).label(), "true");
    }
}
