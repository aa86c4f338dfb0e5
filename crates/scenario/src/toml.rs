//! A hand-rolled TOML-subset parser and emitter.
//!
//! Same offline-shim philosophy as `crates/shims`: the build must not
//! touch a registry, so instead of depending on a TOML crate this module
//! implements exactly the subset scenario specs use —
//!
//! * `#` comments and blank lines;
//! * `[table]` / `[nested.table]` headers and `[[array-of-tables]]`;
//! * `key = value` with bare keys;
//! * values: basic `"strings"` (with `\"`/`\\`/`\n`/`\t` escapes),
//!   integers, floats, booleans, and flat arrays of those.
//!
//! No datetimes, no inline tables, no dotted keys, no multi-line
//! strings. The emitter writes documents this parser accepts, floats in
//! shortest round-trip form, so `parse(emit(v)) == v` bit-for-bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer (no decimal point or exponent in the source).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
    /// A table of key → value (also used for `[[...]]` elements).
    Table(Table),
}

/// A TOML table: sorted keys for deterministic emission.
pub type Table = BTreeMap<String, Value>;

/// Parse/emit errors, with a 1-based line number where known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based source line (0 = whole document).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

impl Value {
    /// The string payload, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An integer payload (ints only — floats don't silently truncate).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A float payload (accepts integers, like real TOML readers do).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a document into its root table.
pub fn parse(text: &str) -> Result<Table, TomlError> {
    let mut root = Table::new();
    // Path of the table the next `key = value` lands in.
    let mut current: Vec<String> = Vec::new();
    // Whether `current` names an element of an array-of-tables.
    let mut current_is_aot = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let header = header
                .strip_suffix("]]")
                .ok_or_else(|| err(lineno, "unterminated [[table]] header"))?;
            current = parse_key_path(header, lineno)?;
            current_is_aot = true;
            let arr = lookup_aot(&mut root, &current, lineno)?;
            arr.push(Value::Table(Table::new()));
        } else if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated [table] header"))?;
            current = parse_key_path(header, lineno)?;
            current_is_aot = false;
            // Materialize the table so empty sections round-trip.
            lookup_table(&mut root, &current, lineno)?;
        } else {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got {line:?}")))?;
            let key = key.trim();
            validate_bare_key(key, lineno)?;
            let value = parse_value(value.trim(), lineno)?;
            let table = if current_is_aot {
                let arr = lookup_aot(&mut root, &current, lineno)?;
                match arr.last_mut() {
                    Some(Value::Table(t)) => t,
                    // The [[header]] that set `current_is_aot` pushed a
                    // table; anything else means the document mutated
                    // the key mid-stream — report, never panic.
                    _ => return Err(err(lineno, "array-of-tables element is not a table")),
                }
            } else {
                lookup_table(&mut root, &current, lineno)?
            };
            if table.insert(key.to_string(), value).is_some() {
                return Err(err(lineno, format!("duplicate key {key:?}")));
            }
        }
    }
    Ok(root)
}

/// Strips a `#` comment (respecting `"..."` strings).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            // pamdc-lint: allow(no-panic-parser) -- `i` comes from char_indices, always a char boundary
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn validate_bare_key(key: &str, lineno: usize) -> Result<(), TomlError> {
    if key.is_empty()
        || !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(err(lineno, format!("invalid bare key {key:?}")));
    }
    Ok(())
}

fn parse_key_path(path: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    path.split('.')
        .map(|part| {
            let part = part.trim();
            validate_bare_key(part, lineno)?;
            Ok(part.to_string())
        })
        .collect()
}

/// Walks (creating) nested tables down `path`.
fn lookup_table<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut table = root;
    for part in path {
        let entry = table
            .entry(part.clone())
            .or_insert_with(|| Value::Table(Table::new()));
        table = match entry {
            Value::Table(t) => t,
            _ => return Err(err(lineno, format!("key {part:?} is not a table"))),
        };
    }
    Ok(table)
}

/// Walks to the array-of-tables at `path` (parents created as tables).
fn lookup_aot<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Vec<Value>, TomlError> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| err(lineno, "empty [[table]] header"))?;
    let table = lookup_table(root, parents, lineno)?;
    let entry = table
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(a) => Ok(a),
        _ => Err(err(
            lineno,
            format!("key {last:?} is not an array of tables"),
        )),
    }
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, TomlError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        return parse_string(rest, lineno);
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(lineno, "unterminated array (arrays must be single-line)"))?;
        let mut out = Vec::new();
        for part in split_array_items(body, lineno)? {
            let item = parse_value(part.trim(), lineno)?;
            if matches!(item, Value::Array(_) | Value::Table(_)) {
                return Err(err(lineno, "nested arrays are not supported"));
            }
            out.push(item);
        }
        return Ok(Value::Array(out));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // Number: an integer unless it carries a point, exponent, or is one
    // of the special floats.
    let is_float = text.contains('.')
        || text.contains(['e', 'E'])
        || matches!(text, "inf" | "-inf" | "+inf" | "nan" | "-nan" | "+nan");
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(lineno, format!("invalid float {text:?}")))
    } else {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(lineno, format!("invalid value {text:?}")))
    }
}

/// Parses the remainder of a basic string (opening quote consumed).
fn parse_string(rest: &str, lineno: usize) -> Result<Value, TomlError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let trailing = chars.as_str().trim();
                if !trailing.is_empty() {
                    return Err(err(
                        lineno,
                        format!("trailing content {trailing:?} after string"),
                    ));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                other => return Err(err(lineno, format!("unsupported escape \\{:?}", other))),
            },
            c => out.push(c),
        }
    }
    Err(err(lineno, "unterminated string"))
}

/// Splits an array body on top-level commas (commas inside strings kept).
fn split_array_items(body: &str, lineno: usize) -> Result<Vec<&str>, TomlError> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                // pamdc-lint: allow(no-panic-parser) -- both bounds come from char_indices of `body`
                items.push(&body[start..i]);
                start = i + 1;
            }
            '[' | ']' if !in_string => {
                return Err(err(lineno, "nested arrays are not supported"));
            }
            _ => {}
        }
        escaped = false;
    }
    if in_string {
        return Err(err(lineno, "unterminated string in array"));
    }
    // pamdc-lint: allow(no-panic-parser) -- `start` trails a char_indices comma position
    let tail = &body[start..];
    if !tail.trim().is_empty() {
        items.push(tail);
    } else if !items.is_empty() && body.trim_end().ends_with(',') {
        // Trailing comma: fine, nothing to push.
    }
    Ok(items)
}

/// Emits a root table as a document this module's parser accepts.
///
/// Scalars first (sorted), then `[section]` subtables, then
/// `[[section]]` arrays-of-tables; arrays of scalars stay inline.
pub fn emit(root: &Table) -> String {
    let mut out = String::new();
    emit_table(&mut out, root, &mut Vec::new());
    out
}

fn is_aot(v: &Value) -> bool {
    match v {
        Value::Array(items) => {
            !items.is_empty() && items.iter().all(|i| matches!(i, Value::Table(_)))
        }
        _ => false,
    }
}

fn emit_table(out: &mut String, table: &Table, path: &mut Vec<String>) {
    // 1. Scalars and scalar arrays.
    for (key, value) in table {
        if matches!(value, Value::Table(_)) || is_aot(value) {
            continue;
        }
        let _ = writeln!(out, "{key} = {}", emit_scalar(value));
    }
    // 2. Subtables.
    for (key, value) in table {
        if let Value::Table(sub) = value {
            path.push(key.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", path.join("."));
            emit_table(out, sub, path);
            path.pop();
        }
    }
    // 3. Arrays of tables.
    for (key, value) in table {
        if !is_aot(value) {
            continue;
        }
        // `is_aot` just vouched for the shapes below; the `else`
        // branches keep the emitter total instead of trusting it.
        let Value::Array(items) = value else {
            continue;
        };
        path.push(key.clone());
        for item in items {
            let Value::Table(sub) = item else {
                continue;
            };
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[[{}]]", path.join("."));
            emit_table(out, sub, path);
        }
        path.pop();
    }
}

/// One value in wire form: a string quoted and escaped, an array on
/// one line. Tables are emitted as sections, never as scalars.
pub fn emit_scalar(value: &Value) -> String {
    match value {
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Float(f) => emit_float(*f),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(emit_scalar).collect();
            format!("[{}]", inner.join(", "))
        }
        // pamdc-lint: allow(no-panic-parser) -- emitter invariant (callers route tables to sections), not input-driven
        Value::Table(_) => unreachable!("tables are emitted as sections"),
    }
}

/// Shortest round-trip float form, always re-parsable as a float.
fn emit_float(f: f64) -> String {
    if f.is_nan() {
        return "nan".into();
    }
    if f.is_infinite() {
        return if f > 0.0 { "inf".into() } else { "-inf".into() };
    }
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_aot() {
        let doc = r#"
# a comment
name = "fig4"   # trailing comment
seed = 4
scale = 1.5
on = true
list = [1, 2, 3]

[run]
hours = 24

[policy.inner]
kind = "bestfit"

[[faults]]
pm = 0
at_min = 30.5

[[faults]]
pm = 1
"#;
        let t = parse(doc).expect("parse");
        assert_eq!(t["name"], Value::Str("fig4".into()));
        assert_eq!(t["seed"], Value::Int(4));
        assert_eq!(t["scale"], Value::Float(1.5));
        assert_eq!(t["on"], Value::Bool(true));
        assert_eq!(
            t["list"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        fn table(v: &Value) -> &Table {
            match v {
                Value::Table(t) => t,
                other => panic!("not a table: {other:?}"),
            }
        }
        assert_eq!(table(&t["run"])["hours"], Value::Int(24));
        let inner = table(&table(&t["policy"])["inner"]);
        assert_eq!(inner["kind"], Value::Str("bestfit".into()));
        let Value::Array(faults) = &t["faults"] else {
            panic!("[[faults]] is an array")
        };
        assert_eq!(faults.len(), 2);
        assert_eq!(table(&faults[0])["at_min"], Value::Float(30.5));
    }

    #[test]
    fn strings_support_escapes_and_hashes() {
        let t = parse(r#"s = "a # not a comment \"q\" \n\t\\""#).unwrap();
        assert_eq!(t["s"], Value::Str("a # not a comment \"q\" \n\t\\".into()));
    }

    #[test]
    fn emit_parse_round_trips() {
        let doc = r#"
name = "multi \"dc\""
seed = 99
scale = 0.30000000000000004
weights = [0.1, 0.55, 1e-9]
flags = [true, false]

[run]
hours = 6
tick_secs = 60

[[faults]]
pm = 0
at_min = 30
"#;
        let t = parse(doc).unwrap();
        let emitted = emit(&t);
        let reparsed = parse(&emitted).expect("reparse");
        assert_eq!(t, reparsed);
        // Emission is a fixed point.
        assert_eq!(emitted, emit(&reparsed));
    }

    #[test]
    fn float_forms_survive() {
        for f in [0.1, 1.0, -3.25e-7, f64::MAX, f64::MIN_POSITIVE, 1e300] {
            let s = emit_float(f);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
        assert_eq!(emit_float(1.0), "1.0");
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse("x = ").unwrap_err().line, 1);
        assert_eq!(parse("\n\n[bad").unwrap_err().line, 3);
        assert!(parse("x = 1\nx = 2")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse("x = [[1]]").is_err());
        assert!(parse("x = \"unterminated").is_err());
        assert!(parse("weird key = 1").is_err());
    }

    #[test]
    fn empty_sections_materialize() {
        let t = parse("[empty]\n[other]\nx = 1").unwrap();
        assert!(matches!(&t["empty"], Value::Table(e) if e.is_empty()));
    }
}
