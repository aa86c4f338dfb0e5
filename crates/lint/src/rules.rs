//! The rule catalog. Each rule returns raw [`Violation`]s; suppression
//! handling lives in the driver (`lib.rs`), so a rule never needs to
//! know about `allow` comments.
//!
//! Rules 1–3 are token scans over the blanked code channel of
//! [`SourceFile`]; rule 4 is a cross-file consistency check that
//! parses one anchor file and compares it against golden snapshots.
//! See `docs/LINTING.md` for the catalog rationale.

use crate::source::SourceFile;
use crate::Violation;

/// Rule 1: wall-clock confinement.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule 2: no unordered maps in emit paths.
pub const UNORDERED_EMIT: &str = "unordered-emit";
/// Rule 3: no-panic parser contract.
pub const NO_PANIC_PARSER: &str = "no-panic-parser";
/// Rule 4: obs metric-count arithmetic matches the golden blocks.
pub const OBS_SCHEMA: &str = "obs-schema";

/// Every suppressible rule id.
pub const ALL_RULES: [&str; 4] = [WALL_CLOCK, UNORDERED_EMIT, NO_PANIC_PARSER, OBS_SCHEMA];

fn violation(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.rel.clone(),
        line,
        rule,
        message,
    }
}

/// Is `code[idx..idx+len]` a standalone token? Boundaries are only
/// enforced on sides where the token itself ends in an identifier char
/// (so `Counter::` happily matches right before a variant name).
fn is_word(code: &str, idx: usize, len: usize) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let tok = &code[idx..idx + len];
    let before_ok = !tok.chars().next().is_some_and(ident)
        || !code[..idx].chars().next_back().is_some_and(ident);
    let after_ok = !tok.chars().next_back().is_some_and(ident)
        || !code[idx + len..].chars().next().is_some_and(ident);
    before_ok && after_ok
}

/// All word-boundary occurrences of `token` in `code`.
fn word_hits(code: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let idx = from + pos;
        if is_word(code, idx, token.len()) {
            hits.push(idx);
        }
        from = idx + token.len();
    }
    hits
}

/// Rule 1 — wall-clock confinement: `Instant::now` / `SystemTime` /
/// `thread::sleep` may only appear in the allowlisted files (serve
/// daemon, obs wall-clock seams, bench harnesses, the criterion shim).
/// Test code is exempt: tests may time whatever they like.
pub fn wall_clock(file: &SourceFile) -> Vec<Violation> {
    const TOKENS: [&str; 3] = ["Instant::now", "SystemTime", "thread::sleep"];
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for token in TOKENS {
            if !word_hits(&line.code, token).is_empty() {
                out.push(violation(
                    file,
                    i + 1,
                    WALL_CLOCK,
                    format!(
                        "`{token}` outside the wall-clock allowlist; route through \
                         `pamdc_obs::clock` or extend the allowlist in pamdc-lint"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 2 — determinism of emission: report/metric/spec-emitter modules
/// must not touch `HashMap`/`HashSet`, whose iteration order would leak
/// into golden-pinned output. `BTreeMap`/`BTreeSet` are the sanctioned
/// ordered replacements.
pub fn unordered_emit(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for token in ["HashMap", "HashSet"] {
            if !word_hits(&line.code, token).is_empty() {
                out.push(violation(
                    file,
                    i + 1,
                    UNORDERED_EMIT,
                    format!(
                        "`{token}` in an emit-path module: iteration order would reach \
                         golden-pinned output; use BTreeMap/BTreeSet"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 3 — no-panic parser contract: streaming parsers meet hostile
/// input, so `unwrap()` / `expect(` / `panic!` / `unreachable!` /
/// `todo!` / `unimplemented!` and direct subscript indexing are banned
/// outside `#[cfg(test)]`. (`assert!` guards on *caller* contracts are
/// allowed — the contract is about input-driven panics.)
pub fn no_panic_parser(file: &SourceFile) -> Vec<Violation> {
    const CALLS: [&str; 2] = [".unwrap()", ".expect("];
    const MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let code = &line.code;
        for call in CALLS {
            // The leading `.` and trailing `(`/`)` make the plain
            // substring exact: `.unwrap_or()` / `.expect_err(` differ
            // before the delimiter and cannot match.
            if code.contains(call) {
                let name = call.trim_start_matches('.').trim_end_matches(['(', ')']);
                out.push(violation(
                    file,
                    i + 1,
                    NO_PANIC_PARSER,
                    format!("`{name}` in a no-panic parser; return a parse error instead"),
                ));
            }
        }
        for mac in MACROS {
            for idx in word_hits(code, &mac[..mac.len() - 1]) {
                if code[idx + mac.len() - 1..].starts_with('!') {
                    out.push(violation(
                        file,
                        i + 1,
                        NO_PANIC_PARSER,
                        format!("`{mac}` in a no-panic parser; return a parse error instead"),
                    ));
                }
            }
        }
        for col in subscript_sites(code) {
            out.push(violation(
                file,
                i + 1,
                NO_PANIC_PARSER,
                format!(
                    "direct indexing at column {} in a no-panic parser; \
                     use get()/slice patterns or justify with an allow",
                    col + 1
                ),
            ));
        }
    }
    out
}

/// Columns of `expr[...]` subscript sites in a blanked code line: a `[`
/// whose previous non-space char ends an expression (identifier, `)`,
/// or `]`). Array literals/types (`[0; n]`, `: [u8; 4]`) and macro
/// brackets (`vec![`) have non-expression chars before the `[` and are
/// skipped.
fn subscript_sites(code: &str) -> Vec<usize> {
    // Keywords an expression can never end in: a `[` after one of
    // these opens a slice *pattern* (`let [a, b] = …`) or type, not a
    // subscript.
    const KEYWORDS: [&str; 12] = [
        "let", "else", "in", "return", "match", "if", "while", "mut", "ref", "move", "box", "as",
    ];
    let b = code.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let Some(prev) = b[..i].iter().rposition(|&p| p != b' ') else {
            continue;
        };
        let p = b[prev];
        if !(p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']') {
            continue;
        }
        let word_start = b[..=prev]
            .iter()
            .rposition(|&w| !(w.is_ascii_alphanumeric() || w == b'_'))
            .map_or(0, |w| w + 1);
        if KEYWORDS.contains(&&code[word_start..=prev]) {
            continue;
        }
        out.push(i);
    }
    out
}

/// Everything rule 4 extracts from `crates/obs/src/metrics.rs`.
struct ObsSchema {
    /// (declared len, counted entries, decl line) for Counter/Gauge/Hist.
    arrays: Vec<(String, usize, usize, usize)>,
    hist_buckets: usize,
    /// Counters excluded by `in_run_flush`.
    flush_excluded: usize,
    /// The `COUNTERS - k` subtrahend in `RUN_METRIC_COUNT`.
    run_metric_sub: usize,
    /// Line of the `RUN_METRIC_COUNT` declaration.
    run_metric_line: usize,
}

/// Rule 4 — obs schema drift: the `Counter::ALL` / `RUN_METRIC_COUNT`
/// arithmetic in `metrics.rs` must stay internally consistent and must
/// equal the number of distinct `obs.*` keys every golden snapshot
/// actually pins. `goldens` is `(path, text)` per golden file.
pub fn obs_schema(metrics: &SourceFile, goldens: &[(String, String)]) -> Vec<Violation> {
    let schema = match parse_obs_schema(metrics) {
        Ok(s) => s,
        Err(msg) => {
            return vec![violation(
                metrics,
                1,
                OBS_SCHEMA,
                format!("cannot parse the metrics schema anchors: {msg}"),
            )]
        }
    };
    let mut out = Vec::new();
    let mut counts = std::collections::BTreeMap::new();
    for (kind, declared, counted, line) in &schema.arrays {
        if declared != counted {
            out.push(violation(
                metrics,
                *line,
                OBS_SCHEMA,
                format!("{kind}::ALL declares {declared} entries but lists {counted}"),
            ));
        }
        counts.insert(kind.clone(), *declared);
    }
    if schema.flush_excluded != schema.run_metric_sub {
        out.push(violation(
            metrics,
            schema.run_metric_line,
            OBS_SCHEMA,
            format!(
                "RUN_METRIC_COUNT subtracts {} counters but in_run_flush excludes {}",
                schema.run_metric_sub, schema.flush_excluded
            ),
        ));
    }
    let expected = counts.get("Counter").copied().unwrap_or(0) - schema.run_metric_sub
        + counts.get("Gauge").copied().unwrap_or(0)
        + counts.get("Hist").copied().unwrap_or(0) * schema.hist_buckets;
    for (path, text) in goldens {
        let mut keys = std::collections::BTreeSet::new();
        for line in text.lines() {
            if line.starts_with("obs.") {
                if let Some((key, _)) = line.split_once('\t') {
                    keys.insert(key);
                }
            }
        }
        if !keys.is_empty() && keys.len() != expected {
            out.push(violation(
                metrics,
                schema.run_metric_line,
                OBS_SCHEMA,
                format!(
                    "{path} pins {} distinct obs.* keys but the schema arithmetic \
                     expects {expected}; regenerate goldens or fix RUN_METRIC_COUNT",
                    keys.len()
                ),
            ));
        }
    }
    out
}

fn parse_obs_schema(metrics: &SourceFile) -> Result<ObsSchema, String> {
    let mut arrays = Vec::new();
    let mut hist_buckets = None;
    let mut flush_excluded = None;
    let mut run_metric = None;
    let lines = &metrics.lines;
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim().to_string();
        if let Some(rest) = code.strip_prefix("pub const ALL: [") {
            // `pub const ALL: [Counter; 26] = [ … ];`
            let (kind, rest) = rest
                .split_once(';')
                .ok_or_else(|| format!("line {}: malformed ALL declaration", i + 1))?;
            let declared: usize = rest
                .trim_start()
                .split(']')
                .next()
                .unwrap_or("")
                .trim()
                .parse()
                .map_err(|_| format!("line {}: ALL length is not an integer", i + 1))?;
            let needle = format!("{kind}::");
            let (counted, end) = count_until(lines, i, &needle, "];")?;
            arrays.push((kind.trim().to_string(), declared, counted, i + 1));
            i = end;
        } else if let Some(rest) = code.strip_prefix("pub const HIST_BUCKETS: usize = ") {
            hist_buckets = rest.trim_end_matches(';').trim().parse::<usize>().ok();
        } else if code.starts_with("fn in_run_flush") || code.starts_with("pub fn in_run_flush") {
            let (counted, end) = count_until(lines, i, "Counter::", "}")?;
            flush_excluded = Some(counted);
            i = end;
        } else if code.starts_with("pub const RUN_METRIC_COUNT") {
            // Accumulate the expression through its `;`.
            let mut expr = String::new();
            let mut j = i;
            while j < lines.len() {
                expr.push_str(&lines[j].code);
                expr.push(' ');
                if lines[j].code.contains(';') {
                    break;
                }
                j += 1;
            }
            let sub = expr
                .split("COUNTERS")
                .nth(1)
                .and_then(|after| after.trim_start().strip_prefix('-'))
                .and_then(|after| {
                    let digits: String = after
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    digits.parse::<usize>().ok()
                })
                .ok_or_else(|| {
                    format!(
                        "line {}: RUN_METRIC_COUNT is not of the form `COUNTERS - <k> + …`",
                        i + 1
                    )
                })?;
            run_metric = Some((sub, i + 1));
            i = j;
        }
        i += 1;
    }
    let (run_metric_sub, run_metric_line) =
        run_metric.ok_or("no RUN_METRIC_COUNT declaration found")?;
    Ok(ObsSchema {
        arrays,
        hist_buckets: hist_buckets.ok_or("no HIST_BUCKETS declaration found")?,
        flush_excluded: flush_excluded.ok_or("no in_run_flush body found")?,
        run_metric_sub,
        run_metric_line,
    })
}

/// Counts word-boundary `needle` occurrences from line `start` until a
/// line whose trimmed code ends with `closer` (inclusive). Returns
/// (count, index of the closing line).
fn count_until(
    lines: &[crate::source::Line],
    start: usize,
    needle: &str,
    closer: &str,
) -> Result<(usize, usize), String> {
    let mut count = 0;
    for (j, line) in lines.iter().enumerate().skip(start) {
        count += word_hits(&line.code, needle).len();
        if j > start && line.code.trim_end().ends_with(closer) {
            return Ok((count, j));
        }
        // Single-line form: `… = [A, B];`
        if j == start && line.code.trim_end().ends_with(closer) && line.code.contains('=') {
            return Ok((count, j));
        }
    }
    Err(format!(
        "line {}: no closing {closer:?} found for block",
        start + 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), text)
    }

    #[test]
    fn wall_clock_flags_real_uses_only() {
        let f = file("let t = Instant::now();\nlet s = \"Instant::now\";\n");
        let v = wall_clock(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("Instant::now"));
    }

    #[test]
    fn wall_clock_skips_tests() {
        let f = file("#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n");
        assert!(wall_clock(&f).is_empty());
    }

    #[test]
    fn unordered_emit_flags_hash_types() {
        let f = file("use std::collections::HashMap;\nlet x: BTreeMap<u8, u8>;\n");
        let v = unordered_emit(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn no_panic_flags_calls_macros_and_indexing() {
        let f = file(
            "let a = x.unwrap();\nlet b = y.unwrap_or(0);\nlet c = z.expect(\"msg\");\n\
             unreachable!(\"bad\");\nlet d = cols[0];\nlet e = [0u8; 4];\nvec![1, 2];\n",
        );
        let v = no_panic_parser(&f);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 3, 4, 5]);
    }

    #[test]
    fn subscript_heuristics() {
        assert_eq!(subscript_sites("a[i] + b.c[j][k]").len(), 3);
        assert!(subscript_sites("let x: [u8; 4] = [0; 4];").is_empty());
        assert!(subscript_sites("vec![1]; #[derive(Debug)]").is_empty());
        assert_eq!(subscript_sites("&body[start..]").len(), 1);
        assert!(subscript_sites("let [a, b] = cols.as_slice() else {").is_empty());
        assert!(subscript_sites("} else [0]; x in [1, 2]").is_empty());
    }

    #[test]
    fn obs_schema_checks_arithmetic_and_goldens() {
        let metrics_text = "\
impl Counter {
    pub const ALL: [Counter; 3] = [
        Counter::A,
        Counter::B,
        Counter::C,
    ];
    fn in_run_flush(self) -> bool {
        !matches!(self, Counter::A)
    }
}
impl Gauge {
    pub const ALL: [Gauge; 1] = [Gauge::G];
}
impl Hist {
    pub const ALL: [Hist; 1] = [Hist::H];
}
pub const HIST_BUCKETS: usize = 2;
pub const RUN_METRIC_COUNT: usize =
    COUNTERS - 1 + GAUGES + HISTS * HIST_BUCKETS;
";
        let metrics = SourceFile::parse("crates/obs/src/metrics.rs".into(), metrics_text);
        // expected = 3 - 1 + 1 + 1*2 = 5
        let good = "obs.a\t0\t1\nobs.b\t0\t1\nobs.c\t0\t1\nobs.d\t0\t1\nobs.e\t0\t1\n";
        let golds = vec![("g.golden".to_string(), good.to_string())];
        assert!(obs_schema(&metrics, &golds).is_empty());
        let bad = "obs.a\t0\t1\nobs.b\t0\t1\n";
        let golds = vec![("g.golden".to_string(), bad.to_string())];
        let v = obs_schema(&metrics, &golds);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("pins 2"));
        // Declared/counted mismatch fires too.
        let broken = metrics_text.replace("[Counter; 3]", "[Counter; 4]");
        let metrics = SourceFile::parse("m.rs".into(), &broken);
        let v = obs_schema(&metrics, &[]);
        assert!(v.iter().any(|x| x.message.contains("declares 4")));
    }
}
