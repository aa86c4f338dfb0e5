//! # pamdc-lint — the repo-aware static-analysis pass
//!
//! Dependency-free (like `perf-gate`) and hand-rolled at the line/token
//! level (no `syn` — the offline-shim policy bans registry crates).
//! Encodes the source-level contracts every runtime guarantee rests on:
//!
//! | rule id           | contract                                          |
//! |-------------------|---------------------------------------------------|
//! | `wall-clock`      | `Instant::now`/`SystemTime`/`thread::sleep` only in the allowlist |
//! | `unordered-emit`  | no `HashMap`/`HashSet` in report/metric/spec-emit modules |
//! | `no-panic-parser` | no `unwrap`/`expect`/`panic!`/indexing in streaming parsers |
//! | `obs-schema`      | `Counter::ALL` arithmetic matches the golden `obs.*` blocks |
//!
//! Violations are suppressed line-by-line with
//! `// pamdc-lint: allow(<rule>) -- <why>` (same line or the line
//! above); a suppression that fires nothing is itself an error, so
//! stale allows cannot accumulate. See `docs/LINTING.md`.

pub mod rules;
pub mod source;

use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One diagnostic: `file:line · rule · message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (one of [`rules::ALL_RULES`] or a meta rule).
    pub rule: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl Violation {
    /// Renders the human-readable diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{} · {} · {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// pamdc-lint: allow(<rule>) -- <why>` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// File the directive sits in.
    pub file: String,
    /// Line of the directive itself.
    pub line: usize,
    /// The rule it silences.
    pub rule: String,
    /// The justification after `--`.
    pub why: String,
    /// Whether any violation was actually silenced by it.
    pub used: bool,
}

/// Result of a full scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations (includes meta-rule findings like
    /// unused or malformed allows). Non-empty ⇒ the pass fails.
    pub violations: Vec<Violation>,
    /// Violations silenced by a justified allow (kept for the JSON
    /// report — a suppression is visible, not invisible).
    pub suppressed: Vec<Violation>,
    /// Every allow directive found, with its used flag resolved.
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// [`SourceFile::non_test_lines`] summed over the production
    /// sources: `src/` and every `crates/*/src/` except the
    /// `crates/shims/` stand-ins for registry crates.
    pub non_test_lines: usize,
}

/// Where each rule applies, as workspace-relative path prefixes.
/// `Profile::repo()` is the checked-in contract for this repository;
/// the fixture tree under `crates/lint/fixtures/` reuses the same
/// profile so fixtures prove exactly what CI enforces.
pub struct Profile {
    /// Files allowed to touch wall-clock APIs (rule 1 applies
    /// everywhere else). The `DeadlineGovernor` needs no entry: it is a
    /// pure state machine fed measured milliseconds by the serve loop.
    pub wall_clock_allow: Vec<&'static str>,
    /// Emit-path modules rule 2 scans.
    pub emit_paths: Vec<&'static str>,
    /// Streaming-parser modules rule 3 scans.
    pub parser_paths: Vec<&'static str>,
    /// The metrics registry rule 4 anchors on.
    pub metrics_file: &'static str,
    /// Directory of golden snapshots rule 4 cross-checks.
    pub golden_dir: &'static str,
}

impl Profile {
    /// The contract for this repository.
    pub fn repo() -> Profile {
        Profile {
            wall_clock_allow: vec![
                // The obs wall-clock seams: span timings (JSONL-only)
                // and the Stopwatch experiments report through.
                "crates/obs/src/span.rs",
                "crates/obs/src/clock.rs",
                // The serve daemon paces real time by definition.
                "crates/cli/src/serve.rs",
                // Bench harnesses measure wall time by nature.
                "crates/bench/",
                "crates/shims/criterion/",
            ],
            emit_paths: vec![
                "crates/core/src/report.rs",
                "crates/obs/src/",
                "crates/scenario/src/output.rs",
                "crates/scenario/src/toml.rs",
                "crates/scenario/src/spec.rs",
                "crates/scenario/src/schema.rs",
                "crates/scenario/src/campaign.rs",
                "crates/scenario/src/runner.rs",
            ],
            parser_paths: vec![
                "crates/workload/src/import/",
                "crates/workload/src/trace.rs",
                "crates/workload/src/tail.rs",
                "crates/scenario/src/toml.rs",
            ],
            metrics_file: "crates/obs/src/metrics.rs",
            golden_dir: "crates/scenario/tests/golden",
        }
    }
}

/// Directory names never descended into: build output, fixtures (which
/// contain deliberate violations), test/bench sources (rules police
/// production code; tests are exempt wholesale).
const SKIP_DIRS: [&str; 7] = [
    "target", "fixtures", "tests", "benches", "examples", "golden", ".git",
];

/// Runs the full pass over the workspace at `root`.
pub fn run(root: &Path, profile: &Profile) -> Result<Report, String> {
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut allows: Vec<Allow> = Vec::new();
    let mut raw: Vec<Violation> = Vec::new();

    let goldens = read_goldens(&root.join(profile.golden_dir))?;

    for rel in &files {
        let text =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let sf = SourceFile::parse(rel.clone(), &text);
        if is_production_source(rel) {
            report.non_test_lines += sf.non_test_lines();
        }
        allows.extend(parse_allows(&sf, &mut raw));

        let allowlisted = profile.wall_clock_allow.iter().any(|p| rel.starts_with(p));
        if !allowlisted {
            raw.extend(rules::wall_clock(&sf));
        }
        if profile.emit_paths.iter().any(|p| rel.starts_with(p)) {
            raw.extend(rules::unordered_emit(&sf));
        }
        if profile.parser_paths.iter().any(|p| rel.starts_with(p)) {
            raw.extend(rules::no_panic_parser(&sf));
        }
        if rel == profile.metrics_file {
            raw.extend(rules::obs_schema(&sf, &goldens));
        }
    }

    // Resolve suppressions: an allow silences matching-rule violations
    // on its own line or the line directly below it.
    let mut by_site: BTreeMap<(String, usize, String), Vec<usize>> = BTreeMap::new();
    for (i, a) in allows.iter().enumerate() {
        for covered in [a.line, a.line + 1] {
            by_site
                .entry((a.file.clone(), covered, a.rule.clone()))
                .or_default()
                .push(i);
        }
    }
    for v in raw {
        let key = (v.file.clone(), v.line, v.rule.to_string());
        if let Some(idxs) = by_site.get(&key) {
            for &i in idxs {
                allows[i].used = true;
            }
            report.suppressed.push(v);
        } else {
            report.violations.push(v);
        }
    }
    for a in &allows {
        if !a.used {
            report.violations.push(Violation {
                file: a.file.clone(),
                line: a.line,
                rule: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing; remove the stale directive",
                    a.rule
                ),
            });
        }
    }
    report.allows = allows;
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// `src/**` or `crates/<crate>/src/**`, shims left out.
fn is_production_source(rel: &str) -> bool {
    match rel.split('/').collect::<Vec<_>>().as_slice() {
        ["src", ..] => true,
        ["crates", name, "src", ..] => *name != "shims",
        _ => false,
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| "path outside root".to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

fn read_goldens(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".golden") {
            let text =
                std::fs::read_to_string(entry.path()).map_err(|e| format!("read {name}: {e}"))?;
            out.push((name, text));
        }
    }
    out.sort();
    Ok(out)
}

/// Extracts `pamdc-lint: allow(<rule>) -- <why>` directives from a
/// file's line comments. Malformed directives (unknown rule, missing
/// justification) become `malformed-allow` violations immediately.
fn parse_allows(sf: &SourceFile, bad: &mut Vec<Violation>) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, line) in sf.lines.iter().enumerate() {
        let comment = line.comment.trim();
        let Some(rest) = comment.strip_prefix("pamdc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let (rule, tail) = r.split_once(')')?;
            let why = tail.trim_start().strip_prefix("--")?.trim();
            Some((rule.trim().to_string(), why.to_string()))
        });
        match parsed {
            Some((rule, why)) if rules::ALL_RULES.contains(&rule.as_str()) && !why.is_empty() => {
                out.push(Allow {
                    file: sf.rel.clone(),
                    line: i + 1,
                    rule,
                    why,
                    used: false,
                });
            }
            _ => bad.push(Violation {
                file: sf.rel.clone(),
                line: i + 1,
                rule: "malformed-allow",
                message: "expected `pamdc-lint: allow(<rule>) -- <justification>` \
                          with a known rule and a non-empty justification"
                    .to_string(),
            }),
        }
    }
    out
}

/// Renders the machine-readable JSON report (hand-rolled, same idiom as
/// `perf-gate`'s emissions).
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"v\": 1,\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"non_test_lines\": {},\n  \"violations\": [",
        report.files_scanned, report.non_test_lines
    ));
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&v.file),
            v.line,
            esc(v.rule),
            esc(&v.message)
        ));
    }
    out.push_str(if report.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"suppressions\": [");
    for (i, a) in report.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"why\": \"{}\", \"used\": {}}}",
            esc(&a.file),
            a.line,
            esc(&a.rule),
            esc(&a.why),
            a.used
        ));
    }
    out.push_str(if report.allows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing_and_meta_rules() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "a(); // pamdc-lint: allow(wall-clock) -- daemon pacing\n\
             b(); // pamdc-lint: allow(wall-clock)\n\
             c(); // pamdc-lint: allow(bogus-rule) -- because\n",
        );
        let mut bad = Vec::new();
        let allows = parse_allows(&sf, &mut bad);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "wall-clock");
        assert_eq!(allows[0].why, "daemon pacing");
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|v| v.rule == "malformed-allow"));
    }

    #[test]
    fn production_sources_leave_out_shims_tests_and_benches() {
        for (rel, counted) in [
            ("src/lib.rs", true),
            ("crates/core/src/engine.rs", true),
            ("crates/bench/src/bin/perf_gate.rs", true),
            ("crates/shims/rand/src/lib.rs", false),
            ("crates/core/tests/proptests.rs", false),
            ("crates/bench/benches/solver_scaling.rs", false),
            ("crates/lint/fixtures/violating/src/a.rs", false),
        ] {
            assert_eq!(is_production_source(rel), counted, "{rel}");
        }
    }

    #[test]
    fn json_escapes_and_shape() {
        let report = Report {
            violations: vec![Violation {
                file: "a\"b.rs".into(),
                line: 3,
                rule: "wall-clock",
                message: "x\ny".into(),
            }],
            suppressed: vec![],
            allows: vec![],
            files_scanned: 1,
            non_test_lines: 7,
        };
        let json = to_json(&report);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("x\\ny"));
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"non_test_lines\": 7"));
    }
}
