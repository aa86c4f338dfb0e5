//! End-to-end fixture proof for the rule catalog: every rule fires on
//! the violating tree (exit 1, `file:line · rule · message`
//! diagnostics) and is silenced on the suppressed twin (exit 0, every
//! allow consumed). The fixture trees mirror the `Profile::repo()` path
//! contract — `crates/core/src/report.rs` is an emit path,
//! `crates/workload/src/trace.rs` a streaming parser, and so on — so
//! the fixtures prove exactly what CI enforces on the real tree.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_lint(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pamdc-lint"))
        .args(args)
        .output()
        .expect("spawn pamdc-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_rule_fires_on_the_violating_tree_with_file_line_diagnostics() {
    let root = fixture("violating");
    let (code, stdout, _) = run_lint(&["--root", root.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1), "violations must exit 1; stdout:\n{stdout}");
    // One precise anchor per rule, plus both meta rules: the diagnostic
    // must name the file AND the line, not just the rule.
    for expected in [
        "crates/core/src/engine.rs:4 · wall-clock",
        "crates/core/src/report.rs:3 · unordered-emit",
        "crates/core/src/report.rs:5 · unordered-emit",
        "crates/workload/src/trace.rs:5 · no-panic-parser",
        "crates/workload/src/trace.rs:6 · no-panic-parser",
        "crates/obs/src/metrics.rs:9 · obs-schema",
        "crates/obs/src/metrics.rs:21 · obs-schema",
        "crates/green/src/lib.rs:3 · unused-allow",
        "crates/green/src/lib.rs:4 · malformed-allow",
    ] {
        assert!(
            stdout.contains(expected),
            "missing {expected:?} in:\n{stdout}"
        );
    }
}

#[test]
fn every_rule_suppresses_on_the_twin_tree_and_all_allows_are_consumed() {
    let root = fixture("suppressed");
    let json = root.join("report.json");
    let (code, stdout, stderr) = run_lint(&[
        "--root",
        root.to_str().expect("utf8 path"),
        "--json",
        json.to_str().expect("utf8 path"),
    ]);
    assert_eq!(
        code,
        Some(0),
        "suppressed tree must pass:\n{stdout}{stderr}"
    );
    assert!(stdout.is_empty(), "no diagnostics expected:\n{stdout}");
    // Same violations as the violating twin (1 wall-clock + 2
    // unordered-emit + 4 no-panic-parser + 3 obs-schema),
    // every one silenced by a justified allow.
    assert!(
        stderr.contains("0 violation(s), 10 suppressed, 7 allow directive(s)"),
        "unexpected summary:\n{stderr}"
    );
    let report = std::fs::read_to_string(&json).expect("json report");
    std::fs::remove_file(&json).ok();
    assert!(report.contains("\"violations\": []"));
    assert!(report.contains("\"used\": true"));
    assert!(
        !report.contains("\"used\": false"),
        "an allow went unused — the lint should have failed:\n{report}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let (code, _, stderr) = run_lint(&["--bogus-flag"]);
    assert_eq!(code, Some(2), "usage errors are exit 2:\n{stderr}");
    let (code, _, _) = run_lint(&[]);
    assert_eq!(code, Some(2), "no mode selected is a usage error");
}

#[test]
fn the_shipped_tree_is_lint_clean() {
    // The same check CI runs: the real workspace, the real profile.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pamdc_lint::find_workspace_root(here).expect("workspace root");
    let report = pamdc_lint::run(&root, &pamdc_lint::Profile::repo()).expect("scan");
    let rendered: Vec<String> = report.violations.iter().map(|v| v.render()).collect();
    assert!(
        report.violations.is_empty(),
        "the shipped tree must lint clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scan saw {} files",
        report.files_scanned
    );
}
