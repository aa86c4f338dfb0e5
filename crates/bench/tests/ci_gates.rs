//! Every benchmark is a recorded gate: each `[[bench]]` target in this
//! crate's `Cargo.toml` has a CI step that runs it with
//! `PAMDC_BENCH_JSON=<file>`, and a `perf_gate <file>
//! BENCH_solver_scaling.json` line that checks that file. A bench CI
//! never runs records no number; it only costs every API change an edit.
//!
//! Both files are scanned line by line, with no TOML or YAML parser.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of each `[[bench]]` table, in file order.
fn bench_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(value) = line
            .strip_prefix("name")
            .and_then(|rest| rest.trim_start().strip_prefix('='))
            .filter(|_| in_bench)
        {
            names.push(value.trim().trim_matches('"').to_string());
        }
    }
    names
}

/// The `PAMDC_BENCH_JSON` file written by the CI line that runs
/// `cargo bench ... --bench <name>`, if there is one.
fn bench_json(ci: &str, name: &str) -> Option<String> {
    ci.lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|words| {
            words.windows(2).any(|w| w == ["cargo", "bench"])
                && words.windows(2).any(|w| w == ["--bench", name])
        })
        .find_map(|words| {
            words
                .iter()
                .find_map(|w| w.strip_prefix("PAMDC_BENCH_JSON="))
                .map(str::to_string)
        })
}

/// What CI lacks for `name`, or `None` when the bench is recorded and
/// gated.
fn missing_gate(ci: &str, name: &str) -> Option<String> {
    let Some(json) = bench_json(ci, name) else {
        return Some(format!(
            "{name}: no `cargo bench ... --bench {name}` step that writes PAMDC_BENCH_JSON"
        ));
    };
    let gate = format!("perf_gate {json} BENCH_solver_scaling.json");
    (!ci.lines().any(|line| line.contains(&gate))).then(|| format!("{name}: no `{gate}` line"))
}

#[test]
fn every_bench_is_recorded_and_gated_in_ci() {
    let names = bench_names(&read("Cargo.toml"));
    assert!(
        !names.is_empty(),
        "crates/bench/Cargo.toml declares no [[bench]]"
    );
    let ci = read("../../.github/workflows/ci.yml");
    let missing: Vec<String> = names
        .iter()
        .filter_map(|name| missing_gate(&ci, name))
        .collect();
    assert!(
        missing.is_empty(),
        "every bench needs a recorded CI run and a perf_gate check:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scanners_see_missing_steps_and_gates() {
    let manifest = "[package]\nname = \"pamdc-bench\"\n\n[[bench]]\nname = \"a\"\nharness = false\n\n[[bench]]\nname = \"b\"\n";
    assert_eq!(bench_names(manifest), ["a", "b"]);

    let ci = "run: PAMDC_BENCH_JSON=a.json cargo bench -p pamdc-bench --bench a\n\
              run: ./target/release/perf_gate a.json BENCH_solver_scaling.json\n\
              run: PAMDC_BENCH_JSON=b.json cargo bench -p pamdc-bench --bench b\n\
              run: cargo bench -p pamdc-bench --bench c\n";
    assert_eq!(missing_gate(ci, "a"), None);
    assert!(missing_gate(ci, "b").is_some_and(|m| m.contains("perf_gate b.json")));
    assert!(missing_gate(ci, "c").is_some_and(|m| m.contains("PAMDC_BENCH_JSON")));
    assert!(missing_gate(ci, "d").is_some());
    // `--bench a` must not match a bench whose name merely starts with `a`.
    assert!(missing_gate(ci, "a_b").is_some());
}
