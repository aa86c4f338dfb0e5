//! Golden-report tests: every deterministic registry spec, run in quick
//! mode at its fixed seed, must reproduce the committed snapshot of its
//! rendered text and metrics **bit-for-bit** (metric values are compared
//! via `f64::to_bits`).
//!
//! The snapshots under `tests/golden/` were captured from the
//! pre-`Experiment`-pipeline drivers, so these tests prove the registry
//! refactor preserved every report exactly. Regenerate deliberately with
//!
//! ```text
//! PAMDC_UPDATE_GOLDEN=1 cargo test -p pamdc-scenario --test golden_reports
//! ```
//!
//! Timing-based experiments (`scaling`, `solver-scaling`) embed
//! wall-clock microseconds in their reports and are excluded via the
//! kind registry's `deterministic` flag.

use pamdc_scenario::registry;
use pamdc_scenario::runner::{run_spec, SpecReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serializes a report: a header, one `key<TAB>bits<TAB>value` line per
/// metric, then the raw text.
fn encode(report: &SpecReport) -> String {
    let mut out = String::new();
    out.push_str("== pamdc golden v1 ==\n");
    out.push_str(&format!("name\t{}\n", report.name));
    out.push_str(&format!("metrics\t{}\n", report.metrics.len()));
    for (k, v) in &report.metrics {
        out.push_str(&format!("{k}\t{:016x}\t{v}\n", v.to_bits()));
    }
    out.push_str("-- text --\n");
    out.push_str(&report.text);
    out
}

fn check(name: &str) {
    let spec = registry::find(name).expect(name).spec;
    let report = run_spec(&spec, Path::new("."), true).expect(name);
    let encoded = encode(&report);
    let path = golden_dir().join(format!("{name}.golden"));
    if std::env::var("PAMDC_UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, &encoded).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with PAMDC_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        encoded == want,
        "{name}: quick-mode report diverged from the golden snapshot.\n{}",
        diff(&encoded, &want)
    );
}

/// Lines of `a` that `b` lacks, counted as a multiset, in `a`'s order.
fn only_in<'a>(a: &'a str, b: &str) -> Vec<&'a str> {
    let mut pool: BTreeMap<&str, usize> = BTreeMap::new();
    for line in b.lines() {
        *pool.entry(line).or_default() += 1;
    }
    a.lines()
        .filter(|line| match pool.get_mut(line) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .collect()
}

/// Whether a metric row or report-text line carries an `obs.*` metric,
/// bare or behind an arm prefix (`dynamic_obs.sim.ticks`).
fn is_obs(line: &str) -> bool {
    let key = line.split_whitespace().next().unwrap_or_default();
    key.starts_with("obs.") || key.contains("_obs.")
}

/// The differing lines of two encoded reports, `obs.*` rows apart from
/// domain rows (every other metric and the report text), each with its
/// count — so a change that only touches observability reads as such at
/// a glance. The `metrics` count header follows from the row lists and
/// is left out.
fn diff(got: &str, want: &str) -> String {
    let (removed, added) = (only_in(want, got), only_in(got, want));
    let mut out = String::new();
    for (label, obs) in [("obs.*", true), ("domain", false)] {
        let pick = |lines: &[&'_ str]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| is_obs(l) == obs && !l.starts_with("metrics\t"))
                .map(|l| l.to_string())
                .collect()
        };
        let (gone, new) = (pick(&removed), pick(&added));
        out.push_str(&format!(
            "{label} rows: {} only in the golden, {} only in this run\n",
            gone.len(),
            new.len()
        ));
        for line in gone {
            out.push_str(&format!("- {line}\n"));
        }
        for line in new {
            out.push_str(&format!("+ {line}\n"));
        }
    }
    out
}

macro_rules! golden {
    ($($test:ident => $name:expr;)*) => {
        $(
            #[test]
            fn $test() {
                check($name);
            }
        )*
        /// The snapshotted names — emitted by the macro so the
        /// completeness guard below can never drift out of sync with
        /// the test list.
        const SNAPSHOTTED: &[&str] = &[$($name),*];
    };
}

golden! {
    // Captured from the pre-pipeline drivers: these prove the registry
    // refactor preserved every report bit-for-bit.
    golden_fig4 => "fig4";
    golden_fig5 => "fig5";
    golden_fig6 => "fig6";
    golden_fig7_table3 => "fig7-table3";
    golden_fig8 => "fig8";
    golden_table1 => "table1";
    golden_table2 => "table2";
    golden_green => "green";
    golden_deloc => "deloc";
    golden_resilience => "resilience";
    // Kinds first registered with the pipeline: these pin the reports
    // against future regressions.
    golden_ablations => "ablations";
    golden_heterogeneity => "heterogeneity";
    golden_online_drift => "online-drift";
    golden_price_adaptation => "price-adaptation";
    // First registered with the trace-import/host-classes PR.
    golden_hetero_fleet => "hetero-fleet";
    // First registered with the memory-as-a-resource PR. (That PR also
    // deliberately regenerated fig4: its BF-OB arm books 2x observed
    // memory, so the overflow path's new RAM-feasibility tier
    // legitimately redirects some of its placements.)
    golden_mem_pressure => "mem-pressure";
    // First registered with the lint/serve-ladder PR: pins the
    // +NEAR-EQUIV(top3) policy label and the near-shortlist counters.
    golden_near_equiv => "near-equiv";
}

/// Every deterministic registry entry must have a golden test above —
/// adding a spec without snapshotting it fails here, not in review.
/// (Wall-clock timing kinds are excluded via the kind registry's
/// `deterministic` flag.)
#[test]
fn every_deterministic_builtin_is_snapshotted() {
    let covered = SNAPSHOTTED;
    for b in registry::builtins() {
        let deterministic = match &b.spec.experiment {
            Some(exp) => {
                pamdc_scenario::kinds::find(&exp.kind)
                    .unwrap_or_else(|| panic!("{}: unregistered kind", b.name))
                    .deterministic
            }
            None => true, // the generic path derives everything from the seed
        };
        if deterministic && !covered.contains(&b.name) {
            panic!("registry spec {:?} has no golden test", b.name);
        }
        if !deterministic && covered.contains(&b.name) {
            panic!(
                "registry spec {:?} is timing-based; drop its golden",
                b.name
            );
        }
    }
}
