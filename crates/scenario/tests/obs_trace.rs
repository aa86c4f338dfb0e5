//! End-to-end guarantees of the observability layer (docs/OBSERVABILITY.md):
//!
//! 1. **Replay safety** — instrumentation never influences decisions:
//!    a run's report is bit-identical with tracing on or off.
//! 2. **Trace determinism** — two traced runs of the same scenario
//!    produce byte-identical JSONL modulo the `wall_ns` field.
//! 3. **Coverage** — the named MAPE phase spans account for ≥95% of the
//!    root (`tick`) wall-clock, so `pamdc trace summarize` explains
//!    where a run's time went instead of leaving an unattributed gap.
//!
//! The trace sink is process-global, so every test takes SINK_LOCK. A
//! failed assertion poisons the lock, but the others still take it
//! (`PoisonError::into_inner`): assertions run only after
//! `trace::finish` has uninstalled the sink, so a failure leaves no
//! sink for the next test to inherit.

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Runs a builtin with the in-memory trace sink installed, returning
/// the report and the JSONL lines.
fn traced_run(name: &str) -> (pamdc_scenario::runner::SpecReport, Vec<String>) {
    let spec = registry::find(name).expect("builtin").spec;
    pamdc_obs::trace::install_memory();
    let report = run_spec(&spec, Path::new("."), true).expect("traced run");
    let lines = pamdc_obs::trace::finish()
        .expect("finish")
        .expect("memory sink lines");
    (report, lines)
}

/// A trace line with its `wall_ns` value masked — the single
/// nondeterministic field in schema v1.
fn mask_wall_ns(line: &str) -> String {
    match line.find("\"wall_ns\":") {
        None => line.to_string(),
        Some(at) => {
            let prefix = &line[..at + "\"wall_ns\":".len()];
            let rest = &line[at + "\"wall_ns\":".len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            format!("{prefix}*{}", &rest[end..])
        }
    }
}

#[test]
fn reports_are_bit_identical_with_and_without_tracing() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = registry::find("fig4").expect("builtin").spec;
    let plain = run_spec(&spec, Path::new("."), true).expect("untraced run");
    let (traced, lines) = traced_run("fig4");
    assert!(!lines.is_empty(), "tracing actually produced events");
    assert_eq!(plain.text, traced.text, "rendered report diverged");
    assert_eq!(plain.metrics.len(), traced.metrics.len());
    for ((ka, va), (kb, vb)) in plain.metrics.iter().zip(&traced.metrics) {
        assert_eq!(ka, kb);
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "metric {ka} diverged under tracing"
        );
    }
}

#[test]
fn traces_are_byte_identical_modulo_wall_ns() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, a) = traced_run("fig4");
    let (_, b) = traced_run("fig4");
    assert_eq!(a.len(), b.len(), "event counts diverged");
    for (la, lb) in a.iter().zip(&b) {
        assert_eq!(mask_wall_ns(la), mask_wall_ns(lb));
    }
}

#[test]
fn named_phases_cover_95_percent_of_root_wall_clock() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, lines) = traced_run("fig4");
    let summary = pamdc_obs::trace::summarize(&lines).expect("summarize");
    assert!(summary.runs >= 1, "run_start recorded");
    assert!(summary.ticks > 0, "run_end carries the tick count");
    let phases: Vec<&str> = summary
        .spans
        .iter()
        .map(|r| r.path.as_str())
        .filter(|p| p.matches('/').count() == 1)
        .collect();
    for expected in ["tick/world", "tick/monitor", "tick/analyze", "tick/plan"] {
        assert!(phases.contains(&expected), "missing phase {expected}");
    }
    let coverage = summary.coverage().expect("root spans present");
    assert!(
        coverage >= 0.95,
        "phases cover {:.1}% of the tick wall-clock (< 95%)",
        100.0 * coverage
    );
    // The machine-readable counter stream reached the trace too.
    assert!(
        summary.counters.iter().any(|(name, _)| name == "sim.ticks"),
        "counters flushed into the trace"
    );
}
