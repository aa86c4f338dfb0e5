//! A non-linear revenue curve runs end to end.
//!
//! Every builtin and golden bills at the linear `billing.sla_gamma = 1`,
//! where revenue skips `powf`. This runs two small builtins for three
//! hours at γ = 2 — the Best-Fit resilience world and the hierarchical
//! heterogeneous fleet, so both schedulers and the ledger price through
//! `powf` — and checks that each reaches finite metrics and bills
//! differently from the same run at γ = 1.

use pamdc_core::experiment::outcome_metrics;
use pamdc_scenario::registry;
use pamdc_scenario::runner::run_arms;
use std::path::Path;

/// `outcome_metrics` of every arm of `name` run for 3 h at `gamma`.
fn run_at(name: &str, gamma: &str) -> Vec<Vec<(String, f64)>> {
    let spec = registry::find(name)
        .expect("built-in")
        .spec
        .with_params(&[("run.hours", "3"), ("billing.sla_gamma", gamma)])
        .expect("valid overrides");
    let run = run_arms(&spec, Path::new("."), false).expect("runs");
    run.outcomes
        .iter()
        .map(|(_, outcome)| outcome_metrics("", outcome))
        .collect()
}

fn revenue(metrics: &[(String, f64)]) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == "revenue_eur")
        .expect("revenue_eur")
        .1
}

#[test]
fn gamma_two_runs_to_finite_metrics_and_bills_differently() {
    for name in ["resilience", "hetero-fleet"] {
        let linear = run_at(name, "1");
        let squared = run_at(name, "2");
        assert_eq!(linear.len(), squared.len(), "{name}: arms");
        for (arm, (lin, sq)) in linear.iter().zip(&squared).enumerate() {
            let bad: Vec<_> = sq.iter().filter(|(_, v)| !v.is_finite()).collect();
            assert!(bad.is_empty(), "{name} arm {arm}: non-finite {bad:?}");
            assert!(revenue(sq) > 0.0, "{name} arm {arm}: no revenue");
            assert_ne!(
                revenue(sq),
                revenue(lin),
                "{name} arm {arm}: γ = 2 bills like γ = 1"
            );
        }
    }
}
