//! # pamdc-bench — the benchmark harness
//!
//! One Criterion bench per table/figure of the paper (each prints the
//! regenerated rows once, then times the computation that produces
//! them), plus micro-benchmarks for the learners, the simulation engine,
//! and a sequential-vs-parallel sweep ablation.
//!
//! Benchmark ids feed the `PAMDC_BENCH_JSON` emitter (perf baselines
//! such as `BENCH_solver_scaling.json`); build them through
//! [`metric_id`] so they use the same key namer as the scenario
//! runner's metrics and the CLI's CSV/JSON output.

pub mod perf_gate;

use pamdc_scenario::registry;
use pamdc_scenario::runner::{run_spec, SpecReport};
use std::path::Path;

/// The workspace-wide metric/bench-id sanitizer
/// ([`pamdc_core::report::metric_key`]): keeps `[A-Za-z0-9_./-]`, maps
/// everything else to `_`. Existing ids like `solver_scaling/local_search/80`
/// pass through unchanged, so recorded baselines stay comparable.
pub fn metric_id(raw: &str) -> String {
    pamdc_core::report::metric_key(raw)
}

/// Runs the builtin spec `name` with `params` (`--param`-style
/// overrides) applied, in quick or full mode.
pub fn run_builtin(name: &str, quick: bool, params: &[(&str, &str)]) -> SpecReport {
    let spec = registry::find(name)
        .expect("builtin")
        .spec
        .with_params(params)
        .expect("valid override");
    run_spec(&spec, Path::new("."), quick).expect("builtin runs")
}

/// One metric of a report, by key.
pub fn metric(report: &SpecReport, key: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{} reports no {key}", report.name))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_survive_and_display_names_sanitize() {
        assert_eq!(
            metric_id("solver_scaling/bestfit/10x40"),
            "solver_scaling/bestfit/10x40"
        );
        assert_eq!(metric_id("policy/bestfit[BF-OB]"), "policy/bestfit_BF-OB_");
    }
}
