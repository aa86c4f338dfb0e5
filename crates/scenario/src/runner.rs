//! The spec runner: one entry point for **every** spec.
//!
//! The spec's [`crate::kinds`] entry (its `[experiment]` kind, or the
//! one-arm generic entry) says how to run it. A world kind's arms are
//! each built with the same [`build_scenario`] / [`build_policy`] /
//! [`run_config`] calls, Table-I training runs once when some arm's
//! oracle is `ml`, [`execute`] runs the arms in parallel, and the
//! kind's report function folds them. Quick mode first applies the
//! entry's quick rows ([`kinds::quick_spec`]).

use crate::build::{build_policy, build_scenario, needs_training, run_config, training};
use crate::kinds::{self, Plan, SpecArm};
use crate::spec::{ScenarioSpec, SpecError};
use pamdc_core::experiment::{execute, Arm, ExperimentRun};
use pamdc_core::experiments::table1;
use pamdc_core::scenario::Scenario;
use std::path::Path;

// The shared emission helpers live with the pipeline; re-exported here
// for the CLI and tests that import them from the runner.
pub use pamdc_core::experiment::{outcome_metrics, render_outcome};

/// One finished spec run.
#[derive(Clone, Debug)]
pub struct SpecReport {
    /// The spec's name.
    pub name: String,
    /// Rendered report (the experiment's table, or a run summary).
    pub text: String,
    /// Flat `(key, value)` metrics for CSV/JSON emission.
    pub metrics: Vec<(String, f64)>,
}

/// Builds every arm's world and policy. The spec's own world is built
/// first (so spec errors surface before training) and handed to the
/// first arm whose spec it is.
fn build_arms(
    spec: &ScenarioSpec,
    base_dir: &Path,
    arms: fn(&ScenarioSpec, &Scenario) -> Vec<SpecArm>,
) -> Result<Vec<Arm>, SpecError> {
    let world = build_scenario(spec, base_dir)?;
    let arms = arms(spec, &world);
    let trained = arms
        .iter()
        .any(|a| needs_training(&a.spec))
        .then(|| table1::run(&training(&spec.training)));
    let mut world = Some(world);
    arms.into_iter()
        .map(|arm| {
            let scenario = match world.take_if(|_| arm.spec == *spec) {
                Some(world) => world,
                None => build_scenario(&arm.spec, base_dir)?,
            };
            Ok(Arm {
                label: arm.label,
                scenario,
                policy: build_policy(&arm.spec, trained.as_ref().map(|t| t.suite.clone()))?,
                config: run_config(&arm.spec),
                hours: arm.spec.run.hours,
                collect: arm.collect,
            })
        })
        .collect()
}

/// The spec's kind entry and the spec in the requested mode.
fn prepare(
    spec: &ScenarioSpec,
    quick: bool,
) -> Result<(&'static kinds::KindEntry, ScenarioSpec), SpecError> {
    spec.validate()?;
    let entry = kinds::entry_for(spec)?;
    let spec = if quick {
        kinds::quick_spec(spec, entry)?
    } else {
        spec.clone()
    };
    Ok((entry, spec))
}

/// Runs a spec. `base_dir` anchors relative trace paths; `quick`
/// applies the kind's quick rows (tests, CI smoke).
pub fn run_spec(
    spec: &ScenarioSpec,
    base_dir: &Path,
    quick: bool,
) -> Result<SpecReport, SpecError> {
    let (entry, spec) = prepare(spec, quick)?;
    let report = match entry.plan {
        Plan::Analysis(report) => report(&spec, quick),
        Plan::Arms { arms, report } => report(&spec, execute(build_arms(&spec, base_dir, arms)?)),
    };
    Ok(SpecReport {
        name: spec.name,
        text: report.text,
        metrics: report.metrics,
    })
}

/// Runs a spec's arms without folding them into a report: for callers
/// that read the raw outcomes (time series, collected samples). An
/// analysis kind has no arms and is an error.
pub fn run_arms(
    spec: &ScenarioSpec,
    base_dir: &Path,
    quick: bool,
) -> Result<ExperimentRun, SpecError> {
    let (entry, spec) = prepare(spec, quick)?;
    match entry.plan {
        Plan::Arms { arms, .. } => Ok(execute(build_arms(&spec, base_dir, arms)?)),
        Plan::Analysis(_) => Err(SpecError(format!(
            "[experiment] kind = {:?} builds no world, so it has no arms to run",
            entry.kind
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_run_produces_metrics() {
        let mut spec = ScenarioSpec::default();
        spec.run.hours = 2;
        let report = run_spec(&spec, Path::new("."), false).expect("run");
        assert!(report.text.contains("mean_sla"));
        let sla = report
            .metrics
            .iter()
            .find(|(k, _)| k == "mean_sla")
            .unwrap()
            .1;
        assert!(sla > 0.0 && sla <= 1.0);
    }

    #[test]
    fn generic_run_is_deterministic() {
        let mut spec = ScenarioSpec::default();
        spec.run.hours = 2;
        let a = run_spec(&spec, Path::new("."), false).unwrap();
        let b = run_spec(&spec, Path::new("."), false).unwrap();
        assert_eq!(a.text, b.text);
        for ((ka, va), (kb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn table2_spec_runs_instantly() {
        let spec = crate::registry::find("table2").unwrap().spec;
        let report = run_spec(&spec, Path::new("."), true).expect("table2");
        assert!(report.text.contains("Table II"));
    }

    #[test]
    fn resilience_builtin_recovers() {
        let spec = crate::registry::find("resilience").unwrap().spec;
        let report = run_spec(&spec, Path::new("."), false).expect("resilience");
        let migrations = report
            .metrics
            .iter()
            .find(|(k, _)| k == "migrations")
            .unwrap()
            .1;
        assert!(
            migrations > 0.0,
            "evacuating the crashed host requires migrations"
        );
    }

    #[test]
    fn unknown_kind_reports_the_registry() {
        let mut spec = ScenarioSpec::default();
        spec.experiment = Some(crate::spec::ExperimentSpec {
            kind: "fig99".into(),
            ..crate::spec::ExperimentSpec::default()
        });
        let err = run_spec(&spec, Path::new("."), true).unwrap_err();
        assert!(err.0.contains("fig99"), "{err}");
        assert!(err.0.contains("fig7-table3"), "{err}");
    }
}
