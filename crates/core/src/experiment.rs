//! The experiment pipeline's shared half: arms and their execution,
//! metric naming and the report type.
//!
//! Every evaluation in this workspace is the same MAPE loop measured
//! under different worlds and policies. A study is a list of [`Arm`]s
//! (built from a scenario spec by `pamdc-scenario`'s runner) plus a
//! report function in [`crate::experiments`] that folds the
//! [`ExperimentRun`] into an [`ExperimentReport`]:
//!
//! 1. **Execution** — [`execute`] runs every arm through
//!    [`Controller::run_for`] via `simcore::par` (deterministic: each
//!    arm's randomness derives from its own scenario seed, so the
//!    fan-out is bit-identical to a sequential loop).
//! 2. **Emission** — the study's report function; [`outcome_metrics`]
//!    and [`metric_key`] keep metric naming consistent across studies,
//!    the CLI's CSV/JSON emitters and the bench harness.

use crate::engine::Controller;
use crate::policy::PlacementPolicy;
use crate::report::{metric_key, TextTable};
use crate::scenario::Scenario;
use crate::simulation::{RunConfig, RunOutcome};
use crate::training::TrainingCollector;
use pamdc_simcore::time::SimDuration;

/// One simulation arm: a world, a policy, and how long to run them.
pub struct Arm {
    /// Metric prefix (empty for single-arm studies; sanitized through
    /// [`metric_key`] when the metrics are flattened).
    pub label: String,
    /// The world to simulate.
    pub scenario: Scenario,
    /// The placement policy driving the MAPE loop.
    pub policy: Box<dyn PlacementPolicy>,
    /// Run knobs (cadence, horizon, series retention).
    pub config: RunConfig,
    /// Simulated hours.
    pub hours: u64,
    /// Attach a training-sample collector to the run.
    pub collect: bool,
}

/// Everything [`execute`] computed, in arm order.
pub struct ExperimentRun {
    /// `(label, outcome)` per arm.
    pub outcomes: Vec<(String, RunOutcome)>,
    /// The samples of every arm that collected them.
    pub samples: Vec<TrainingCollector>,
}

impl ExperimentRun {
    /// Flattens every arm's [`outcome_metrics`], label-prefixed, in arm
    /// order — the shared emission path.
    pub fn arm_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = Vec::new();
        for (label, outcome) in &self.outcomes {
            metrics.extend(outcome_metrics(label, outcome));
        }
        metrics
    }

    /// Consumes the run, returning the outcomes in arm order.
    pub fn into_outcomes(self) -> Vec<RunOutcome> {
        self.outcomes.into_iter().map(|(_, o)| o).collect()
    }
}

/// A finished experiment: rendered text plus flat metrics.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Human-readable report (the study's table).
    pub text: String,
    /// Flat `(key, value)` metrics for CSV/JSON emission.
    pub metrics: Vec<(String, f64)>,
}

/// Runs every arm through [`Controller::run_for`] in parallel.
///
/// When a trace sink is installed (`--trace-out`), each arm buffers its
/// JSONL events inside its own run and this stage flushes them to the
/// sink *in arm order* after the fan-out completes — parallel arms never
/// interleave lines in the trace file.
pub fn execute(arms: Vec<Arm>) -> ExperimentRun {
    let trace = pamdc_obs::trace::enabled();
    let results = pamdc_simcore::par::parallel_map(arms, |mut arm| {
        arm.config.trace = trace;
        let collector = arm.collect.then(TrainingCollector::new);
        let (outcome, samples) = Controller::with(arm.scenario, arm.policy, arm.config, collector)
            .run_for(SimDuration::from_hours(arm.hours));
        (arm.label, outcome, samples)
    });
    let mut run = ExperimentRun {
        outcomes: Vec::with_capacity(results.len()),
        samples: Vec::new(),
    };
    for (label, mut outcome, samples) in results {
        if trace {
            pamdc_obs::trace::write_lines(&outcome.trace_lines);
            outcome.trace_lines.clear();
        }
        run.outcomes.push((label, outcome));
        run.samples.extend(samples);
    }
    run
}

/// Flattens a [`RunOutcome`] into report metrics. A non-empty `prefix`
/// (sanitized via [`metric_key`]) labels multi-arm experiments.
pub fn outcome_metrics(prefix: &str, o: &RunOutcome) -> Vec<(String, f64)> {
    let prefix = metric_key(prefix);
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}_{k}")
        }
    };
    let mut metrics = vec![
        (key("mean_sla"), o.mean_sla),
        (key("avg_watts"), o.avg_watts),
        (key("total_wh"), o.total_wh),
        (key("avg_active_pms"), o.avg_active_pms),
        (key("migrations"), o.migrations as f64),
        (key("dropped_requests"), o.dropped_requests),
        (key("served_requests"), o.served_requests),
        (key("revenue_eur"), o.profit.revenue_eur),
        (key("energy_eur"), o.profit.energy_eur),
        (key("profit_eur"), o.profit.profit_eur()),
        (key("eur_per_hour"), o.eur_per_hour()),
        (key("green_wh"), o.energy.green_wh),
        (key("co2_g_per_kwh"), o.energy.intensity_g_per_kwh()),
    ];
    // Deterministic observability counters ride along under `obs.` —
    // the fixed schema ([`pamdc_obs::metrics::RUN_METRIC_COUNT`] keys,
    // zeros included) keeps CSV columns stable across arms.
    metrics.extend(
        o.obs_metrics
            .iter()
            .map(|(k, v)| (key(&format!("obs.{k}")), *v)),
    );
    metrics
}

/// Renders a generic run's summary table.
pub fn render_outcome(o: &RunOutcome) -> String {
    let mut t = TextTable::new(&["metric", "value"]);
    for (k, v) in outcome_metrics("", o) {
        t.row(vec![k, format!("{v:.6}")]);
    }
    format!(
        "Scenario '{}' under {} for {}\n{}",
        o.scenario_name,
        o.policy_name,
        o.duration,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use crate::scenario::ScenarioBuilder;
    use pamdc_sched::oracle::TrueOracle;

    fn two_arms() -> ExperimentRun {
        let arm = |label: &str| Arm {
            label: label.into(),
            scenario: ScenarioBuilder::paper_multi_dc().vms(2).seed(3).build(),
            policy: Box::new(StaticPolicy(TrueOracle::new())),
            config: RunConfig::default(),
            hours: 1,
            collect: label == "b",
        };
        execute(vec![arm("a[0]"), arm("b")])
    }

    #[test]
    fn pipeline_labels_and_orders_arm_metrics() {
        let run = two_arms();
        assert_eq!(run.samples.len(), 1, "only arm b collects");
        let metrics = run.arm_metrics();
        // Labels are sanitized and prefix in order.
        assert_eq!(metrics[0].0, "a_0__mean_sla");
        let b_at = metrics
            .iter()
            .position(|(k, _)| k == "b_mean_sla")
            .expect("second arm's metrics follow the first's");
        // 13 domain metrics + the fixed observability schema per arm.
        assert_eq!(b_at, 13 + pamdc_obs::metrics::RUN_METRIC_COUNT);
        // The obs block is present, prefixed, and sorted by key.
        let obs_keys: Vec<&str> = metrics[..b_at]
            .iter()
            .filter_map(|(k, _)| k.strip_prefix("a_0__obs."))
            .collect();
        assert_eq!(obs_keys.len(), pamdc_obs::metrics::RUN_METRIC_COUNT);
        assert!(obs_keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn identical_arms_produce_bit_identical_outcomes() {
        let a = two_arms().arm_metrics();
        let b = two_arms().arm_metrics();
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}
