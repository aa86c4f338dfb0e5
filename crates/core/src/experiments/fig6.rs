//! E-F6 — the paper's **Figure 6**: full inter-DC scheduling, including
//! the minute-70–90 flash crowd "which clearly exceeds the capacity of
//! the system".
//!
//! Expected shape (paper §V-C): under heavy load the scheduler
//! deconsolidates across DCs (SLA revenue dominates); at low load it
//! consolidates toward cheap energy; the flash crowd dents SLA and the
//! system recovers after it passes.

use crate::experiment::{outcome_metrics, ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;
use pamdc_simcore::time::SimTime;

/// Outcome plus flash-crowd window statistics.
pub struct Fig6Result {
    /// Full run.
    pub outcome: RunOutcome,
    /// Mean SLA inside the crowd window (minutes 70–90).
    pub sla_during_crowd: f64,
    /// Mean SLA before the crowd (minutes 0–70).
    pub sla_before_crowd: f64,
    /// Mean SLA in the hour after the crowd passes.
    pub sla_after_crowd: f64,
}

/// Extracts the crowd-window statistics.
fn result_from(outcome: RunOutcome) -> Fig6Result {
    let sla = outcome.series.get("sla").expect("sla series");
    let m = SimTime::from_mins;
    Fig6Result {
        sla_before_crowd: sla.mean_in_window(m(0), m(70)),
        sla_during_crowd: sla.mean_in_window(m(70), m(90)),
        sla_after_crowd: sla.mean_in_window(m(90), m(150)),
        outcome,
    }
}

/// The report over the single hierarchical arm.
pub fn report(run: ExperimentRun) -> ExperimentReport {
    let result = result_from(run.into_outcomes().remove(0));
    let mut metrics = vec![
        ("sla_before_crowd".to_string(), result.sla_before_crowd),
        ("sla_during_crowd".to_string(), result.sla_during_crowd),
        ("sla_after_crowd".to_string(), result.sla_after_crowd),
    ];
    metrics.extend(outcome_metrics("", &result.outcome));
    ExperimentReport {
        text: render(&result),
        metrics,
    }
}

/// Renders the window summary.
pub fn render(result: &Fig6Result) -> String {
    let mut t = TextTable::new(&["window", "mean SLA"]);
    t.row(vec![
        "before crowd (0-70 min)".into(),
        format!("{:.4}", result.sla_before_crowd),
    ]);
    t.row(vec![
        "flash crowd (70-90 min)".into(),
        format!("{:.4}", result.sla_during_crowd),
    ]);
    t.row(vec![
        "after crowd (90-150 min)".into(),
        format!("{:.4}", result.sla_after_crowd),
    ]);
    format!(
        "Figure 6 — inter-DC scheduling with flash crowd ({} migrations, {:.1} W avg)\n{}",
        result.outcome.migrations,
        result.outcome.avg_watts,
        t.render()
    )
}
