//! E-F4 — the paper's **Figure 4**: intra-DC scheduling comparatives.
//!
//! One Barcelona DC, 4 Atom PMs, 5 web-service VMs, a 24-hour scaled
//! Li-BCN-style day, a scheduling round every 10 minutes. Three arms,
//! exactly the paper's §V-B:
//!
//! * **BF** — Best-Fit sizing VMs by the last-10-minute monitoring
//!   window, optimizing "just power and latency";
//! * **BF-OB** — the same with 2× resource overbooking;
//! * **BF-ML** — Best-Fit driven by the Table-I predictors.
//!
//! Expected shape: BF-ML (de)consolidates with the load and keeps SLA
//! high at peaks; plain BF uses fewer PMs but bleeds SLA under load;
//! BF-OB protects SLA at systematically higher power. A fourth
//! ground-truth arm (**BF-True**) bounds what any predictor could do.

use crate::experiment::{outcome_metrics, ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;

/// The report over the arms, in `[BF, BF-OB, BF-ML, (BF-True)]` order:
/// each arm's metrics are keyed by its policy's display name.
pub fn report(run: ExperimentRun) -> ExperimentReport {
    let outcomes = run.into_outcomes();
    ExperimentReport {
        metrics: outcomes
            .iter()
            .flat_map(|o| outcome_metrics(&o.policy_name, o))
            .collect(),
        text: render(&outcomes),
    }
}

/// Summary table matching the figure's aggregate panels.
pub fn render(outcomes: &[RunOutcome]) -> String {
    let mut t = TextTable::new(&[
        "policy",
        "mean SLA",
        "avg W",
        "avg PMs on",
        "migrations",
        "dropped req",
        "€/h",
    ]);
    for o in outcomes {
        t.row(vec![
            o.policy_name.clone(),
            format!("{:.4}", o.mean_sla),
            format!("{:.1}", o.avg_watts),
            format!("{:.2}", o.avg_active_pms),
            o.migrations.to_string(),
            format!("{:.0}", o.dropped_requests),
            format!("{:.4}", o.eur_per_hour()),
        ]);
    }
    format!(
        "Figure 4 — intra-DC scheduling comparatives\n{}",
        t.render()
    )
}
