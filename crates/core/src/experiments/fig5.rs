//! E-F5 — the paper's **Figure 5**: a VM following its load around the
//! planet.
//!
//! Sanity check: with the profit function reduced to client proximity
//! (no energy, no SLA beyond latency), a single VM with equal region
//! weights and noon-peaked regional profiles should migrate through the
//! DCs tracking the globally dominant load source — BRS → BNG → BCN →
//! BST over a simulated day.

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;
use pamdc_simcore::time::SimTime;

/// The run outcome plus the extracted placement trace.
pub struct Fig5Result {
    /// Full run metrics/series.
    pub outcome: RunOutcome,
    /// `(time, dc_index)` change points of the VM's home DC.
    pub placement_changes: Vec<(SimTime, usize)>,
    /// Distinct DCs visited.
    pub dcs_visited: usize,
}

/// Extracts the placement trace from the run.
fn result_from(outcome: RunOutcome) -> Fig5Result {
    let mut placement_changes = Vec::new();
    if let Some(trace) = outcome.series.get("vm0_dc") {
        let mut last: Option<usize> = None;
        for (t, v) in trace.iter() {
            let dc = v as usize;
            if last != Some(dc) {
                placement_changes.push((t, dc));
                last = Some(dc);
            }
        }
    }
    let mut visited: Vec<usize> = placement_changes.iter().map(|&(_, d)| d).collect();
    visited.sort_unstable();
    visited.dedup();
    Fig5Result {
        outcome,
        dcs_visited: visited.len(),
        placement_changes,
    }
}

/// The report over the single follow-the-load arm.
pub fn report(run: ExperimentRun) -> ExperimentReport {
    let result = result_from(run.into_outcomes().remove(0));
    ExperimentReport {
        metrics: vec![
            ("dcs_visited".to_string(), result.dcs_visited as f64),
            ("migrations".to_string(), result.outcome.migrations as f64),
            ("mean_sla".to_string(), result.outcome.mean_sla),
        ],
        text: render(&result),
    }
}

/// Renders the movement log.
pub fn render(result: &Fig5Result) -> String {
    let mut t = TextTable::new(&["sim time", "moved to DC"]);
    let dc_names = ["BRS", "BNG", "BCN", "BST"];
    for &(time, dc) in &result.placement_changes {
        t.row(vec![
            format!("{time}"),
            dc_names.get(dc).unwrap_or(&"?").to_string(),
        ]);
    }
    format!(
        "Figure 5 — VM placement following the load ({} DCs visited, {} migrations)\n{}",
        result.dcs_visited,
        result.outcome.migrations,
        t.render()
    )
}
