//! E-F7/T3 — the paper's **Figure 7 and Table III**: static vs dynamic
//! multi-DC management for 5 VMs.
//!
//! | (paper)        | Avg €/h | Avg W  | Avg SLA |
//! |----------------|---------|--------|---------|
//! | Static-Global  | 0.745   | 175.9  | 0.921   |
//! | Dynamic        | 0.757   | 102.0  | 0.930   |
//!
//! The headline claim: the dynamic scheduler cuts energy by ~42% (it
//! consolidates across DCs, the static fleet cannot) while holding or
//! slightly improving SLA and net €/h.

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;

/// Both arms.
pub struct Table3Result {
    /// Static-Global: VMs never leave their home DC.
    pub static_global: RunOutcome,
    /// Dynamic: the hierarchical scheduler may migrate across DCs.
    pub dynamic: RunOutcome,
}

impl Table3Result {
    /// Fractional energy saving of dynamic over static (paper: ≈ 0.42).
    pub fn energy_saving_frac(&self) -> f64 {
        if self.static_global.avg_watts <= 0.0 {
            return 0.0;
        }
        1.0 - self.dynamic.avg_watts / self.static_global.avg_watts
    }
}

/// The report over the `static` and `dynamic` arms.
pub fn report(run: ExperimentRun) -> ExperimentReport {
    let mut metrics = run.arm_metrics();
    let mut outcomes = run.into_outcomes().into_iter();
    let result = Table3Result {
        static_global: outcomes.next().expect("static arm"),
        dynamic: outcomes.next().expect("dynamic arm"),
    };
    metrics.push((
        "energy_saving_frac".to_string(),
        result.energy_saving_frac(),
    ));
    ExperimentReport {
        text: render(&result),
        metrics,
    }
}

/// Renders Table III with the paper's published values alongside.
pub fn render(result: &Table3Result) -> String {
    let mut t = TextTable::new(&[
        "scenario",
        "Avg Euro/h",
        "Avg Watt",
        "Avg SLA",
        "migrations",
        "paper €/h",
        "paper W",
        "paper SLA",
    ]);
    let rows: [(&str, &RunOutcome, f64, f64, f64); 2] = [
        ("Static-Global", &result.static_global, 0.745, 175.9, 0.921),
        ("Dynamic", &result.dynamic, 0.757, 102.0, 0.930),
    ];
    for (label, o, p_eur, p_w, p_sla) in rows {
        t.row(vec![
            label.to_string(),
            format!("{:.4}", o.eur_per_hour()),
            format!("{:.1}", o.avg_watts),
            format!("{:.4}", o.mean_sla),
            o.migrations.to_string(),
            format!("{p_eur:.3}"),
            format!("{p_w:.1}"),
            format!("{p_sla:.3}"),
        ]);
    }
    format!(
        "Table III / Figure 7 — static vs dynamic multi-DC (energy saving: {:.1}%, paper: 42%)\n{}",
        100.0 * result.energy_saving_frac(),
        t.render()
    )
}
