//! E-DL — §V-C "Benefit of De-locating Load".
//!
//! One home DC holds every VM and receives all the load; we compare
//! keeping the VMs pinned there (the paper's overloaded single-DC
//! scenario) against allowing temporary de-location to remote DCs when
//! the home hosts saturate. The paper measures mean SLA rising from
//! 0.8115 to 0.8871 and a net benefit of ≈ 0.348 €/VM/day; the shape to
//! reproduce is "de-location buys several SLA points despite paying
//! migration and latency".

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;

/// Both arms' outcomes.
pub struct DelocResult {
    /// VMs pinned to the home DC.
    pub fixed: RunOutcome,
    /// VMs allowed to de-locate.
    pub delocating: RunOutcome,
}

impl DelocResult {
    /// SLA gained by allowing de-location.
    pub fn sla_gain(&self) -> f64 {
        self.delocating.mean_sla - self.fixed.mean_sla
    }

    /// Net benefit per VM per day, € (the paper's 0.348 €/VM/day
    /// metric).
    pub fn benefit_eur_per_vm_day(&self, vms: usize) -> f64 {
        let days = self.fixed.duration.as_hours_f64() / 24.0;
        if days <= 0.0 || vms == 0 {
            return 0.0;
        }
        (self.delocating.profit.profit_eur() - self.fixed.profit.profit_eur()) / (vms as f64 * days)
    }
}

/// The report over the `fixed` and `delocating` arms of a `vms`-VM
/// fleet. The paper reports this one as a ΔSLA/benefit narrative, so
/// the report stays table-only.
pub fn report(run: ExperimentRun, vms: usize) -> ExperimentReport {
    let mut outcomes = run.into_outcomes().into_iter();
    let result = DelocResult {
        fixed: outcomes.next().expect("fixed arm"),
        delocating: outcomes.next().expect("de-locating arm"),
    };
    ExperimentReport {
        text: render(&result, vms),
        metrics: Vec::new(),
    }
}

/// Renders the comparison.
pub fn render(result: &DelocResult, vms: usize) -> String {
    let mut t = TextTable::new(&["scenario", "mean SLA", "€/h", "avg W", "migrations"]);
    for (label, o) in [
        ("fixed-home-DC", &result.fixed),
        ("de-locating", &result.delocating),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.4}", o.mean_sla),
            format!("{:.4}", o.eur_per_hour()),
            format!("{:.1}", o.avg_watts),
            o.migrations.to_string(),
        ]);
    }
    format!(
        "De-location benefit — ΔSLA = {:+.4}, benefit = {:+.3} €/VM/day\n{}",
        result.sla_gain(),
        result.benefit_eur_per_vm_day(vms),
        t.render()
    )
}
