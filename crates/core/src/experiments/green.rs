//! E-GR — the **follow-the-sun extension** (paper future-work item 3).
//!
//! §II of the paper: *"a 'follow the sun/wind' policy could also be
//! introduced easily into the energy cost computation"*. This experiment
//! verifies that claim end-to-end: two DCs on roughly opposite sides of
//! the planet (Brisbane and Barcelona, nine timezones apart) get on-site
//! solar sized to carry the whole fleet, and the only change to the
//! scheduler is the €/kWh it is quoted — the marginal price collapses
//! toward zero wherever the sun currently shines. The workload is
//! latency-neutral (equal client weight from all regions), so the energy
//! term alone decides placement. Two arms:
//!
//! * **sun-aware** — the hierarchical scheduler sees the time-varying
//!   marginal price, so the profit function drags VMs around the planet
//!   chasing daylight (subject to SLA and migration costs).
//! * **price-blind** — the same scheduler sees only the posted Table II
//!   prices; production still offsets whatever happens to run locally,
//!   but nothing chases it.
//!
//! Expected shape: the sun-aware arm serves a clearly larger fraction of
//! its energy green, emits less CO₂ and pays less for electricity, at
//! equal-or-better SLA — with the migrations to show for it.

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;

/// Both arms of the experiment.
pub struct GreenResult {
    /// Scheduler chases the marginal (green-discounted) price.
    pub sun_aware: RunOutcome,
    /// Scheduler sees only posted prices.
    pub price_blind: RunOutcome,
}

impl GreenResult {
    /// Additional green fraction won by following the sun.
    pub fn green_fraction_gain(&self) -> f64 {
        self.sun_aware.energy.green_fraction() - self.price_blind.energy.green_fraction()
    }

    /// CO₂ intensity reduction, g/kWh.
    pub fn carbon_reduction_g_per_kwh(&self) -> f64 {
        self.price_blind.energy.intensity_g_per_kwh() - self.sun_aware.energy.intensity_g_per_kwh()
    }
}

/// The report over the `sun_aware` and `price_blind` arms.
pub fn report(run: ExperimentRun) -> ExperimentReport {
    let mut metrics = run.arm_metrics();
    let mut outcomes = run.into_outcomes().into_iter();
    let result = GreenResult {
        sun_aware: outcomes.next().expect("sun-aware arm"),
        price_blind: outcomes.next().expect("price-blind arm"),
    };
    metrics.push((
        "green_fraction_gain".to_string(),
        result.green_fraction_gain(),
    ));
    ExperimentReport {
        text: render(&result),
        metrics,
    }
}

/// Renders the comparison table.
pub fn render(result: &GreenResult) -> String {
    let mut t = TextTable::new(&[
        "scenario",
        "green %",
        "gCO2/kWh",
        "energy €",
        "Avg W",
        "Avg SLA",
        "migrations",
    ]);
    for (label, o) in [
        ("Sun-aware", &result.sun_aware),
        ("Price-blind", &result.price_blind),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", 100.0 * o.energy.green_fraction()),
            format!("{:.0}", o.energy.intensity_g_per_kwh()),
            format!("{:.4}", o.profit.energy_eur),
            format!("{:.1}", o.avg_watts),
            format!("{:.4}", o.mean_sla),
            o.migrations.to_string(),
        ]);
    }
    format!(
        "Follow-the-sun extension — green share +{:.1} pp, carbon −{:.0} g/kWh\n{}",
        100.0 * result.green_fraction_gain(),
        result.carbon_reduction_g_per_kwh(),
        t.render()
    )
}
