//! E-PA — **price adaptation**, the result the paper mentions but does
//! not report (§V-B): *"these ML-augmented versions can automatically
//! adapt to changes in task execution prices, SLA penalties, and power
//! price … Adapting the ad-hoc algorithms to these changes requires
//! expert (human) intervention"*.
//!
//! Here the cheapest DC (Boston, 0.1120 €/kWh) suffers a 4× tariff spike
//! halfway through the run — a market event, not a topology change. Two
//! arms run the identical hierarchical scheduler:
//!
//! * **adaptive** — quoted the live tariff each round; the profit
//!   function re-consolidates away from Boston on its own.
//! * **posted-price** — quoted only the original posted prices (the
//!   "ad-hoc configuration" a human would have to re-tune); it keeps
//!   favouring Boston and pays the spike.
//!
//! Both arms are billed the true (spiked) tariff. Expected shape: the
//! adaptive arm's Boston occupancy drops after the spike and its energy
//! bill undercuts the posted-price arm's.

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;
use pamdc_simcore::time::SimTime;

/// Boston's index among the paper DCs: the DC whose tariff spikes.
pub const BOSTON: usize = 3;

/// One arm's outcome plus its Boston occupancy after the spike.
pub struct ArmResult {
    /// The run.
    pub outcome: RunOutcome,
    /// Fraction of VM-ticks hosted in Boston after the spike.
    pub boston_share_post: f64,
    /// Fraction of VM-ticks hosted in Boston before the spike.
    pub boston_share_pre: f64,
}

/// Both arms.
pub struct PriceAdaptationResult {
    /// Sees live tariffs.
    pub adaptive: ArmResult,
    /// Sees only posted prices.
    pub posted: ArmResult,
    /// When the spike landed.
    pub spike_at: SimTime,
}

fn boston_share(outcome: &RunOutcome, vms: usize, spike_at: SimTime, post: bool) -> f64 {
    let mut in_boston = 0usize;
    let mut total = 0usize;
    for vm in 0..vms {
        let Some(series) = outcome.series.get(&format!("vm{vm}_dc")) else {
            continue;
        };
        for (t, dc) in series.iter() {
            if (t >= spike_at) == post {
                total += 1;
                if dc as usize == BOSTON {
                    in_boston += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        in_boston as f64 / total as f64
    }
}

/// Wraps an outcome with its Boston-occupancy statistics.
fn arm_result(outcome: RunOutcome, vms: usize, spike_at: SimTime) -> ArmResult {
    ArmResult {
        boston_share_pre: boston_share(&outcome, vms, spike_at, false),
        boston_share_post: boston_share(&outcome, vms, spike_at, true),
        outcome,
    }
}

/// The report over the `adaptive` and `posted` arms of a `vms`-VM
/// fleet whose Boston tariff spikes at `spike_at`.
pub fn report(run: ExperimentRun, vms: usize, spike_at: SimTime) -> ExperimentReport {
    let mut metrics = run.arm_metrics();
    let mut outcomes = run.into_outcomes().into_iter();
    let mut next = |arm: &str| arm_result(outcomes.next().expect(arm), vms, spike_at);
    let result = PriceAdaptationResult {
        adaptive: next("adaptive arm"),
        posted: next("posted arm"),
        spike_at,
    };
    for (label, arm) in [("adaptive", &result.adaptive), ("posted", &result.posted)] {
        metrics.push((format!("{label}_boston_share_pre"), arm.boston_share_pre));
        metrics.push((format!("{label}_boston_share_post"), arm.boston_share_post));
    }
    ExperimentReport {
        text: render(&result),
        metrics,
    }
}

/// Renders the comparison.
pub fn render(result: &PriceAdaptationResult) -> String {
    let mut t = TextTable::new(&[
        "scenario",
        "BST share pre",
        "BST share post",
        "energy €",
        "€/h",
        "Avg SLA",
        "migrations",
    ]);
    for (label, arm) in [
        ("Adaptive", &result.adaptive),
        ("Posted-price", &result.posted),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.2}", arm.boston_share_pre),
            format!("{:.2}", arm.boston_share_post),
            format!("{:.4}", arm.outcome.profit.energy_eur),
            format!("{:.4}", arm.outcome.eur_per_hour()),
            format!("{:.4}", arm.outcome.mean_sla),
            arm.outcome.migrations.to_string(),
        ]);
    }
    format!(
        "Price adaptation (§V-B unreported result) — Boston tariff spikes at {}\n{}",
        result.spike_at,
        t.render()
    )
}
