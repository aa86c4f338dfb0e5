//! E-HET — **price-heterogeneity sweep**, quantifying the paper's §V-C
//! prediction: *"As energy costs rise and markets become more
//! heterogeneous and competitive, one should anticipate larger
//! variations of energy prices across the world, and the benefit of
//! inter-DC optimization priming energy consumption should be more
//! obvious."*
//!
//! The sweep scales each DC's deviation from the mean Table II tariff by
//! a factor `k` (k = 1 is the paper's world; k = 8 a fiercely
//! heterogeneous market; prices are floored at 0.01 €/kWh) and runs the
//! static-global vs dynamic comparison of Figure 7 / Table III at every
//! k with a latency-neutral workload. The reported benefit is the energy
//! spend the dynamic scheduler avoids — expected to grow monotonically
//! (modulo plateauing once the fleet is fully consolidated in the
//! cheapest DC).

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::simulation::RunOutcome;
use pamdc_econ::prices::paper_prices;

/// One sweep cell: both arms at one spread factor.
pub struct HeterogeneityCell {
    /// The spread multiplier.
    pub spread: f64,
    /// Static-global arm.
    pub static_global: RunOutcome,
    /// Dynamic arm.
    pub dynamic: RunOutcome,
}

impl HeterogeneityCell {
    /// Energy euros the dynamic arm avoids, as a fraction of static.
    pub fn energy_cost_saving_frac(&self) -> f64 {
        let s = self.static_global.profit.energy_eur;
        if s <= 0.0 {
            0.0
        } else {
            1.0 - self.dynamic.profit.energy_eur / s
        }
    }

    /// Net profit gain of dynamic over static, €/h.
    pub fn profit_gain_eur_h(&self) -> f64 {
        self.dynamic.eur_per_hour() - self.static_global.eur_per_hour()
    }
}

/// Stretches the Table II tariffs around their mean by `spread`
/// (floored at 0.01 €/kWh): each cell's flat per-DC prices.
pub fn stretched_prices(spread: f64) -> [f64; 4] {
    let base = paper_prices();
    let mean = base.iter().map(|p| p.eur_per_kwh).sum::<f64>() / 4.0;
    let mut out = [0.0; 4];
    for (i, p) in base.iter().enumerate() {
        out[i] = (mean + (p.eur_per_kwh - mean) * spread).max(0.01);
    }
    out
}

/// The report over two arms per spread (`static` before `dynamic`
/// within a cell), spread-major.
pub fn report(run: ExperimentRun, spreads: &[f64]) -> ExperimentReport {
    let mut metrics = run.arm_metrics();
    let mut outcomes = run.into_outcomes().into_iter();
    let cells: Vec<HeterogeneityCell> = spreads
        .iter()
        .map(|&spread| HeterogeneityCell {
            spread,
            static_global: outcomes.next().expect("static arm"),
            dynamic: outcomes.next().expect("dynamic arm"),
        })
        .collect();
    for c in &cells {
        metrics.push((
            format!("x{}_energy_cost_saving_frac", c.spread),
            c.energy_cost_saving_frac(),
        ));
        metrics.push((
            format!("x{}_profit_gain_eur_h", c.spread),
            c.profit_gain_eur_h(),
        ));
    }
    ExperimentReport {
        text: render(&cells),
        metrics,
    }
}

/// Renders the sweep table.
pub fn render(cells: &[HeterogeneityCell]) -> String {
    let mut t = TextTable::new(&[
        "spread",
        "static energy €",
        "dynamic energy €",
        "saving %",
        "profit gain €/h",
        "dyn SLA",
        "stat SLA",
    ]);
    for c in cells {
        t.row(vec![
            format!("x{:.0}", c.spread),
            format!("{:.4}", c.static_global.profit.energy_eur),
            format!("{:.4}", c.dynamic.profit.energy_eur),
            format!("{:.1}", 100.0 * c.energy_cost_saving_frac()),
            format!("{:+.4}", c.profit_gain_eur_h()),
            format!("{:.4}", c.dynamic.mean_sla),
            format!("{:.4}", c.static_global.mean_sla),
        ]);
    }
    format!(
        "Price-heterogeneity sweep (§V-C prediction: dynamic benefit grows with spread)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_preserves_mean_and_floors() {
        let k1 = stretched_prices(1.0);
        let base = paper_prices();
        for (i, p) in base.iter().enumerate() {
            assert!((k1[i] - p.eur_per_kwh).abs() < 1e-12, "k=1 is the paper");
        }
        let k8 = stretched_prices(8.0);
        // Boston (cheapest) spreads downward, Barcelona upward.
        assert!(k8[3] < k1[3] && k8[2] > k1[2]);
        // Floor holds even at extreme spreads.
        assert!(stretched_prices(100.0).iter().all(|&p| p >= 0.01));
    }
}
