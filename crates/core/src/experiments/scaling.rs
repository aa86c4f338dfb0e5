//! E-SC2 — **scheduling-round scalability** (paper future-work item 1):
//! *"how we decide which VMs are excluded from inter-DC scheduling or
//! which PMs are offered as host candidates …; this affecting directly
//! to scalability of the method; and provide information about how many
//! PMs/VMs we can manage per scheduling round"*.
//!
//! A size sweep over synthetic rounds compares the flat single-layer
//! Best-Fit (every VM scored against every host) with the hierarchical
//! two-layer round (intra-DC passes plus a narrow global interface that
//! only escalates VMs that might benefit from moving and only offers a
//! bounded set of candidate hosts). Each cell reports wall-clock solve
//! time and the profit of the resulting schedule under the true oracle,
//! so the answer to "how many VMs/PMs per round?" comes with the price
//! paid in solution quality (expected: none to speak of).

use crate::experiment::{Experiment, ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use pamdc_obs::clock::Stopwatch;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::synthetic;
use pamdc_sched::profit::evaluate_schedule;

/// One sweep cell.
#[derive(Clone, Debug)]
pub struct ScalingCell {
    /// VMs in the round.
    pub vms: usize,
    /// Candidate hosts in the round.
    pub hosts: usize,
    /// Flat Best-Fit wall time, microseconds.
    pub flat_us: f64,
    /// Hierarchical round wall time, microseconds.
    pub hier_us: f64,
    /// Flat schedule profit, €.
    pub flat_profit: f64,
    /// Hierarchical schedule profit, €.
    pub hier_profit: f64,
    /// VMs the hierarchical filter escalated to the global pass.
    pub escalated_vms: usize,
    /// Hosts the hierarchical filter offered globally.
    pub offered_hosts: usize,
}

/// Configuration of the sweep.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// `(vms, hosts)` sizes to test.
    pub sizes: Vec<(usize, usize)>,
    /// Offered load per VM, requests/second.
    pub rps: f64,
    /// Timing repetitions per cell (median taken).
    pub reps: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            sizes: vec![
                (10, 8),
                (20, 16),
                (40, 32),
                (80, 64),
                (160, 128),
                (320, 256),
            ],
            rps: 60.0,
            reps: 5,
        }
    }
}

impl ScalingConfig {
    /// Small sweep for tests.
    pub fn quick() -> Self {
        ScalingConfig {
            sizes: vec![(10, 8), (40, 32)],
            rps: 60.0,
            reps: 2,
        }
    }
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs the sweep (sequentially — the cells are timing-sensitive).
pub fn run(cfg: &ScalingConfig) -> Vec<ScalingCell> {
    let oracle = TrueOracle::new();
    let hier_cfg = HierarchicalConfig::default();
    cfg.sizes
        .iter()
        .map(|&(vms, hosts)| {
            let problem = synthetic::problem(vms, hosts, cfg.rps);

            let mut flat_times = Vec::with_capacity(cfg.reps);
            let mut flat_schedule = None;
            for _ in 0..cfg.reps {
                let t0 = Stopwatch::start();
                let result = best_fit(&problem, &oracle, IndexMode::Exact);
                flat_times.push(t0.elapsed_us());
                flat_schedule = Some(result.schedule);
            }
            let mut hier_times = Vec::with_capacity(cfg.reps);
            let mut hier_out = None;
            for _ in 0..cfg.reps {
                let t0 = Stopwatch::start();
                let out = hierarchical_round(&problem, &oracle, &hier_cfg);
                hier_times.push(t0.elapsed_us());
                hier_out = Some(out);
            }

            let flat_schedule = flat_schedule.expect("reps >= 1");
            let (hier_schedule, stats) = hier_out.expect("reps >= 1");
            ScalingCell {
                vms,
                hosts,
                flat_us: median_us(flat_times),
                hier_us: median_us(hier_times),
                flat_profit: evaluate_schedule(&problem, &oracle, &flat_schedule).profit_eur,
                hier_profit: evaluate_schedule(&problem, &oracle, &hier_schedule).profit_eur,
                escalated_vms: stats.global_vms,
                offered_hosts: stats.offered_hosts,
            }
        })
        .collect()
}

/// The registry-facing experiment: a wall-clock timing study (runs in
/// the emission stage; reports are *not* run-to-run deterministic, so
/// the kind registry excludes it from golden snapshots).
pub struct Scaling {
    /// Sweep configuration.
    pub cfg: ScalingConfig,
}

impl Experiment for Scaling {
    fn emit(&self, _run: ExperimentRun) -> ExperimentReport {
        let cells = run(&self.cfg);
        let mut metrics = Vec::new();
        for c in &cells {
            let key = |k: &str| format!("{}x{}_{k}", c.vms, c.hosts);
            metrics.push((key("flat_us"), c.flat_us));
            metrics.push((key("hier_us"), c.hier_us));
            metrics.push((key("flat_profit"), c.flat_profit));
            metrics.push((key("hier_profit"), c.hier_profit));
            metrics.push((key("escalated_vms"), c.escalated_vms as f64));
            metrics.push((key("offered_hosts"), c.offered_hosts as f64));
        }
        ExperimentReport {
            text: render(&cells),
            metrics,
        }
    }
}

/// Renders the sweep table.
pub fn render(cells: &[ScalingCell]) -> String {
    let mut t = TextTable::new(&[
        "VMs",
        "hosts",
        "flat µs",
        "hier µs",
        "flat €",
        "hier €",
        "escalated",
        "offered",
    ]);
    for c in cells {
        t.row(vec![
            c.vms.to_string(),
            c.hosts.to_string(),
            format!("{:.0}", c.flat_us),
            format!("{:.0}", c.hier_us),
            format!("{:.4}", c.flat_profit),
            format!("{:.4}", c.hier_profit),
            c.escalated_vms.to_string(),
            c.offered_hosts.to_string(),
        ]);
    }
    format!(
        "Scheduling-round scalability (future work 1)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_sane_cells() {
        let cells = run(&ScalingConfig::quick());
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.flat_us > 0.0 && c.hier_us > 0.0);
            assert!(c.flat_profit.is_finite() && c.hier_profit.is_finite());
            // The narrow interface must actually narrow: never escalate
            // more VMs than exist, never offer more hosts than exist.
            assert!(c.escalated_vms <= c.vms);
            assert!(c.offered_hosts <= c.hosts);
            // Quality must not collapse: the hierarchical schedule keeps
            // at least 80% of flat profit (they usually tie or beat).
            assert!(
                c.hier_profit > c.flat_profit - c.flat_profit.abs() * 0.2 - 0.01,
                "hier {} vs flat {} at {}x{}",
                c.hier_profit,
                c.flat_profit,
                c.vms,
                c.hosts
            );
        }
        let rendered = render(&cells);
        assert!(rendered.contains("escalated"));
    }
}
