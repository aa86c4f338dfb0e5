//! E-SC — §IV-C's motivation for the heuristic: exact solving blows up.
//!
//! The paper reports GUROBI needing "several minutes to schedule 10 jobs
//! among 40 candidate hosts" while Best-Fit answers instantly. This
//! driver measures both solvers over growing instances — wall time and,
//! for the exact solver, search nodes — reproducing the scaling gap that
//! justifies Algorithm 1.

use crate::experiment::ExperimentReport;
use crate::report::TextTable;
use pamdc_obs::clock::Stopwatch;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::exact::{branch_and_bound, ExactOutcome};
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::synthetic;

/// One measured instance size.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// VMs in the instance.
    pub vms: usize,
    /// Candidate hosts.
    pub hosts: usize,
    /// Best-Fit wall time, microseconds.
    pub bestfit_us: f64,
    /// Exact solver wall time, microseconds (`None` when skipped).
    pub exact_us: Option<f64>,
    /// Exact solver nodes expanded.
    pub exact_nodes: Option<u64>,
    /// Profit gap: `(exact - heuristic) / |exact|`, when both ran.
    pub profit_gap: Option<f64>,
    /// The exact solver hit its node budget; its numbers describe the
    /// truncated search, not a proven optimum.
    pub exact_budget_exhausted: bool,
}

/// Configuration of the scaling study.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// `(vms, hosts)` instance sizes, ascending.
    pub sizes: Vec<(usize, usize)>,
    /// Skip the exact solver above this VM count (it explodes —
    /// that is the point, but benches must terminate).
    pub exact_vm_cap: usize,
    /// Per-VM request rate of the synthetic instances.
    pub rps: f64,
    /// Hard cap on exact-solver search nodes per instance. The solver
    /// is exponential; without a ceiling one oversized entry in `sizes`
    /// hangs the whole study. Exhaustion is reported per point rather
    /// than silently passing off the incumbent as optimal.
    pub exact_node_budget: u64,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            sizes: vec![(2, 4), (4, 8), (6, 12), (8, 24), (10, 40)],
            exact_vm_cap: 8,
            rps: 250.0,
            exact_node_budget: 10_000_000,
        }
    }
}

impl ScalingConfig {
    /// Tiny study for tests.
    pub fn quick() -> Self {
        ScalingConfig {
            sizes: vec![(2, 4), (5, 6)],
            exact_vm_cap: 5,
            rps: 250.0,
            exact_node_budget: 1_000_000,
        }
    }
}

/// Runs the study.
pub fn run(cfg: &ScalingConfig) -> Vec<ScalingPoint> {
    let oracle = TrueOracle::new();
    cfg.sizes
        .iter()
        .map(|&(vms, hosts)| {
            let problem = synthetic::problem(vms, hosts, cfg.rps);

            let t0 = Stopwatch::start();
            let heur = best_fit(&problem, &oracle, IndexMode::Exact);
            let bestfit_us = t0.elapsed_us();
            let heur_profit =
                pamdc_sched::profit::evaluate_schedule(&problem, &oracle, &heur.schedule)
                    .profit_eur;

            let (exact_us, exact_nodes, profit_gap, exact_budget_exhausted) =
                if vms <= cfg.exact_vm_cap {
                    let t0 = Stopwatch::start();
                    let outcome = branch_and_bound(&problem, &oracle, cfg.exact_node_budget);
                    let us = t0.elapsed_us();
                    let gap_of = |profit: f64| {
                        if profit.abs() > 1e-12 {
                            (profit - heur_profit) / profit.abs()
                        } else {
                            0.0
                        }
                    };
                    match outcome {
                        ExactOutcome::Optimal(exact) => (
                            Some(us),
                            Some(exact.nodes_expanded),
                            Some(gap_of(exact.eval.profit_eur)),
                            false,
                        ),
                        ExactOutcome::BudgetExhausted {
                            nodes_expanded,
                            incumbent,
                        } => (
                            Some(us),
                            Some(nodes_expanded),
                            incumbent.map(|inc| gap_of(inc.eval.profit_eur)),
                            true,
                        ),
                    }
                } else {
                    (None, None, None, false)
                };

            ScalingPoint {
                vms,
                hosts,
                bestfit_us,
                exact_us,
                exact_nodes,
                profit_gap,
                exact_budget_exhausted,
            }
        })
        .collect()
}

/// The report: a wall-clock timing study, so it is *not* run-to-run
/// deterministic (the kind registry excludes it from golden snapshots).
pub fn report(cfg: &ScalingConfig) -> ExperimentReport {
    let points = run(cfg);
    let mut metrics = Vec::new();
    for p in &points {
        let key = |k: &str| format!("{}x{}_{k}", p.vms, p.hosts);
        metrics.push((key("bestfit_us"), p.bestfit_us));
        if let Some(us) = p.exact_us {
            metrics.push((key("exact_us"), us));
        }
        if let Some(n) = p.exact_nodes {
            metrics.push((key("exact_nodes"), n as f64));
        }
        if let Some(gap) = p.profit_gap {
            metrics.push((key("profit_gap"), gap));
        }
        if p.exact_budget_exhausted {
            metrics.push((key("exact_budget_exhausted"), 1.0));
        }
    }
    ExperimentReport {
        text: render(&points),
        metrics,
    }
}

/// Renders the study.
pub fn render(points: &[ScalingPoint]) -> String {
    let mut t = TextTable::new(&[
        "VMs",
        "hosts",
        "best-fit µs",
        "exact µs",
        "exact nodes",
        "profit gap",
    ]);
    for p in points {
        t.row(vec![
            p.vms.to_string(),
            p.hosts.to_string(),
            format!("{:.0}", p.bestfit_us),
            p.exact_us
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "(skipped)".into()),
            match (p.exact_nodes, p.exact_budget_exhausted) {
                (Some(v), false) => v.to_string(),
                (Some(v), true) => format!("{v} (budget!)"),
                (None, _) => "-".into(),
            },
            p.profit_gap
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    format!(
        "Solver scaling — exact B&B vs Descending Best-Fit\n{}",
        t.render()
    )
}
