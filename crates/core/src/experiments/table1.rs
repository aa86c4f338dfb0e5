//! E-T1 — the paper's **Table I**: learning details for each predicted
//! element.
//!
//! Collects monitored samples from exploration runs on the intra-DC
//! testbed, trains the seven predictors with the paper's method choices
//! (M5P M=4 / Linear Regression / M5P M=2 / k-NN K=4) and a 66/34 split,
//! and reports correlation, MAE, error σ, train/val sizes and target
//! ranges — the exact columns of the paper's table.

use crate::experiment::ExperimentReport;
use crate::report::TextTable;
use crate::training::{collect_training_data, train_suite, TrainingOutcome};
use pamdc_ml::metrics::table_header;

/// Configuration for the Table-I reproduction.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// VMs in the collection scenario.
    pub vms: usize,
    /// Load scales visited by the exploration runs.
    pub scales: Vec<f64>,
    /// Simulated hours per scale.
    pub hours_per_scale: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            vms: 5,
            scales: vec![0.4, 0.8, 1.2, 1.6],
            hours_per_scale: 8,
            seed: 2013,
        }
    }
}

/// Runs the experiment.
pub fn run(cfg: &Table1Config) -> TrainingOutcome {
    let collector = collect_training_data(cfg.vms, &cfg.scales, cfg.hours_per_scale, cfg.seed);
    train_suite(&collector, cfg.seed)
}

/// The report over a training outcome: the table, the comparison with
/// the paper and the sample counts.
pub fn report(outcome: &TrainingOutcome) -> ExperimentReport {
    ExperimentReport {
        text: format!("{}\n{}", render(outcome), render_comparison(outcome)),
        metrics: vec![
            (
                "vm_tick_samples".to_string(),
                outcome.sample_counts.0 as f64,
            ),
            (
                "pm_tick_samples".to_string(),
                outcome.sample_counts.1 as f64,
            ),
        ],
    }
}

/// Renders the paper-style table.
pub fn render(outcome: &TrainingOutcome) -> String {
    let mut out = String::new();
    out.push_str("Table I — learning details for each predicted element\n");
    out.push_str(&table_header());
    out.push('\n');
    for (name, rep) in &outcome.reports {
        out.push_str(&rep.to_row(name));
        out.push('\n');
    }
    out
}

/// Renders a compact comparison against the paper's published values.
pub fn render_comparison(outcome: &TrainingOutcome) -> String {
    // Paper correlations, same order as PredictionTarget::ALL.
    let paper = [
        ("Predict VM CPU", 0.854),
        ("Predict VM MEM", 0.994),
        ("Predict VM IN", 0.804),
        ("Predict VM OUT", 0.777),
        ("Predict PM CPU", 0.909),
        ("Predict VM RT", 0.865),
        ("Predict VM SLA", 0.985),
    ];
    let mut t = TextTable::new(&["Target", "Method", "paper corr", "ours corr", "ours MAE"]);
    for ((name, rep), (pname, pcorr)) in outcome.reports.iter().zip(paper) {
        debug_assert_eq!(name, pname);
        t.row(vec![
            name.clone(),
            rep.method.clone(),
            format!("{pcorr:.3}"),
            format!("{:.3}", rep.correlation),
            format!("{:.3}", rep.mae),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_reproduces_shape() {
        let out = run(&Table1Config {
            vms: 4,
            scales: vec![0.5, 1.0, 1.5],
            hours_per_scale: 4,
            seed: 11,
        });
        assert_eq!(out.reports.len(), 7);
        // Methods match the paper's choices.
        let methods: Vec<&str> = out.reports.iter().map(|(_, r)| r.method.as_str()).collect();
        assert_eq!(
            methods,
            vec!["M5P", "Linear Reg.", "M5P", "M5P", "M5P", "M5P", "K-NN"]
        );
        // Table renders with every row.
        let rendered = render(&out);
        for (name, _) in &out.reports {
            assert!(rendered.contains(name));
        }
        let cmp = render_comparison(&out);
        assert!(cmp.contains("paper corr"));
    }
}
