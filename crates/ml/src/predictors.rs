//! The paper's Table-I predictor suite: seven targets, each with its
//! published feature set and learner choice.
//!
//! | Target          | Learner      | paper correl. |
//! |-----------------|--------------|---------------|
//! | Predict VM CPU  | M5P (M = 4)  | 0.854 |
//! | Predict VM MEM  | Linear Reg.  | 0.994 |
//! | Predict VM IN   | M5P (M = 2)  | 0.804 |
//! | Predict VM OUT  | M5P (M = 2)  | 0.777 |
//! | Predict PM CPU  | M5P (M = 4)  | 0.909 |
//! | Predict VM RT   | M5P (M = 4)  | 0.865 |
//! | Predict VM SLA  | K-NN (K = 4) | 0.985 |
//!
//! The feature vectors are restricted to what a scheduler actually knows
//! **before** placing a VM: load characteristics from the gateway, the
//! tentative grant on the candidate host, and queue state — never the
//! ground-truth model internals.

use crate::dataset::Dataset;
use crate::knn::KnnRegressor;
use crate::linreg::LinearRegression;
use crate::m5p::{M5Params, M5Tree};
use crate::metrics::EvalReport;
use crate::Regressor;
use pamdc_simcore::rng::RngStream;

/// The seven prediction targets of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictionTarget {
    /// CPU a VM will need for its expected load (percent-of-core).
    VmCpu,
    /// Memory a VM will need (MB).
    VmMem,
    /// Inbound bandwidth a VM will use (KB/s).
    VmIn,
    /// Outbound bandwidth a VM will use (KB/s).
    VmOut,
    /// Total CPU a host will show, including hypervisor overhead.
    PmCpu,
    /// Processing response time of a VM given a tentative placement (s).
    VmRt,
    /// SLA fulfillment of a VM given a tentative placement, in `[0,1]`.
    VmSla,
}

impl PredictionTarget {
    /// All targets, in the paper's table order.
    pub const ALL: [PredictionTarget; 7] = [
        PredictionTarget::VmCpu,
        PredictionTarget::VmMem,
        PredictionTarget::VmIn,
        PredictionTarget::VmOut,
        PredictionTarget::PmCpu,
        PredictionTarget::VmRt,
        PredictionTarget::VmSla,
    ];

    /// The paper's row label.
    pub fn paper_name(self) -> &'static str {
        match self {
            PredictionTarget::VmCpu => "Predict VM CPU",
            PredictionTarget::VmMem => "Predict VM MEM",
            PredictionTarget::VmIn => "Predict VM IN",
            PredictionTarget::VmOut => "Predict VM OUT",
            PredictionTarget::PmCpu => "Predict PM CPU",
            PredictionTarget::VmRt => "Predict VM RT",
            PredictionTarget::VmSla => "Predict VM SLA",
        }
    }

    /// Feature names for this target's dataset.
    pub fn feature_names(self) -> &'static [&'static str] {
        match self {
            // Load-characteristics → resource demand.
            PredictionTarget::VmCpu
            | PredictionTarget::VmMem
            | PredictionTarget::VmIn
            | PredictionTarget::VmOut => &[
                "rps",
                "kb_in_per_req",
                "kb_out_per_req",
                "cpu_ms_per_req",
                "backlog",
            ],
            // Host aggregation (hypervisor overhead learning).
            PredictionTarget::PmCpu => &["n_vms", "sum_vm_cpu", "sum_rps"],
            // Tentative placement → QoS.
            PredictionTarget::VmRt | PredictionTarget::VmSla => &[
                "rps",
                "cpu_ms_per_req",
                "required_cpu",
                "granted_cpu",
                "mem_grant_ratio",
                "backlog",
                "transport_secs",
            ],
        }
    }

    /// Fits the paper's learner for this target.
    pub fn fit(self, train: &Dataset) -> Box<dyn Regressor> {
        match self {
            PredictionTarget::VmCpu | PredictionTarget::PmCpu | PredictionTarget::VmRt => {
                Box::new(M5Tree::fit(train, M5Params::m4()))
            }
            PredictionTarget::VmMem => Box::new(LinearRegression::fit(train)),
            PredictionTarget::VmIn | PredictionTarget::VmOut => {
                Box::new(M5Tree::fit(train, M5Params::m2()))
            }
            PredictionTarget::VmSla => Box::new(KnnRegressor::fit(train, 4)),
        }
    }
}

/// The fewest examples a predictor trains on.
pub const MIN_EXAMPLES: usize = 8;

/// One trained predictor with its validation report.
pub struct TrainedPredictor {
    /// Which target this predicts.
    pub target: PredictionTarget,
    /// The fitted model.
    pub model: Box<dyn Regressor>,
    /// Held-out validation metrics (the Table-I row).
    pub report: EvalReport,
}

impl TrainedPredictor {
    /// Trains on `data` with the paper's 66/34 split protocol.
    pub fn train(target: PredictionTarget, data: &Dataset, rng: &mut RngStream) -> Self {
        assert!(
            data.len() >= MIN_EXAMPLES,
            "{}: need at least {MIN_EXAMPLES} examples, got {}",
            target.paper_name(),
            data.len()
        );
        let (idx, cut) = data.split_indices(0.66, rng);
        let model = target.fit(&data.subset(&idx[..cut]));
        let held_out = idx[cut..].iter().map(|&i| data.row(i));
        let report = EvalReport::on_rows(model.as_ref(), cut, held_out, data.target_range());
        TrainedPredictor {
            target,
            model,
            report,
        }
    }

    /// Trains on an externally prepared split (ablations comparing two
    /// paths on identical test data need this).
    pub fn train_presplit(
        target: PredictionTarget,
        train: &Dataset,
        test: &Dataset,
        full_range: (f64, f64),
    ) -> Self {
        let model = target.fit(train);
        let report = EvalReport::compute(model.as_ref(), train, test, full_range);
        TrainedPredictor {
            target,
            model,
            report,
        }
    }

    /// Predicts from a feature vector (see
    /// [`PredictionTarget::feature_names`] for the layout). SLA
    /// predictions are clamped to `[0, 1]`, RT and resources to `>= 0`.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let raw = self.model.predict(features);
        match self.target {
            PredictionTarget::VmSla => raw.clamp(0.0, 1.0),
            _ => raw.max(0.0),
        }
    }
}

/// The complete suite of seven trained predictors.
pub struct PredictorSuite {
    predictors: Vec<TrainedPredictor>,
}

impl PredictorSuite {
    /// Builds from individually trained predictors (must cover all seven
    /// targets exactly once).
    pub fn from_predictors(mut predictors: Vec<TrainedPredictor>) -> Self {
        predictors.sort_by_key(|p| p.target);
        let targets: Vec<PredictionTarget> = predictors.iter().map(|p| p.target).collect();
        assert_eq!(
            targets,
            PredictionTarget::ALL.to_vec(),
            "suite must cover all 7 targets"
        );
        PredictorSuite { predictors }
    }

    /// Looks up one predictor.
    pub fn get(&self, target: PredictionTarget) -> &TrainedPredictor {
        let idx = PredictionTarget::ALL
            .iter()
            .position(|&t| t == target)
            .expect("known target");
        &self.predictors[idx]
    }

    /// Predicts for one target.
    pub fn predict(&self, target: PredictionTarget, features: &[f64]) -> f64 {
        self.get(target).predict(features)
    }

    /// Iterates the Table-I rows in order.
    pub fn reports(&self) -> impl Iterator<Item = (&'static str, &EvalReport)> {
        self.predictors
            .iter()
            .map(|p| (p.target.paper_name(), &p.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_dataset(target: PredictionTarget, n: usize, seed: u64) -> Dataset {
        let mut rng = RngStream::root(seed);
        let names = target.feature_names();
        let mut d = Dataset::with_features(names);
        for _ in 0..n {
            let row: Vec<f64> = (0..names.len())
                .map(|_| rng.uniform_range(0.0, 10.0))
                .collect();
            // A piecewise target over the first feature, bounded for SLA.
            let y = match target {
                PredictionTarget::VmSla => (row[0] / 10.0).clamp(0.0, 1.0),
                _ => {
                    if row[0] < 5.0 {
                        row[0] * 2.0
                    } else {
                        30.0 - row[0]
                    }
                }
            };
            d.push(&row, y + rng.normal(0.0, 0.1));
        }
        d
    }

    #[test]
    fn targets_have_paper_labels_and_features() {
        assert_eq!(PredictionTarget::ALL.len(), 7);
        assert_eq!(PredictionTarget::VmCpu.paper_name(), "Predict VM CPU");
        assert_eq!(PredictionTarget::VmCpu.feature_names().len(), 5);
        assert_eq!(PredictionTarget::PmCpu.feature_names().len(), 3);
        assert_eq!(PredictionTarget::VmSla.feature_names().len(), 7);
    }

    #[test]
    fn training_yields_usable_models() {
        for target in PredictionTarget::ALL {
            let d = synth_dataset(target, 400, 11);
            let mut rng = RngStream::root(12);
            let p = TrainedPredictor::train(target, &d, &mut rng);
            assert!(
                p.report.correlation > 0.8,
                "{}: corr {}",
                target.paper_name(),
                p.report.correlation
            );
            let q = vec![1.0; target.feature_names().len()];
            let pred = p.predict(&q);
            assert!(pred.is_finite());
            if target == PredictionTarget::VmSla {
                assert!((0.0..=1.0).contains(&pred));
            } else {
                assert!(pred >= 0.0);
            }
        }
    }

    #[test]
    fn suite_assembles_and_dispatches() {
        let mut rng = RngStream::root(13);
        let predictors: Vec<TrainedPredictor> = PredictionTarget::ALL
            .iter()
            .map(|&t| TrainedPredictor::train(t, &synth_dataset(t, 200, 14), &mut rng))
            .collect();
        let suite = PredictorSuite::from_predictors(predictors);
        for t in PredictionTarget::ALL {
            let q = vec![2.0; t.feature_names().len()];
            assert!(suite.predict(t, &q).is_finite());
        }
        assert_eq!(suite.reports().count(), 7);
    }

    #[test]
    #[should_panic(expected = "all 7 targets")]
    fn incomplete_suite_rejected() {
        let mut rng = RngStream::root(15);
        let only_one = vec![TrainedPredictor::train(
            PredictionTarget::VmCpu,
            &synth_dataset(PredictionTarget::VmCpu, 100, 16),
            &mut rng,
        )];
        PredictorSuite::from_predictors(only_one);
    }
}
