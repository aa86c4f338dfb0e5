//! Model validation — the columns of the paper's Table I.
//!
//! For every predictor the paper reports: the ML method, the
//! real-vs-predicted correlation, the mean absolute error, the error
//! standard deviation, the train/validation sizes and the target range.
//! [`EvalReport`] is exactly that row, computed from a held-out test set.

use crate::dataset::Dataset;
use crate::Regressor;
use pamdc_simcore::stats::{error_std_dev, mean_absolute_error, pearson, root_mean_squared_error};

/// One Table-I row.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Learner name ("M5P", "Linear Reg.", "K-NN").
    pub method: String,
    /// Pearson correlation between truth and prediction on the test set.
    pub correlation: f64,
    /// Mean absolute error on the test set.
    pub mae: f64,
    /// Standard deviation of the signed error.
    pub err_std_dev: f64,
    /// Root mean squared error (extra over the paper; useful for
    /// comparisons).
    pub rmse: f64,
    /// Training examples used.
    pub n_train: usize,
    /// Test examples evaluated.
    pub n_test: usize,
    /// `(min, max)` of the target in the full data.
    pub target_range: (f64, f64),
}

impl EvalReport {
    /// Evaluates a fitted model against a test set.
    pub fn compute(
        model: &dyn Regressor,
        train: &Dataset,
        test: &Dataset,
        full_range: (f64, f64),
    ) -> Self {
        let held_out = test.rows().zip(test.targets().iter().copied());
        Self::on_rows(model, train.len(), held_out, full_range)
    }

    /// Evaluates a fitted model trained on `n_train` examples against
    /// held-out `(features, truth)` pairs, read in place.
    pub fn on_rows<'a>(
        model: &dyn Regressor,
        n_train: usize,
        held_out: impl Iterator<Item = (&'a [f64], f64)>,
        full_range: (f64, f64),
    ) -> Self {
        let (pred, truth): (Vec<f64>, Vec<f64>) =
            held_out.map(|(row, y)| (model.predict(row), y)).unzip();
        EvalReport {
            method: model.name().to_string(),
            correlation: pearson(&pred, &truth),
            mae: mean_absolute_error(&pred, &truth),
            err_std_dev: error_std_dev(&pred, &truth),
            rmse: root_mean_squared_error(&pred, &truth),
            n_train,
            n_test: truth.len(),
            target_range: full_range,
        }
    }

    /// Renders the row like the paper's table:
    /// `M5P  0.854  4.41  4.03  959/648  [0.0, 400.0]`.
    pub fn to_row(&self, target_name: &str) -> String {
        format!(
            "{:<18} {:<12} {:>7.3} {:>12.4} {:>10.4} {:>11} {:>20}",
            target_name,
            self.method,
            self.correlation,
            self.mae,
            self.err_std_dev,
            format!("{}/{}", self.n_train, self.n_test),
            format!("[{:.1}, {:.1}]", self.target_range.0, self.target_range.1),
        )
    }
}

/// Column header matching [`EvalReport::to_row`].
pub fn table_header() -> String {
    format!(
        "{:<18} {:<12} {:>7} {:>12} {:>10} {:>11} {:>20}",
        "Target", "Method", "Correl", "MeanAbsErr", "ErrStDev", "Train/Val", "Range"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;
    use pamdc_simcore::rng::RngStream;

    #[test]
    fn perfect_model_scores_perfectly() {
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..100 {
            d.push(&[i as f64], 2.0 * i as f64);
        }
        let (train, test) = d.split(0.66, &mut RngStream::root(1));
        let m = LinearRegression::fit(&train);
        let rep = EvalReport::compute(&m, &train, &test, d.target_range());
        assert!((rep.correlation - 1.0).abs() < 1e-9);
        assert!(rep.mae < 1e-9);
        assert!(rep.err_std_dev < 1e-9);
        assert_eq!(rep.n_train + rep.n_test, 100);
        assert_eq!(rep.target_range, (0.0, 198.0));
    }

    #[test]
    fn noisy_model_scores_sensibly() {
        let mut rng = RngStream::root(2);
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..600 {
            let x = i as f64 / 10.0;
            d.push(&[x], 3.0 * x + rng.normal(0.0, 2.0));
        }
        let (train, test) = d.split(0.66, &mut rng);
        let m = LinearRegression::fit(&train);
        let rep = EvalReport::compute(&m, &train, &test, d.target_range());
        assert!(rep.correlation > 0.99, "corr {}", rep.correlation);
        assert!(rep.mae > 0.5 && rep.mae < 3.0, "mae {}", rep.mae);
        assert!(rep.rmse >= rep.mae);
    }

    #[test]
    fn row_renders() {
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..30 {
            d.push(&[i as f64], i as f64);
        }
        let m = LinearRegression::fit(&d);
        let rep = EvalReport::compute(&m, &d, &d, d.target_range());
        let row = rep.to_row("Predict VM CPU");
        assert!(row.contains("Predict VM CPU"));
        assert!(row.contains("Linear Reg."));
        assert!(table_header().contains("Correl"));
    }
}
