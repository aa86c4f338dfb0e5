//! Linear regression — the learner behind the paper's near-perfect
//! "Predict VM MEM" row of Table I (correlation 0.994).
//!
//! Ordinary least squares via the normal equations, with a small ridge
//! term retried automatically when the system is singular (collinear or
//! constant features are common in monitored data).

use crate::dataset::Dataset;
use crate::linalg::ridge_normal_equations;
use crate::Regressor;

/// A fitted linear model `y = w·x + b`.
#[derive(Clone, Debug)]
pub struct LinearRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fits on a dataset. Falls back to a progressively stronger ridge
    /// term when the normal equations are singular, and to a constant
    /// (mean) model as the last resort.
    pub fn fit(data: &Dataset) -> Self {
        Self::fit_rows(
            data.rows().zip(data.targets().iter().copied()),
            data.n_features(),
        )
    }

    /// Fits directly on `(features, target)` pairs (used by M5 node
    /// models, which fit on a subset of a dataset's rows without
    /// copying them).
    pub fn fit_rows<'a, I>(rows: I, n_features: usize) -> Self
    where
        I: ExactSizeIterator<Item = (&'a [f64], f64)> + Clone,
    {
        for lambda in [0.0, 1e-8, 1e-4, 1e-1] {
            if rows.len() > n_features {
                if let Some((weights, intercept)) =
                    ridge_normal_equations(rows.clone(), n_features, lambda)
                {
                    if weights.iter().all(|w| w.is_finite()) && intercept.is_finite() {
                        return LinearRegression { weights, intercept };
                    }
                }
            }
        }
        // Constant model: the target mean.
        let mean = if rows.len() == 0 {
            0.0
        } else {
            rows.clone().map(|(_, y)| y).sum::<f64>() / rows.len() as f64
        };
        LinearRegression {
            weights: vec![0.0; n_features],
            intercept: mean,
        }
    }

    /// A constant model (used as a base case by the tree learner).
    pub fn constant(value: f64, n_features: usize) -> Self {
        LinearRegression {
            weights: vec![0.0; n_features],
            intercept: value,
        }
    }

    /// Fitted weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Number of effectively non-zero parameters (for M5's complexity
    /// penalty).
    pub(crate) fn param_count(&self) -> usize {
        1 + self.weights.iter().filter(|w| w.abs() > 1e-12).count()
    }
}

impl Regressor for LinearRegression {
    fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.weights.len(), "feature arity mismatch");
        self.intercept
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }

    fn name(&self) -> &'static str {
        "Linear Reg."
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_simcore::rng::RngStream;

    #[test]
    fn recovers_exact_linear_target() {
        let mut d = Dataset::with_features(&["x1", "x2"]);
        for i in 0..60 {
            let a = i as f64;
            let b = ((i * 13) % 11) as f64;
            d.push(&[a, b], 5.0 * a - 2.0 * b + 7.0);
        }
        let m = LinearRegression::fit(&d);
        assert!((m.weights()[0] - 5.0).abs() < 1e-6);
        assert!((m.weights()[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept() - 7.0).abs() < 1e-6);
        assert!((m.predict(&[10.0, 3.0]) - (50.0 - 6.0 + 7.0)).abs() < 1e-6);
    }

    #[test]
    fn noisy_fit_is_close() {
        let mut rng = RngStream::root(3);
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..500 {
            let x = i as f64 / 10.0;
            d.push(&[x], 2.0 * x + 1.0 + rng.normal(0.0, 0.5));
        }
        let m = LinearRegression::fit(&d);
        assert!((m.weights()[0] - 2.0).abs() < 0.05);
        assert!((m.intercept() - 1.0).abs() < 0.2);
    }

    #[test]
    fn degenerate_data_falls_back_to_mean() {
        let mut d = Dataset::with_features(&["x"]);
        d.push(&[1.0], 4.0);
        // One sample for one feature: cannot fit a line; mean model.
        let m = LinearRegression::fit(&d);
        assert_eq!(m.predict(&[99.0]), 4.0);
    }

    #[test]
    fn constant_model() {
        let m = LinearRegression::constant(3.5, 2);
        assert_eq!(m.predict(&[1.0, 2.0]), 3.5);
        assert_eq!(m.param_count(), 1);
    }

    #[test]
    fn param_count_counts_nonzero() {
        let mut d = Dataset::with_features(&["a", "b"]);
        for i in 0..50 {
            let x = i as f64;
            d.push(&[x, 0.0], 2.0 * x); // feature b constant -> weight 0
        }
        let m = LinearRegression::fit(&d);
        assert!(
            m.param_count() <= 2,
            "constant feature should not add a param"
        );
    }
}
