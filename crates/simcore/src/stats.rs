//! Online statistics: Welford accumulators, Pearson correlation,
//! percentiles and weighted means.
//!
//! These are the numerical primitives behind every column of the paper's
//! Table I (correlation, mean absolute error, error standard deviation) and
//! behind the per-experiment summary rows (average SLA, average watts,
//! average €/h). All accumulators are single-pass and numerically stable,
//! so they can run inside the simulation loop without buffering samples.

/// Single-variable running statistics (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Consumes one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Consumes every value in a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when no observation has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean (0 for an empty accumulator).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−inf if empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one (parallel reduction;
    /// Chan et al. pairwise update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Two-variable accumulator for Pearson correlation and simple regression.
#[derive(Clone, Debug, Default)]
pub struct Correlation {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    co: f64,
}

impl Correlation {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one `(x, y)` pair.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        // dx is relative to the old mean_x, (y - mean_y) to the new mean_y:
        // the standard one-pass co-moment update.
        self.co += dx * (y - self.mean_y);
        self.m2_x += dx * (x - self.mean_x);
        self.m2_y += dy * (y - self.mean_y);
    }

    /// Consumes paired slices (panics on length mismatch).
    pub fn extend(&mut self, xs: &[f64], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "correlation: paired slices must match");
        for (&x, &y) in xs.iter().zip(ys) {
            self.push(x, y);
        }
    }

    /// Number of pairs so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Pearson correlation coefficient in `[-1, 1]`. Returns 0 when either
    /// variable is constant (the convention WEKA uses for degenerate data).
    pub fn pearson(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let denom = (self.m2_x * self.m2_y).sqrt();
        if denom <= f64::EPSILON {
            0.0
        } else {
            (self.co / denom).clamp(-1.0, 1.0)
        }
    }

    /// Least-squares slope of y on x (0 for constant x).
    pub fn slope(&self) -> f64 {
        if self.m2_x <= f64::EPSILON {
            0.0
        } else {
            self.co / self.m2_x
        }
    }

    /// Least-squares intercept of y on x.
    pub fn intercept(&self) -> f64 {
        self.mean_y - self.slope() * self.mean_x
    }
}

/// Convenience: Pearson correlation of two slices.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let mut c = Correlation::new();
    c.extend(xs, ys);
    c.pearson()
}

/// Mean absolute error between predictions and truth.
pub fn mean_absolute_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "MAE: paired slices must match");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error between predictions and truth.
pub fn root_mean_squared_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "RMSE: paired slices must match");
    if pred.is_empty() {
        return 0.0;
    }
    (pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64)
        .sqrt()
}

/// Standard deviation of the signed error `pred - truth` — the "Err-StDev"
/// column of the paper's Table I.
pub fn error_std_dev(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(
        pred.len(),
        truth.len(),
        "error_std_dev: paired slices must match"
    );
    let mut s = OnlineStats::new();
    for (p, t) in pred.iter().zip(truth) {
        s.push(p - t);
    }
    s.std_dev()
}

/// Weighted arithmetic mean; returns 0 when total weight is 0.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        values.len(),
        weights.len(),
        "weighted_mean: paired slices must match"
    );
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return 0.0;
    }
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / wsum
}

/// Percentile (nearest-rank with linear interpolation) of an unsorted
/// slice; `q` in `[0, 1]`. Returns NaN for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in data"));
    percentile_sorted(&v, q)
}

/// Percentile of an already-sorted slice (ascending).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        s.extend(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(&data);
        let mut left = OnlineStats::new();
        left.extend(&data[..400]);
        let mut right = OnlineStats::new();
        right.extend(&data[400..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn pearson_perfectly_linear() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        let xs = vec![1.0, 1.0, 1.0, 1.0];
        let ys = vec![0.0, 5.0, 2.0, 8.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn regression_line_recovered() {
        let mut c = Correlation::new();
        for i in 0..50 {
            let x = i as f64;
            c.push(x, 2.5 * x + 4.0);
        }
        assert!((c.slope() - 2.5).abs() < 1e-9);
        assert!((c.intercept() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn error_metrics() {
        let pred = vec![1.0, 2.0, 3.0];
        let truth = vec![1.5, 2.0, 2.0];
        assert!((mean_absolute_error(&pred, &truth) - 0.5).abs() < 1e-12);
        assert!(root_mean_squared_error(&pred, &truth) > mean_absolute_error(&pred, &truth));
        // errors: -0.5, 0, 1.0 -> mean 1/6, var = ...
        assert!(error_std_dev(&pred, &truth) > 0.0);
    }

    #[test]
    fn weighted_mean_basics() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[3.0, 1.0]), 1.5);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }
}
