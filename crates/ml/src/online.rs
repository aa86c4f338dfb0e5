//! Online (continuously retrained) models — the paper's future-work
//! item 4: "on-line learning methods, able to retrain continuously on
//! recent data, to make the system react quickly to changes".
//!
//! [`OnlineLearner`] keeps a bounded FIFO buffer of recent examples and
//! refits its underlying batch learner every `refit_every` insertions.
//! This turns any batch [`Regressor`] factory into a drift-tracking model
//! at the cost of periodic refits (cheap at the dataset sizes involved).

use crate::dataset::Dataset;
use crate::Regressor;
use std::collections::VecDeque;

/// Page–Hinkley drift detector over a stream of (absolute) model errors.
///
/// Tracks the cumulative deviation of the error from its running mean;
/// when the minimum-anchored cumulative sum exceeds `lambda`, the error
/// level has shifted upward — the model's world has changed. The `delta`
/// slack absorbs benign noise. This is the standard sequential test used
/// by streaming-ML toolkits for exactly the paper's future-work case:
/// "react quickly to changes in either application behavior, hardware or
/// middleware changes, or workload characteristics".
#[derive(Clone, Debug)]
pub struct PageHinkley {
    /// Tolerated per-sample slack before deviations accumulate.
    pub delta: f64,
    /// Detection threshold on the accumulated deviation.
    pub lambda: f64,
    n: u64,
    mean: f64,
    cumulative: f64,
    min_cumulative: f64,
}

impl PageHinkley {
    /// A detector with the given slack and threshold.
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0 && lambda > 0.0);
        PageHinkley {
            delta,
            lambda,
            n: 0,
            mean: 0.0,
            cumulative: 0.0,
            min_cumulative: 0.0,
        }
    }

    /// Feeds one error magnitude; returns `true` when drift is detected
    /// (the detector then resets itself for the next regime).
    pub fn observe(&mut self, error: f64) -> bool {
        self.n += 1;
        self.mean += (error - self.mean) / self.n as f64;
        self.cumulative += error - self.mean - self.delta;
        self.min_cumulative = self.min_cumulative.min(self.cumulative);
        if self.cumulative - self.min_cumulative > self.lambda {
            self.reset();
            return true;
        }
        false
    }

    /// Samples seen since the last reset.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Clears all state (called automatically on detection).
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.min_cumulative = 0.0;
    }
}

/// A drift-tracking wrapper over a batch learner.
pub struct OnlineLearner<F>
where
    F: Fn(&Dataset) -> Box<dyn Regressor>,
{
    feature_names: Vec<String>,
    buffer: VecDeque<(Vec<f64>, f64)>,
    max_buffer: usize,
    refit_every: usize,
    since_refit: usize,
    min_examples: usize,
    model: Option<Box<dyn Regressor>>,
    fit_fn: F,
    refit_count: u64,
}

impl<F> OnlineLearner<F>
where
    F: Fn(&Dataset) -> Box<dyn Regressor>,
{
    /// A new learner. `max_buffer` bounds memory of the past;
    /// `refit_every` controls refit cadence; `min_examples` delays the
    /// first fit until enough data exists.
    pub fn new(
        feature_names: &[&str],
        max_buffer: usize,
        refit_every: usize,
        min_examples: usize,
        fit_fn: F,
    ) -> Self {
        assert!(max_buffer >= min_examples && min_examples >= 1);
        assert!(refit_every >= 1);
        OnlineLearner {
            feature_names: feature_names.iter().map(|s| s.to_string()).collect(),
            buffer: VecDeque::with_capacity(max_buffer),
            max_buffer,
            refit_every,
            since_refit: 0,
            min_examples,
            model: None,
            fit_fn,
            refit_count: 0,
        }
    }

    /// Feeds one observation; refits when due.
    pub fn observe(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature arity mismatch"
        );
        if self.buffer.len() == self.max_buffer {
            self.buffer.pop_front();
        }
        self.buffer.push_back((features, target));
        self.since_refit += 1;
        let due = self.buffer.len() >= self.min_examples
            && (self.model.is_none() || self.since_refit >= self.refit_every);
        if due {
            self.refit();
        }
    }

    /// Current prediction, `None` before the first fit.
    pub fn predict(&self, features: &[f64]) -> Option<f64> {
        self.model.as_ref().map(|m| m.predict(features))
    }

    /// Number of refits so far.
    pub fn refit_count(&self) -> u64 {
        self.refit_count
    }

    fn refit(&mut self) {
        let mut d = Dataset::new(self.feature_names.clone());
        for (x, y) in &self.buffer {
            d.push(x, *y);
        }
        self.model = Some((self.fit_fn)(&d));
        self.since_refit = 0;
        self.refit_count += 1;
    }

    /// Discards the buffered history (but keeps the current model until
    /// enough fresh examples justify a refit). Called by drift-aware
    /// wrappers when the old regime's data has become misleading.
    pub fn flush(&mut self) {
        self.buffer.clear();
        self.since_refit = 0;
    }
}

/// An [`OnlineLearner`] guarded by a [`PageHinkley`] detector: every
/// observation first scores the current model; on detected drift the
/// history buffer is flushed so the next refit trains purely on
/// post-change data. Compared to the plain sliding window this trades a
/// short cold-start for much faster convergence to the new regime (the
/// window never mixes regimes).
pub struct DriftAwareLearner<F>
where
    F: Fn(&Dataset) -> Box<dyn Regressor>,
{
    learner: OnlineLearner<F>,
    detector: PageHinkley,
    drift_count: u64,
}

impl<F> DriftAwareLearner<F>
where
    F: Fn(&Dataset) -> Box<dyn Regressor>,
{
    /// Wraps a learner with a detector.
    pub fn new(learner: OnlineLearner<F>, detector: PageHinkley) -> Self {
        DriftAwareLearner {
            learner,
            detector,
            drift_count: 0,
        }
    }

    /// Feeds one observation; returns `true` when this sample triggered
    /// a drift flush.
    pub fn observe(&mut self, features: Vec<f64>, target: f64) -> bool {
        let mut drifted = false;
        if let Some(pred) = self.learner.predict(&features) {
            if self.detector.observe((pred - target).abs()) {
                self.learner.flush();
                self.drift_count += 1;
                drifted = true;
            }
        }
        self.learner.observe(features, target);
        drifted
    }

    /// Current prediction, `None` before the first fit.
    pub fn predict(&self, features: &[f64]) -> Option<f64> {
        self.learner.predict(features)
    }

    /// Drifts detected so far.
    pub fn drift_count(&self) -> u64 {
        self.drift_count
    }

    /// Refits performed so far.
    pub fn refit_count(&self) -> u64 {
        self.learner.refit_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;

    fn learner(max: usize, every: usize) -> OnlineLearner<impl Fn(&Dataset) -> Box<dyn Regressor>> {
        OnlineLearner::new(&["x"], max, every, 10, |d| {
            Box::new(LinearRegression::fit(d)) as Box<dyn Regressor>
        })
    }

    #[test]
    fn no_prediction_before_min_examples() {
        let mut l = learner(100, 5);
        for i in 0..9 {
            l.observe(vec![i as f64], i as f64);
            assert!(l.predict(&[1.0]).is_none());
        }
        l.observe(vec![9.0], 9.0);
        assert!(l.predict(&[1.0]).is_some());
    }

    #[test]
    fn tracks_concept_drift() {
        let mut l = learner(50, 10);
        // Regime 1: y = x.
        for i in 0..60 {
            let x = (i % 20) as f64;
            l.observe(vec![x], x);
        }
        let before = l.predict(&[10.0]).unwrap();
        assert!((before - 10.0).abs() < 0.5, "{before}");
        // Regime 2: y = -x + 100; buffer fully turns over.
        for i in 0..60 {
            let x = (i % 20) as f64;
            l.observe(vec![x], 100.0 - x);
        }
        let after = l.predict(&[10.0]).unwrap();
        assert!(
            (after - 90.0).abs() < 0.5,
            "model should track drift: {after}"
        );
    }

    #[test]
    fn buffer_is_bounded() {
        let mut l = learner(30, 5);
        for i in 0..1000 {
            l.observe(vec![i as f64], i as f64);
        }
        assert_eq!(l.buffer.len(), 30);
        assert!(l.refit_count() > 10);
    }

    #[test]
    fn page_hinkley_flags_mean_shift() {
        let mut ph = PageHinkley::new(0.05, 5.0);
        // Stable low-error regime: no detection.
        for i in 0..200 {
            let e = 0.1 + 0.02 * ((i % 7) as f64 / 7.0);
            assert!(!ph.observe(e), "false alarm at {i}");
        }
        // Error level jumps 10x: detection within a reasonable delay.
        let mut fired_at = None;
        for i in 0..200 {
            if ph.observe(1.0 + 0.02 * ((i % 5) as f64)) {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("a 10x error shift must be detected");
        assert!(at < 50, "detection delay {at} too long");
        // Detector reset after firing.
        assert_eq!(ph.samples(), 0);
    }

    #[test]
    fn page_hinkley_quiet_on_stationary_noise() {
        let mut ph = PageHinkley::new(0.1, 20.0);
        // Deterministic pseudo-noise around a constant mean.
        for i in 0..5000_u64 {
            let e = 0.5 + 0.3 * ((i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5);
            assert!(!ph.observe(e), "false alarm at {i}");
        }
    }

    #[test]
    fn drift_aware_recovers_faster_than_sliding_window() {
        let fit = |d: &Dataset| Box::new(LinearRegression::fit(d)) as Box<dyn Regressor>;
        let mut plain = OnlineLearner::new(&["x"], 200, 20, 20, fit);
        let mut aware = DriftAwareLearner::new(
            OnlineLearner::new(&["x"], 200, 20, 20, fit),
            PageHinkley::new(0.1, 8.0),
        );
        // Regime 1: y = 2x. Long enough to fill both buffers.
        for i in 0..200 {
            let x = (i % 25) as f64;
            plain.observe(vec![x], 2.0 * x);
            aware.observe(vec![x], 2.0 * x);
        }
        // Regime 2: y = -2x + 100. Feed a short burst, then compare.
        let mut drifted = false;
        for i in 0..60 {
            let x = (i % 25) as f64;
            plain.observe(vec![x], 100.0 - 2.0 * x);
            drifted |= aware.observe(vec![x], 100.0 - 2.0 * x);
        }
        assert!(drifted, "drift must be detected");
        assert!(aware.drift_count() >= 1);
        let truth = 100.0 - 2.0 * 10.0;
        let e_aware = (aware.predict(&[10.0]).unwrap() - truth).abs();
        let e_plain = (plain.predict(&[10.0]).unwrap() - truth).abs();
        assert!(
            e_aware < e_plain,
            "flushed learner ({e_aware}) must beat mixed-window learner ({e_plain})"
        );
    }

    #[test]
    fn refit_cadence_respected() {
        let mut l = learner(100, 25);
        for i in 0..100 {
            l.observe(vec![i as f64], i as f64);
        }
        // First fit at 10 examples, then every 25: fits at 10, 35, 60, 85.
        assert_eq!(l.refit_count(), 4);
    }
}
