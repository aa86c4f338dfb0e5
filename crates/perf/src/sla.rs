//! The paper's SLA fulfillment function.
//!
//! §III-C defines fulfillment as a piecewise-linear function of response
//! time with two parameters, the target `RT0` and tolerance `α`:
//!
//! ```text
//! SLA(RT) = 1                                   if RT ≤ RT0
//!         = 1 − (RT − RT0) / ((α−1)·RT0)        if RT0 ≤ RT ≤ α·RT0
//!         = 0                                   if RT > α·RT0
//! ```
//!
//! The paper instantiates `RT0 = 0.1 s` and `α = 10`.

/// SLA parameters for one customer contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlaFunction {
    /// Fully-satisfying response time, seconds.
    pub rt0_secs: f64,
    /// Tolerance multiplier; fulfillment is 0 at `alpha * rt0`.
    pub alpha: f64,
}

impl SlaFunction {
    /// The paper's contract: RT0 = 0.1 s, α = 10.
    pub fn paper() -> Self {
        SlaFunction {
            rt0_secs: 0.1,
            alpha: 10.0,
        }
    }

    /// A new SLA function; `rt0 > 0`, `alpha > 1`.
    pub fn new(rt0_secs: f64, alpha: f64) -> Self {
        assert!(rt0_secs > 0.0, "RT0 must be positive");
        assert!(alpha > 1.0, "alpha must exceed 1");
        SlaFunction { rt0_secs, alpha }
    }

    /// Fulfillment level in `[0, 1]` for a response time.
    pub fn fulfillment(&self, rt_secs: f64) -> f64 {
        if rt_secs <= self.rt0_secs {
            1.0
        } else if rt_secs >= self.alpha * self.rt0_secs {
            0.0
        } else {
            1.0 - (rt_secs - self.rt0_secs) / ((self.alpha - 1.0) * self.rt0_secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let s = SlaFunction::paper();
        assert_eq!(s.fulfillment(0.05), 1.0);
        assert_eq!(s.fulfillment(0.1), 1.0);
        assert_eq!(s.fulfillment(1.0), 0.0);
        assert_eq!(s.fulfillment(5.0), 0.0);
        // Midpoint of the degrading band: RT = 0.55 -> 0.5.
        assert!((s.fulfillment(0.55) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn piecewise_linearity() {
        let s = SlaFunction::new(0.2, 5.0);
        // Degrades linearly between rt0 (0.2) and alpha*rt0 (1.0).
        let f1 = s.fulfillment(0.4);
        let f2 = s.fulfillment(0.6);
        let f3 = s.fulfillment(0.8);
        assert!((f1 - f2 - (f2 - f3)).abs() < 1e-12, "equal decrements");
        assert!(f1 > f2 && f2 > f3);
    }

    #[test]
    fn monotone_nonincreasing() {
        let s = SlaFunction::paper();
        let mut last = 1.1;
        for i in 0..200 {
            let f = s.fulfillment(i as f64 * 0.01);
            assert!(f <= last + 1e-12);
            assert!((0.0..=1.0).contains(&f));
            last = f;
        }
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn invalid_alpha_rejected() {
        SlaFunction::new(0.1, 1.0);
    }
}
