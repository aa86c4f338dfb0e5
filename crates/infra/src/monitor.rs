//! Resource monitors — the noisy lens through which schedulers see the
//! world.
//!
//! The paper motivates its ML models with exactly the failure modes
//! reproduced here (§IV-B): observed usage is distorted by the sampling
//! window and hypervisor stress, monitors themselves add overhead
//! ("monitors peaking up to 50% of an Atom CPU thread"), and — crucially —
//! a *starved* VM reports the usage it **got**, not the usage it
//! **needed**, which silently under-estimates demand under contention.
//! Plain Best-Fit consumes these observations; the ML variant learns to
//! predict true demand from load characteristics instead.

use crate::resources::Resources;
use pamdc_simcore::rng::RngStream;
use std::collections::VecDeque;

/// Multiplicative Gaussian noise (fractional σ) on every component.
const NOISE_FRAC: f64 = 0.05;

/// Probability per sample that the monitor itself spikes the CPU
/// reading (the paper's "up to 50% of an Atom thread" observation).
const SPIKE_PROB: f64 = 0.02;

/// Largest CPU spike the monitor adds, percent-of-core.
const SPIKE_CPU_PCT: f64 = 50.0;

/// Number of recent samples the sliding window averages over (the
/// paper's schedulers look at "the last 10 minutes").
pub const WINDOW_LEN: usize = 10;

/// Applies monitor distortion to one true usage sample.
pub fn observe(truth: &Resources, rng: &mut RngStream) -> Resources {
    let jitter = |x: f64, rng: &mut RngStream| (x * (1.0 + rng.normal(0.0, NOISE_FRAC))).max(0.0);
    let mut obs = Resources {
        cpu: jitter(truth.cpu, rng),
        mem_mb: jitter(truth.mem_mb, rng),
        net_in_kbps: jitter(truth.net_in_kbps, rng),
        net_out_kbps: jitter(truth.net_out_kbps, rng),
    };
    if rng.chance(SPIKE_PROB) {
        obs.cpu += rng.uniform_range(0.0, SPIKE_CPU_PCT);
    }
    obs
}

/// A fixed-length sliding window of resource observations with an O(1)
/// running mean — "what the monitors said over the last N samples".
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    cap: usize,
    buf: VecDeque<Resources>,
    sum: Resources,
}

impl SlidingWindow {
    /// A window holding up to `cap` samples.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window length must be positive");
        SlidingWindow {
            cap,
            buf: VecDeque::with_capacity(cap),
            sum: Resources::ZERO,
        }
    }

    /// Pushes a sample, evicting the oldest when full.
    pub fn push(&mut self, r: Resources) {
        if self.buf.len() == self.cap {
            let old = self.buf.pop_front().expect("window not empty");
            self.sum -= old;
        }
        self.buf.push_back(r);
        self.sum += r;
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before any sample arrives.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Mean of the held samples (ZERO when empty).
    pub fn mean(&self) -> Resources {
        if self.buf.is_empty() {
            Resources::ZERO
        } else {
            self.sum * (1.0 / self.buf.len() as f64)
        }
    }

    /// Component-wise max over the held samples (ZERO when empty) —
    /// the conservative sizing some operators use instead of the mean.
    pub fn peak(&self) -> Resources {
        self.buf.iter().fold(Resources::ZERO, |acc, r| acc.max(r))
    }

    /// Drops all samples (e.g. after a migration invalidates history).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.sum = Resources::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cpu: f64) -> Resources {
        Resources::new(cpu, 512.0, 10.0, 20.0)
    }

    /// Mean of `n` observations of `truth`.
    fn mean_observation(truth: &Resources, n: usize, seed: u64) -> Resources {
        let mut rng = RngStream::root(seed);
        let sum: Resources = (0..n).map(|_| observe(truth, &mut rng)).sum();
        sum * (1.0 / n as f64)
    }

    #[test]
    fn noisy_monitor_is_unbiased_on_average() {
        // Memory never spikes, so its mean is the truth's.
        let truth = r(200.0);
        let mean = mean_observation(&truth, 20_000, 2);
        assert!((mean.mem_mb - 512.0).abs() < 2.0, "mean {mean:?}");
        assert!((mean.net_out_kbps - 20.0).abs() < 0.1, "mean {mean:?}");
    }

    #[test]
    fn spikes_inflate_cpu_only() {
        // A uniform spike up to SPIKE_CPU_PCT on SPIKE_PROB of the
        // samples lifts the mean CPU by their product over two; the
        // noise averages out (σ of the mean: 100 × 0.05 / √20000).
        let truth = r(100.0);
        let mean = mean_observation(&truth, 20_000, 3);
        let lift = SPIKE_PROB * SPIKE_CPU_PCT / 2.0;
        assert!((mean.cpu - 100.0 - lift).abs() < 0.2, "mean {mean:?}");
        assert!((mean.mem_mb - 512.0).abs() < 2.0, "mean {mean:?}");
    }

    #[test]
    fn observations_never_negative() {
        let mut rng = RngStream::root(4);
        for _ in 0..1000 {
            let obs = observe(&r(1.0), &mut rng);
            assert!(obs.is_valid(), "{obs:?}");
        }
    }

    #[test]
    fn sliding_window_mean_and_eviction() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.mean(), Resources::ZERO);
        w.push(r(10.0));
        w.push(r(20.0));
        assert_eq!(w.len(), 2);
        assert!((w.mean().cpu - 15.0).abs() < 1e-9);
        w.push(r(30.0));
        w.push(r(40.0)); // evicts 10
        assert_eq!(w.len(), 3);
        assert!((w.mean().cpu - 30.0).abs() < 1e-9);
        assert_eq!(w.peak().cpu, 40.0);
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn window_sum_stays_consistent_after_many_pushes() {
        let mut w = SlidingWindow::new(5);
        for i in 0..1000 {
            w.push(r(i as f64));
        }
        // Window holds 995..=999 -> mean 997.
        assert!((w.mean().cpu - 997.0).abs() < 1e-6);
    }
}
