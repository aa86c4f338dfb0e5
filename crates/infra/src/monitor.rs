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

/// Monitor distortion parameters.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Multiplicative Gaussian noise (fractional σ) on every component.
    pub noise_frac: f64,
    /// Probability per sample that the monitor itself spikes the CPU
    /// reading (the paper's "up to 50% of an Atom thread" observation).
    pub spike_prob: f64,
    /// Size of the CPU spike when it happens, percent-of-core.
    pub spike_cpu_pct: f64,
    /// Number of recent samples the sliding window averages over (the
    /// paper's schedulers look at "the last 10 minutes").
    pub window_len: usize,
    /// Probability per sample that the reading is lost entirely (agent
    /// crash, collection timeout) and never reaches the scheduler's
    /// sizing window.
    pub dropout_prob: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            noise_frac: 0.05,
            spike_prob: 0.02,
            spike_cpu_pct: 50.0,
            window_len: 10,
            dropout_prob: 0.0,
        }
    }
}

/// Applies monitor distortion to one true usage sample.
pub fn observe(truth: &Resources, cfg: &MonitorConfig, rng: &mut RngStream) -> Resources {
    let jitter = |x: f64, rng: &mut RngStream| {
        if cfg.noise_frac <= 0.0 {
            x
        } else {
            (x * (1.0 + rng.normal(0.0, cfg.noise_frac))).max(0.0)
        }
    };
    let mut obs = Resources {
        cpu: jitter(truth.cpu, rng),
        mem_mb: jitter(truth.mem_mb, rng),
        net_in_kbps: jitter(truth.net_in_kbps, rng),
        net_out_kbps: jitter(truth.net_out_kbps, rng),
    };
    if cfg.spike_prob > 0.0 && rng.chance(cfg.spike_prob) {
        obs.cpu += rng.uniform_range(0.0, cfg.spike_cpu_pct);
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

    fn noiseless() -> MonitorConfig {
        MonitorConfig {
            noise_frac: 0.0,
            spike_prob: 0.0,
            spike_cpu_pct: 0.0,
            window_len: 1,
            dropout_prob: 0.0,
        }
    }

    #[test]
    fn noiseless_monitor_is_identity() {
        let mut rng = RngStream::root(1);
        let truth = r(123.0);
        let obs = observe(&truth, &noiseless(), &mut rng);
        assert_eq!(obs, truth);
    }

    #[test]
    fn noisy_monitor_is_unbiased_on_average() {
        let mut rng = RngStream::root(2);
        let cfg = MonitorConfig {
            noise_frac: 0.1,
            spike_prob: 0.0,
            ..Default::default()
        };
        let truth = r(200.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| observe(&truth, &cfg, &mut rng).cpu)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 200.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn spikes_inflate_cpu_only() {
        let mut rng = RngStream::root(3);
        let cfg = MonitorConfig {
            noise_frac: 0.0,
            spike_prob: 1.0,
            spike_cpu_pct: 50.0,
            ..noiseless()
        };
        let truth = r(100.0);
        let obs = observe(&truth, &cfg, &mut rng);
        assert!(obs.cpu > 100.0);
        assert_eq!(obs.mem_mb, truth.mem_mb);
    }

    #[test]
    fn observations_never_negative() {
        let mut rng = RngStream::root(4);
        let cfg = MonitorConfig {
            noise_frac: 2.0,
            ..Default::default()
        };
        for _ in 0..1000 {
            let obs = observe(&r(1.0), &cfg, &mut rng);
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
