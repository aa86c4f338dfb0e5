//! The host power model.
//!
//! The paper measured an Intel Atom 4-core machine: 29.1 W with one active
//! core, then only 30.4 / 31.3 / 31.8 W with 2 / 3 / 4 active cores — the
//! strongly sub-linear curve that makes consolidation profitable. It also
//! notes that "for each 2 watts consumed by the machine, an extra watt is
//! required for cooling", i.e. facility draw = 1.5 × IT draw.
//!
//! [`PowerModel`] reproduces exactly that: a per-active-core step curve
//! with linear interpolation inside a core (CPU% between core counts), an
//! idle floor for a switched-on-but-empty host, full draw while booting
//! (machines burn power before they serve), and the cooling multiplier.

/// Power curve of a physical machine.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerModel {
    /// Watts drawn by a powered-on host with no load (0 active cores).
    pub idle_watts: f64,
    /// Watts drawn when `i+1` cores are active (the paper's measured
    /// 29.1 / 30.4 / 31.3 / 31.8 for the Atom).
    pub active_core_watts: Vec<f64>,
    /// Facility multiplier for cooling: paper says 1 extra watt per 2
    /// consumed, i.e. 1.5.
    pub cooling_factor: f64,
}

impl PowerModel {
    /// The paper's measured Intel Atom 4-core curve.
    pub fn atom_4core() -> Self {
        PowerModel {
            // Not reported in the paper; chosen just below the 1-core
            // measurement, consistent with Atom-class boards of the era.
            idle_watts: 27.0,
            active_core_watts: vec![29.1, 30.4, 31.3, 31.8],
            cooling_factor: 1.5,
        }
    }

    /// A hypothetical higher-power Xeon-like curve used by tests and
    /// heterogeneity experiments (steeper idle, more linear growth).
    pub fn xeon_8core() -> Self {
        PowerModel {
            idle_watts: 110.0,
            active_core_watts: vec![140.0, 165.0, 185.0, 202.0, 217.0, 230.0, 241.0, 250.0],
            cooling_factor: 1.5,
        }
    }

    /// Number of cores this curve describes.
    pub fn cores(&self) -> usize {
        self.active_core_watts.len()
    }

    /// IT (non-cooling) watts for a given CPU usage, in percent-of-core
    /// (e.g. 250.0 = 2.5 cores busy). Interpolates linearly between the
    /// step levels; clamps above the curve's top.
    pub fn it_watts(&self, cpu_pct: f64) -> f64 {
        let cpu = cpu_pct.max(0.0);
        if cpu <= f64::EPSILON {
            return self.idle_watts;
        }
        let full = (cpu / 100.0).floor() as usize; // fully active cores
        let frac = cpu / 100.0 - full as f64;
        let n = self.cores();
        if full >= n {
            return self.active_core_watts[n - 1];
        }
        let below = if full == 0 {
            self.idle_watts
        } else {
            self.active_core_watts[full - 1]
        };
        let above = self.active_core_watts[full];
        below + (above - below) * frac
    }

    /// Total facility watts (IT + cooling) at the given CPU usage.
    pub fn facility_watts(&self, cpu_pct: f64) -> f64 {
        self.it_watts(cpu_pct) * self.cooling_factor
    }

    /// Facility watts drawn while the host boots or shuts down — the full
    /// single-core draw (the machine is busy doing no useful work).
    pub fn transition_watts(&self) -> f64 {
        self.active_core_watts
            .first()
            .copied()
            .unwrap_or(self.idle_watts)
            * self.cooling_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_step_levels() {
        let p = PowerModel::atom_4core();
        assert!((p.it_watts(100.0) - 29.1).abs() < 1e-9);
        assert!((p.it_watts(200.0) - 30.4).abs() < 1e-9);
        assert!((p.it_watts(300.0) - 31.3).abs() < 1e-9);
        assert!((p.it_watts(400.0) - 31.8).abs() < 1e-9);
    }

    #[test]
    fn idle_floor_and_interpolation() {
        let p = PowerModel::atom_4core();
        assert_eq!(p.it_watts(0.0), 27.0);
        let half_core = p.it_watts(50.0);
        assert!(half_core > 27.0 && half_core < 29.1);
        let mid = p.it_watts(150.0);
        assert!((mid - (29.1 + 30.4) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn clamps_above_curve() {
        let p = PowerModel::atom_4core();
        assert_eq!(p.it_watts(900.0), 31.8);
        assert_eq!(p.it_watts(-5.0), 27.0);
    }

    #[test]
    fn monotone_in_cpu() {
        let p = PowerModel::atom_4core();
        let mut last = 0.0;
        for i in 0..=40 {
            let w = p.it_watts(i as f64 * 10.0);
            assert!(w >= last, "power must be monotone in cpu");
            last = w;
        }
    }

    #[test]
    fn consolidation_pays_the_paper_example() {
        // Two machines one core each vs one machine two cores: the single
        // consolidated host must draw much less in total.
        let p = PowerModel::atom_4core();
        let two_hosts = 2.0 * p.it_watts(100.0);
        let one_host = p.it_watts(200.0);
        assert!(one_host < two_hosts * 0.6, "{one_host} vs {two_hosts}");
    }

    #[test]
    fn cooling_factor_applied() {
        let p = PowerModel::atom_4core();
        assert!((p.facility_watts(100.0) - 29.1 * 1.5).abs() < 1e-9);
        assert!((p.transition_watts() - 29.1 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn xeon_curve_sane() {
        let p = PowerModel::xeon_8core();
        assert_eq!(p.cores(), 8);
        assert!(p.it_watts(800.0) > p.it_watts(100.0));
    }
}
