//! Resource vectors: CPU, memory and network I/O.
//!
//! The paper's model tracks, per VM and per host, four capacities (its
//! Table I learns one predictor per component): CPU as a percentage of one
//! core (so a 4-core Atom host has 400), memory in MB, and network input /
//! output bandwidth in KB/s. [`Resources`] is the shared algebra over that
//! 4-vector used by hosts, VMs, schedulers and predictors alike.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A CPU/MEM/NET-IN/NET-OUT resource vector.
///
/// Units: `cpu` in percent-of-one-core (100.0 = one fully busy core),
/// `mem_mb` in megabytes, `net_in_kbps` / `net_out_kbps` in KB/s.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// CPU demand/capacity, percent of one core.
    pub cpu: f64,
    /// Memory, MB.
    pub mem_mb: f64,
    /// Network input, KB/s.
    pub net_in_kbps: f64,
    /// Network output, KB/s.
    pub net_out_kbps: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        cpu: 0.0,
        mem_mb: 0.0,
        net_in_kbps: 0.0,
        net_out_kbps: 0.0,
    };

    /// Builds a resource vector.
    pub const fn new(cpu: f64, mem_mb: f64, net_in_kbps: f64, net_out_kbps: f64) -> Self {
        Resources {
            cpu,
            mem_mb,
            net_in_kbps,
            net_out_kbps,
        }
    }

    /// All four components are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        ok(self.cpu) && ok(self.mem_mb) && ok(self.net_in_kbps) && ok(self.net_out_kbps)
    }

    /// Component-wise `<=` with a small epsilon: does a demand of `self`
    /// fit inside an availability of `cap`?
    pub fn fits_within(&self, cap: &Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.cpu <= cap.cpu + EPS
            && self.mem_mb <= cap.mem_mb + EPS
            && self.net_in_kbps <= cap.net_in_kbps + EPS
            && self.net_out_kbps <= cap.net_out_kbps + EPS
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Resources) -> Resources {
        Resources {
            cpu: self.cpu.min(other.cpu),
            mem_mb: self.mem_mb.min(other.mem_mb),
            net_in_kbps: self.net_in_kbps.min(other.net_in_kbps),
            net_out_kbps: self.net_out_kbps.min(other.net_out_kbps),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            cpu: self.cpu.max(other.cpu),
            mem_mb: self.mem_mb.max(other.mem_mb),
            net_in_kbps: self.net_in_kbps.max(other.net_in_kbps),
            net_out_kbps: self.net_out_kbps.max(other.net_out_kbps),
        }
    }

    /// Component-wise subtraction clamped at zero (free capacity after
    /// allocation, never negative).
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu: (self.cpu - other.cpu).max(0.0),
            mem_mb: (self.mem_mb - other.mem_mb).max(0.0),
            net_in_kbps: (self.net_in_kbps - other.net_in_kbps).max(0.0),
            net_out_kbps: (self.net_out_kbps - other.net_out_kbps).max(0.0),
        }
    }

    /// The largest utilisation fraction across components, given a
    /// capacity; this "dominant share" drives bin-packing order in the
    /// Best-Fit scheduler. Components with zero capacity are skipped.
    pub fn dominant_share(&self, cap: &Resources) -> f64 {
        let frac = |d: f64, c: f64| if c > 0.0 { d / c } else { 0.0 };
        frac(self.cpu, cap.cpu)
            .max(frac(self.mem_mb, cap.mem_mb))
            .max(frac(self.net_in_kbps, cap.net_in_kbps))
            .max(frac(self.net_out_kbps, cap.net_out_kbps))
    }

    /// A scalar "size" used for demand ordering: the sum of normalized
    /// components against a reference capacity.
    pub fn normalized_magnitude(&self, cap: &Resources) -> f64 {
        let frac = |d: f64, c: f64| if c > 0.0 { d / c } else { 0.0 };
        frac(self.cpu, cap.cpu)
            + frac(self.mem_mb, cap.mem_mb)
            + frac(self.net_in_kbps, cap.net_in_kbps)
            + frac(self.net_out_kbps, cap.net_out_kbps)
    }

    /// True when every component is (near) zero.
    pub fn is_zero(&self) -> bool {
        const EPS: f64 = 1e-9;
        self.cpu < EPS && self.mem_mb < EPS && self.net_in_kbps < EPS && self.net_out_kbps < EPS
    }
}

impl Add for Resources {
    type Output = Resources;
    #[inline]
    fn add(self, o: Resources) -> Resources {
        Resources {
            cpu: self.cpu + o.cpu,
            mem_mb: self.mem_mb + o.mem_mb,
            net_in_kbps: self.net_in_kbps + o.net_in_kbps,
            net_out_kbps: self.net_out_kbps + o.net_out_kbps,
        }
    }
}

impl AddAssign for Resources {
    #[inline]
    fn add_assign(&mut self, o: Resources) {
        *self = *self + o;
    }
}

impl Sub for Resources {
    type Output = Resources;
    #[inline]
    fn sub(self, o: Resources) -> Resources {
        Resources {
            cpu: self.cpu - o.cpu,
            mem_mb: self.mem_mb - o.mem_mb,
            net_in_kbps: self.net_in_kbps - o.net_in_kbps,
            net_out_kbps: self.net_out_kbps - o.net_out_kbps,
        }
    }
}

impl SubAssign for Resources {
    #[inline]
    fn sub_assign(&mut self, o: Resources) {
        *self = *self - o;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;
    #[inline]
    fn mul(self, k: f64) -> Resources {
        Resources {
            cpu: self.cpu * k,
            mem_mb: self.mem_mb * k,
            net_in_kbps: self.net_in_kbps * k,
            net_out_kbps: self.net_out_kbps * k,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Debug for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Res(cpu {:.1}%, mem {:.0}MB, in {:.1}KB/s, out {:.1}KB/s)",
            self.cpu, self.mem_mb, self.net_in_kbps, self.net_out_kbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cpu: f64, mem: f64, i: f64, o: f64) -> Resources {
        Resources::new(cpu, mem, i, o)
    }

    #[test]
    fn algebra_basics() {
        let a = r(100.0, 512.0, 10.0, 20.0);
        let b = r(50.0, 256.0, 5.0, 10.0);
        assert_eq!(a + b, r(150.0, 768.0, 15.0, 30.0));
        assert_eq!(a - b, b);
        assert_eq!(b * 2.0, a);
        let sum: Resources = [a, b].into_iter().sum();
        assert_eq!(sum, a + b);
    }

    #[test]
    fn fits_within_is_componentwise() {
        let cap = r(400.0, 4096.0, 1000.0, 1000.0);
        assert!(r(400.0, 4096.0, 1000.0, 1000.0).fits_within(&cap));
        assert!(!r(401.0, 1.0, 1.0, 1.0).fits_within(&cap));
        assert!(!r(1.0, 5000.0, 1.0, 1.0).fits_within(&cap));
        assert!(!r(1.0, 1.0, 1001.0, 1.0).fits_within(&cap));
        assert!(!r(1.0, 1.0, 1.0, 1001.0).fits_within(&cap));
        assert!(Resources::ZERO.fits_within(&cap));
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = r(10.0, 10.0, 10.0, 10.0);
        let b = r(20.0, 5.0, 20.0, 5.0);
        let d = a.saturating_sub(&b);
        assert_eq!(d, r(0.0, 5.0, 0.0, 5.0));
        assert!(d.is_valid());
    }

    #[test]
    fn dominant_share_picks_bottleneck() {
        let cap = r(400.0, 4096.0, 100.0, 100.0);
        let d = r(100.0, 1024.0, 90.0, 10.0);
        assert!((d.dominant_share(&cap) - 0.9).abs() < 1e-12);
        assert_eq!(Resources::ZERO.dominant_share(&cap), 0.0);
    }

    #[test]
    fn dominant_share_ignores_zero_capacity() {
        let cap = r(400.0, 0.0, 0.0, 0.0);
        let d = r(200.0, 50.0, 1.0, 1.0);
        assert!((d.dominant_share(&cap) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_and_validity() {
        assert!(Resources::ZERO.is_zero());
        assert!(Resources::ZERO.is_valid());
        assert!(!r(f64::NAN, 0.0, 0.0, 0.0).is_valid());
        assert!(!r(-1.0, 0.0, 0.0, 0.0).is_valid());
        assert!(!r(1.0, 1.0, 1.0, 1.0).is_zero());
    }
}
