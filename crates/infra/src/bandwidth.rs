//! Inter-DC link bandwidth management.
//!
//! The paper assumes a fixed 10 Gbps pipe between any two DCs and defers
//! "networking costs and bandwidth management" to future work. This
//! module supplies that management: a [`LinkLoad`] tracker records the
//! background client traffic crossing each DC pair, and
//! [`crate::network::NetworkModel::migration_duration_shared`] stretches
//! migration transfers when the pipe is shared — by client traffic, by
//! other concurrent migrations, or both. A migration storm therefore
//! slows itself down, which is exactly the feedback a scheduler must
//! price when it considers bulk rebalancing.

use crate::ids::LocationId;

/// Background (client-traffic) utilization of every inter-DC link,
/// symmetric, in Gbps.
#[derive(Clone, Debug)]
pub struct LinkLoad {
    n: usize,
    gbps: Vec<f64>,
}

impl LinkLoad {
    /// A zeroed tracker over `n_locations` sites.
    pub fn new(n_locations: usize) -> Self {
        LinkLoad {
            n: n_locations,
            gbps: vec![0.0; n_locations * n_locations],
        }
    }

    /// Number of tracked locations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no locations are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Zeroes all links (start of a new accounting window).
    pub fn clear(&mut self) {
        self.gbps.fill(0.0);
    }

    /// Adds `gbps` of client traffic between `a` and `b` (symmetric;
    /// same-location traffic is intra-DC and ignored).
    pub fn add_client_gbps(&mut self, a: LocationId, b: LocationId, gbps: f64) {
        debug_assert!(gbps >= 0.0);
        let (i, j) = (a.index(), b.index());
        assert!(i < self.n && j < self.n, "location out of range");
        if i == j {
            return;
        }
        self.gbps[i * self.n + j] += gbps;
        self.gbps[j * self.n + i] += gbps;
    }

    /// Current client traffic between `a` and `b`, Gbps.
    #[inline]
    pub fn client_gbps(&self, a: LocationId, b: LocationId) -> f64 {
        let (i, j) = (a.index(), b.index());
        debug_assert!(i < self.n && j < self.n);
        self.gbps[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: LocationId = LocationId(0);
    const B: LocationId = LocationId(1);
    const C: LocationId = LocationId(2);

    #[test]
    fn accumulates_symmetrically() {
        let mut l = LinkLoad::new(3);
        l.add_client_gbps(A, B, 1.5);
        l.add_client_gbps(B, A, 0.5);
        assert!((l.client_gbps(A, B) - 2.0).abs() < 1e-12);
        assert!((l.client_gbps(B, A) - 2.0).abs() < 1e-12);
        assert_eq!(l.client_gbps(A, C), 0.0);
    }

    #[test]
    fn same_location_is_ignored() {
        let mut l = LinkLoad::new(2);
        l.add_client_gbps(A, A, 5.0);
        assert_eq!(l.client_gbps(A, A), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut l = LinkLoad::new(2);
        l.add_client_gbps(A, B, 3.0);
        l.clear();
        assert_eq!(l.client_gbps(A, B), 0.0);
    }

    #[test]
    #[should_panic(expected = "location out of range")]
    fn out_of_range_panics() {
        let mut l = LinkLoad::new(2);
        l.add_client_gbps(A, LocationId(5), 1.0);
    }
}
