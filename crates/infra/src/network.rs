//! The inter-DC network: locations, latency matrix, bandwidth.
//!
//! The paper takes its latencies from Verizon's published intercontinental
//! network and assumes 10 Gbps links between DCs (its Table II):
//!
//! | ms       | BRS | BNG | BCN | BST |
//! |----------|-----|-----|-----|-----|
//! | Brisbane |  0  | 265 | 390 | 255 |
//! | Bangalore| 265 |  0  | 250 | 380 |
//! | Barcelona| 390 | 250 |  0  |  90 |
//! | Boston   | 255 | 380 |  90 |  0  |
//!
//! Clients reach their **local** DC's access point (ISP); requests to a VM
//! hosted elsewhere traverse the provider's network and pay the matrix
//! latency, exactly as §III-A of the paper describes.

use crate::ids::LocationId;
use pamdc_simcore::time::SimDuration;

/// The four cities of the paper's case study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum City {
    /// Brisbane, Australia.
    Brisbane,
    /// Bangalore, India.
    Bangalore,
    /// Barcelona, Spain.
    Barcelona,
    /// Boston, Massachusetts.
    Boston,
}

impl City {
    /// All four, in the paper's table order.
    pub const ALL: [City; 4] = [
        City::Brisbane,
        City::Bangalore,
        City::Barcelona,
        City::Boston,
    ];

    /// The paper's three-letter code.
    pub fn code(self) -> &'static str {
        match self {
            City::Brisbane => "BRS",
            City::Bangalore => "BNG",
            City::Barcelona => "BCN",
            City::Boston => "BST",
        }
    }

    /// Dense location id (order of [`City::ALL`]).
    pub fn location(self) -> LocationId {
        LocationId(match self {
            City::Brisbane => 0,
            City::Bangalore => 1,
            City::Barcelona => 2,
            City::Boston => 3,
        })
    }

    /// UTC offset in hours, used to phase-shift the diurnal workload per
    /// region (Brisbane +10, Bangalore +5.5, Barcelona +1, Boston −5).
    pub fn utc_offset_hours(self) -> f64 {
        match self {
            City::Brisbane => 10.0,
            City::Bangalore => 5.5,
            City::Barcelona => 1.0,
            City::Boston => -5.0,
        }
    }
}

/// Symmetric location-to-location latency matrix, milliseconds.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    n: usize,
    ms: Vec<f64>,
}

impl LatencyMatrix {
    /// A zeroed `n × n` matrix.
    pub fn zeroed(n: usize) -> Self {
        LatencyMatrix {
            n,
            ms: vec![0.0; n * n],
        }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty (0-location) matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the latency between `a` and `b` (both directions).
    pub fn set(&mut self, a: LocationId, b: LocationId, ms: f64) {
        assert!(ms >= 0.0, "latency must be non-negative");
        let (i, j) = (a.index(), b.index());
        assert!(i < self.n && j < self.n, "location out of range");
        self.ms[i * self.n + j] = ms;
        self.ms[j * self.n + i] = ms;
    }

    /// Latency between `a` and `b`, ms.
    #[inline]
    pub fn get(&self, a: LocationId, b: LocationId) -> f64 {
        let (i, j) = (a.index(), b.index());
        debug_assert!(i < self.n && j < self.n, "location out of range");
        self.ms[i * self.n + j]
    }

    /// The paper's Table II matrix over the four cities.
    pub fn paper_table2() -> Self {
        use City::*;
        let mut m = LatencyMatrix::zeroed(4);
        let pairs = [
            (Brisbane, Bangalore, 265.0),
            (Brisbane, Barcelona, 390.0),
            (Brisbane, Boston, 255.0),
            (Bangalore, Barcelona, 250.0),
            (Bangalore, Boston, 380.0),
            (Barcelona, Boston, 90.0),
        ];
        for (a, b, ms) in pairs {
            m.set(a.location(), b.location(), ms);
        }
        m
    }
}

/// Inter-DC link bandwidth, Gbps (paper assumes 10).
const INTERDC_BANDWIDTH_GBPS: f64 = 10.0;

/// Intra-DC (same-rack/fabric) bandwidth, Gbps.
const INTRADC_BANDWIDTH_GBPS: f64 = 10.0;

/// Last-mile latency from a client population to its local DC access
/// point, ms.
const LOCAL_ACCESS_MS: f64 = 10.0;

/// Fixed freeze + restore overhead added to every migration.
const MIGRATION_OVERHEAD: SimDuration = SimDuration::from_secs(8);

/// Floor on the bandwidth share a migration always gets, as a fraction
/// of the link (reserved so bulk client traffic can never starve
/// migrations entirely).
const MIGRATION_MIN_SHARE: f64 = 0.1;

/// Latency and pricing model for the whole provider network; link
/// bandwidths and migration overheads are the paper's constants above.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Location-to-location latency, ms.
    pub latency: LatencyMatrix,
    /// Inter-DC transfer price, €/GB (0 = the paper's free network; the
    /// networking-costs extension sets a commercial transit price).
    pub eur_per_gb_interdc: f64,
}

impl NetworkModel {
    /// The paper's network: Table II latencies, 10 Gbps inter-DC links,
    /// free transfers.
    pub fn paper() -> Self {
        NetworkModel {
            latency: LatencyMatrix::paper_table2(),
            eur_per_gb_interdc: 0.0,
        }
    }

    /// The networking-costs extension: the paper's network with a
    /// commercial transit price per GB.
    pub fn paper_priced(eur_per_gb: f64) -> Self {
        NetworkModel {
            eur_per_gb_interdc: eur_per_gb,
            ..Self::paper()
        }
    }

    /// Transport latency (seconds) experienced by a request from clients
    /// at `src` to a VM hosted at `dst`: last mile plus, when the VM is
    /// remote, the provider-network hop.
    pub fn transport_secs(&self, src: LocationId, dst: LocationId) -> f64 {
        (LOCAL_ACCESS_MS + self.latency.get(src, dst)) / 1000.0
    }

    /// Wall-clock duration of migrating an image of `image_mb` megabytes
    /// from a host at `from` to a host at `to`: freeze/restore overhead,
    /// plus transfer at the link bandwidth, plus one propagation delay.
    pub fn migration_duration(
        &self,
        image_mb: f64,
        from: LocationId,
        to: LocationId,
    ) -> SimDuration {
        self.migration_duration_shared(image_mb, from, to, 1, 0.0)
    }

    /// Bandwidth-aware migration duration: the transfer shares the link
    /// with `concurrent` total migrations on the same DC pair (≥ 1,
    /// including this one) and with `client_gbps` of background client
    /// traffic. Client traffic is served first but migrations always
    /// keep a tenth of the raw link (`MIGRATION_MIN_SHARE`); the
    /// remainder splits evenly among the concurrent transfers.
    ///
    /// The effective rate is fixed at departure (no retroactive speed-up
    /// when a co-running transfer finishes early) — pessimistic, simple
    /// and deterministic, in the same spirit as the paper's pessimistic
    /// "SLA is 0 while migrating" assumption.
    pub fn migration_duration_shared(
        &self,
        image_mb: f64,
        from: LocationId,
        to: LocationId,
        concurrent: usize,
        client_gbps: f64,
    ) -> SimDuration {
        debug_assert!(concurrent >= 1, "the migration itself counts");
        debug_assert!(client_gbps >= 0.0);
        let raw = if from == to {
            INTRADC_BANDWIDTH_GBPS
        } else {
            INTERDC_BANDWIDTH_GBPS
        };
        let after_clients = (raw - client_gbps).max(raw * MIGRATION_MIN_SHARE);
        let gbps = after_clients / concurrent.max(1) as f64;
        // MB -> megabits, then / (Gbps -> Mbps).
        let transfer_secs = image_mb * 8.0 / (gbps * 1000.0);
        let prop_secs = self.latency.get(from, to) / 1000.0;
        MIGRATION_OVERHEAD + SimDuration::from_secs_f64(transfer_secs + prop_secs)
    }

    /// Euros charged for shipping `gb` across DCs (zero for intra-DC
    /// moves and on the paper's free network).
    pub fn transfer_cost_eur(&self, gb: f64, from: LocationId, to: LocationId) -> f64 {
        debug_assert!(gb >= 0.0);
        if from == to {
            0.0
        } else {
            gb * self.eur_per_gb_interdc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let m = LatencyMatrix::paper_table2();
        let loc = |c: City| c.location();
        assert_eq!(m.get(loc(City::Brisbane), loc(City::Bangalore)), 265.0);
        assert_eq!(m.get(loc(City::Brisbane), loc(City::Barcelona)), 390.0);
        assert_eq!(m.get(loc(City::Brisbane), loc(City::Boston)), 255.0);
        assert_eq!(m.get(loc(City::Bangalore), loc(City::Barcelona)), 250.0);
        assert_eq!(m.get(loc(City::Bangalore), loc(City::Boston)), 380.0);
        assert_eq!(m.get(loc(City::Barcelona), loc(City::Boston)), 90.0);
        for c in City::ALL {
            assert_eq!(m.get(loc(c), loc(c)), 0.0, "diagonal must be 0");
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let m = LatencyMatrix::paper_table2();
        for a in City::ALL {
            for b in City::ALL {
                assert_eq!(
                    m.get(a.location(), b.location()),
                    m.get(b.location(), a.location())
                );
            }
        }
    }

    #[test]
    fn transport_includes_last_mile() {
        let net = NetworkModel::paper();
        let bcn = City::Barcelona.location();
        let bst = City::Boston.location();
        // Local access only: 10 ms.
        assert!((net.transport_secs(bcn, bcn) - 0.010).abs() < 1e-12);
        // Remote: 10 ms + 90 ms.
        assert!((net.transport_secs(bcn, bst) - 0.100).abs() < 1e-12);
    }

    #[test]
    fn migration_duration_scales_with_image_and_distance() {
        let net = NetworkModel::paper();
        let bcn = City::Barcelona.location();
        let brs = City::Brisbane.location();
        let small_local = net.migration_duration(1024.0, bcn, bcn);
        let big_local = net.migration_duration(8192.0, bcn, bcn);
        let big_remote = net.migration_duration(8192.0, bcn, brs);
        assert!(big_local > small_local);
        assert!(big_remote > big_local, "propagation delay must add");
        // 2 GB over 10 Gbps ≈ 1.6 s transfer + 8 s overhead.
        let d = net.migration_duration(2048.0, bcn, bcn);
        assert!((d.as_secs_f64() - (8.0 + 2048.0 * 8.0 / 10_000.0)).abs() < 0.01);
    }

    #[test]
    fn shared_bandwidth_stretches_transfers() {
        let net = NetworkModel::paper();
        let bcn = City::Barcelona.location();
        let bst = City::Boston.location();
        let alone = net.migration_duration_shared(8192.0, bcn, bst, 1, 0.0);
        let storm = net.migration_duration_shared(8192.0, bcn, bst, 4, 0.0);
        let congested = net.migration_duration_shared(8192.0, bcn, bst, 1, 8.0);
        assert_eq!(alone, net.migration_duration(8192.0, bcn, bst));
        assert!(storm > alone, "4-way split must be slower");
        assert!(congested > alone, "client traffic must slow the transfer");
        // Transfer part scales ~4x in the storm (overhead+prop fixed).
        let fixed = 8.0 + 0.09;
        let t1 = alone.as_secs_f64() - fixed;
        let t4 = storm.as_secs_f64() - fixed;
        assert!((t4 / t1 - 4.0).abs() < 0.01, "ratio {}", t4 / t1);
    }

    #[test]
    fn migrations_never_starve() {
        let net = NetworkModel::paper();
        let bcn = City::Barcelona.location();
        let bst = City::Boston.location();
        // Client traffic beyond the link capacity: the reserved 10% share
        // still carries the migration.
        let flooded = net.migration_duration_shared(1000.0, bcn, bst, 1, 50.0);
        let floor_secs = 1000.0 * 8.0 / (10.0 * 0.1 * 1000.0);
        assert!((flooded.as_secs_f64() - (8.0 + 0.09 + floor_secs)).abs() < 0.01);
    }

    #[test]
    fn transfer_pricing() {
        let free = NetworkModel::paper();
        let priced = NetworkModel::paper_priced(0.02);
        let bcn = City::Barcelona.location();
        let bst = City::Boston.location();
        assert_eq!(free.transfer_cost_eur(5.0, bcn, bst), 0.0);
        assert!((priced.transfer_cost_eur(5.0, bcn, bst) - 0.10).abs() < 1e-12);
        assert_eq!(
            priced.transfer_cost_eur(5.0, bcn, bcn),
            0.0,
            "intra-DC is free"
        );
    }

    #[test]
    fn city_metadata() {
        assert_eq!(City::Barcelona.code(), "BCN");
        assert_eq!(City::ALL.len(), 4);
        // Brisbane is ahead of Boston.
        assert!(City::Brisbane.utc_offset_hours() > City::Boston.utc_offset_hours());
    }
}
