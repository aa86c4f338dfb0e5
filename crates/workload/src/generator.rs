//! The workload generator: per-tick, per-service, per-region demand.
//!
//! Sampling is a **pure function of (seed, service, tick)** — the
//! generator derives an RNG stream per sample point instead of mutating
//! shared state — so parallel sweeps, replays and partial re-runs all see
//! identical traces.

use crate::flashcrowd::{combined_factor, FlashCrowd};
use crate::profile::DiurnalProfile;
use crate::service::ServiceClass;
use pamdc_simcore::rng::RngStream;
use pamdc_simcore::time::SimTime;

/// Relative σ of per-tick rate noise around the profile curve.
const RATE_NOISE: f64 = 0.08;

/// One region's demand toward one service during one tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSample {
    /// Client region index (maps 1:1 to `pamdc-infra` locations).
    pub region: usize,
    /// Arrival rate, requests/second.
    pub rps: f64,
    /// Mean inbound KB per request this tick.
    pub kb_in_per_req: f64,
    /// Mean outbound KB per request this tick.
    pub kb_out_per_req: f64,
    /// Mean no-contention CPU per request, milliseconds.
    pub cpu_ms_per_req: f64,
}

/// A client region: its timezone and relative population.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// Hours ahead of simulation (UTC) time.
    pub utc_offset_hours: f64,
    /// Relative client population (multiplies every rate from here).
    pub population: f64,
}

/// One hosted service's demand description.
#[derive(Clone, Debug)]
pub struct ServiceWorkload {
    /// Request shape class.
    pub class: ServiceClass,
    /// Daily/weekly load shape, evaluated in each region's local time.
    pub profile: DiurnalProfile,
    /// Nominal peak request rate, requests/second, summed over regions.
    pub scale_rps: f64,
    /// Per-region affinity weights (normalized internally). A service
    /// "based" in region 2 would put most weight there.
    pub region_weights: Vec<f64>,
}

/// The full multi-region workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Client regions (indexing matches `FlowSample::region`).
    pub regions: Vec<Region>,
    /// Hosted services (indexing matches VM ids downstream).
    pub services: Vec<ServiceWorkload>,
    /// Demand bursts.
    pub flash_crowds: Vec<FlashCrowd>,
    seed: u64,
}

impl Workload {
    /// A workload over the given regions and services.
    pub fn new(regions: Vec<Region>, services: Vec<ServiceWorkload>, seed: u64) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        for s in &services {
            assert_eq!(
                s.region_weights.len(),
                regions.len(),
                "region weights must cover every region"
            );
        }
        Workload {
            regions,
            services,
            flash_crowds: Vec::new(),
            seed,
        }
    }

    /// Adds a flash crowd.
    pub fn with_flash_crowd(mut self, c: FlashCrowd) -> Self {
        self.flash_crowds.push(c);
        self
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Deterministic per-(service, tick) RNG stream.
    fn stream(&self, service: usize, t: SimTime) -> RngStream {
        RngStream::root(self.seed).derive_indexed(
            "workload",
            ((service as u64) << 40) | (t.as_millis() / 1000),
        )
    }

    /// The *expected* (noise-free) request rate from one region to one
    /// service at `t`, requests/second. This is what a "perfect forecast"
    /// oracle would know; the realized sample fluctuates around it.
    pub fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64 {
        let s = &self.services[service];
        let r = &self.regions[region];
        let wsum: f64 = s.region_weights.iter().sum();
        let w = if wsum > 0.0 {
            s.region_weights[region] / wsum
        } else {
            0.0
        };
        let shape = s.profile.intensity_at(t.as_hours_f64(), r.utc_offset_hours);
        let flash = combined_factor(&self.flash_crowds, service, region, t);
        s.scale_rps * w * r.population * shape * flash
    }

    /// Samples the realized demand for one service at one tick into
    /// `out` (cleared first): one [`FlowSample`] per region with nonzero
    /// expected rate.
    pub fn sample_into(&self, service: usize, t: SimTime, out: &mut Vec<FlowSample>) {
        out.clear();
        let mut rng = self.stream(service, t);
        let class = self.services[service].class;
        for region in 0..self.regions.len() {
            let expected = self.expected_rps(service, region, t);
            if expected <= 0.0 {
                continue;
            }
            // Multiplicative log-ish noise, clamped to stay positive.
            let noisy = (expected * (1.0 + rng.normal(0.0, RATE_NOISE))).max(0.0);
            // Poisson-ize small rates so low-traffic ticks are integers
            // in expectation; large rates use the (already noisy) mean.
            let rps = if noisy < 5.0 {
                rng.poisson(noisy) as f64
            } else {
                noisy
            };
            out.push(FlowSample {
                region,
                rps,
                kb_in_per_req: class.sample_kb_in(&mut rng),
                kb_out_per_req: class.sample_kb_out(&mut rng),
                cpu_ms_per_req: class.sample_cpu_ms(&mut rng),
            });
        }
    }

    /// Total expected rate over all regions for a service at `t`.
    pub fn expected_total_rps(&self, service: usize, t: SimTime) -> f64 {
        (0..self.regions.len())
            .map(|r| self.expected_rps(service, r, t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_regions() -> Vec<Region> {
        // Brisbane, Bangalore, Barcelona, Boston.
        [10.0, 5.5, 1.0, -5.0]
            .iter()
            .map(|&tz| Region {
                utc_offset_hours: tz,
                population: 1.0,
            })
            .collect()
    }

    fn sampled(w: &Workload, service: usize, t: SimTime) -> Vec<FlowSample> {
        let mut out = Vec::new();
        w.sample_into(service, t, &mut out);
        out
    }

    fn simple_workload(seed: u64) -> Workload {
        let svc = ServiceWorkload {
            class: ServiceClass::Blog,
            profile: DiurnalProfile::noon_peak(),
            scale_rps: 120.0,
            region_weights: vec![1.0; 4],
        };
        Workload::new(four_regions(), vec![svc], seed)
    }

    #[test]
    fn sampling_is_deterministic() {
        let w1 = simple_workload(9);
        let w2 = simple_workload(9);
        let t = SimTime::from_mins(345);
        assert_eq!(sampled(&w1, 0, t), sampled(&w2, 0, t));
    }

    #[test]
    fn different_ticks_differ() {
        let w = simple_workload(9);
        let a = sampled(&w, 0, SimTime::from_mins(1));
        let b = sampled(&w, 0, SimTime::from_mins(2));
        assert_ne!(a, b);
    }

    #[test]
    fn expected_rps_respects_weights() {
        let mut svc = ServiceWorkload {
            class: ServiceClass::Blog,
            profile: DiurnalProfile::flat(),
            scale_rps: 100.0,
            region_weights: vec![3.0, 1.0, 0.0, 0.0],
        };
        svc.profile = DiurnalProfile::flat();
        let w = Workload::new(four_regions(), vec![svc], 0);
        let t = SimTime::from_hours(5);
        let r0 = w.expected_rps(0, 0, t);
        let r1 = w.expected_rps(0, 1, t);
        assert!((r0 / r1 - 3.0).abs() < 1e-9);
        assert_eq!(w.expected_rps(0, 2, t), 0.0);
    }

    #[test]
    fn flash_crowd_scales_sampled_load() {
        // Sampled rates averaged over many seeds: the rate noise
        // (σ = RATE_NOISE of each region's rate) averages out, so the
        // ratio lands within 5% of the ×8 crowd.
        let t = SimTime::from_mins(80);
        let mean_total = |crowd: bool| {
            let seeds = 0..200u64;
            let n = seeds.end as f64;
            seeds
                .map(|seed| {
                    let mut w = simple_workload(seed);
                    if crowd {
                        w = w.with_flash_crowd(crate::flashcrowd::FlashCrowd::paper_fig6(8.0));
                    }
                    sampled(&w, 0, t).iter().map(|f| f.rps).sum::<f64>()
                })
                .sum::<f64>()
                / n
        };
        let (calm, burst) = (mean_total(false), mean_total(true));
        assert!(
            (burst / calm - 8.0).abs() < 0.4,
            "burst {burst} calm {calm}"
        );
    }

    #[test]
    fn expected_total_is_sum_of_regions() {
        let w = simple_workload(4);
        let t = SimTime::from_hours(7);
        let total = w.expected_total_rps(0, t);
        let sum: f64 = (0..4).map(|r| w.expected_rps(0, r, t)).sum();
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "region weights")]
    fn mismatched_weights_panic() {
        let svc = ServiceWorkload {
            class: ServiceClass::Blog,
            profile: DiurnalProfile::flat(),
            scale_rps: 10.0,
            region_weights: vec![1.0; 2],
        };
        Workload::new(four_regions(), vec![svc], 0);
    }
}
