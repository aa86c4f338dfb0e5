//! Preset workloads reconstructing the paper's experimental conditions.
//!
//! The paper drives its testbed with the Li-BCN 2010 trace collection
//! ("traces from different real hosted web-sites offering from file
//! hosting to image-gallery services"), scaled to stress the Atom hosts,
//! with the four regional copies phase-shifted to simulate time zones.
//! These constructors build the synthetic equivalents used by every
//! experiment driver.

use crate::generator::{Region, ServiceWorkload, Workload};
use crate::profile::DiurnalProfile;
use crate::service::ServiceClass;

/// The four paper regions (Brisbane, Bangalore, Barcelona, Boston) with
/// equal client populations.
pub fn paper_regions() -> Vec<Region> {
    [10.0, 5.5, 1.0, -5.0]
        .iter()
        .map(|&tz| Region {
            utc_offset_hours: tz,
            population: 1.0,
        })
        .collect()
}

/// A rotating service mix reconstructing the Li-BCN flavour: service `i`
/// gets class `i mod 4`, an alternating office/evening profile, a home
/// region `i mod 4` holding ~55% of its clients, and a scale that stresses
/// one Atom core at peak.
pub fn libcn_services(count: usize, peak_rps: f64) -> Vec<ServiceWorkload> {
    // Class rotation chosen so the home DC that doubles up (service 4
    // shares service 0's home in the 5-VM case) pairs the CPU-heaviest
    // class with a medium one: the shared host contends at peak hours —
    // the pain the static baseline suffers and the dynamic scheduler
    // relieves — without being permanently underwater.
    let classes = [
        ServiceClass::Ecommerce,
        ServiceClass::ImageGallery,
        ServiceClass::FileHosting,
        ServiceClass::ImageGallery,
        ServiceClass::Blog,
    ];
    (0..count)
        .map(|i| {
            let home = i % 4;
            let mut weights = vec![0.15; 4];
            weights[home] = 0.55;
            ServiceWorkload {
                class: classes[i % classes.len()],
                profile: if i % 2 == 0 {
                    DiurnalProfile::office_hours()
                } else {
                    DiurnalProfile::evening()
                },
                scale_rps: peak_rps * (0.8 + 0.1 * (i % 5) as f64),
                region_weights: weights,
            }
        })
        .collect()
}

/// The intra-DC (Figure 4) workload: `vms` services whose clients are all
/// local to one region (index 2, Barcelona — where the testbed lived).
pub fn intra_dc(vms: usize, peak_rps: f64, seed: u64) -> Workload {
    let services = (0..vms)
        .map(|i| {
            let mut weights = vec![0.0; 4];
            weights[2] = 1.0;
            ServiceWorkload {
                class: ServiceClass::ALL[i % 4],
                profile: if i % 2 == 0 {
                    DiurnalProfile::office_hours()
                } else {
                    DiurnalProfile::evening()
                },
                scale_rps: peak_rps * (0.8 + 0.1 * (i % 5) as f64),
                region_weights: weights,
            }
        })
        .collect();
    Workload::new(paper_regions(), services, seed)
}

/// The inter-DC (Figures 5–7) workload: `vms` services with worldwide
/// clients, per-region diurnal phase shifts, and home-region affinity.
pub fn multi_dc(vms: usize, peak_rps: f64, seed: u64) -> Workload {
    Workload::new(paper_regions(), libcn_services(vms, peak_rps), seed)
}

/// The follow-the-sun workload (Figure 5): one service, equal region
/// weights, a sharp local-noon peak — its dominant load source circles
/// the planet once per day.
pub fn follow_the_sun(peak_rps: f64, seed: u64) -> Workload {
    let svc = ServiceWorkload {
        class: ServiceClass::ImageGallery,
        profile: DiurnalProfile::noon_peak(),
        scale_rps: peak_rps,
        region_weights: vec![1.0; 4],
    };
    Workload::new(paper_regions(), vec![svc], seed)
}

/// A latency-neutral multi-DC workload: every service draws equal load
/// from all four regions on a flat profile, so no DC has a latency or
/// demand-phase advantage. Used by experiments isolating the energy term
/// (price shocks, spot markets) from the client-proximity term.
pub fn uniform_multi_dc(vms: usize, peak_rps: f64, seed: u64) -> Workload {
    let services = (0..vms)
        .map(|i| ServiceWorkload {
            class: ServiceClass::ALL[i % 4],
            profile: DiurnalProfile::flat(),
            scale_rps: peak_rps,
            region_weights: vec![1.0; 4],
        })
        .collect();
    Workload::new(paper_regions(), services, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_simcore::time::SimTime;

    #[test]
    fn presets_have_right_shape() {
        let w = multi_dc(5, 150.0, 1);
        assert_eq!(w.service_count(), 5);
        assert_eq!(w.region_count(), 4);
        let intra = intra_dc(5, 150.0, 1);
        // All load local to region 2.
        for s in 0..5 {
            for t in [SimTime::from_hours(3), SimTime::from_hours(15)] {
                assert_eq!(intra.expected_rps(s, 0, t), 0.0);
                assert!(intra.expected_rps(s, 2, t) > 0.0);
            }
        }
    }

    #[test]
    fn home_region_dominates_weights() {
        let services = libcn_services(8, 100.0);
        for (i, s) in services.iter().enumerate() {
            let home = i % 4;
            let max = s
                .region_weights
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.region_weights[home], max);
        }
    }

    #[test]
    fn follow_the_sun_rotates() {
        let w = follow_the_sun(100.0, 3);
        let mut leaders = std::collections::BTreeSet::new();
        for h in 0..24 {
            let t = SimTime::from_hours(h);
            let rps = |r: usize| w.expected_rps(0, r, t);
            leaders.insert((0..4).max_by(|&a, &b| rps(a).total_cmp(&rps(b))));
        }
        assert!(leaders.len() >= 3, "leaders {leaders:?}");
    }
}
