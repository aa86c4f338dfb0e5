//! Property-based tests for the workload generator.

use pamdc_simcore::time::SimTime;
use pamdc_workload::flashcrowd::FlashCrowd;
use pamdc_workload::generator::{FlowSample, Workload};
use pamdc_workload::libcn;
use proptest::prelude::*;

fn sampled(w: &Workload, service: usize, t: SimTime) -> Vec<FlowSample> {
    let mut out = Vec::new();
    w.sample_into(service, t, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampling is a pure function of (seed, service, tick).
    #[test]
    fn sampling_is_pure(seed in 0u64..10_000, minute in 0u64..2880, svc in 0usize..5) {
        let w1 = libcn::multi_dc(5, 150.0, seed);
        let w2 = libcn::multi_dc(5, 150.0, seed);
        let t = SimTime::from_mins(minute);
        prop_assert_eq!(sampled(&w1, svc, t), sampled(&w2, svc, t));
    }

    /// Rates are always finite and non-negative; flows reference valid
    /// regions.
    #[test]
    fn samples_well_formed(seed in 0u64..10_000, minute in 0u64..2880) {
        let w = libcn::multi_dc(4, 200.0, seed);
        for svc in 0..4 {
            for f in sampled(&w, svc, SimTime::from_mins(minute)) {
                prop_assert!(f.rps.is_finite() && f.rps >= 0.0);
                prop_assert!(f.kb_in_per_req > 0.0 && f.kb_out_per_req > 0.0);
                prop_assert!(f.cpu_ms_per_req > 0.0);
                prop_assert!(f.region < 4);
            }
        }
    }

    /// Realized totals track the expected (noise-free) curve within the
    /// configured noise band, averaged over a day.
    #[test]
    fn realized_tracks_expected(seed in 0u64..500) {
        let w = libcn::multi_dc(3, 150.0, seed);
        let mut realized = 0.0;
        let mut expected = 0.0;
        for minute in (0..1440).step_by(10) {
            let t = SimTime::from_mins(minute);
            realized += sampled(&w, 0, t).iter().map(|f| f.rps).sum::<f64>();
            expected += w.expected_total_rps(0, t);
        }
        prop_assert!(expected > 0.0);
        let ratio = realized / expected;
        prop_assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
    }

    /// The flash crowd multiplies load only inside its window.
    #[test]
    fn flash_crowd_localized(seed in 0u64..500, mult in 2.0f64..10.0) {
        let calm = libcn::multi_dc(2, 150.0, seed);
        let crowded = libcn::multi_dc(2, 150.0, seed).with_flash_crowd(FlashCrowd::paper_fig6(mult));
        // Outside the window the expectation matches exactly.
        for minute in [0u64, 40, 95, 200] {
            let t = SimTime::from_mins(minute);
            prop_assert!(
                (calm.expected_total_rps(0, t) - crowded.expected_total_rps(0, t)).abs() < 1e-9
            );
        }
        // At the plateau it's multiplied.
        let t = SimTime::from_mins(80);
        let ratio = crowded.expected_total_rps(0, t) / calm.expected_total_rps(0, t);
        prop_assert!((ratio - mult).abs() < 1e-6, "ratio {ratio} vs {mult}");
    }

    /// Every service's daily load integral is positive and varies over
    /// the day (no degenerate flat-zero services).
    #[test]
    fn services_have_diurnal_structure(seed in 0u64..500) {
        let w = libcn::multi_dc(4, 150.0, seed);
        for svc in 0..4 {
            let mut min_r = f64::INFINITY;
            let mut max_r: f64 = 0.0;
            for hour in 0..24 {
                let r = w.expected_total_rps(svc, SimTime::from_hours(hour));
                min_r = min_r.min(r);
                max_r = max_r.max(r);
            }
            prop_assert!(max_r > 0.0);
            prop_assert!(max_r > 1.5 * min_r, "service {svc} too flat: {min_r}..{max_r}");
        }
    }
}
