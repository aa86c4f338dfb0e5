//! Property-based tests for the infrastructure model.

use pamdc_infra::prelude::*;
use pamdc_simcore::prelude::*;
use proptest::prelude::*;

fn arb_resources() -> impl Strategy<Value = Resources> {
    (0.0f64..500.0, 0.0f64..8192.0, 0.0f64..1e5, 0.0f64..1e5)
        .prop_map(|(c, m, i, o)| Resources::new(c, m, i, o))
}

proptest! {
    /// Resource addition/subtraction respect the vector-space laws on the
    /// non-negative orthant.
    #[test]
    fn resource_algebra_laws(a in arb_resources(), b in arb_resources()) {
        let sum = a + b;
        prop_assert!(sum.is_valid());
        prop_assert!(a.fits_within(&sum));
        prop_assert!(b.fits_within(&sum));
        let back = sum - b;
        prop_assert!((back.cpu - a.cpu).abs() < 1e-9);
        prop_assert!((back.mem_mb - a.mem_mb).abs() < 1e-9);
        // saturating_sub never goes negative.
        prop_assert!(a.saturating_sub(&b).is_valid());
        prop_assert!(b.saturating_sub(&a).is_valid());
    }

    /// dominant_share is 1 exactly at capacity and scales linearly.
    #[test]
    fn dominant_share_scaling(a in arb_resources(), k in 0.01f64..1.0) {
        let cap = Resources::new(500.0, 8192.0, 1e5, 1e5);
        let full = a.dominant_share(&cap);
        let scaled = (a * k).dominant_share(&cap);
        prop_assert!((scaled - full * k).abs() < 1e-9);
    }

    /// Power draw is monotone in CPU and bounded by the curve top.
    #[test]
    fn power_monotone_and_bounded(cpu1 in 0.0f64..600.0, cpu2 in 0.0f64..600.0) {
        let p = PowerModel::atom_4core();
        let (lo, hi) = if cpu1 <= cpu2 { (cpu1, cpu2) } else { (cpu2, cpu1) };
        prop_assert!(p.it_watts(lo) <= p.it_watts(hi) + 1e-12);
        prop_assert!(p.it_watts(hi) <= 31.8 + 1e-12);
        prop_assert!(p.it_watts(lo) >= 27.0 - 1e-12);
    }

    /// Migration blackout fraction is within [0,1] and proportional to
    /// overlap.
    #[test]
    fn blackout_fraction_bounded(
        start in 0u64..10_000,
        dur in 1u64..5_000,
        win_start in 0u64..10_000,
        win_len in 1u64..5_000,
    ) {
        let m = Migration {
            vm: VmId(0), from: PmId(0), to: PmId(1),
            started: SimTime::from_secs(start),
            completes: SimTime::from_secs(start + dur),
            cross_dc: false,
        };
        let f = m.blackout_fraction(
            SimTime::from_secs(win_start),
            SimTime::from_secs(win_start + win_len),
        );
        prop_assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }

    /// The sliding window mean always lies within [min, max] of its
    /// contents and matches a naive recomputation.
    #[test]
    fn window_mean_matches_naive(cpus in proptest::collection::vec(0.0f64..400.0, 1..50), cap in 1usize..20) {
        let mut w = SlidingWindow::new(cap);
        for &c in &cpus {
            w.push(Resources::new(c, 0.0, 0.0, 0.0));
        }
        let held: Vec<f64> = cpus.iter().rev().take(cap).copied().collect();
        let naive = held.iter().sum::<f64>() / held.len() as f64;
        prop_assert!((w.mean().cpu - naive).abs() < 1e-6);
    }

    /// Gateway settle conserves requests: arrived + old backlog =
    /// served + queued + dropped.
    #[test]
    fn gateway_conserves_requests(
        steps in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 1..50),
        bound in 0.0f64..1000.0,
    ) {
        let mut g = Gateway::new(1, bound);
        let vm = VmId(0);
        for (arrived, served_try) in steps {
            let before = g.backlog(vm);
            let s = g.settle(vm, arrived, served_try);
            let total_in = before + arrived;
            let total_out = s.served + s.queued + s.dropped;
            prop_assert!((total_in - total_out).abs() < 1e-6,
                "conservation violated: in {total_in} out {total_out}");
            prop_assert!(g.backlog(vm) <= bound + 1e-9);
        }
    }

    /// Random migration sequences preserve cluster invariants.
    #[test]
    fn cluster_invariants_under_random_migrations(seed in 0u64..5_000) {
        let mut rng = RngStream::root(seed);
        let mut c = Cluster::new(NetworkModel::paper());
        let mut dcs = Vec::new();
        for (i, city) in City::ALL.iter().enumerate() {
            let dc = c.add_datacenter(city.code(), city.location(), 0.10 + i as f64 * 0.01);
            for _ in 0..2 {
                c.add_pm(dc, MachineSpec::atom());
            }
            dcs.push(dc);
        }
        for i in 0..5 {
            let vm = c.add_vm(VmSpec::web_service(), City::ALL[i % 4].location());
            let pm = PmId::from_index(rng.index(8));
            c.deploy(vm, pm, SimTime::ZERO);
        }
        c.check_invariants();
        let mut now = SimTime::from_mins(5);
        for _ in 0..30 {
            c.tick(now);
            let vm = VmId::from_index(rng.index(5));
            let to = PmId::from_index(rng.index(8));
            let _ = c.migrate(vm, to, now);
            c.check_invariants();
            now += SimDuration::from_mins(1);
        }
        // Drain all migrations.
        c.tick(now + SimDuration::from_hours(1));
        c.check_invariants();
        for vm in 0..5 {
            prop_assert!(!c.vm(VmId(vm)).is_migrating());
        }
    }
}
