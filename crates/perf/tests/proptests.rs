//! Property-based tests for the performance ground truth.

use pamdc_infra::resources::Resources;
use pamdc_perf::prelude::*;
use pamdc_perf::rt::MAX_RT_SECS;
use proptest::prelude::*;

const ATOM: Resources = Resources::new(400.0, 4096.0, 64_000.0, 64_000.0);

/// A component that is zero about a quarter of the time.
fn arb_component(max: f64) -> impl Strategy<Value = f64> {
    (0u32..4, 0.0..max).prop_map(|(k, x)| if k == 0 { 0.0 } else { x })
}

fn arb_resources(cpu: f64, mem: f64, net: f64) -> impl Strategy<Value = Resources> {
    (
        arb_component(cpu),
        arb_component(mem),
        arb_component(net),
        arb_component(net),
    )
        .prop_map(|(c, m, i, o)| Resources::new(c, m, i, o))
}

/// Up to eight VM demands with zero components, and a host capacity
/// that each axis's total overloads about half the time.
fn arb_host() -> impl Strategy<Value = (Vec<Resources>, Resources)> {
    (
        proptest::collection::vec(arb_resources(400.0, 4096.0, 1000.0), 1..8),
        arb_resources(1600.0, 16384.0, 4000.0),
    )
}

/// The proportional rule as one pass over the host's demands: the
/// arithmetic the per-demand form must reproduce.
fn proportional_reference(demands: &[Resources], cap: Resources) -> Vec<Resources> {
    let total: Resources = demands.iter().copied().sum();
    let factor = |cap: f64, tot: f64| {
        if tot > cap && tot > 0.0 {
            cap / tot
        } else {
            1.0
        }
    };
    let (fc, fm) = (factor(cap.cpu, total.cpu), factor(cap.mem_mb, total.mem_mb));
    let (fi, fo) = (
        factor(cap.net_in_kbps, total.net_in_kbps),
        factor(cap.net_out_kbps, total.net_out_kbps),
    );
    demands
        .iter()
        .map(|d| {
            Resources::new(
                d.cpu * fc,
                d.mem_mb * fm,
                d.net_in_kbps * fi,
                d.net_out_kbps * fo,
            )
        })
        .collect()
}

/// The work-conserving rule as one pass over the host's demands.
fn work_conserving_reference(demands: &[Resources], cap: Resources) -> Vec<Resources> {
    let total: Resources = demands.iter().copied().sum();
    let factor = |cap: f64, tot: f64| if tot > 0.0 { cap / tot } else { f64::INFINITY };
    let (fc, fi, fo) = (
        factor(cap.cpu, total.cpu),
        factor(cap.net_in_kbps, total.net_in_kbps),
        factor(cap.net_out_kbps, total.net_out_kbps),
    );
    let scale = |d: f64, f: f64| if d <= 0.0 { f64::INFINITY } else { d * f };
    demands
        .iter()
        .map(|d| {
            Resources::new(
                scale(d.cpu, fc),
                d.mem_mb,
                scale(d.net_in_kbps, fi),
                scale(d.net_out_kbps, fo),
            )
        })
        .collect()
}

fn bits(r: &Resources) -> [u64; 4] {
    [
        r.cpu.to_bits(),
        r.mem_mb.to_bits(),
        r.net_in_kbps.to_bits(),
        r.net_out_kbps.to_bits(),
    ]
}

fn arb_load() -> impl Strategy<Value = OfferedLoad> {
    (
        0.0f64..800.0,
        0.1f64..2.0,
        0.5f64..30.0,
        1.0f64..15.0,
        0.0f64..3000.0,
    )
        .prop_map(|(rps, kb_in, kb_out, cpu_ms, backlog)| OfferedLoad {
            rps,
            kb_in_per_req: kb_in,
            kb_out_per_req: kb_out,
            cpu_ms_per_req: cpu_ms,
            backlog,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SLA fulfillment is a proper piecewise-linear function: bounded,
    /// non-increasing, exact at the knees.
    #[test]
    fn sla_function_well_formed(rt0 in 0.01f64..2.0, alpha in 1.01f64..20.0, rt in 0.0f64..50.0) {
        let f = SlaFunction::new(rt0, alpha);
        let v = f.fulfillment(rt);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert_eq!(f.fulfillment(rt0), 1.0);
        prop_assert_eq!(f.fulfillment(alpha * rt0 + 1e-9), 0.0);
        // Monotonicity.
        prop_assert!(f.fulfillment(rt + 0.1) <= v + 1e-12);
    }

    /// The RT model's outputs are always physical: finite RT within
    /// [0, max], served ≤ offered, usage within burst caps.
    #[test]
    fn rt_model_outputs_physical(load in arb_load()) {
        let profile = VmPerfProfile::default();
        let req = required_resources(&load, &profile, 60.0);
        let o = evaluate(&load, &profile, &req, &req, &ATOM, 60.0, None);
        prop_assert!(o.rt_process_secs.is_finite());
        prop_assert!((0.0..=MAX_RT_SECS + 1e-9).contains(&o.rt_process_secs));
        prop_assert!(o.served_rps >= 0.0);
        prop_assert!(o.served_rps <= load.total_rps(60.0) + 1e-9);
        prop_assert!(o.used.is_valid());
        prop_assert!(o.used.cpu <= ATOM.cpu + 1e-9);
        prop_assert!(o.used.net_out_kbps <= ATOM.net_out_kbps + 1e-9);
    }

    /// RT is monotone in offered load (all else equal).
    #[test]
    fn rt_monotone_in_rps(base in arb_load(), extra in 1.0f64..200.0) {
        let profile = VmPerfProfile::default();
        let mut heavier = base;
        heavier.rps += extra;
        let req_a = required_resources(&base, &profile, 60.0);
        let req_b = required_resources(&heavier, &profile, 60.0);
        let a = evaluate(&base, &profile, &req_a, &req_a, &ATOM, 60.0, None);
        let b = evaluate(&heavier, &profile, &req_b, &req_b, &ATOM, 60.0, None);
        prop_assert!(
            b.rt_process_secs >= a.rt_process_secs - 1e-9,
            "more load cannot speed things up: {} vs {}",
            a.rt_process_secs,
            b.rt_process_secs
        );
    }

    /// Proportional sharing conserves: total grants never exceed
    /// capacity, each grant never exceeds its demand.
    #[test]
    fn sharing_conserves(
        demands in proptest::collection::vec(
            (0.0f64..400.0, 0.0f64..4096.0).prop_map(|(c, m)| Resources::new(c, m, 10.0, 10.0)),
            1..8,
        )
    ) {
        let mut granted = Vec::new();
        share_proportionally_into(&demands, ATOM, &mut granted);
        let total: Resources = granted.iter().copied().sum();
        prop_assert!(total.cpu <= ATOM.cpu + 1e-6);
        prop_assert!(total.mem_mb <= ATOM.mem_mb + 1e-6);
        for (g, d) in granted.iter().zip(&demands) {
            prop_assert!(g.fits_within(d));
        }
    }

    /// Work-conserving shares are at least the proportional grants.
    #[test]
    fn burst_at_least_grant(
        demands in proptest::collection::vec(
            (1.0f64..400.0, 1.0f64..4096.0).prop_map(|(c, m)| Resources::new(c, m, 10.0, 10.0)),
            1..8,
        )
    ) {
        let (mut granted, mut burst) = (Vec::new(), Vec::new());
        share_proportionally_into(&demands, ATOM, &mut granted);
        share_work_conserving_into(&demands, ATOM, &mut burst);
        for (g, b) in granted.iter().zip(&burst) {
            prop_assert!(b.cpu >= g.cpu - 1e-9, "burst {} < grant {}", b.cpu, g.cpu);
        }
    }

    /// Both forms of each share rule give the one-pass arithmetic bit
    /// for bit: the slice form over the host's demands, and the
    /// per-demand form built from their total.
    #[test]
    fn share_forms_are_bit_identical((demands, cap) in arb_host()) {
        let want_granted = proportional_reference(&demands, cap);
        let want_burst = work_conserving_reference(&demands, cap);
        let (mut granted, mut burst) = (Vec::new(), Vec::new());
        share_proportionally_into(&demands, cap, &mut granted);
        share_work_conserving_into(&demands, cap, &mut burst);
        let total: Resources = demands.iter().copied().sum();
        let proportional = ProportionalShare::new(&total, &cap);
        let work_conserving = WorkConservingShare::new(&total, &cap);
        prop_assert_eq!(granted.len(), demands.len());
        prop_assert_eq!(burst.len(), demands.len());
        for (i, d) in demands.iter().enumerate() {
            prop_assert_eq!(bits(&granted[i]), bits(&want_granted[i]));
            prop_assert_eq!(bits(&proportional.grant(d)), bits(&want_granted[i]));
            prop_assert_eq!(bits(&burst[i]), bits(&want_burst[i]));
            prop_assert_eq!(bits(&work_conserving.burst(d)), bits(&want_burst[i]));
        }
    }

    /// The RT core is `evaluate` without jitter, bit for bit, on
    /// contended shares with zero components and unbounded bursts.
    #[test]
    fn rt_core_matches_deterministic_evaluate(
        load in arb_load(),
        (demands, cap) in arb_host(),
    ) {
        let profile = VmPerfProfile::default();
        let required = required_resources(&load, &profile, 60.0);
        let mut all = demands;
        all[0] = required;
        let (mut granted, mut burst) = (Vec::new(), Vec::new());
        share_proportionally_into(&all, cap, &mut granted);
        share_work_conserving_into(&all, cap, &mut burst);
        let core = rt_core(&load, &profile, &required, &granted[0], &burst[0], 60.0);
        let full = evaluate(&load, &profile, &required, &granted[0], &burst[0], 60.0, None);
        prop_assert_eq!(core.rt_process_secs.to_bits(), full.rt_process_secs.to_bits());
        prop_assert_eq!(core.capacity_rps.to_bits(), full.capacity_rps.to_bits());
        prop_assert_eq!(core.offered_rps.min(core.capacity_rps).to_bits(), full.served_rps.to_bits());
    }

    /// Demand is monotone in every load dimension.
    #[test]
    fn demand_monotone(load in arb_load()) {
        let p = VmPerfProfile::default();
        let base = required_resources(&load, &p, 60.0);
        let mut more = load;
        more.rps += 10.0;
        more.kb_out_per_req += 1.0;
        more.backlog += 100.0;
        let bigger = required_resources(&more, &p, 60.0);
        prop_assert!(bigger.cpu >= base.cpu);
        prop_assert!(bigger.mem_mb >= base.mem_mb);
        prop_assert!(bigger.net_out_kbps >= base.net_out_kbps);
    }
}
