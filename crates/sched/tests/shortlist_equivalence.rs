//! Property suite: the indexed-shortlist Best-Fit is **bit-identical**
//! to the full-scan reference.
//!
//! The candidate index is a pure performance structure — it must never
//! change a single placement, score bit or overflow count, on any fleet
//! and under any belief source. These properties drive both
//! implementations across randomized fleets — mixed machine classes,
//! memory-constrained profiles, hysteresis margins, homeless VMs and
//! overloaded (overflow) rounds — each under every production oracle.

mod common;

use pamdc_infra::ids::PmId;
use pamdc_infra::pm::MachineSpec;
use pamdc_infra::resources::Resources;
use pamdc_perf::demand::{required_resources, VmPerfProfile};
use pamdc_sched::bestfit::{best_fit, BestFitResult};
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::QosOracle;
use pamdc_sched::problem::{synthetic, Problem};
use pamdc_sched::profit::PlacementState;
use pamdc_sched::reference::best_fit_full_scan;
use proptest::prelude::*;

/// A randomized heterogeneous fleet built on the synthetic fixture:
/// every third host is a Xeon instead of an Atom, some hosts start
/// powered on, VM residency is scattered (including homeless VMs), an
/// optional memory-heavy profile makes RAM the binding dimension for
/// half the VMs, and the hysteresis margin varies.
fn mixed_fleet(
    vms: usize,
    hosts: usize,
    rps: f64,
    stickiness_eur: f64,
    mem_heavy: bool,
) -> Problem {
    let mut p = synthetic::problem(vms, hosts, rps);
    let xeon = MachineSpec::xeon();
    for (i, host) in p.hosts.iter_mut().enumerate() {
        if i % 3 == 1 {
            host.capacity = xeon.capacity;
            host.power = xeon.power.clone();
            host.virt_overhead_cpu_per_vm = xeon.virt_overhead_cpu_per_vm;
        }
        if i % 5 == 2 {
            host.powered_on = true;
            host.boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        }
    }
    for (i, vm) in p.vms.iter_mut().enumerate() {
        if mem_heavy && i % 2 == 0 {
            vm.perf = VmPerfProfile {
                base_mem_mb: 1500.0,
                mem_mb_per_inflight: 16.0,
                ..vm.perf
            };
            vm.observed_usage = required_resources(&vm.load, &vm.perf, 600.0);
        }
        // Scatter residency; every fourth VM arrives homeless.
        if i % 4 == 3 {
            vm.current_pm = None;
            vm.current_location = None;
        } else {
            let hi = (i * 7 + 1) % hosts;
            vm.current_pm = Some(PmId::from_index(hi));
            vm.current_location = Some(p.hosts[hi].location);
        }
    }
    p.stickiness_eur = stickiness_eur;
    p
}

fn run_both(p: &Problem, o: &dyn QosOracle) -> (BestFitResult, BestFitResult) {
    (best_fit_full_scan(p, o), best_fit(p, o, IndexMode::Exact))
}

/// Bitwise agreement on everything the caller can observe.
fn assert_identical(o: &dyn QosOracle, full: &BestFitResult, indexed: &BestFitResult) {
    let oracle = o.name();
    assert_eq!(
        full.schedule, indexed.schedule,
        "{oracle}: placements diverged"
    );
    assert_eq!(
        full.overflow_count, indexed.overflow_count,
        "{oracle}: overflow accounting diverged"
    );
    for (vi, (a, b)) in full.scores.iter().zip(&indexed.scores).enumerate() {
        // Exact f64 bit equality, not an epsilon: the index scores one
        // group representative and reuses it, which is only sound if the
        // value is *the same number* the full scan would have computed.
        assert_eq!(
            a.profit().to_bits(),
            b.profit().to_bits(),
            "{oracle} vm {vi}: profit {} vs {}",
            a.profit(),
            b.profit()
        );
        assert_eq!(a, b, "{oracle} vm {vi}: score components diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed-class fleets, scattered residency, varying hysteresis:
    /// feasible and mildly-loaded rounds.
    #[test]
    fn indexed_matches_full_scan_on_mixed_fleets(
        vms in 1usize..32,
        hosts in 1usize..96,
        rps in 10.0f64..400.0,
        stickiness in 0.0f64..0.01,
        mem_heavy_bit in 0usize..2,
    ) {
        let p = mixed_fleet(vms, hosts, rps, stickiness, mem_heavy_bit == 1);
        for o in common::oracles() {
            let (full, indexed) = run_both(&p, o.as_ref());
            assert_identical(o.as_ref(), &full, &indexed);
        }
    }

    /// Overloaded rounds: far more demand than capacity, forcing the
    /// overflow tiers (memory-fitting hosts before RAM-overcommitted
    /// ones) through both code paths.
    #[test]
    fn indexed_matches_full_scan_under_overflow(
        vms in 8usize..24,
        hosts in 1usize..4,
        rps in 500.0f64..800.0,
        mem_heavy_bit in 0usize..2,
    ) {
        let p = mixed_fleet(vms, hosts, rps, 0.0, mem_heavy_bit == 1);
        for o in common::oracles() {
            let (full, indexed) = run_both(&p, o.as_ref());
            prop_assert!(full.overflow_count > 0, "{}: instance meant to overload", o.name());
            assert_identical(o.as_ref(), &full, &indexed);
        }
    }

    /// The shortlist actually shrinks the scored-candidate count on
    /// fleets with many identical hosts — the index must not silently
    /// degrade to scoring everyone.
    #[test]
    fn shortlist_is_actually_sublinear_on_uniform_fleets(
        vms in 4usize..16,
        hosts in 64usize..128,
        rps in 20.0f64..120.0,
    ) {
        let p = mixed_fleet(vms, hosts, rps, 0.0, false);
        for o in common::oracles() {
            let (full, indexed) = run_both(&p, o.as_ref());
            assert_identical(o.as_ref(), &full, &indexed);
            prop_assert!(
                indexed.scored_candidates * 2 < full.scored_candidates,
                "{}: index scored {} of the full scan's {}",
                o.name(),
                indexed.scored_candidates,
                full.scored_candidates
            );
        }
    }

    /// The incremental index maintained across assignments stays equal
    /// to one rebuilt from scratch at the end of the round.
    #[test]
    fn incremental_index_matches_rebuild(
        vms in 1usize..24,
        hosts in 2usize..64,
        rps in 10.0f64..500.0,
        mem_heavy_bit in 0usize..2,
    ) {
        let p = mixed_fleet(vms, hosts, rps, 0.0, mem_heavy_bit == 1);
        let o = pamdc_sched::oracle::TrueOracle::new();
        let demands: Vec<Resources> = p.vms.iter().map(|vm| o.demand(vm)).collect();
        let result = best_fit(&p, &o, IndexMode::Exact);

        // Replay the final placement into a fresh state+index.
        let mut replay = PlacementState::with_candidate_index(&p, IndexMode::Exact);
        for (vi, pm) in result.schedule.assignment.iter().enumerate() {
            let hi = p.host_index(*pm).expect("valid schedule");
            replay.assign(&p, hi, demands[vi]);
        }
        let rebuilt = replay.candidate_index().expect("index enabled");

        // Every demand's candidate set from the replayed index matches a
        // brute-force fit scan over the replayed state.
        for d in demands.iter().take(8) {
            let mut from_index: Vec<usize> = rebuilt
                .fitting_groups(d)
                .flat_map(|g| g.iter().copied())
                .filter(|&hi| replay.fits(&p, hi, d))
                .collect();
            from_index.sort_unstable();
            let brute: Vec<usize> =
                (0..p.hosts.len()).filter(|&hi| replay.fits(&p, hi, d)).collect();
            prop_assert_eq!(from_index, brute);
        }
    }
}
