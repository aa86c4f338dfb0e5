//! Property suite: the incremental local search is **bit-identical** to
//! the reference full-rescan loop.
//!
//! The incremental path (per-VM best-candidate maintenance + indexed
//! shortlists) is a pure performance structure — it must reproduce the
//! reference steepest ascent move for move on any fleet: mixed machine
//! classes, memory-constrained profiles, scattered and homeless
//! residency, loose and tight headroom caps (including caps above 1.0,
//! which disable the bucket range prefilter), and long move sequences —
//! each under every production oracle. The near-equivalence index is
//! exercised at `top_k = usize::MAX`, where its shortlist provably
//! covers every candidate and the answer must still be exact.

mod common;

use pamdc_infra::ids::PmId;
use pamdc_infra::pm::MachineSpec;
use pamdc_perf::demand::{required_resources, VmPerfProfile};
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
use pamdc_sched::problem::{synthetic, Problem, Schedule};
use pamdc_sched::profit::evaluate_schedule;
use pamdc_sched::reference::{best_fit_full_scan, improve_schedule_reference};
use proptest::prelude::*;

const UNBOUNDED_NEAR: IndexMode = IndexMode::Near { top_k: usize::MAX };

/// Randomized heterogeneous fleet on the synthetic fixture: every third
/// host a Xeon, some hosts pre-powered, residency scattered (every
/// fourth VM homeless), optional memory-heavy profiles making RAM the
/// binding dimension for half the VMs.
fn mixed_fleet(vms: usize, hosts: usize, rps: f64, mem_heavy: bool) -> Problem {
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
        if i % 4 == 3 {
            vm.current_pm = None;
            vm.current_location = None;
        } else {
            let hi = (i * 7 + 1) % hosts;
            vm.current_pm = Some(PmId::from_index(hi));
            vm.current_location = Some(p.hosts[hi].location);
        }
    }
    p
}

/// A deterministic spread start: VM i on host i mod H. Wider than the
/// current placement, so consolidation has real work.
fn spread_start(p: &Problem) -> Schedule {
    let hosts = p.hosts.len();
    Schedule {
        assignment: (0..p.vms.len())
            .map(|vi| PmId::from_index(vi % hosts))
            .collect(),
    }
}

fn assert_bit_identical(p: &Problem, cfg: &LocalSearchConfig, start: Schedule) {
    for o in common::oracles() {
        let o = o.as_ref();
        let (ref_sched, ref_moves) = improve_schedule_reference(p, o, start.clone(), cfg);
        let (inc_sched, inc_moves) = improve_schedule(p, o, start.clone(), cfg, IndexMode::Exact);
        assert_eq!(ref_moves, inc_moves, "{}: move counts diverged", o.name());
        assert_eq!(ref_sched, inc_sched, "{}: schedules diverged", o.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heterogeneous fleets, default-ish knobs.
    #[test]
    fn incremental_matches_reference_on_mixed_fleets(
        vms in 1usize..24,
        hosts in 1usize..72,
        rps in 10.0f64..400.0,
        mem_heavy_bit in 0usize..2,
        max_moves in 1usize..32,
    ) {
        let p = mixed_fleet(vms, hosts, rps, mem_heavy_bit == 1);
        let cfg = LocalSearchConfig { max_moves, ..Default::default() };
        let start = spread_start(&p);
        assert_bit_identical(&p, &cfg, start);
    }

    /// Memory-constrained fleets under a relaxed (>1.0) headroom cap:
    /// the bucket range prefilter is unsound there, so the incremental
    /// path must fall back to scanning every group — and the RAM guard
    /// becomes the binding constraint.
    #[test]
    fn incremental_matches_reference_when_memory_binds(
        vms in 2usize..20,
        hosts in 2usize..48,
        rps in 100.0f64..500.0,
        max_util in 0.8f64..4.0,
    ) {
        let p = mixed_fleet(vms, hosts, rps, true);
        let cfg = LocalSearchConfig {
            max_moves: 24,
            max_util_after_move: max_util,
            ..Default::default()
        };
        let start = spread_start(&p);
        assert_bit_identical(&p, &cfg, start);
    }

    /// Long move sequences: a high move cap forces the search to run to
    /// convergence, exercising many rounds of candidate maintenance; the
    /// final schedule must still match the reference and must never have
    /// lost profit along the way.
    #[test]
    fn long_move_sequences_stay_consistent(
        vms in 4usize..20,
        hosts in 4usize..48,
        rps in 10.0f64..150.0,
    ) {
        let p = mixed_fleet(vms, hosts, rps, false);
        let cfg = LocalSearchConfig { max_moves: 256, ..Default::default() };
        let start = spread_start(&p);
        for o in common::oracles() {
            let o = o.as_ref();
            let before = evaluate_schedule(&p, o, &start).profit_eur;
            let (ref_sched, ref_moves) = improve_schedule_reference(&p, o, start.clone(), &cfg);
            let (inc_sched, inc_moves) =
                improve_schedule(&p, o, start.clone(), &cfg, IndexMode::Exact);
            prop_assert_eq!(ref_moves, inc_moves, "{}", o.name());
            prop_assert_eq!(&ref_sched, &inc_sched, "{}", o.name());
            prop_assert!(
                ref_moves < 256,
                "{}: search must converge, not hit the cap",
                o.name()
            );
            let after = evaluate_schedule(&p, o, &inc_sched).profit_eur;
            prop_assert!(after >= before - 1e-9, "{}: {after} < {before}", o.name());
        }
    }

    /// Near-equivalence anchor: with `top_k = usize::MAX` the coarse
    /// groups still enumerate every destination with per-member guards,
    /// so the "approximate" mode must degenerate to the exact answer.
    #[test]
    fn near_mode_with_unbounded_top_k_is_exact(
        vms in 1usize..16,
        hosts in 2usize..48,
        rps in 10.0f64..300.0,
        mem_heavy_bit in 0usize..2,
    ) {
        let p = mixed_fleet(vms, hosts, rps, mem_heavy_bit == 1);
        let cfg = LocalSearchConfig { max_moves: 24, ..Default::default() };
        let start = spread_start(&p);
        for o in common::oracles() {
            let o = o.as_ref();
            let (ref_sched, ref_moves) = improve_schedule_reference(&p, o, start.clone(), &cfg);
            let (near_sched, near_moves) =
                improve_schedule(&p, o, start.clone(), &cfg, UNBOUNDED_NEAR);
            prop_assert_eq!(ref_moves, near_moves, "{}", o.name());
            prop_assert_eq!(ref_sched, near_sched, "{}", o.name());
        }
    }

    /// Near-equivalence in Best-Fit: unbounded `top_k` covers every
    /// candidate, so placements match the full scan bit-for-bit.
    #[test]
    fn bestfit_near_with_unbounded_top_k_matches_full_scan(
        vms in 1usize..20,
        hosts in 1usize..64,
        rps in 10.0f64..400.0,
        mem_heavy_bit in 0usize..2,
    ) {
        let p = mixed_fleet(vms, hosts, rps, mem_heavy_bit == 1);
        for o in common::oracles() {
            let o = o.as_ref();
            let full = best_fit_full_scan(&p, o);
            let near = best_fit(&p, o, UNBOUNDED_NEAR);
            prop_assert_eq!(full.schedule, near.schedule, "{}", o.name());
            prop_assert_eq!(full.overflow_count, near.overflow_count, "{}", o.name());
        }
    }

    /// Bounded near mode is approximate but must stay *sound*: a valid
    /// schedule, and consolidation that never loses profit.
    #[test]
    fn bounded_near_mode_stays_sound(
        vms in 2usize..16,
        hosts in 2usize..48,
        rps in 10.0f64..300.0,
        top_k in 1usize..4,
    ) {
        let p = mixed_fleet(vms, hosts, rps, false);
        let cfg = LocalSearchConfig { max_moves: 16, ..Default::default() };
        let start = spread_start(&p);
        for o in common::oracles() {
            let o = o.as_ref();
            let before = evaluate_schedule(&p, o, &start).profit_eur;
            let (sched, _) =
                improve_schedule(&p, o, start.clone(), &cfg, IndexMode::Near { top_k });
            sched.validate(&p);
            let after = evaluate_schedule(&p, o, &sched).profit_eur;
            prop_assert!(after >= before - 1e-9, "{}: {after} < {before}", o.name());
        }
    }
}
