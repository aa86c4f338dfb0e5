//! Property suite: the incremental local search is **bit-identical** to
//! the reference full-rescan loop.
//!
//! The incremental path (per-VM best-candidate maintenance + indexed
//! shortlists) is a pure performance structure — it must reproduce the
//! reference steepest ascent move for move on any fleet: mixed machine
//! classes, memory-constrained profiles, scattered and homeless
//! residency, loose and tight headroom caps (including caps above 1.0,
//! which disable the bucket range prefilter), occupied destinations
//! below the cap (scored member by member), binding move caps and long
//! move sequences — each under every production oracle. The shim does
//! not shrink, so `assert_bit_identical` puts each case's seed and
//! sizes in its failure messages. The near-equivalence index is
//! exercised at `top_k = usize::MAX`, where its shortlist provably
//! covers every candidate and the answer must still be exact.

mod common;

use pamdc_infra::ids::PmId;
use pamdc_infra::pm::MachineSpec;
use pamdc_perf::demand::{required_resources, VmPerfProfile};
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::evaluator::ScheduleEvaluator;
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::{synthetic, Problem, Schedule};
use pamdc_sched::profit::evaluate_schedule;
use pamdc_sched::reference::{best_fit_full_scan, improve_schedule_reference};
use pamdc_simcore::rng::RngStream;
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

/// An all-Xeon fleet of light VMs packed about three deep onto a
/// seed-shuffled third of its hosts, so occupied hosts sit around a
/// quarter to a third of dominant share — below the default headroom
/// cap, where the incremental path scores occupied destinations member
/// by member. The seed also picks each VM's original host (some
/// homeless) and which hosts start powered.
fn below_cap_fleet(vms: usize, hosts: usize, rps: f64, seed: u64) -> (Problem, Schedule) {
    let mut rng = RngStream::root(seed);
    let mut p = synthetic::problem(vms, hosts, rps);
    let xeon = MachineSpec::xeon();
    for host in &mut p.hosts {
        host.capacity = xeon.capacity;
        host.power = xeon.power.clone();
        host.virt_overhead_cpu_per_vm = xeon.virt_overhead_cpu_per_vm;
        if rng.chance(0.3) {
            host.powered_on = true;
            host.boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        }
    }
    for vm in &mut p.vms {
        if rng.chance(0.2) {
            vm.current_pm = None;
            vm.current_location = None;
        } else {
            let hi = rng.index(hosts);
            vm.current_pm = Some(PmId::from_index(hi));
            vm.current_location = Some(p.hosts[hi].location);
        }
    }
    let mut order: Vec<usize> = (0..hosts).collect();
    rng.shuffle(&mut order);
    let occupied = &order[..vms.div_ceil(3).min(hosts)];
    let start = Schedule {
        assignment: (0..vms)
            .map(|vi| PmId::from_index(occupied[vi % occupied.len()]))
            .collect(),
    };
    (p, start)
}

/// Number of (VM, occupied destination) pairs in `start` that pass the
/// memory and headroom guards under the true oracle — the candidates
/// the member-by-member path scores.
fn occupied_candidates(p: &Problem, cfg: &LocalSearchConfig, start: &Schedule) -> usize {
    let o = TrueOracle::new();
    let eval = ScheduleEvaluator::new(p, &o, start);
    let mut occupied: Vec<usize> = (0..p.vms.len()).map(|vi| eval.host_of(vi)).collect();
    occupied.sort_unstable();
    occupied.dedup();
    let mut pairs = 0;
    for vi in 0..p.vms.len() {
        for &hi in &occupied {
            if hi == eval.host_of(vi) || !eval.move_fits_memory(vi, hi) {
                continue;
            }
            let host = &p.hosts[hi];
            let mut after = eval.host_total(hi);
            after += *eval.demand(vi);
            after.cpu += host.virt_overhead_cpu_per_vm;
            if after.dominant_share(&host.capacity) <= cfg.max_util_after_move {
                pairs += 1;
            }
        }
    }
    pairs
}

/// Runs the reference and the exact incremental search under every
/// oracle, asserts they agree and returns the reference's move counts
/// (one per oracle). `case` names the seed and sizes for the message.
fn assert_bit_identical(
    p: &Problem,
    cfg: &LocalSearchConfig,
    start: Schedule,
    case: &str,
) -> Vec<usize> {
    let mut moves = Vec::new();
    for o in common::oracles() {
        let o = o.as_ref();
        let (ref_sched, ref_moves) = improve_schedule_reference(p, o, start.clone(), cfg);
        let (inc_sched, inc_moves) = improve_schedule(p, o, start.clone(), cfg, IndexMode::Exact);
        assert_eq!(
            ref_moves,
            inc_moves,
            "{}: move counts diverged ({case})",
            o.name()
        );
        assert_eq!(
            ref_sched,
            inc_sched,
            "{}: schedules diverged ({case})",
            o.name()
        );
        moves.push(ref_moves);
    }
    moves
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
        let case = format!("vms {vms}, hosts {hosts}, rps {rps}, mem_heavy {mem_heavy_bit}");
        assert_bit_identical(&p, &cfg, start, &case);
    }

    /// Occupied destinations below the headroom cap: the path the
    /// hierarchical scheduler's fleets take, where each occupied host
    /// passes the group guards and is scored member by member.
    #[test]
    fn incremental_matches_reference_below_the_cap(
        vms in 6usize..30,
        hosts in 6usize..40,
        rps in 20.0f64..110.0,
        seed in 0u64..u64::MAX,
    ) {
        let (p, start) = below_cap_fleet(vms, hosts, rps, seed);
        let cfg = LocalSearchConfig { max_moves: 24, ..Default::default() };
        let case = format!("seed {seed}, vms {vms}, hosts {hosts}, rps {rps}");
        prop_assert!(
            occupied_candidates(&p, &cfg, &start) > 0,
            "no occupied destination sits below the cap ({case})"
        );
        assert_bit_identical(&p, &cfg, start, &case);
    }

    /// Binding move caps: the search stops with improving moves left,
    /// so the per-VM bests and cached departures must be exact after
    /// every one of the few moves it makes.
    #[test]
    fn incremental_matches_reference_when_max_moves_binds(
        vms in 8usize..30,
        hosts in 8usize..40,
        rps in 10.0f64..60.0,
        max_moves in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let (p, _) = below_cap_fleet(vms, hosts, rps, seed);
        let cfg = LocalSearchConfig { max_moves, ..Default::default() };
        let case = format!("seed {seed}, vms {vms}, hosts {hosts}, rps {rps}, max_moves {max_moves}");
        let moves = assert_bit_identical(&p, &cfg, spread_start(&p), &case);
        prop_assert!(
            moves.iter().all(|&m| m == max_moves),
            "the cap must bind under every oracle: {moves:?} ({case})"
        );
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
        };
        let start = spread_start(&p);
        let case = format!("vms {vms}, hosts {hosts}, rps {rps}, max_util {max_util}");
        assert_bit_identical(&p, &cfg, start, &case);
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
