//! Property suite: memory as a hard placement dimension.
//!
//! RAM is the one resource contention cannot stretch — CPU and network
//! overcommit degrade every tenant proportionally, memory overcommit
//! evicts. These properties pin the guarantees the schedulers make:
//!
//! * Best-Fit never exceeds a host's RAM when a feasible placement
//!   exists, and the consolidation pass preserves that even with its
//!   utilisation guard relaxed far past 100% (only the hard
//!   `move_fits_memory` test constrains it).
//! * The incremental [`ScheduleEvaluator`] stays equivalent to the full
//!   evaluation on memory-constrained schedules, at the same 1e-9 bar
//!   as the CPU-bound suite in `evaluator_equivalence.rs`.

use pamdc_perf::demand::{required_resources, VmPerfProfile};
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::evaluator::ScheduleEvaluator;
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
use pamdc_sched::oracle::{QosOracle, TrueOracle};
use pamdc_sched::problem::{synthetic, Problem, Schedule};
use pamdc_sched::profit::evaluate_schedule;
use proptest::prelude::*;

/// A synthetic problem re-profiled so memory, not CPU, is the binding
/// dimension: every VM gets a heavy memory floor and per-request
/// footprint, and its observed usage is recomputed to match the new
/// ground truth (the monitor would have seen the bigger footprint too).
fn mem_heavy_problem(
    vms: usize,
    hosts: usize,
    rps: f64,
    base_mem_mb: f64,
    mem_mb_per_inflight: f64,
) -> Problem {
    let mut p = synthetic::problem(vms, hosts, rps);
    for vm in &mut p.vms {
        vm.perf = VmPerfProfile {
            base_mem_mb,
            mem_mb_per_inflight,
            ..vm.perf
        };
        vm.observed_usage = required_resources(&vm.load, &vm.perf, 600.0);
    }
    p
}

/// Believed memory per host under a schedule (no hypervisor overhead —
/// that is CPU-only).
fn mem_per_host(p: &Problem, o: &dyn QosOracle, s: &Schedule) -> Vec<f64> {
    s.demand_per_host(p, |vm| o.demand(vm))
        .iter()
        .map(|d| d.mem_mb)
        .collect()
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
    assert!((a - b).abs() <= tol, "{what}: incremental {a} vs full {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// When a fully feasible placement exists (no overflow), neither
    /// Best-Fit nor the consolidation pass ever exceeds any host's RAM
    /// — even with the destination-utilisation guard relaxed to 10×,
    /// where only the hard memory test constrains moves.
    #[test]
    fn placement_never_exceeds_host_ram(
        vms in 1usize..8,
        hosts in 2usize..10,
        rps in 10.0f64..200.0,
        base_mem_mb in 256.0f64..1800.0,
        mem_mb_per_inflight in 1.0f64..24.0,
    ) {
        let p = mem_heavy_problem(vms, hosts, rps, base_mem_mb, mem_mb_per_inflight);
        let o = TrueOracle::new();
        let r = best_fit(&p, &o, IndexMode::Exact);
        if r.overflow_count != 0 {
            // No fully feasible placement exists for this instance; the
            // guarantee under test only applies when one does. (The
            // proptest shim has no prop_assume; skipping the case is
            // equivalent.)
            continue;
        }
        for (m, h) in mem_per_host(&p, &o, &r.schedule).iter().zip(&p.hosts) {
            prop_assert!(
                *m <= h.capacity.mem_mb + 1e-6,
                "best-fit put {m} MB on a {} MB host",
                h.capacity.mem_mb
            );
        }
        let relaxed = LocalSearchConfig {
            max_util_after_move: 10.0,
            ..LocalSearchConfig::default()
        };
        let (improved, _) = improve_schedule(&p, &o, r.schedule, &relaxed, IndexMode::Exact);
        for (m, h) in mem_per_host(&p, &o, &improved).iter().zip(&p.hosts) {
            prop_assert!(
                *m <= h.capacity.mem_mb + 1e-6,
                "consolidation pushed {m} MB onto a {} MB host",
                h.capacity.mem_mb
            );
        }
    }

    /// The incremental evaluator must agree with the full evaluation on
    /// memory-constrained schedules (including RAM-overcommitted hosts,
    /// which the SLA models penalize) — same 1e-9 bar as the CPU suite.
    #[test]
    fn evaluator_matches_full_on_memory_constrained_schedules(
        vms in 1usize..7,
        hosts in 1usize..8,
        rps in 10.0f64..300.0,
        base_mem_mb in 512.0f64..2600.0,
        mem_mb_per_inflight in 2.0f64..32.0,
        picks in proptest::collection::vec(0usize..64, 1..8),
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..20),
    ) {
        let p = mem_heavy_problem(vms, hosts, rps, base_mem_mb, mem_mb_per_inflight);
        let o = TrueOracle::new();
        let start = Schedule {
            assignment: (0..p.vms.len())
                .map(|vi| p.hosts[picks[vi % picks.len()] % p.hosts.len()].id)
                .collect(),
        };
        let full_start = evaluate_schedule(&p, &o, &start);
        let mut inc = ScheduleEvaluator::new(&p, &o, &start);
        assert_close(inc.profit_eur(), full_start.profit_eur, "profit at construction");
        for &(vi_raw, hi_raw) in &moves {
            let vi = vi_raw % p.vms.len();
            let hi = hi_raw % p.hosts.len();
            if inc.host_of(vi) == hi {
                continue;
            }
            let predicted = inc.profit_eur() + inc.move_gain(vi, hi, &inc.leave(vi));
            inc.apply_move(vi, hi);
            assert_close(inc.profit_eur(), predicted, "gain vs applied profit");
            let full = evaluate_schedule(&p, &o, &inc.schedule());
            let (rev, energy, mig, net) = inc.components();
            assert_close(inc.profit_eur(), full.profit_eur, "profit after move");
            assert_close(rev, full.revenue_eur, "revenue after move");
            assert_close(energy, full.energy_eur, "energy after move");
            assert_close(mig, full.migration_eur, "migration after move");
            assert_close(net, full.network_eur, "network after move");
        }
    }

    /// `move_fits_memory` agrees with first-principles accounting under
    /// arbitrary move sequences (the cached per-host memory never
    /// drifts from a fresh recomputation).
    #[test]
    fn move_fits_memory_matches_recomputation(
        vms in 1usize..7,
        hosts in 2usize..8,
        rps in 10.0f64..250.0,
        base_mem_mb in 256.0f64..2000.0,
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..16),
    ) {
        let p = mem_heavy_problem(vms, hosts, rps, base_mem_mb, 8.0);
        let o = TrueOracle::new();
        let start = pamdc_sched::baselines::round_robin(&p);
        let mut inc = ScheduleEvaluator::new(&p, &o, &start);
        for &(vi_raw, hi_raw) in &moves {
            let vi = vi_raw % p.vms.len();
            let hi = hi_raw % p.hosts.len();
            if inc.host_of(vi) == hi {
                continue;
            }
            let fresh = mem_per_host(&p, &o, &inc.schedule());
            let expect = fresh[hi] + o.demand(&p.vms[vi]).mem_mb
                <= p.hosts[hi].capacity.mem_mb + 1e-9;
            prop_assert_eq!(inc.move_fits_memory(vi, hi), expect, "vm {} -> host {}", vi, hi);
            inc.apply_move(vi, hi);
        }
    }
}

/// Deterministic twin check at the solver level: the exact situation the
/// `mem-pressure` builtin demonstrates end-to-end. Two light-CPU VMs on
/// two same-DC hosts: the CPU-bound twin consolidates onto one host,
/// the memory-bound twin (same CPU, RAM too big to share a 4 GB Atom)
/// must stay spread — even with the utilisation guard relaxed, because
/// the hard memory test rules the merge out.
#[test]
fn memory_bound_twin_stays_spread_where_cpu_bound_twin_consolidates() {
    use pamdc_infra::ids::PmId;

    let relaxed = LocalSearchConfig {
        max_util_after_move: 10.0,
        ..LocalSearchConfig::default()
    };
    let build = |base_mem_mb: f64| {
        // 8 hosts: hosts 0 and 4 are same-DC twins; park the VMs there.
        let mut p = mem_heavy_problem(2, 8, 15.0, base_mem_mb, 2.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        p.vms[1].current_pm = Some(PmId(4));
        p.hosts[4].powered_on = true;
        p.hosts[4].boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        p
    };
    let spread = Schedule {
        assignment: vec![PmId(0), PmId(4)],
    };
    let o = TrueOracle::new();

    let cpu_bound = build(256.0);
    let (merged, moves) =
        improve_schedule(&cpu_bound, &o, spread.clone(), &relaxed, IndexMode::Exact);
    assert!(moves >= 1, "light identical VMs consolidate");
    assert_eq!(merged.assignment[0], merged.assignment[1]);

    // 2500 MB each: two do not share a 4096 MB Atom.
    let mem_bound = build(2500.0);
    let (kept, moves) =
        improve_schedule(&mem_bound, &o, spread.clone(), &relaxed, IndexMode::Exact);
    assert_eq!(moves, 0, "RAM-infeasible merge must be rejected");
    assert_eq!(kept, spread);
}

/// Overflow placements prefer memory-feasible hosts: when no host fits
/// fully, a CPU-crushed host with free RAM beats a RAM-full host even
/// when the latter scores better on profit.
#[test]
fn overflow_prefers_memory_feasible_hosts() {
    use pamdc_infra::resources::Resources;

    let mut p = synthetic::problem(1, 2, 120.0);
    let o = TrueOracle::new();
    // Make both hosts warm so boot penalties don't skew the choice, and
    // co-locate them with the VM's clients.
    let home = p.vms[0].flows[0].source;
    for h in &mut p.hosts {
        h.powered_on = true;
        h.boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        h.location = home;
    }
    // Host 0: CPU exhausted, RAM free. Host 1: RAM exhausted, CPU free.
    p.hosts[0].fixed_demand = Resources::new(400.0, 0.0, 0.0, 0.0);
    p.hosts[0].fixed_vm_count = 1;
    p.hosts[1].fixed_demand = Resources::new(0.0, 4090.0, 0.0, 0.0);
    p.hosts[1].fixed_vm_count = 1;
    // The VM currently lives on host 1, so staying there is the cheap
    // (no-migration) profit-maximal choice — the memory tier must
    // override it.
    p.vms[0].current_pm = Some(p.hosts[1].id);
    p.vms[0].current_location = Some(p.hosts[1].location);

    let r = best_fit(&p, &o, IndexMode::Exact);
    assert_eq!(r.overflow_count, 1, "nothing fits fully");
    assert_eq!(
        r.schedule.assignment[0], p.hosts[0].id,
        "the RAM-feasible host wins the overflow placement"
    );
}
