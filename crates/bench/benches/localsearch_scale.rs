//! Consolidation-at-scale tier: the incremental local search vs the
//! full-rescan reference on fleets where the reference's O(VMs × hosts)
//! sweep per accepted move is the round's dominant cost — plus one full
//! hierarchical round at 10000×1000 with consolidation **enabled**, the
//! configuration earlier planet-scale benches had to switch off.
//!
//! The straggler tiers' occupied hosts sit above the headroom cap, so
//! the index skips them group-wide. The `2000x200_below_cap` tier packs
//! its front hosts to about 0.29 dominant share instead, so every
//! rescan scores each occupied host member by member — the shape of the
//! hierarchical scheduler's real fleets, where the cost is one
//! `move_gain` per (VM, occupied host) pair.
//!
//! Both search implementations must produce bit-identical schedules
//! (asserted here before timing, and property-tested in
//! `pamdc-sched/tests/localsearch_equivalence.rs`), so the only thing
//! this bench measures is speed.
//!
//! Quick mode (`PAMDC_BENCH_QUICK=1`, the CI setting) skips timing the
//! reference on the 10000×1000 tier — a single sweep is ~10 M scored
//! pairs per move — and on the below-cap tier, whose every sweep scores
//! each VM against each occupied host; their reference ids are simply
//! absent from quick runs, and the perf gate ignores ids missing from
//! one side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_infra::ids::PmId;
use pamdc_infra::pm::MachineSpec;
use pamdc_perf::demand::required_resources;
use pamdc_sched::evaluator::ScheduleEvaluator;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::{synthetic, Problem, Schedule};
use pamdc_sched::reference::improve_schedule_reference;
use std::hint::black_box;

/// The same large single-flavor fleet as `bestfit_scale`: residency
/// scattered across all hosts, ~27 CPU units per VM against 400-unit
/// Atoms (the 10000×1000 tier sits around 70% fleet utilisation).
fn fleet(vms: usize, hosts: usize) -> Problem {
    let mut p = synthetic::problem(vms, hosts, 30.0);
    for (i, vm) in p.vms.iter_mut().enumerate() {
        let hi = i % hosts;
        vm.current_pm = Some(PmId::from_index(hi));
        vm.current_location = Some(p.hosts[hi].location);
    }
    p
}

/// The 2000×200 fleet on Xeon hosts (twice the Atom's CPU) at a lighter
/// per-VM load, so a straggler start leaves its front hosts at about
/// 0.29 dominant share — below the 0.45 headroom cap even after a move.
fn below_cap_fleet() -> Problem {
    let mut p = fleet(2000, 200);
    let xeon = MachineSpec::xeon();
    for host in &mut p.hosts {
        host.capacity = xeon.capacity;
        host.power = xeon.power.clone();
        host.virt_overhead_cpu_per_vm = xeon.virt_overhead_cpu_per_vm;
    }
    for vm in &mut p.vms {
        vm.load.rps = BELOW_CAP_RPS;
        vm.flows[0].req_per_sec = BELOW_CAP_RPS;
        vm.observed_usage = required_resources(&vm.load, &vm.perf, 600.0);
    }
    p
}

/// Per-VM request rate of the below-cap tier.
const BELOW_CAP_RPS: f64 = 25.0;

/// Lowest and highest dominant share over the occupied hosts of
/// `start`, under `oracle`.
fn occupied_share_range(p: &Problem, oracle: &TrueOracle, start: &Schedule) -> (f64, f64) {
    let eval = ScheduleEvaluator::new(p, oracle, start);
    (0..p.vms.len())
        .map(|vi| eval.host_of(vi))
        .map(|hi| eval.host_total(hi).dominant_share(&p.hosts[hi].capacity))
        .fold((f64::INFINITY, 0.0), |(lo, hi), s| (lo.min(s), hi.max(s)))
}

/// A start schedule with consolidation work in it: the fleet packs onto
/// the front 90% of hosts (~11 VMs each, ~78% post-move share — above
/// the default 0.45 headroom cap, so the index rejects those whole
/// groups in O(1)) while the tail 10% each hold one straggler VM
/// (~13% post-move share). Merging stragglers empties their hosts —
/// the energy win the local search exists to find — and keeps every
/// legal destination inside the straggler tail, which is the shape the
/// candidate index collapses to a handful of groups.
fn straggler_start(p: &Problem) -> Schedule {
    let hosts = p.hosts.len();
    let stragglers = hosts / 10;
    let front = hosts - stragglers;
    Schedule {
        assignment: (0..p.vms.len())
            .map(|vi| {
                if vi < stragglers {
                    PmId::from_index(front + vi)
                } else {
                    PmId::from_index((vi - stragglers) % front)
                }
            })
            .collect(),
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("PAMDC_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let oracle = TrueOracle::new();
    // Default knobs except the move cap: 24 moves folds a real chunk of
    // the straggler tail, so accepted-move maintenance is measured too,
    // not just the initial candidate build.
    let cfg = LocalSearchConfig {
        max_moves: 24,
        ..Default::default()
    };

    let mut g = c.benchmark_group("localsearch_scale");
    let tiers = [
        ("2000x200", fleet(2000, 200), false),
        ("10000x1000", fleet(10000, 1000), true),
        ("2000x200_below_cap", below_cap_fleet(), true),
    ];
    for &(tier, ref p, heavy_reference) in &tiers {
        let start = straggler_start(p);
        let (lo, hi) = occupied_share_range(p, &oracle, &start);
        println!("localsearch_scale/{tier}: occupied hosts at {lo:.2}..{hi:.2} dominant share");

        // The two implementations must agree bit-for-bit before either
        // is timed. Quick mode skips the check and the reference timing
        // on the heavy tiers, where one full-rescan pass takes 20–45 s.
        if !quick || !heavy_reference {
            let (ref_sched, ref_moves) =
                improve_schedule_reference(p, &oracle, start.clone(), &cfg);
            let (inc_sched, inc_moves) =
                improve_schedule(p, &oracle, start.clone(), &cfg, IndexMode::Exact);
            assert_eq!(ref_moves, inc_moves, "{tier}: move counts diverged");
            assert_eq!(ref_sched, inc_sched, "{tier}: schedules diverged");
            assert!(
                inc_moves > 0,
                "{tier}: the straggler start must give consolidation real work"
            );
            println!("localsearch_scale/{tier}: {inc_moves} moves accepted");
        }

        g.bench_with_input(
            BenchmarkId::new("incremental", tier),
            &(p, &start),
            |b, (p, start)| {
                b.iter(|| {
                    black_box(
                        improve_schedule(p, &oracle, (*start).clone(), &cfg, IndexMode::Exact).1,
                    )
                })
            },
        );
        if !quick || !heavy_reference {
            g.bench_with_input(
                BenchmarkId::new("reference", tier),
                &(p, &start),
                |b, (p, start)| {
                    b.iter(|| {
                        black_box(improve_schedule_reference(p, &oracle, (*start).clone(), &cfg).1)
                    })
                },
            );
        }
    }
    g.finish();

    // One full hierarchical round at the big tier with consolidation
    // ENABLED — the end-to-end shape earlier planet-scale benches ran
    // with `local_search: None` because the full-rescan pass blew the
    // budget. The incremental pass makes the complete round gateable.
    let mut g = c.benchmark_group("localsearch_scale_round");
    let p = fleet(10000, 1000);
    let hier = HierarchicalConfig {
        local_search: Some(cfg.clone()),
        ..Default::default()
    };
    let (_, stats) = hierarchical_round(&p, &oracle, &hier);
    println!(
        "localsearch_scale_round/10000x1000: {} shards, {} intra VMs, {} escalated, {} consolidation moves",
        stats.shards, stats.intra_vms, stats.global_vms, stats.consolidation_moves
    );
    g.bench_with_input(
        BenchmarkId::new("full_round_consolidated", "10000x1000"),
        &p,
        |b, p| b.iter(|| black_box(hierarchical_round(p, &oracle, &hier).1.shards)),
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
