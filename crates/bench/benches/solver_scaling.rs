//! E-SC — regenerates the §IV-C solver-scaling observation (exact B&B
//! explodes; Best-Fit stays flat), times both on growing instances, and
//! compares the consolidation pass's incremental evaluation
//! ([`ScheduleEvaluator`]-backed `improve_schedule`) against the old
//! full-re-evaluation local search (kept here as a reference
//! implementation so the speedup stays measurable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_core::experiments::solver_scaling;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::exact::branch_and_bound;
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig, MIN_GAIN_EUR};
use pamdc_sched::oracle::{QosOracle, TrueOracle};
use pamdc_sched::problem::{synthetic, Problem, Schedule};
use pamdc_sched::profit::evaluate_schedule;
use std::hint::black_box;

/// The pre-incremental consolidation pass: one `Schedule` clone and one
/// full `evaluate_schedule` per candidate move, plus an O(V·H)
/// `host_demand` rebuild per accepted move. Benchmarked as the baseline
/// the incremental evaluator is measured against.
#[allow(clippy::needless_range_loop)] // verbatim copy of the replaced code
fn improve_schedule_full_reference(
    problem: &Problem,
    oracle: &dyn QosOracle,
    schedule: Schedule,
    cfg: &LocalSearchConfig,
) -> (Schedule, usize) {
    let mut current = schedule;
    let mut current_profit = evaluate_schedule(problem, oracle, &current).profit_eur;
    let mut moves = 0;
    let demands: Vec<_> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();
    while moves < cfg.max_moves {
        let mut host_demand: Vec<_> = problem.hosts.iter().map(|h| h.fixed_demand).collect();
        for (vi, &pm) in current.assignment.iter().enumerate() {
            let hi = problem.host_index(pm).expect("validated schedule");
            host_demand[hi] += demands[vi];
            host_demand[hi].cpu += problem.hosts[hi].virt_overhead_cpu_per_vm;
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for vi in 0..problem.vms.len() {
            for (hi, host) in problem.hosts.iter().enumerate() {
                if current.assignment[vi] == host.id {
                    continue;
                }
                let mut after = host_demand[hi];
                after += demands[vi];
                after.cpu += host.virt_overhead_cpu_per_vm;
                if after.dominant_share(&host.capacity) > cfg.max_util_after_move {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.assignment[vi] = host.id;
                let p = evaluate_schedule(problem, oracle, &candidate).profit_eur;
                if p > current_profit + MIN_GAIN_EUR
                    && best.as_ref().is_none_or(|&(_, _, bp)| p > bp)
                {
                    best = Some((vi, hi, p));
                }
            }
        }
        match best {
            Some((vi, hi, p)) => {
                current.assignment[vi] = problem.hosts[hi].id;
                current_profit = p;
                moves += 1;
            }
            None => break,
        }
    }
    (current, moves)
}

fn bench(c: &mut Criterion) {
    // Quick mode (CI) caps the exact solver earlier: the 8×24 B&B point
    // alone takes a minute, and the regression signal lives in the
    // micro-benchmarks below, not in the demo table.
    let quick = std::env::var("PAMDC_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let scaling_cfg = if quick {
        solver_scaling::ScalingConfig {
            exact_vm_cap: 6,
            ..solver_scaling::ScalingConfig::default()
        }
    } else {
        solver_scaling::ScalingConfig::default()
    };
    let points = solver_scaling::run(&scaling_cfg);
    println!("\n{}", solver_scaling::render(&points));

    let oracle = TrueOracle::new();
    let mut g = c.benchmark_group("solver");
    for (vms, hosts) in [(2usize, 4usize), (4, 8), (6, 12), (10, 40)] {
        let p = synthetic::problem(vms, hosts, 250.0);
        g.bench_with_input(
            BenchmarkId::new("bestfit", format!("{vms}x{hosts}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        best_fit(p, &oracle, IndexMode::Exact)
                            .schedule
                            .assignment
                            .len(),
                    )
                })
            },
        );
        if vms <= 6 {
            g.bench_with_input(
                BenchmarkId::new("exact_bnb", format!("{vms}x{hosts}")),
                &p,
                |b, p| {
                    b.iter(|| {
                        black_box(
                            branch_and_bound(p, &oracle, u64::MAX)
                                .expect_optimal()
                                .nodes_expanded,
                        )
                    })
                },
            );
        }
    }
    g.finish();

    // Consolidation pass: incremental evaluation vs the old
    // full-re-evaluation reference, from the same spread start.
    let cfg = LocalSearchConfig::default();
    let mut g = c.benchmark_group("local_search");
    for (vms, hosts) in [(6usize, 12usize), (10, 24), (16, 40)] {
        let p = synthetic::problem(vms, hosts, 120.0);
        let start = pamdc_sched::baselines::round_robin(&p);
        // Both searches must agree on the result before we time them.
        let (a, moves_a) = improve_schedule_full_reference(&p, &oracle, start.clone(), &cfg);
        let (b, moves_b) = improve_schedule(&p, &oracle, start.clone(), &cfg, IndexMode::Exact);
        assert_eq!(
            moves_a, moves_b,
            "reference and incremental must accept the same moves"
        );
        assert_eq!(
            a, b,
            "reference and incremental must produce the same schedule"
        );
        g.bench_with_input(
            BenchmarkId::new("full_reference", format!("{vms}x{hosts}")),
            &(&p, &start),
            |bench, (p, start)| {
                bench.iter(|| {
                    black_box(improve_schedule_full_reference(p, &oracle, (*start).clone(), &cfg).1)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("incremental", format!("{vms}x{hosts}")),
            &(&p, &start),
            |bench, (p, start)| {
                bench.iter(|| {
                    black_box(
                        improve_schedule(p, &oracle, (*start).clone(), &cfg, IndexMode::Exact).1,
                    )
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
