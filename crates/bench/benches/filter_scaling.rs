//! E-SC2 — regenerates the scheduling-round scalability sweep (future
//! work 1: "how many PMs/VMs can we manage per scheduling round") and
//! benchmarks flat vs hierarchical rounds at a mid-size instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_core::experiments::scaling;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::synthetic;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cells = scaling::run(&scaling::ScalingConfig::default());
    println!("\n{}", scaling::render(&cells));

    let oracle = TrueOracle::new();
    let cfg = HierarchicalConfig::default();
    let mut g = c.benchmark_group("round_scaling");
    for (vms, hosts) in [(20usize, 16usize), (80, 64), (320, 256)] {
        let problem = synthetic::problem(vms, hosts, 60.0);
        g.bench_with_input(BenchmarkId::new("flat_bestfit", vms), &problem, |b, p| {
            b.iter(|| {
                black_box(
                    best_fit(p, &oracle, IndexMode::Exact)
                        .schedule
                        .assignment
                        .len(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("hierarchical", vms), &problem, |b, p| {
            b.iter(|| black_box(hierarchical_round(p, &oracle, &cfg).0.assignment.len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
