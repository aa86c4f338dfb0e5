//! E-F6 — regenerates Figure 6 (inter-DC scheduling through a flash
//! crowd) and times the quick run.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("fig6", false, &[]).text);

    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("flash_crowd_3h", |b| {
        b.iter(|| black_box(metric(&run_builtin("fig6", true, &[]), "sla_during_crowd")))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
