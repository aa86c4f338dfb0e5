//! E-F8 — regenerates Figure 8 (SLA vs energy vs load) and times the
//! quick sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::run_builtin;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("fig8", false, &[]).text);

    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("sweep_quick", |b| {
        b.iter(|| black_box(run_builtin("fig8", true, &[]).text.len()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
