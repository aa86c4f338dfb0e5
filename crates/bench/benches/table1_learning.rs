//! E-T1 — regenerates the paper's Table I (learning details per
//! predicted element) and times the training pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::run_builtin;
use pamdc_core::training::{collect_training_data, train_suite};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Regenerate and print the table once.
    println!("\n{}", run_builtin("table1", true, &[]).text);

    // Time the two pipeline stages separately.
    let collector = collect_training_data(3, &[0.6, 1.2], 2, 99);
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("collect_2x2h", |b| {
        b.iter(|| black_box(collect_training_data(3, &[0.6, 1.2], 2, 99)))
    });
    g.bench_function("train_suite", |b| {
        b.iter(|| black_box(train_suite(&collector, 7)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
