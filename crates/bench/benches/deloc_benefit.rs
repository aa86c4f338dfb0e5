//! E-DL — regenerates the §V-C de-location comparison and times both
//! arms.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::run_builtin;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("deloc", false, &[]).text);

    let mut g = c.benchmark_group("deloc");
    g.sample_size(10);
    g.bench_function("both_arms_quick", |b| {
        b.iter(|| black_box(run_builtin("deloc", true, &[]).text.len()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
