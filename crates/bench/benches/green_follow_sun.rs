//! E-GR — regenerates the follow-the-sun extension table (future work 3)
//! and times one paired comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("green", false, &[]).text);

    let mut g = c.benchmark_group("green_follow_sun");
    g.sample_size(10);
    g.bench_function("both_arms_quick", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("green", true, &[("seed", "3")]),
                "green_fraction_gain",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
