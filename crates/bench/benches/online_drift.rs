//! E-OL — regenerates the on-line learning drift table (future work 4)
//! and times the full prequential pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("online-drift", false, &[]).text);

    let mut g = c.benchmark_group("online_drift");
    g.sample_size(10);
    g.bench_function("stream_and_three_models", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("online-drift", true, &[("seed", "5")]),
                "drift_aware_mae_recovered",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
