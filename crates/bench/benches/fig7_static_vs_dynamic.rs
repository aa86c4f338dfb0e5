//! E-F7/T3 — regenerates Figure 7 / Table III (static vs dynamic
//! multi-DC) and times the paired comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("fig7-table3", false, &[]).text);

    let mut g = c.benchmark_group("fig7_table3");
    g.sample_size(10);
    g.bench_function("both_arms_quick", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("fig7-table3", true, &[]),
                "energy_saving_frac",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
