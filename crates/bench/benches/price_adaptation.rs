//! E-PA — regenerates the §V-B price-adaptation result (a tariff spike
//! the adaptive scheduler flees and the posted-price scheduler eats) and
//! times one paired comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("price-adaptation", false, &[]).text);

    let mut g = c.benchmark_group("price_adaptation");
    g.sample_size(10);
    g.bench_function("both_arms_quick", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("price-adaptation", true, &[("seed", "7")]),
                "adaptive_boston_share_post",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
