//! E-F5 — regenerates Figure 5 (the VM chasing its load) and times the
//! follow-the-load run.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("fig5", false, &[]).text);

    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("follow_load_12h", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("fig5", false, &[("run.hours", "12")]),
                "dcs_visited",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
