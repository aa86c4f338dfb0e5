//! E-HET — regenerates the §V-C price-heterogeneity sweep ("the benefit
//! of inter-DC optimization priming energy consumption should be more
//! obvious" as prices diverge) and times the quick two-cell sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_bench::{metric, run_builtin};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("heterogeneity", false, &[]).text);

    let mut g = c.benchmark_group("heterogeneity");
    g.sample_size(10);
    g.bench_function("two_cells_quick", |b| {
        b.iter(|| {
            black_box(metric(
                &run_builtin("heterogeneity", true, &[("seed", "5")]),
                "x6_energy_cost_saving_frac",
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
