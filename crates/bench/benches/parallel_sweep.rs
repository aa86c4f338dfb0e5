//! HPC ablation: the deterministic parallel experiment sweep
//! ([`pamdc_simcore::par::parallel_map`]) vs the same sweep run
//! sequentially — the speedup that makes the Figure-8 surface and the
//! training pipeline affordable.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_core::engine::Controller;
use pamdc_core::policy::HierarchicalPolicy;
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_core::simulation::RunConfig;
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::par::parallel_map;
use pamdc_simcore::time::SimDuration;
use std::hint::black_box;

fn run_point(load_scale: f64) -> f64 {
    let s = ScenarioBuilder::paper_multi_dc()
        .vms(4)
        .load_scale(load_scale)
        .seed(11)
        .build();
    let p = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
    Controller::with(
        s,
        p,
        RunConfig {
            keep_series: false,
            ..Default::default()
        },
        None,
    )
    .run_for(SimDuration::from_hours(2))
    .0
    .mean_sla
}

const SCALES: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_4_points");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let v: Vec<f64> = SCALES.iter().map(|&s| run_point(s)).collect();
            black_box(v)
        })
    });
    g.bench_function("parallel_map", |b| {
        b.iter(|| {
            let v: Vec<f64> = parallel_map(SCALES.to_vec(), run_point);
            black_box(v)
        })
    });
    g.finish();

    // Parallel and sequential sweeps must agree exactly (deterministic
    // derived RNG streams).
    let seq: Vec<f64> = SCALES.iter().map(|&s| run_point(s)).collect();
    let par: Vec<f64> = parallel_map(SCALES.to_vec(), run_point);
    assert_eq!(
        seq, par,
        "parallel sweep must be bit-identical to sequential"
    );
    println!(
        "parallel sweep verified bit-identical to sequential over {} points",
        SCALES.len()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
