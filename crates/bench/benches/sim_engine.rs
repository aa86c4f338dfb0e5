//! Micro-benchmarks for the simulation substrate: tick throughput of the
//! full MAPE loop and the RT ground-truth model.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_core::engine::Controller;
use pamdc_core::policy::{HierarchicalPolicy, StaticPolicy};
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_core::simulation::RunConfig;
use pamdc_perf::prelude::*;
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::prelude::*;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("mape_loop_6h_5vms", |b| {
        b.iter(|| {
            let s = ScenarioBuilder::paper_multi_dc().vms(5).seed(3).build();
            let p = Box::new(StaticPolicy(TrueOracle::new()));
            let config = RunConfig {
                keep_series: false,
                ..Default::default()
            };
            let controller = Controller::with(s, p, config, None);
            black_box(controller.run_for(SimDuration::from_hours(6)).0.total_wh)
        })
    });
    // The full engine: every round runs the two-layer scheduler plus
    // the consolidation pass, so this case sees both the tick-loop
    // scratch reuse and the incremental schedule evaluation.
    g.bench_function("mape_loop_6h_8vms_hierarchical", |b| {
        b.iter(|| {
            let s = ScenarioBuilder::paper_multi_dc()
                .vms(8)
                .pms_per_dc(3)
                .seed(3)
                .build();
            let p = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
            let config = RunConfig {
                keep_series: false,
                ..Default::default()
            };
            let controller = Controller::with(s, p, config, None);
            black_box(controller.run_for(SimDuration::from_hours(6)).0.total_wh)
        })
    });
    g.finish();

    let load = OfferedLoad {
        rps: 150.0,
        kb_in_per_req: 0.5,
        kb_out_per_req: 4.0,
        cpu_ms_per_req: 7.0,
        backlog: 100.0,
    };
    let profile = VmPerfProfile::default();
    let req = required_resources(&load, &profile, 60.0);
    let cap = pamdc_infra::resources::Resources::new(400.0, 4096.0, 64000.0, 64000.0);
    c.bench_function("perf/rt_evaluate", |b| {
        b.iter(|| {
            black_box(evaluate(
                black_box(&load),
                &profile,
                &req,
                &req,
                &cap,
                60.0,
                None,
            ))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
