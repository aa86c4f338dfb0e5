//! E-F4 — regenerates Figure 4 (BF vs BF-OB vs BF-ML, intra-DC) and
//! times a simulated hour under each oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_bench::{metric_id, run_builtin};
use pamdc_core::engine::Controller;
use pamdc_core::experiments::table1;
use pamdc_core::policy::{BestFitPolicy, PlacementPolicy};
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_scenario::{build, kinds, registry};
use pamdc_sched::oracle::{MlOracle, MonitorOracle};
use pamdc_simcore::time::SimDuration;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_builtin("fig4", true, &[]).text);
    // The fig4 kind's quick-mode training, for the BF-ML arm's oracle.
    let spec = registry::find("fig4").expect("builtin").spec;
    let spec = kinds::quick_spec(&spec, kinds::find("fig4").expect("kind")).expect("quick rows");
    let training = table1::run(&build::training(&spec.training));

    // Bench ids derive from the policies' display names through the
    // workspace-wide metric namer, same keys as the runner's reports.
    let bf_id = metric_id(&BestFitPolicy::new(MonitorOracle::plain()).name());
    let bf_ml_id = metric_id(&BestFitPolicy::new(MlOracle::new(training.suite.clone())).name());

    let mut g = c.benchmark_group("fig4_sim_hour");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("policy", bf_id), |b| {
        b.iter(|| {
            let s = ScenarioBuilder::paper_intra_dc().vms(4).seed(1).build();
            let p = Box::new(BestFitPolicy::new(MonitorOracle::plain()));
            black_box(
                Controller::new(s, p)
                    .run_for(SimDuration::from_hours(1))
                    .0
                    .mean_sla,
            )
        })
    });
    g.bench_function(BenchmarkId::new("policy", bf_ml_id), |b| {
        b.iter(|| {
            let s = ScenarioBuilder::paper_intra_dc().vms(4).seed(1).build();
            let p = Box::new(BestFitPolicy::new(MlOracle::new(training.suite.clone())));
            black_box(
                Controller::new(s, p)
                    .run_for(SimDuration::from_hours(1))
                    .0
                    .mean_sla,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
