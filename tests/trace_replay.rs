//! End-to-end trace record → replay determinism: a replayed run must
//! reproduce the recorded run's demand series and scheduler decisions
//! bit-for-bit (satellite acceptance of the scenario-engine PR).

use pamdc_core::engine::Controller;
use pamdc_core::policy::{BestFitPolicy, HierarchicalPolicy, PlacementPolicy};
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_core::simulation::RunOutcome;
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::time::SimDuration;
use pamdc_workload::source::DemandSource;
use pamdc_workload::trace::{DemandTrace, TraceSource};

fn run(scenario: pamdc_core::scenario::Scenario, hierarchical: bool) -> RunOutcome {
    let policy: Box<dyn PlacementPolicy> = if hierarchical {
        Box::new(HierarchicalPolicy::new(TrueOracle::new()))
    } else {
        Box::new(BestFitPolicy::new(TrueOracle::new()))
    };
    Controller::new(scenario, policy)
        .run_for(SimDuration::from_hours(3))
        .0
}

/// Demand series and scheduler decisions must match bit-for-bit.
fn assert_identical_runs(a: &RunOutcome, b: &RunOutcome) {
    let (rps_a, rps_b) = (a.series.get("rps").unwrap(), b.series.get("rps").unwrap());
    assert_eq!(rps_a.len(), rps_b.len(), "same demand sample count");
    for ((ta, va), (tb, vb)) in rps_a.iter().zip(rps_b.iter()) {
        assert_eq!(ta, tb);
        assert_eq!(va.to_bits(), vb.to_bits(), "demand at {ta}");
    }
    assert_eq!(a.migrations, b.migrations, "same migration count");
    for vm in 0.. {
        let key = format!("vm{vm}_dc");
        match (a.series.get(&key), b.series.get(&key)) {
            (Some(pa), Some(pb)) => {
                let (da, db): (Vec<_>, Vec<_>) = (pa.iter().collect(), pb.iter().collect());
                assert_eq!(da, db, "identical placement trace for vm{vm}");
            }
            (None, None) => break,
            other => panic!("placement series mismatch for vm{vm}: {other:?}"),
        }
    }
    assert_eq!(a.mean_sla.to_bits(), b.mean_sla.to_bits());
    assert_eq!(a.total_wh.to_bits(), b.total_wh.to_bits());
    assert_eq!(
        a.profit.profit_eur().to_bits(),
        b.profit.profit_eur().to_bits()
    );
}

#[test]
fn replayed_run_reproduces_synthetic_run() {
    let synthetic = ScenarioBuilder::paper_multi_dc().vms(5).seed(21).build();
    // Record the demand the synthetic run will see (3 h at the 1-minute
    // simulation tick), then build the identical world driven by the
    // trace instead of the generator.
    let trace = DemandTrace::record(
        &synthetic.workload,
        SimDuration::from_hours(3),
        SimDuration::from_mins(1),
    );
    let replayed = ScenarioBuilder::paper_multi_dc()
        .vms(5)
        .seed(21)
        .demand(TraceSource::new(trace))
        .build();

    let a = run(synthetic, true);
    let b = run(replayed, true);
    assert_identical_runs(&a, &b);
}

#[test]
fn replay_survives_the_csv_wire_format() {
    let synthetic = ScenarioBuilder::paper_intra_dc().vms(4).seed(33).build();
    let trace = DemandTrace::record(
        &synthetic.workload,
        SimDuration::from_hours(3),
        SimDuration::from_mins(1),
    );
    // Through the wire: emit CSV, reparse, replay.
    let parsed = DemandTrace::parse_csv(&trace.to_csv()).expect("parse");
    assert_eq!(trace, parsed);
    let replayed = ScenarioBuilder::paper_intra_dc()
        .vms(4)
        .seed(33)
        .demand(TraceSource::new(parsed))
        .build();
    let a = run(synthetic, false);
    let b = run(replayed, false);
    assert_identical_runs(&a, &b);
}

#[test]
fn transformed_replay_differs_predictably() {
    let base = ScenarioBuilder::paper_multi_dc().vms(3).seed(9).build();
    let trace = DemandTrace::record(
        &base.workload,
        SimDuration::from_hours(3),
        SimDuration::from_mins(1),
    );
    let doubled = TraceSource::new(trace.clone()).with_rate_scale(2.0);
    // Offered load doubles sample-for-sample.
    for m in [0u64, 45, 119] {
        let t = pamdc_simcore::time::SimTime::from_mins(m);
        for s in 0..3 {
            let raw: f64 = TraceSource::new(trace.clone())
                .sample(s, t)
                .iter()
                .map(|f| f.rps)
                .sum();
            let scaled: f64 = doubled.sample(s, t).iter().map(|f| f.rps).sum();
            assert_eq!(scaled.to_bits(), (raw * 2.0).to_bits());
        }
    }
    // And a stretched replay serves the early-trace demand later.
    let stretched = TraceSource::new(trace.clone()).with_time_stretch(3.0);
    assert_eq!(
        stretched.sample(0, pamdc_simcore::time::SimTime::from_mins(90)),
        TraceSource::new(trace).sample(0, pamdc_simcore::time::SimTime::from_mins(30)),
    );
}
