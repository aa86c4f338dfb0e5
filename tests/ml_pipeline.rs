//! Integration tests for the learning side: the Table-I pipeline driving
//! the multi-DC scheduler, the direct-SLA ablation, and the online
//! retraining extension (the paper's future-work item 4).

use pamdc::manager::experiments::ablations;
use pamdc::manager::training::{build_stage1_datasets, collect_training_data, train_suite};
use pamdc::ml::prelude::*;
use pamdc::prelude::*;
use pamdc_sched::oracle::MlOracle;
use pamdc_simcore::rng::RngStream;

/// The trained suite must actually drive the hierarchical scheduler on
/// the 4-city scenario: sane SLA, consolidation below the full fleet.
#[test]
fn ml_suite_drives_the_multi_dc_scheduler() {
    let collector = collect_training_data(4, &[0.6, 1.2], 4, 31);
    let training = train_suite(&collector, 31);
    let scenario = ScenarioBuilder::paper_multi_dc().vms(5).seed(31).build();
    let policy = Box::new(HierarchicalPolicy::new(MlOracle::new(
        training.suite.clone(),
    )));
    let (outcome, _) = SimulationRunner::new(scenario, policy).run(SimDuration::from_hours(6));
    assert!(outcome.mean_sla > 0.6, "ML-driven SLA {}", outcome.mean_sla);
    assert!(
        outcome.avg_active_pms < 4.0,
        "ML scheduler should consolidate below the full fleet: {}",
        outcome.avg_active_pms
    );
    assert!(outcome.profit.profit_eur() > 0.0);
}

/// E-AB1: direct SLA prediction (k-NN) is at least as good as predicting
/// RT and converting through the formula — the paper's §IV-B finding.
#[test]
fn direct_sla_beats_or_matches_via_rt() {
    let collector = collect_training_data(4, &[0.6, 1.4], 4, 33);
    let stage1 = build_stage1_datasets(&collector);
    let (_, cpu_data) = &stage1[0];
    let mut rng = RngStream::root(33).derive("cpu");
    let cpu_model = TrainedPredictor::train(PredictionTarget::VmCpu, cpu_data, &mut rng);
    let result = ablations::sla_direct_vs_via_rt(&collector, &cpu_model, 33);
    assert!(
        result.direct.correlation >= result.via_rt_correlation - 0.03,
        "direct {} should not trail via-RT {} meaningfully",
        result.direct.correlation,
        result.via_rt_correlation
    );
    assert!(result.direct.mae <= result.via_rt_mae + 0.02);
}

/// E-AB2: monitors under-report demand exactly when it matters.
#[test]
fn monitor_bias_is_real_and_directional() {
    let collector = collect_training_data(4, &[0.8, 1.6], 4, 35);
    let bias = ablations::monitor_bias(&collector);
    assert!(
        bias.counts.0 > 50 && bias.counts.1 > 50,
        "need both regimes: {:?}",
        bias.counts
    );
    assert!(
        bias.saturated_ratio < bias.unsaturated_ratio - 0.1,
        "saturated obs/demand {} must sit well below unsaturated {}",
        bias.saturated_ratio,
        bias.unsaturated_ratio
    );
    assert!(
        (bias.unsaturated_ratio - 1.0).abs() < 0.35,
        "unsaturated observations should be roughly unbiased: {}",
        bias.unsaturated_ratio
    );
}

/// Future work #4: an online learner tracks workload drift that a batch
/// model fitted once cannot.
#[test]
fn online_learner_tracks_drift() {
    let features = ["rps"];
    let fit = |d: &Dataset| Box::new(LinearRegression::fit(d)) as Box<dyn Regressor>;
    let mut online = OnlineLearner::new(&features, 200, 25, 20, fit);

    // Regime A: cpu = 0.6 * rps. Also fit a frozen batch model here.
    let mut batch_data = Dataset::with_features(&features);
    for i in 0..200 {
        let rps = (i % 50) as f64 * 4.0;
        let cpu = 0.6 * rps;
        online.observe(vec![rps], cpu);
        batch_data.push(&[rps], cpu);
    }
    let batch = LinearRegression::fit(&batch_data);

    // Regime B (software update doubles the per-request cost).
    for i in 0..400 {
        let rps = (i % 50) as f64 * 4.0;
        online.observe(vec![rps], 1.2 * rps);
    }

    let q = vec![100.0];
    let online_pred = online.predict(&q).expect("fitted");
    let batch_pred = batch.predict(&q);
    let truth = 120.0;
    assert!(
        (online_pred - truth).abs() < 6.0,
        "online model must track the new regime: {online_pred} vs {truth}"
    );
    assert!(
        (batch_pred - truth).abs() > 30.0,
        "frozen batch model must be stale: {batch_pred} vs {truth}"
    );
}

/// The ML oracle's resource estimates agree with ground truth within a
/// usable band on in-distribution loads.
#[test]
fn ml_demand_estimates_track_truth() {
    use pamdc_sched::oracle::{QosOracle, TrueOracle};
    use pamdc_sched::problem::synthetic;

    let collector = collect_training_data(4, &[0.5, 1.0, 1.5], 4, 37);
    let training = train_suite(&collector, 37);
    let ml = MlOracle::new(training.suite.clone());
    let truth = TrueOracle::new();

    let mut checked = 0;
    for rps in [40.0, 120.0, 250.0] {
        let p = synthetic::problem(2, 2, rps);
        for vm in &p.vms {
            let d_ml = ml.demand(vm);
            let d_true = truth.demand(vm);
            if d_true.cpu > 20.0 {
                let ratio = d_ml.cpu / d_true.cpu;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "cpu estimate off at rps {rps}: ml {} vs true {}",
                    d_ml.cpu,
                    d_true.cpu
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "need enough comparisons, got {checked}");
}
