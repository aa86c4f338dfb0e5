//! Design-choice ablations the paper discusses in passing.
//!
//! * **E-AB1** (§IV-B): "better results are obtained if SLA is predicted
//!   directly" — we compare the k-NN direct-SLA path against predicting
//!   RT with M5P and converting through the SLA formula.
//! * **E-AB2** (§V-B): the monitor bias that defeats plain Best-Fit — a
//!   saturated VM's observed usage underestimates what its load actually
//!   demands. We quantify the observed/demanded CPU ratio in saturated
//!   vs unsaturated ticks.

use crate::experiment::ExperimentReport;
use crate::experiments::table1::Table1Config;
use crate::report::TextTable;
use crate::training::{
    build_stage1_datasets, build_stage2_datasets, collect_training_data, TrainingCollector,
};
use pamdc_ml::metrics::EvalReport;
use pamdc_ml::predictors::{PredictionTarget, TrainedPredictor};
use pamdc_perf::demand::cpu_demand_pct;
use pamdc_perf::sla::SlaFunction;
use pamdc_simcore::rng::RngStream;
use pamdc_simcore::stats::{mean_absolute_error, pearson, OnlineStats};

/// Both ablations' results.
pub struct AblationsResult {
    /// E-AB1: direct-SLA vs RT-then-formula.
    pub path: SlaPathResult,
    /// E-AB2: the monitor bias.
    pub bias: MonitorBiasResult,
}

/// Runs both ablations from one shared collection pass — the Table-I
/// exploration regime `cfg` describes — trains the stage-1 CPU model
/// the way [`crate::training::train_suite`] does (same derived RNG
/// stream), then evaluates both prediction paths and the monitor-bias
/// ratios.
pub fn run(cfg: &Table1Config) -> AblationsResult {
    let collector = collect_training_data(cfg.vms, &cfg.scales, cfg.hours_per_scale, cfg.seed);
    let stage1 = build_stage1_datasets(&collector);
    let (target, cpu_data) = stage1
        .iter()
        .find(|(t, _)| *t == PredictionTarget::VmCpu)
        .expect("stage 1 contains the CPU dataset");
    let mut rng = RngStream::root(cfg.seed).derive(target.paper_name());
    let cpu_model = TrainedPredictor::train(*target, cpu_data, &mut rng);
    AblationsResult {
        path: sla_direct_vs_via_rt(&collector, &cpu_model, cfg.seed),
        bias: monitor_bias(&collector),
    }
}

/// The report over both ablations.
pub fn report(cfg: &Table1Config) -> ExperimentReport {
    let result = run(cfg);
    ExperimentReport {
        metrics: vec![
            (
                "sla_direct_correlation".to_string(),
                result.path.direct.correlation,
            ),
            ("sla_direct_mae".to_string(), result.path.direct.mae),
            (
                "sla_via_rt_correlation".to_string(),
                result.path.via_rt_correlation,
            ),
            ("sla_via_rt_mae".to_string(), result.path.via_rt_mae),
            (
                "bias_unsaturated_ratio".to_string(),
                result.bias.unsaturated_ratio,
            ),
            (
                "bias_saturated_ratio".to_string(),
                result.bias.saturated_ratio,
            ),
        ],
        text: render(&result.path, &result.bias),
    }
}

/// E-AB1 result: both prediction paths on the same test split.
pub struct SlaPathResult {
    /// Direct k-NN SLA prediction quality.
    pub direct: EvalReport,
    /// RT-then-formula path quality (against the same SLA truth).
    pub via_rt_correlation: f64,
    /// MAE of the RT-then-formula path.
    pub via_rt_mae: f64,
}

/// Runs E-AB1 from collected samples and the stage-1 CPU model.
pub fn sla_direct_vs_via_rt(
    collector: &TrainingCollector,
    cpu_model: &TrainedPredictor,
    seed: u64,
) -> SlaPathResult {
    let stage2 = build_stage2_datasets(collector, cpu_model);
    let (_, rt_data) = &stage2[0];
    let (_, sla_data) = &stage2[1];

    // One shared shuffled split for both paths (same derived stream =>
    // identical row partition).
    let (rt_train, rt_test) = rt_data.split(0.66, &mut RngStream::root(seed).derive("split"));
    let (sla_train, sla_test) = sla_data.split(0.66, &mut RngStream::root(seed).derive("split"));

    // Path A: direct SLA (k-NN).
    let direct_model = TrainedPredictor::train_presplit(
        PredictionTarget::VmSla,
        &sla_train,
        &sla_test,
        sla_data.target_range(),
    );

    // Path B: RT (M5P) then the SLA formula. The transport latency is the
    // last feature; SLA truth in the dataset already includes it.
    let rt_model = PredictionTarget::VmRt.fit(&rt_train);
    let sla_fn = SlaFunction::paper();
    let truth: Vec<f64> = sla_test.targets().to_vec();
    let via_rt: Vec<f64> = rt_test
        .rows()
        .map(|row| {
            let rt = rt_model.predict(row).max(0.0);
            let transport = row[6];
            sla_fn.fulfillment(rt + transport)
        })
        .collect();

    SlaPathResult {
        direct: direct_model.report,
        via_rt_correlation: pearson(&via_rt, &truth),
        via_rt_mae: mean_absolute_error(&via_rt, &truth),
    }
}

/// E-AB2 result: the monitor-bias ratios.
#[derive(Clone, Copy, Debug)]
pub struct MonitorBiasResult {
    /// Mean observed/demanded CPU ratio over unsaturated ticks (≈ 1).
    pub unsaturated_ratio: f64,
    /// Mean observed/demanded CPU ratio over saturated ticks (≪ 1).
    pub saturated_ratio: f64,
    /// Sample counts `(unsaturated, saturated)`.
    pub counts: (u64, u64),
}

/// Runs E-AB2 on collected samples.
pub fn monitor_bias(collector: &TrainingCollector) -> MonitorBiasResult {
    let mut unsat = OnlineStats::new();
    let mut sat = OnlineStats::new();
    for s in &collector.vm_ticks {
        // What the load *demands*, reconstructed from load features.
        let demanded = cpu_demand_pct(s.load[0], s.load[3], 2.0);
        if demanded <= 5.0 {
            continue; // idle ticks carry no signal
        }
        let ratio = s.observed.cpu / demanded;
        if s.saturated {
            sat.push(ratio);
        } else {
            unsat.push(ratio);
        }
    }
    MonitorBiasResult {
        unsaturated_ratio: unsat.mean(),
        saturated_ratio: sat.mean(),
        counts: (unsat.count(), sat.count()),
    }
}

/// Renders both ablations.
pub fn render(path: &SlaPathResult, bias: &MonitorBiasResult) -> String {
    let mut t = TextTable::new(&["ablation", "metric", "value"]);
    t.row(vec![
        "SLA direct (k-NN)".into(),
        "correlation".into(),
        format!("{:.4}", path.direct.correlation),
    ]);
    t.row(vec![
        "SLA direct (k-NN)".into(),
        "MAE".into(),
        format!("{:.4}", path.direct.mae),
    ]);
    t.row(vec![
        "SLA via RT (M5P+formula)".into(),
        "correlation".into(),
        format!("{:.4}", path.via_rt_correlation),
    ]);
    t.row(vec![
        "SLA via RT (M5P+formula)".into(),
        "MAE".into(),
        format!("{:.4}", path.via_rt_mae),
    ]);
    t.row(vec![
        "monitor bias".into(),
        "obs/demand CPU (unsaturated)".into(),
        format!("{:.3}", bias.unsaturated_ratio),
    ]);
    t.row(vec![
        "monitor bias".into(),
        "obs/demand CPU (saturated)".into(),
        format!("{:.3}", bias.saturated_ratio),
    ]);
    format!(
        "Ablations — SLA prediction path & monitor bias\n{}",
        t.render()
    )
}
