//! E-OL — **on-line learning under concept drift** (paper future-work
//! item 4): *"the use of on-line learning methods, able to retrain
//! continuously on recent data, to make the system react quickly to
//! changes in either application behavior, hardware or middleware
//! changes, or workload characteristics"*.
//!
//! A fleet-wide "software update" lands halfway through an intra-DC run:
//! every VM's ground-truth memory footprint grows (bigger base image,
//! more memory per in-flight request). The load features the models see
//! are unchanged — only the feature→MEM mapping moved, which is exactly
//! the failure mode batch models cannot survive. Three predictors ride
//! the same prequential stream (predict first, then learn):
//!
//! * **frozen** — the paper's Table-I regime: linear regression fit once
//!   on pre-update data, never refit.
//! * **window** — [`OnlineLearner`]: sliding-window refits.
//! * **drift-aware** — [`DriftAwareLearner`]: Page–Hinkley on the error
//!   stream; on detection the stale window is flushed so the next refit
//!   is purely post-update.
//!
//! Expected shape: all three match before the update; the frozen model's
//! error jumps and never recovers; the window model recovers after its
//! buffer turns over; the drift-aware model recovers fastest.

use crate::experiment::{Experiment, ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use crate::scenario::ScenarioBuilder;
use crate::simulation::{RunConfig, SimulationRunner};
use crate::training::TrainingCollector;
use pamdc_ml::dataset::Dataset;
use pamdc_ml::linreg::LinearRegression;
use pamdc_ml::online::{DriftAwareLearner, OnlineLearner, PageHinkley};
use pamdc_ml::Regressor;
use pamdc_perf::demand::VmPerfProfile;
use pamdc_simcore::time::{SimDuration, SimTime};

/// Configuration of the drift experiment.
#[derive(Clone, Debug)]
pub struct OnlineDriftConfig {
    /// Simulated hours; the update lands at the midpoint.
    pub hours: u64,
    /// VMs.
    pub vms: usize,
    /// Load multiplier.
    pub load_scale: f64,
    /// Sliding-window capacity of the online learners, samples.
    pub window: usize,
    /// Refit cadence, samples.
    pub refit_every: usize,
    /// Page–Hinkley slack (MB of absolute MEM error).
    pub ph_delta: f64,
    /// Page–Hinkley threshold (accumulated MB).
    pub ph_lambda: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for OnlineDriftConfig {
    fn default() -> Self {
        OnlineDriftConfig {
            hours: 16,
            vms: 5,
            load_scale: 0.8,
            window: 400,
            refit_every: 50,
            ph_delta: 10.0,
            ph_lambda: 1500.0,
            seed: 23,
        }
    }
}

impl OnlineDriftConfig {
    /// Short run for tests and benches.
    pub fn quick(seed: u64) -> Self {
        OnlineDriftConfig {
            hours: 8,
            vms: 4,
            ..OnlineDriftConfig {
                seed,
                ..Default::default()
            }
        }
    }

    /// The update instant.
    pub fn update_at(&self) -> SimTime {
        SimTime::from_hours(self.hours / 2)
    }
}

/// Prequential MAE of one model over the three stream segments.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentedMae {
    /// Before the update (steady state).
    pub pre: f64,
    /// The first `transition` samples after the update.
    pub transition: f64,
    /// The remainder after the transition window.
    pub recovered: f64,
}

/// Everything the experiment measures.
pub struct OnlineDriftResult {
    /// Fit once pre-update, never refit.
    pub frozen: SegmentedMae,
    /// Sliding-window online learner.
    pub window: SegmentedMae,
    /// Page–Hinkley guarded learner.
    pub drift_aware: SegmentedMae,
    /// Stream offset (samples after the update) at which drift was
    /// detected, if it was.
    pub detected_after: Option<usize>,
    /// Samples per segment actually scored (pre / transition /
    /// recovered).
    pub segment_sizes: (usize, usize, usize),
}

/// Transition window length, samples.
const TRANSITION: usize = 300;

/// Runs the experiment: one simulation with a mid-run fleet-wide memory
/// regression, then three predictors evaluated prequentially on the
/// captured stream.
pub fn run(cfg: &OnlineDriftConfig) -> OnlineDriftResult {
    // ---------------- Generate the stream ----------------
    let update_at = cfg.update_at();
    let mut builder = ScenarioBuilder::paper_intra_dc()
        .vms(cfg.vms)
        .load_scale(cfg.load_scale)
        .seed(cfg.seed);
    let bloated = |p: VmPerfProfile| VmPerfProfile {
        base_mem_mb: p.base_mem_mb * 1.8,
        mem_mb_per_inflight: p.mem_mb_per_inflight * 2.5,
        ..p
    };
    // The scenario builder assigns per-class profiles at build time; we
    // can only know them post-build, so build once to read them, then
    // schedule the bloat per VM.
    let probe = builder.clone().build();
    for vm in 0..cfg.vms {
        builder = builder.profile_change(vm, update_at, bloated(probe.perf_profiles[vm]));
    }
    let scenario = builder.build();

    // Static placement, no migrations: every tick records exactly one
    // sample per VM, so the stream boundary is exact.
    let policy = Box::new(crate::policy::StaticPolicy(
        pamdc_sched::oracle::TrueOracle::new(),
    ));
    let (_, collector) = SimulationRunner::new(scenario, policy)
        .config(RunConfig {
            keep_series: false,
            round_every_ticks: 0,
            ..Default::default()
        })
        .collect_into(TrainingCollector::new())
        .run(SimDuration::from_hours(cfg.hours));
    let collector = collector.expect("collector attached");

    let boundary = update_at.as_mins() as usize * cfg.vms;
    let stream: Vec<(Vec<f64>, f64)> = collector
        .vm_ticks
        .iter()
        .map(|s| (s.load.to_vec(), s.observed.mem_mb))
        .collect();
    assert!(
        stream.len() > boundary + TRANSITION,
        "stream too short: {} samples, boundary {}",
        stream.len(),
        boundary
    );

    // ---------------- The three contenders ----------------
    let features: Vec<&str> = vec!["rps", "kb_in", "kb_out", "cpu_ms", "backlog"];
    let mut pretrain = Dataset::new(features.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for (x, y) in &stream[..boundary] {
        pretrain.push(x, *y);
    }
    let frozen_model = LinearRegression::fit(&pretrain);

    let fit = |d: &Dataset| Box::new(LinearRegression::fit(d)) as Box<dyn Regressor>;
    let mut window_model =
        OnlineLearner::new(&features, cfg.window, cfg.refit_every, cfg.refit_every, fit);
    let mut aware_model = DriftAwareLearner::new(
        OnlineLearner::new(&features, cfg.window, cfg.refit_every, cfg.refit_every, fit),
        PageHinkley::new(cfg.ph_delta, cfg.ph_lambda),
    );

    // ---------------- Prequential evaluation ----------------
    let mut sums = [[0.0f64; 3]; 3]; // [model][segment]
    let mut counts = [[0usize; 3]; 3];
    let mut detected_after = None;
    for (i, (x, y)) in stream.iter().enumerate() {
        let segment = if i < boundary {
            0
        } else if i < boundary + TRANSITION {
            1
        } else {
            2
        };
        // Score (skip models that have not fit yet — only the first
        // refit_every samples of the run).
        let preds = [
            Some(frozen_model.predict(x)),
            window_model.predict(x),
            aware_model.predict(x),
        ];
        for (m, pred) in preds.into_iter().enumerate() {
            if let Some(p) = pred {
                sums[m][segment] += (p - y).abs();
                counts[m][segment] += 1;
            }
        }
        // Learn.
        window_model.observe(x.clone(), *y);
        if aware_model.observe(x.clone(), *y) && detected_after.is_none() {
            detected_after = Some(i.saturating_sub(boundary));
        }
    }

    let mae = |m: usize| SegmentedMae {
        pre: sums[m][0] / counts[m][0].max(1) as f64,
        transition: sums[m][1] / counts[m][1].max(1) as f64,
        recovered: sums[m][2] / counts[m][2].max(1) as f64,
    };
    OnlineDriftResult {
        frozen: mae(0),
        window: mae(1),
        drift_aware: mae(2),
        detected_after,
        segment_sizes: (counts[0][0], counts[0][1], counts[0][2]),
    }
}

/// The registry-facing experiment: the prequential stream needs a
/// collector-attached simulation, so everything runs in the emission
/// stage rather than through shared arms.
pub struct OnlineDrift {
    /// Stream and learner configuration.
    pub cfg: OnlineDriftConfig,
}

impl Experiment for OnlineDrift {
    fn emit(&self, _run: ExperimentRun) -> ExperimentReport {
        let result = run(&self.cfg);
        let mut metrics = Vec::new();
        for (label, m) in [
            ("frozen", &result.frozen),
            ("window", &result.window),
            ("drift_aware", &result.drift_aware),
        ] {
            metrics.push((format!("{label}_mae_pre"), m.pre));
            metrics.push((format!("{label}_mae_transition"), m.transition));
            metrics.push((format!("{label}_mae_recovered"), m.recovered));
        }
        metrics.push((
            "detected_after_samples".to_string(),
            result.detected_after.map(|k| k as f64).unwrap_or(-1.0),
        ));
        ExperimentReport {
            text: render(&result),
            metrics,
        }
    }
}

/// Renders the MAE table.
pub fn render(result: &OnlineDriftResult) -> String {
    let mut t = TextTable::new(&["model", "MAE pre (MB)", "MAE transition", "MAE recovered"]);
    for (label, m) in [
        ("Frozen (Table-I regime)", &result.frozen),
        ("Sliding window", &result.window),
        ("Drift-aware (Page-Hinkley)", &result.drift_aware),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", m.pre),
            format!("{:.1}", m.transition),
            format!("{:.1}", m.recovered),
        ]);
    }
    let detection = match result.detected_after {
        Some(k) => format!("drift detected {k} samples after the update"),
        None => "drift NOT detected".to_string(),
    };
    format!(
        "On-line learning under a software update (future work 4) — {detection}\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_models_survive_the_update() {
        let r = run(&OnlineDriftConfig::quick(5));
        // Pre-update: all models comparable (within 3x of each other).
        assert!(r.frozen.pre < r.window.pre * 3.0 + 5.0);
        // The update hurts the frozen model lastingly.
        assert!(
            r.frozen.recovered > r.frozen.pre * 3.0,
            "frozen model must degrade: pre {} vs recovered {}",
            r.frozen.pre,
            r.frozen.recovered
        );
        // Online models recover to near their pre-update error.
        assert!(
            r.window.recovered < r.frozen.recovered * 0.5,
            "window {} must beat frozen {}",
            r.window.recovered,
            r.frozen.recovered
        );
        assert!(
            r.drift_aware.recovered < r.frozen.recovered * 0.5,
            "drift-aware {} must beat frozen {}",
            r.drift_aware.recovered,
            r.frozen.recovered
        );
        // Detection fired, and quickly.
        let k = r.detected_after.expect("Page-Hinkley must fire");
        assert!(k < TRANSITION, "detection after {k} samples is too slow");
        let rendered = render(&r);
        assert!(rendered.contains("drift detected"));
    }
}
