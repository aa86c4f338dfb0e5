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

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;
use pamdc_ml::dataset::Dataset;
use pamdc_ml::linreg::LinearRegression;
use pamdc_ml::online::{DriftAwareLearner, OnlineLearner, PageHinkley};
use pamdc_ml::Regressor;
use pamdc_perf::demand::VmPerfProfile;
use pamdc_simcore::time::SimTime;

/// Sliding-window capacity of the online learners, samples.
const WINDOW: usize = 400;
/// Refit cadence, samples.
const REFIT_EVERY: usize = 50;
/// Page–Hinkley slack (MB of absolute MEM error).
const PH_DELTA: f64 = 10.0;
/// Page–Hinkley threshold (accumulated MB).
const PH_LAMBDA: f64 = 1500.0;

/// The fleet-wide software update: a bigger memory floor and more
/// memory per in-flight request, everything else unchanged.
pub fn bloated(p: VmPerfProfile) -> VmPerfProfile {
    VmPerfProfile {
        base_mem_mb: p.base_mem_mb * 1.8,
        mem_mb_per_inflight: p.mem_mb_per_inflight * 2.5,
        ..p
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

/// Evaluates the three predictors prequentially on the samples of the
/// collection arm: a static, never-planning run of `vms` VMs whose
/// [`bloated`] update lands at `update_at` for every VM (every tick
/// records exactly one sample per VM, so the stream boundary is exact).
fn evaluate(run: &ExperimentRun, vms: usize, update_at: SimTime) -> OnlineDriftResult {
    let collector = run.samples.first().expect("the collection arm's samples");
    let boundary = update_at.as_mins() as usize * vms;
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
    let mut window_model = OnlineLearner::new(&features, WINDOW, REFIT_EVERY, REFIT_EVERY, fit);
    let mut aware_model = DriftAwareLearner::new(
        OnlineLearner::new(&features, WINDOW, REFIT_EVERY, REFIT_EVERY, fit),
        PageHinkley::new(PH_DELTA, PH_LAMBDA),
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

/// The report over the collection arm: the three predictors scored
/// prequentially on its samples.
pub fn report(run: ExperimentRun, vms: usize, update_at: SimTime) -> ExperimentReport {
    let result = evaluate(&run, vms, update_at);
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
