//! The Table-I training pipeline: collect monitored samples from
//! exploration runs, build the seven datasets, train and validate the
//! predictor suite.
//!
//! Mirrors the paper's §IV-B methodology: the predictors learn from what
//! monitors *observed* on the running system (noisy, biased under
//! saturation), never from the ground-truth model equations. Demand
//! targets are taken only from unsaturated ticks (a starved VM's usage is
//! not its demand); the RT and SLA models are trained **second**, with
//! the stage-1 CPU prediction injected as a feature — "we add to these
//! predicted values information on the current load ... to predict
//! response time and/or SLA fulfillment level".

use crate::engine::Controller;
use crate::policy::RandomPolicy;
use crate::scenario::ScenarioBuilder;
use crate::simulation::RunConfig;
use pamdc_infra::resources::Resources;
use pamdc_ml::dataset::Dataset;
use pamdc_ml::metrics::EvalReport;
use pamdc_ml::predictors::{PredictionTarget, PredictorSuite, TrainedPredictor};
use pamdc_perf::demand::OfferedLoad;
use pamdc_simcore::rng::RngStream;
use pamdc_simcore::time::SimDuration;
use std::sync::Arc;

/// One VM-tick observation (everything later datasets need).
#[derive(Clone, Copy, Debug)]
pub struct VmTickSample {
    /// Load features: rps, kb_in, kb_out, cpu_ms, backlog.
    pub load: [f64; 5],
    /// Monitored (noisy) usage.
    pub observed: Resources,
    /// Whether the VM failed to serve its offered load this tick.
    pub saturated: bool,
    /// CPU actually granted (percent-of-core).
    pub granted_cpu: f64,
    /// Granted/required memory ratio (≤ 1).
    pub mem_ratio: f64,
    /// Client transport latency, seconds.
    pub transport_secs: f64,
    /// Measured processing RT, seconds.
    pub rt_secs: f64,
    /// Measured SLA fulfillment.
    pub sla: f64,
}

/// One PM-tick observation.
#[derive(Clone, Copy, Debug)]
pub struct PmTickSample {
    /// Hosted VM count.
    pub n_vms: usize,
    /// Sum of the VMs' observed CPU.
    pub sum_vm_cpu: f64,
    /// Sum of the VMs' request rates.
    pub sum_rps: f64,
    /// Monitored total PM CPU (includes hypervisor overhead).
    pub pm_cpu: f64,
}

/// Accumulates raw samples during simulation runs.
#[derive(Clone, Debug, Default)]
pub struct TrainingCollector {
    /// VM-tick records.
    pub vm_ticks: Vec<VmTickSample>,
    /// PM-tick records.
    pub pm_ticks: Vec<PmTickSample>,
}

impl TrainingCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called by the simulation loop once per serving VM-tick.
    #[allow(clippy::too_many_arguments)]
    pub fn record_vm_tick(
        &mut self,
        load: &OfferedLoad,
        observed: &Resources,
        saturated: bool,
        granted_cpu: f64,
        mem_ratio: f64,
        transport_secs: f64,
        rt_secs: f64,
        sla: f64,
    ) {
        self.vm_ticks.push(VmTickSample {
            load: [
                load.rps,
                load.kb_in_per_req,
                load.kb_out_per_req,
                load.cpu_ms_per_req,
                load.backlog,
            ],
            observed: *observed,
            saturated,
            granted_cpu,
            mem_ratio,
            transport_secs,
            rt_secs,
            sla,
        });
    }

    /// Called by the simulation loop once per hosting PM-tick.
    pub fn record_pm_tick(&mut self, n_vms: usize, sum_vm_cpu: f64, sum_rps: f64, pm_cpu: f64) {
        self.pm_ticks.push(PmTickSample {
            n_vms,
            sum_vm_cpu,
            sum_rps,
            pm_cpu,
        });
    }

    /// Merges another collector (parallel collection runs).
    pub fn merge(&mut self, other: TrainingCollector) {
        self.vm_ticks.extend(other.vm_ticks);
        self.pm_ticks.extend(other.pm_ticks);
    }
}

/// Collects training data by running the intra-DC scenario under the
/// random exploration policy at several load scales (a deterministic
/// parallel sweep, one item per scale).
pub fn collect_training_data(
    vms: usize,
    scales: &[f64],
    hours_per_scale: u64,
    seed: u64,
) -> TrainingCollector {
    let jobs: Vec<(usize, f64)> = scales.iter().copied().enumerate().collect();
    let results: Vec<TrainingCollector> = pamdc_simcore::par::parallel_map(jobs, |(i, scale)| {
        let scenario = ScenarioBuilder::paper_intra_dc()
            .vms(vms)
            .load_scale(scale)
            .seed(seed.wrapping_add(i as u64 * 7919))
            .build();
        let policy = Box::new(RandomPolicy::new(seed ^ (i as u64)));
        let config = RunConfig {
            keep_series: false,
            ..Default::default()
        };
        let duration = SimDuration::from_hours(hours_per_scale);
        // At most one sample per VM and tick: reserved up front, so the
        // buffer is never regrown and copied.
        let mut collector = TrainingCollector::new();
        collector
            .vm_ticks
            .reserve_exact(vms * duration.ticks(config.tick) as usize);
        let (_, collector) =
            Controller::with(scenario, policy, config, Some(collector)).run_for(duration);
        collector.expect("collector attached")
    });
    let mut merged = TrainingCollector::new();
    merged
        .vm_ticks
        .reserve_exact(results.iter().map(|c| c.vm_ticks.len()).sum());
    merged
        .pm_ticks
        .reserve_exact(results.iter().map(|c| c.pm_ticks.len()).sum());
    for c in results {
        merged.merge(c);
    }
    merged
}

/// The load-feature names shared by the four demand targets.
const LOAD_FEATURES: [&str; 5] = [
    "rps",
    "kb_in_per_req",
    "kb_out_per_req",
    "cpu_ms_per_req",
    "backlog",
];

/// Builds the four demand datasets (from unsaturated ticks only) and the
/// PM CPU dataset. The four demand datasets share one feature matrix.
pub fn build_stage1_datasets(collector: &TrainingCollector) -> Vec<(PredictionTarget, Dataset)> {
    // A starved VM's usage is not its demand.
    let unsaturated = collector.vm_ticks.iter().filter(|s| !s.saturated);
    let rows = unsaturated.clone().count();
    let mut cpu = Dataset::with_features(&LOAD_FEATURES);
    cpu.reserve(rows);
    let [mut mem, mut nin, mut nout] = [(); 3].map(|_| Vec::with_capacity(rows));
    for s in unsaturated {
        cpu.push(&s.load, s.observed.cpu);
        mem.push(s.observed.mem_mb);
        nin.push(s.observed.net_in_kbps);
        nout.push(s.observed.net_out_kbps);
    }
    let mut pm = Dataset::with_features(&["n_vms", "sum_vm_cpu", "sum_rps"]);
    pm.reserve(collector.pm_ticks.len());
    for s in &collector.pm_ticks {
        pm.push(&[s.n_vms as f64, s.sum_vm_cpu, s.sum_rps], s.pm_cpu);
    }
    let [mem, nin, nout] = [mem, nin, nout].map(|targets| cpu.with_targets(targets));
    vec![
        (PredictionTarget::VmCpu, cpu),
        (PredictionTarget::VmMem, mem),
        (PredictionTarget::VmIn, nin),
        (PredictionTarget::VmOut, nout),
        (PredictionTarget::PmCpu, pm),
    ]
}

/// Builds the RT and SLA datasets, injecting the stage-1 CPU prediction
/// as the `required_cpu` feature. The two share one feature matrix.
pub fn build_stage2_datasets(
    collector: &TrainingCollector,
    cpu_model: &TrainedPredictor,
) -> Vec<(PredictionTarget, Dataset)> {
    let n = collector.vm_ticks.len();
    let mut rt = Dataset::with_features(PredictionTarget::VmRt.feature_names());
    rt.reserve(n);
    let mut sla = Vec::with_capacity(n);
    for s in &collector.vm_ticks {
        let required_cpu = cpu_model.predict(&s.load);
        let f = [
            s.load[0], // rps
            s.load[3], // cpu_ms_per_req
            required_cpu,
            s.granted_cpu,
            s.mem_ratio,
            s.load[4], // backlog
            s.transport_secs,
        ];
        rt.push(&f, s.rt_secs);
        sla.push(s.sla);
    }
    let sla = rt.with_targets(sla);
    vec![(PredictionTarget::VmRt, rt), (PredictionTarget::VmSla, sla)]
}

/// A trained suite plus its Table-I rows.
pub struct TrainingOutcome {
    /// The seven trained predictors (shared handle: experiment arms and
    /// oracles clone the `Arc`).
    pub suite: Arc<PredictorSuite>,
    /// `(paper row name, report)` in table order.
    pub reports: Vec<(String, EvalReport)>,
    /// Raw sample counts (vm ticks, pm ticks).
    pub sample_counts: (usize, usize),
}

/// Trains the full suite from collected samples. Stage-1 models train in
/// parallel (one thread each); stage 2 depends on the CPU model and runs
/// after.
pub fn train_suite(collector: &TrainingCollector, seed: u64) -> TrainingOutcome {
    // Each job owns its dataset, so its rows are freed once the last
    // model trained on them is done: stage 1's are gone before stage 2
    // builds.
    let train = |(target, data): (PredictionTarget, Dataset)| {
        let mut rng = RngStream::root(seed).derive(target.paper_name());
        TrainedPredictor::train(target, &data, &mut rng)
    };
    let mut predictors = pamdc_simcore::par::parallel_map(build_stage1_datasets(collector), train);
    let cpu_model = predictors
        .iter()
        .find(|p| p.target == PredictionTarget::VmCpu)
        .expect("stage 1 trains the CPU model");
    let stage2 = build_stage2_datasets(collector, cpu_model);
    predictors.extend(pamdc_simcore::par::parallel_map(stage2, train));

    let sample_counts = (collector.vm_ticks.len(), collector.pm_ticks.len());
    let suite = Arc::new(PredictorSuite::from_predictors(predictors));
    let reports = suite
        .reports()
        .map(|(name, rep)| (name.to_string(), rep.clone()))
        .collect();
    TrainingOutcome {
        suite,
        reports,
        sample_counts,
    }
}

/// End-to-end convenience: collect + train with the paper-scale setup.
pub fn train_paper_suite(seed: u64) -> TrainingOutcome {
    let collector = collect_training_data(5, &[0.4, 0.8, 1.2, 1.6], 8, seed);
    train_suite(&collector, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_collector() -> TrainingCollector {
        collect_training_data(3, &[0.5, 1.3], 3, 42)
    }

    #[test]
    fn collection_gathers_samples() {
        let c = quick_collector();
        assert!(c.vm_ticks.len() > 500, "vm ticks {}", c.vm_ticks.len());
        assert!(c.pm_ticks.len() > 100, "pm ticks {}", c.pm_ticks.len());
        // Exploration must visit saturated and unsaturated regimes.
        let sat = c.vm_ticks.iter().filter(|s| s.saturated).count();
        assert!(sat > 0, "need some saturated samples");
        assert!(sat < c.vm_ticks.len(), "need some unsaturated samples");
    }

    #[test]
    fn stage1_datasets_shaped_correctly() {
        let c = quick_collector();
        let ds = build_stage1_datasets(&c);
        assert_eq!(ds.len(), 5);
        for (target, data) in &ds {
            assert!(data.len() > 50, "{}: {}", target.paper_name(), data.len());
            assert_eq!(data.n_features(), target.feature_names().len());
        }
    }

    #[test]
    fn full_training_produces_predictive_models() {
        let c = collect_training_data(4, &[0.5, 1.0, 1.5], 6, 7);
        let out = train_suite(&c, 7);
        assert_eq!(out.reports.len(), 7);
        for (name, rep) in &out.reports {
            assert!(
                rep.correlation > 0.5,
                "{name}: correlation {} too weak (mae {}, n {}/{})",
                rep.correlation,
                rep.mae,
                rep.n_train,
                rep.n_test
            );
        }
        // Memory is the easiest target (near-linear): expect high corr.
        let mem = out
            .reports
            .iter()
            .find(|(n, _)| n == "Predict VM MEM")
            .unwrap();
        assert!(mem.1.correlation > 0.9, "mem corr {}", mem.1.correlation);
    }

    #[test]
    fn training_is_deterministic() {
        let c = quick_collector();
        let a = train_suite(&c, 3);
        let b = train_suite(&c, 3);
        for ((_, ra), (_, rb)) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.correlation.to_bits(), rb.correlation.to_bits());
        }
    }
}
