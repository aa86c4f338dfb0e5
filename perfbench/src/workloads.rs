//! The three benchmark worlds, their inputs and their timed set-up.
//!
//! Every world is built through the public API only: `ScenarioBuilder`
//! for the topology and demand, the policy constructors for the
//! planner, `engine::Controller` for the loop.

use crate::layers::{OracleStats, TimedOracle, TimedPolicy};
use pamdc_core::engine::Controller;
use pamdc_core::experiments::table1::{self, Table1Config};
use pamdc_core::policy::{BestFitPolicy, HierarchicalPolicy, PlacementPolicy, StaticPolicy};
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_core::simulation::RunConfig;
use pamdc_infra::pm::MachineSpec;
use pamdc_sched::oracle::{MlOracle, QosOracle, TrueOracle};
use pamdc_simcore::time::SimDuration;
use pamdc_workload::trace::{DemandTrace, TraceSource};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two-layer hierarchical scheduler, true oracle, replayed trace.
    HierDay,
    /// Intra-DC Best-Fit + consolidation with the Table-I ML oracle.
    BfMl,
    /// Static-Global baseline on a large synthetic fleet.
    StaticFleet,
}

/// Table-I correlation floors the BF-ML predictors must clear on
/// held-out data (same order as `TrainingOutcome::reports`): 90% of the
/// lower of the paper's Table I value and the value this pipeline
/// reaches at its default seed (README.md lists both).
pub const TABLE1_FLOORS: [(&str, f64); 7] = [
    ("Predict VM CPU", 0.77),
    ("Predict VM MEM", 0.85),
    ("Predict VM IN", 0.72),
    ("Predict VM OUT", 0.70),
    ("Predict PM CPU", 0.82),
    ("Predict VM RT", 0.78),
    ("Predict VM SLA", 0.88),
];

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HierDay, Workload::BfMl, Workload::StaticFleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HierDay => "hier-day",
            Workload::BfMl => "bf-ml",
            Workload::StaticFleet => "static-fleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload replays a trace file prepared by `gen`.
    pub fn needs_trace(self) -> bool {
        self == Workload::HierDay
    }

    /// The world before any demand override: topology, fleet, load.
    fn builder(self, seed: u64) -> ScenarioBuilder {
        match self {
            Workload::HierDay => ScenarioBuilder::paper_multi_dc()
                .vms(400)
                .host_classes(vec![(MachineSpec::xeon(), 32)])
                .load_scale(0.5),
            Workload::BfMl => ScenarioBuilder::paper_intra_dc()
                .vms(30)
                .pms_per_dc(16)
                .load_scale(0.2),
            Workload::StaticFleet => ScenarioBuilder::paper_multi_dc()
                .vms(2000)
                .host_classes(vec![(MachineSpec::xeon(), 100)])
                .load_scale(0.5),
        }
        .name(self.name())
        .seed(seed)
    }
}

/// Tick length of every workload (the engine default: one minute).
pub const TICK: SimDuration = SimDuration::from_mins(1);

/// Records `hours` of the hier-day demand at `seed`: the CSV trace and
/// the per-tick total request rate, summed here from the recorded flows
/// so the rps check compares the engine against the generator rather
/// than against the file the engine read.
pub fn generate_trace(seed: u64, hours: u64) -> (String, Vec<f64>) {
    let world = Workload::HierDay.builder(seed).build();
    let trace = DemandTrace::record(&world.workload, SimDuration::from_hours(hours), TICK);
    let rps = trace
        .flows
        .iter()
        .map(|services| {
            services
                .iter()
                .map(|flows| flows.iter().map(|f| f.rps).sum::<f64>())
                .sum()
        })
        .collect();
    (trace.to_csv(), rps)
}

/// Wall time of the set-up stages, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub trace_parse_s: f64,
    pub train_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    /// Every stage divided by the machine's slowdown (`Reference`).
    pub fn scaled(self, slowdown: f64) -> SetupTimes {
        SetupTimes {
            total_s: self.total_s / slowdown,
            trace_parse_s: self.trace_parse_s / slowdown,
            train_s: self.train_s / slowdown,
            build_s: self.build_s / slowdown,
        }
    }
}

/// A controller ready to step, with the handles the benchmark reads.
pub struct World {
    pub controller: Controller,
    /// Wall time of the last `decide`, nanoseconds.
    pub last_decide_ns: Arc<AtomicU64>,
    /// Oracle call statistics (traced runs only).
    pub oracle: Option<Arc<OracleStats>>,
    pub setup: SetupTimes,
    /// Held-out correlation of each Table-I predictor (bf-ml only).
    pub table1: Vec<(String, f64)>,
}

/// Builds `workload`'s world at `seed` and times it, from reading the
/// inputs to a controller ready to step. `traced` turns on the span tree
/// and wraps the oracle in a call counter.
pub fn setup(
    workload: Workload,
    seed: u64,
    trace_file: Option<&Path>,
    traced: bool,
) -> Result<World, String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut builder = workload.builder(seed);
    if workload.needs_trace() {
        let path = trace_file.ok_or("hier-day needs the trace made by `gen`")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let parse = Instant::now();
        let trace =
            DemandTrace::parse_csv(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        times.trace_parse_s = parse.elapsed().as_secs_f64();
        drop(text);
        builder = builder.demand(TraceSource::new(trace));
    }
    let mut correlations = Vec::new();
    let suite = if workload == Workload::BfMl {
        // The paper's Table-I pipeline at its default configuration and
        // seed: predictor quality varies with the training seed, and the
        // run seed picks the world, not the models.
        let train = Instant::now();
        let outcome = table1::run(&Table1Config::default());
        times.train_s = train.elapsed().as_secs_f64();
        correlations = outcome
            .reports
            .iter()
            .map(|(name, rep)| (name.clone(), rep.correlation))
            .collect();
        Some(outcome.suite)
    } else {
        None
    };

    let build = Instant::now();
    let scenario = builder.build();
    let stats = traced.then(|| Arc::new(OracleStats::default()));
    let last_decide_ns = Arc::new(AtomicU64::new(0));
    let policy = match (&suite, &stats) {
        (Some(suite), Some(stats)) => planner(
            workload,
            TimedOracle::new(MlOracle::new(suite.clone()), stats.clone()),
        ),
        (Some(suite), None) => planner(workload, MlOracle::new(suite.clone())),
        (None, Some(stats)) => {
            planner(workload, TimedOracle::new(TrueOracle::new(), stats.clone()))
        }
        (None, None) => planner(workload, TrueOracle::new()),
    };
    let config = RunConfig {
        keep_series: false,
        trace: traced,
        ..RunConfig::default()
    };
    let controller = Controller::with(
        scenario,
        Box::new(TimedPolicy::new(policy, last_decide_ns.clone())),
        config,
        None,
    );
    times.build_s = build.elapsed().as_secs_f64();
    times.total_s = start.elapsed().as_secs_f64();
    Ok(World {
        controller,
        last_decide_ns,
        oracle: stats,
        setup: times,
        table1: correlations,
    })
}

fn planner<O: QosOracle + 'static>(workload: Workload, oracle: O) -> Box<dyn PlacementPolicy> {
    match workload {
        Workload::HierDay => Box::new(HierarchicalPolicy::new(oracle)),
        Workload::BfMl => Box::new(BestFitPolicy::new(oracle)),
        Workload::StaticFleet => Box::new(StaticPolicy(oracle)),
    }
}
