//! Spec → world: build a [`Scenario`], a [`PlacementPolicy`] and a
//! [`RunConfig`] from a [`ScenarioSpec`].
//!
//! The spec is the only world builder: every experiment arm and every
//! generic run is built here from its spec, and [`session`] builds the
//! one controller `pamdc replay` and `pamdc serve` drive around an
//! in-memory demand source. `tests/spec_vs_builder.rs`
//! pins spec-built worlds bit-identical to the equivalent
//! `ScenarioBuilder` presets (the fig4 and fig6 setups).

use crate::spec::{
    ImportSpec, MachineClass, OracleKind, PolicyKind, ScenarioSpec, SpecError, TopologyPreset,
    TraceReplaySpec, TrainingSpec, WorkloadPreset,
};
use pamdc_core::engine::Controller;
use pamdc_core::experiments::table1::{self, Table1Config};
use pamdc_core::policy::{
    BestFitPolicy, CheapestEnergyPolicy, FollowLoadPolicy, HierarchicalPolicy, PlacementPolicy,
    RandomPolicy, StaticPolicy,
};
use pamdc_core::scenario::{Scenario, ScenarioBuilder, ServiceSpec};
use pamdc_core::simulation::RunConfig;
use pamdc_green::tariff::Tariff;
use pamdc_infra::pm::MachineSpec;
use pamdc_infra::vm::VmSpec;
use pamdc_ml::predictors::PredictorSuite;
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::{MlOracle, MonitorOracle, TrueOracle};
use pamdc_simcore::time::{SimDuration, SimTime};
use pamdc_workload::import::{self, ImportOptions, TraceFormat};
use pamdc_workload::libcn;
use pamdc_workload::source::Demand;
use pamdc_workload::trace::{DemandTrace, TraceSource};
use std::path::Path;
use std::sync::Arc;

/// The [`MachineSpec`] a `[[topology.classes]]` machine model names.
pub fn machine_spec(class: &MachineClass) -> MachineSpec {
    match class {
        MachineClass::Atom => MachineSpec::atom(),
        MachineClass::Xeon => MachineSpec::xeon(),
        MachineClass::Custom {
            cores,
            mem_mb,
            idle_watts,
            peak_watts,
        } => MachineSpec::custom(*cores, *mem_mb, *idle_watts, *peak_watts),
    }
}

/// The per-DC `(spec, count)` host mix a spec's `[topology]` declares
/// (empty = the default all-Atom fleet).
pub fn host_classes(spec: &ScenarioSpec) -> Vec<(MachineSpec, usize)> {
    spec.topology
        .classes
        .iter()
        .map(|c| (machine_spec(&c.machine), c.count))
        .collect()
}

/// The per-service `(spec, count)` VM sizing a spec's
/// `[[workload.services]]` table declares (empty = the paper's uniform
/// web-service VM for every service).
pub fn service_specs(spec: &ScenarioSpec) -> Vec<(ServiceSpec, usize)> {
    spec.workload
        .services
        .iter()
        .map(|s| {
            (
                ServiceSpec {
                    vm: VmSpec {
                        image_size_mb: s.image_size_mb,
                        base_mem_mb: s.base_mem_mb,
                        rt0_secs: s.rt0_secs,
                        alpha: s.alpha,
                    },
                    mem_mb_per_inflight: s.mem_mb_per_inflight,
                    io_wait_factor: s.io_wait_factor,
                    idle_cpu_pct: s.idle_cpu_pct,
                },
                s.count,
            )
        })
        .collect()
}

/// The [`ImportOptions`] a `[workload.import]` table describes (spec
/// validation and the actual import both read this mapping).
pub fn import_options(import: &ImportSpec) -> ImportOptions {
    ImportOptions {
        tick: import.tick_secs.map(SimDuration::from_secs),
        regions: import.regions,
        rate_scale: import.rate_scale,
        time_stretch: import.time_stretch,
        region_map: import.region_map.clone(),
        max_services: import.max_services,
        max_ticks: import.max_ticks,
    }
}

/// Runs a `[workload.import]` table: parse the named dataset file and
/// normalize it into a replayable trace (transforms baked in).
pub fn import_trace(import: &ImportSpec, base_dir: &Path) -> Result<DemandTrace, SpecError> {
    let format = TraceFormat::from_name(&import.format).ok_or_else(|| {
        SpecError(format!(
            "unknown workload.import.format {:?} (azure | alibaba)",
            import.format
        ))
    })?;
    let path = base_dir.join(&import.path);
    import::import_path(format, &path, &import_options(import))
        .map_err(|e| SpecError(format!("{}: {e}", path.display())))
}

/// Replays `trace` (read from `path`) under a `[workload.trace]`
/// table's transforms. A trace with no ticks is an error naming the
/// file; a transform [`TraceSource::replay`] rejects is an error naming
/// the file and the key.
pub fn trace_source(
    trace: DemandTrace,
    replay: &TraceReplaySpec,
    path: &Path,
) -> Result<TraceSource, SpecError> {
    if trace.tick_count() == 0 {
        return Err(SpecError(format!(
            "{}: the trace holds no ticks; nothing to replay",
            path.display()
        )));
    }
    TraceSource::replay(
        trace,
        replay.rate_scale,
        replay.time_stretch,
        replay.region_map.clone(),
    )
    .map_err(|e| SpecError(format!("{}: workload.trace.{}", path.display(), e.0)))
}

/// Builds the scenario a spec describes. `base_dir` anchors relative
/// trace paths (use the spec file's directory).
pub fn build_scenario(spec: &ScenarioSpec, base_dir: &Path) -> Result<Scenario, SpecError> {
    build_scenario_inner(spec, base_dir, None)
}

/// Builds the controller of one session over an in-memory demand
/// source (a parsed trace, a live feed): the spec's world around
/// `demand`, its policy (Table I trained first when the oracle is `ml`)
/// and its run config, tracing when a trace sink is installed. The
/// source dictates the service roster, so `workload.vms` is set from it
/// and the spec's own trace and import tables are cleared; `spec` is
/// left as the session runs it. A `workload.flash_crowd` is an error:
/// the source already carries its demand.
pub fn session(spec: &mut ScenarioSpec, demand: Demand) -> Result<Controller, SpecError> {
    if spec.workload.flash_crowd.is_some() {
        return Err(SpecError(
            "workload.flash_crowd cannot be applied to a replayed trace or served feed — it \
             already carries its demand; remove the key or bake the crowd into the recording"
                .into(),
        ));
    }
    spec.workload.vms = demand.service_count();
    spec.workload.trace = None;
    spec.workload.import = None;
    let scenario = build_scenario_inner(spec, Path::new("."), Some(demand))?;
    let policy = build_policy(spec, trained_suite(spec))?;
    let mut config = run_config(spec);
    config.trace = pamdc_obs::trace::enabled();
    Ok(Controller::with(scenario, policy, config, None))
}

fn build_scenario_inner(
    spec: &ScenarioSpec,
    base_dir: &Path,
    demand: Option<Demand>,
) -> Result<Scenario, SpecError> {
    spec.validate()?;
    let w = &spec.workload;
    let mut builder = match (spec.topology.preset, w.preset) {
        (TopologyPreset::MultiDc, WorkloadPreset::FollowTheSun) => {
            ScenarioBuilder::follow_the_sun()
        }
        (TopologyPreset::IntraDc, WorkloadPreset::MultiDc) => {
            return Err(SpecError(
                "workload preset multi-dc requires the multi-dc topology".into(),
            ))
        }
        (TopologyPreset::IntraDc, _) => ScenarioBuilder::paper_intra_dc(),
        (TopologyPreset::MultiDc, _) => ScenarioBuilder::paper_multi_dc(),
    };
    builder = builder
        .name(spec.name.clone())
        .vms(w.vms)
        .pms_per_dc(spec.topology.pms_per_dc)
        .host_classes(host_classes(spec))
        .service_specs(service_specs(spec))
        .peak_rps(w.peak_rps)
        .load_scale(w.load_scale)
        .seed(spec.seed);
    if let Some(dc) = spec.topology.deploy_all_in {
        builder = builder.deploy_all_in(dc);
    }
    if let Some(mult) = w.flash_crowd {
        builder = builder.flash_crowd(mult);
    }
    if let Some(demand) = demand {
        builder = builder.demand(demand);
    } else if let Some(replay) = &w.trace {
        let path = base_dir.join(&replay.path);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError(format!("cannot read trace {}: {e}", path.display())))?;
        let trace = DemandTrace::parse_csv(&text)
            .map_err(|e| SpecError(format!("{}: {e}", path.display())))?;
        if trace.service_count() != w.vms {
            return Err(SpecError(format!(
                "trace {} carries {} services but the spec hosts {} VMs",
                path.display(),
                trace.service_count(),
                w.vms
            )));
        }
        builder = builder.demand(trace_source(trace, replay, &path)?);
    } else if let Some(import) = &w.import {
        let trace = import_trace(import, base_dir)?;
        if trace.service_count() != w.vms {
            return Err(SpecError(format!(
                "imported dataset {} normalizes to {} services but the spec hosts {} VMs \
                 (set workload.vms to match, or cap with workload.import.max_services)",
                import.path,
                trace.service_count(),
                w.vms
            )));
        }
        builder = builder.demand(TraceSource::new(trace));
    } else if w.preset == WorkloadPreset::Uniform {
        // Latency-neutral control workload (the green, heterogeneity
        // and price-adaptation builtins use it).
        builder = builder.workload(libcn::uniform_multi_dc(
            w.vms,
            w.peak_rps * w.load_scale,
            spec.seed,
        ));
    }
    for f in &spec.faults {
        builder = builder.fault(
            f.pm,
            SimTime::from_mins(f.at_min),
            SimDuration::from_mins(f.repair_after_min),
        );
    }
    for c in &spec.profile_changes {
        builder = builder.profile_change(
            c.vm,
            SimTime::from_mins(c.at_min),
            pamdc_perf::demand::VmPerfProfile {
                base_mem_mb: c.base_mem_mb,
                mem_mb_per_inflight: c.mem_mb_per_inflight,
                io_wait_factor: c.io_wait_factor,
                idle_cpu_pct: c.idle_cpu_pct,
            },
        );
    }
    builder = builder.billing(pamdc_econ::billing::BillingPolicy {
        vm_eur_per_hour: spec.billing.vm_eur_per_hour,
        sla_gamma: spec.billing.sla_gamma,
        migration_fee_eur: spec.billing.migration_fee_eur,
    });
    if !spec.energy.is_paper_default() {
        let energy = spec.energy.clone();
        let days = spec.run.hours / 24 + 1;
        let seed = spec.seed;
        builder = builder.energy(move |cluster, mut env| {
            for &dc in &energy.solar_dcs {
                let capacity = energy.solar_per_pm_w * cluster.dcs()[dc].pms().len() as f64;
                env = env.with_solar_at(cluster, dc, capacity, energy.min_sky, days, seed);
            }
            for t in &energy.tariffs {
                let tariff = match (t.step_at_hour, t.step_eur_per_kwh) {
                    (Some(h), Some(eur)) => Tariff::Step {
                        initial_eur: t.eur_per_kwh,
                        steps: vec![(SimTime::from_hours(h), eur)],
                    },
                    _ => Tariff::Flat(t.eur_per_kwh),
                };
                env = env.with_tariff(t.dc, tariff);
            }
            if energy.price_blind {
                env = env.price_blind();
            }
            env
        });
    }
    Ok(builder.build())
}

/// Builds the policy a spec names. `suite` must be provided when the
/// oracle is `ml` (see [`training`]); `seed` feeds the random
/// exploration policy.
pub fn build_policy(
    spec: &ScenarioSpec,
    suite: Option<Arc<PredictorSuite>>,
) -> Result<Box<dyn PlacementPolicy>, SpecError> {
    let p = &spec.policy;
    // Exact index unless the spec opts into the approximate one.
    let index_mode = match p.near_equivalence_top_k {
        None => IndexMode::Exact,
        Some(top_k) => IndexMode::Near { top_k },
    };
    macro_rules! with_oracle {
        ($ctor:expr) => {
            match p.oracle {
                OracleKind::Monitor => $ctor(MonitorOracle::plain()),
                OracleKind::Overbooked => $ctor(MonitorOracle::overbooked()),
                OracleKind::True => $ctor(TrueOracle::new()),
                OracleKind::Ml => {
                    let suite = suite.ok_or_else(|| {
                        SpecError("policy.oracle = \"ml\" needs a trained suite".into())
                    })?;
                    $ctor(MlOracle::new(suite))
                }
            }
        };
    }
    let policy: Box<dyn PlacementPolicy> = match p.kind {
        PolicyKind::Static => with_oracle!(|o| Box::new(StaticPolicy(o))),
        PolicyKind::BestFit => with_oracle!(|o| {
            let mut policy = BestFitPolicy::new(o);
            policy.index_mode = index_mode;
            Box::new(policy)
        }),
        PolicyKind::BestFitRaw => with_oracle!(|o| {
            let mut policy = BestFitPolicy::raw(o);
            policy.index_mode = index_mode;
            Box::new(policy)
        }),
        PolicyKind::Hierarchical => with_oracle!(|o| {
            let mut policy = HierarchicalPolicy::new(o);
            policy.config.index_mode = index_mode;
            Box::new(policy)
        }),
        PolicyKind::FollowLoad => with_oracle!(|o| Box::new(FollowLoadPolicy(o))),
        PolicyKind::CheapestEnergy => with_oracle!(|o| Box::new(CheapestEnergyPolicy(o))),
        PolicyKind::Random => Box::new(RandomPolicy::new(spec.seed)),
    };
    Ok(policy)
}

/// The [`RunConfig`] a spec's `[run]`/`[policy]`/`[profile]` sections
/// describe. (`trace` stays false here: [`pamdc_core::experiment::execute`]
/// flips it per arm, and [`session`] once, from the installed sink, so
/// specs and CLI flags converge on one switch.)
pub fn run_config(spec: &ScenarioSpec) -> RunConfig {
    RunConfig {
        tick: SimDuration::from_secs(spec.run.tick_secs),
        round_every_ticks: spec.run.round_every_ticks,
        keep_series: spec.run.keep_series,
        migration_cooldown_ticks: spec.run.migration_cooldown_ticks,
        plan_horizon_ticks: spec.policy.plan_horizon_ticks,
        progress: spec.profile.progress,
        ..RunConfig::default()
    }
}

/// The Table-I configuration a `[training]` section describes (run it
/// with `experiments::table1::run`).
pub fn training(t: &TrainingSpec) -> Table1Config {
    Table1Config {
        vms: t.vms,
        scales: t.scales.clone(),
        hours_per_scale: t.hours_per_scale,
        seed: t.seed,
    }
}

/// The predictor suite this spec's policy needs: Table I trained as its
/// `[training]` section says, or `None` when the oracle is not `ml`.
pub fn trained_suite(spec: &ScenarioSpec) -> Option<Arc<PredictorSuite>> {
    needs_training(spec).then(|| table1::run(&training(&spec.training)).suite)
}

/// True when running this spec's policy requires training first.
pub fn needs_training(spec: &ScenarioSpec) -> bool {
    spec.policy.oracle == OracleKind::Ml && spec.policy.kind != PolicyKind::Random
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;

    #[test]
    fn default_spec_builds_the_paper_multi_dc_world() {
        let spec = ScenarioSpec::default();
        let s = build_scenario(&spec, Path::new(".")).expect("build");
        assert_eq!(s.cluster.dc_count(), 4);
        assert_eq!(s.cluster.pm_count(), 4);
        assert_eq!(s.cluster.vm_count(), 5);
        s.cluster.check_invariants();
    }

    #[test]
    fn faults_and_tariffs_apply() {
        let mut spec = ScenarioSpec::default();
        spec.faults.push(FaultSpec {
            pm: 0,
            at_min: 30,
            repair_after_min: 60,
        });
        spec.energy.tariffs.push(crate::spec::TariffSpec {
            dc: 1,
            eur_per_kwh: 0.5,
            step_at_hour: None,
            step_eur_per_kwh: None,
        });
        let s = build_scenario(&spec, Path::new(".")).expect("build");
        assert_eq!(s.faults.len(), 1);
        let q = s
            .energy
            .quoted_price_eur_kwh(1, SimTime::from_hours(3), 0.0, 50.0);
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn every_policy_kind_constructs() {
        for kind in [
            PolicyKind::Static,
            PolicyKind::BestFit,
            PolicyKind::BestFitRaw,
            PolicyKind::Hierarchical,
            PolicyKind::FollowLoad,
            PolicyKind::CheapestEnergy,
            PolicyKind::Random,
        ] {
            let mut spec = ScenarioSpec::default();
            spec.policy.kind = kind;
            let policy = build_policy(&spec, None).expect("non-ml policies need no suite");
            assert!(!policy.name().is_empty());
        }
        // ML without a suite is a hard error.
        let mut spec = ScenarioSpec::default();
        spec.policy.oracle = OracleKind::Ml;
        assert!(build_policy(&spec, None).is_err());
        assert!(needs_training(&spec));
    }

    #[test]
    fn host_classes_reach_the_cluster() {
        let mut spec = ScenarioSpec::default();
        spec.topology.classes = vec![
            crate::spec::HostClassSpec {
                count: 1,
                machine: MachineClass::Atom,
            },
            crate::spec::HostClassSpec {
                count: 1,
                machine: MachineClass::Xeon,
            },
        ];
        let s = build_scenario(&spec, Path::new(".")).expect("build");
        assert_eq!(s.cluster.pm_count(), 8, "4 DCs x (1 atom + 1 xeon)");
        for dc in s.cluster.dcs() {
            let cores: Vec<usize> = dc
                .pms()
                .iter()
                .map(|&pm| s.cluster.pm(pm).spec.cores())
                .collect();
            assert_eq!(cores, vec![4, 8]);
        }
        s.cluster.check_invariants();
    }

    #[test]
    fn import_spec_builds_a_trace_demand() {
        let dir = std::env::temp_dir().join("pamdc-import-build-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        std::fs::write(
            dir.join("azure.csv"),
            "0,vm-a,1,9,20.0\n0,vm-b,1,9,30.0\n300,vm-a,1,9,25.0\n300,vm-b,1,9,35.0\n",
        )
        .expect("fixture");
        let mut spec = ScenarioSpec::default();
        spec.workload.vms = 2;
        spec.workload.import = Some(crate::spec::ImportSpec {
            path: "azure.csv".into(),
            format: "azure".into(),
            ..crate::spec::ImportSpec::default()
        });
        let s = build_scenario(&spec, &dir).expect("build");
        let Demand::Trace(trace) = &s.workload else {
            panic!("an import builds a trace demand");
        };
        assert_eq!(trace.trace().service_count(), 2);
        assert_eq!(trace.trace().tick_count(), 2);
        // A VM-count mismatch is a clear error, not a panic.
        spec.workload.vms = 5;
        let err = build_scenario(&spec, &dir).unwrap_err();
        assert!(err.0.contains("max_services"), "{err}");
        // A missing file is a clear error too.
        spec.workload.vms = 2;
        spec.workload.import.as_mut().unwrap().path = "nope.csv".into();
        assert!(build_scenario(&spec, &dir).is_err());
    }

    /// Writes `csv` to `name` under a test directory and returns a
    /// default spec replaying it (4 VMs), plus the directory.
    fn trace_spec(name: &str, csv: &str) -> (ScenarioSpec, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("pamdc-trace-build-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        std::fs::write(dir.join(name), csv).expect("fixture");
        let mut spec = ScenarioSpec::default();
        spec.workload.vms = 4;
        spec.workload.trace = Some(TraceReplaySpec {
            path: name.into(),
            ..TraceReplaySpec::default()
        });
        (spec, dir)
    }

    /// The header block of a recorded 4-service, 4-region trace.
    fn header_block() -> String {
        let w = Demand::from(libcn::multi_dc(4, 100.0, 1));
        DemandTrace::record(&w, SimDuration::from_mins(2), SimDuration::from_mins(1))
            .to_csv()
            .lines()
            .filter(|l| (l.starts_with('#') && !l.starts_with("# ticks")) || l.starts_with("tick,"))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn a_trace_spec_over_an_empty_trace_is_an_error_naming_the_file() {
        let (spec, dir) = trace_spec("empty.csv", &header_block());
        let err = build_scenario(&spec, &dir).expect_err("no ticks to replay");
        assert!(
            err.0.contains("empty.csv") && err.0.contains("no ticks"),
            "{err}"
        );
    }

    #[test]
    fn a_region_map_that_misses_recorded_regions_is_an_error_naming_the_key() {
        let w = Demand::from(libcn::multi_dc(4, 100.0, 1));
        let trace = DemandTrace::record(&w, SimDuration::from_mins(5), SimDuration::from_mins(1));
        assert_eq!(trace.regions, 4);
        let (mut spec, dir) = trace_spec("four-regions.csv", &trace.to_csv());
        assert!(build_scenario(&spec, &dir).is_ok());
        let replay = spec.workload.trace.as_mut().expect("trace table");
        replay.region_map = vec![0, 1];
        let err = build_scenario(&spec, &dir).expect_err("map covers 2 of 4 regions");
        assert!(
            err.0.contains("workload.trace.region_map lists 2 regions") && err.0.contains("4"),
            "{err}"
        );
        let replay = spec.workload.trace.as_mut().expect("trace table");
        replay.region_map = vec![0, 1, 2, 7];
        let err = build_scenario(&spec, &dir).expect_err("target 7 of 4 regions");
        assert!(
            err.0.contains("workload.trace.region_map target 7"),
            "{err}"
        );
        // A scale the schema lets through is still an error, not a panic.
        let replay = spec.workload.trace.as_mut().expect("trace table");
        replay.region_map = Vec::new();
        replay.rate_scale = f64::INFINITY;
        let err = build_scenario(&spec, &dir).expect_err("infinite rate scale");
        assert!(err.0.contains("rate_scale"), "{err}");
    }

    #[test]
    fn a_session_takes_its_roster_from_the_demand_source() {
        let w = Demand::from(libcn::multi_dc(4, 100.0, 1));
        let trace = DemandTrace::record(&w, SimDuration::from_mins(5), SimDuration::from_mins(1));
        let mut spec = ScenarioSpec::default();
        spec.workload.vms = 9;
        spec.workload.trace = Some(TraceReplaySpec {
            path: "never-read.csv".into(),
            ..TraceReplaySpec::default()
        });
        let source = TraceSource::new(trace);
        let controller = session(&mut spec, source.clone().into()).expect("session");
        assert_eq!(spec.workload.vms, 4);
        assert!(spec.workload.trace.is_none() && spec.workload.import.is_none());
        assert_eq!(controller.scenario().cluster.vm_count(), 4);
        assert!(!controller.config().trace, "no trace sink is installed");
        // The source carries its demand: a flash crowd is an error
        // naming the key, not a builder panic.
        spec.workload.flash_crowd = Some(4.0);
        let err = session(&mut spec, source.into())
            .err()
            .expect("flash crowd");
        assert!(err.0.contains("workload.flash_crowd"), "{err}");
    }

    #[test]
    fn mixed_presets_rejected() {
        let mut spec = ScenarioSpec::default();
        spec.topology.preset = TopologyPreset::IntraDc;
        spec.workload.preset = WorkloadPreset::MultiDc;
        assert!(build_scenario(&spec, Path::new(".")).is_err());
    }
}
