//! Scenario construction: the experimental setups of the paper, built
//! from the infra + workload substrates.
//!
//! * `paper_intra_dc` — §V-B: one DC (Barcelona), 4 Atom PMs, N VMs,
//!   locally-sourced Li-BCN-style load (Figure 4).
//! * `paper_multi_dc` — §V-C: four DCs (Brisbane/Bangalore/Barcelona/
//!   Boston) with Table-II prices and latencies, one PM each by default
//!   ("we set one PM to represent a DC"), worldwide load with timezone
//!   phase shifts (Figures 6, 7, Table III).
//! * `follow_the_sun` — the Figure 5 sanity check: one VM, equal region
//!   weights, noon-peaked profiles.

use crate::energy::EnergyEnvironment;
use pamdc_econ::billing::BillingPolicy;
use pamdc_econ::prices::paper_energy_price;
use pamdc_infra::cluster::Cluster;
use pamdc_infra::ids::{PmId, VmId};
use pamdc_infra::monitor::MonitorConfig;
use pamdc_infra::network::{City, NetworkModel};
use pamdc_infra::pm::MachineSpec;
use pamdc_infra::vm::VmSpec;
use pamdc_perf::demand::VmPerfProfile;
use pamdc_perf::rt::RtModelConfig;
use pamdc_simcore::time::{SimDuration, SimTime};
use pamdc_workload::generator::Workload;
use pamdc_workload::libcn;
use pamdc_workload::source::Demand;
use std::sync::Arc;

/// A fully built experimental world, ready for a
/// [`crate::engine::Controller`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label.
    pub name: String,
    /// The infrastructure (DCs, PMs, VMs, network), with VMs deployed.
    pub cluster: Cluster,
    /// The demand source (service index i drives VM i): the synthetic
    /// generator, or a recorded trace being replayed.
    pub workload: Demand,
    /// Per-VM performance constants (indexing matches VM ids).
    pub perf_profiles: Vec<VmPerfProfile>,
    /// Monitor distortion.
    pub monitor: MonitorConfig,
    /// Ground-truth RT model tunables.
    pub rt_cfg: RtModelConfig,
    /// Pricing.
    pub billing: BillingPolicy,
    /// Per-DC energy supply (tariffs, renewables, carbon). Defaults to
    /// the paper's flat Table II regime; richer environments are
    /// installed at build time via [`ScenarioBuilder::energy`], which
    /// hands the hook the built cluster's shape.
    pub energy: EnergyEnvironment,
    /// Scheduled host crashes (failure injection); empty by default.
    pub faults: Vec<pamdc_infra::pm::FaultEvent>,
    /// Scheduled performance-profile swaps ("software updates"): at the
    /// given instant the VM's ground-truth perf constants change, so
    /// models trained before the change go stale — the paper's on-line
    /// learning future-work case. Empty by default.
    pub profile_changes: Vec<ProfileChange>,
    /// Master seed.
    pub seed: u64,
}

/// One scheduled ground-truth performance change.
#[derive(Clone, Copy, Debug)]
pub struct ProfileChange {
    /// When the update lands.
    pub at: SimTime,
    /// Which VM it affects.
    pub vm: usize,
    /// The new performance constants.
    pub profile: VmPerfProfile,
}

/// Which of the paper's topologies to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Topology {
    /// One DC (Barcelona) with `pms` hosts.
    IntraDc,
    /// Four DCs with `pms` hosts each.
    MultiDc,
}

/// Which workload preset to attach.
#[derive(Clone, Copy, Debug, PartialEq)]
enum WorkloadKind {
    IntraDc,
    MultiDc,
    FollowTheSun,
}

/// Per-service VM sizing: the static [`VmSpec`] a service's VM is built
/// with, plus the performance constants derived from it. The default is
/// exactly the paper's uniform web-service VM, so scenarios that never
/// declare sizes are bit-identical to the pre-sizing engine.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Static VM description (image size, memory floor, SLA terms).
    pub vm: VmSpec,
    /// Memory held per in-flight request, MB. `None` falls back to the
    /// service class's constant (and, for imported traces, to the
    /// trace's per-service memory profile when it carries one).
    pub mem_mb_per_inflight: Option<f64>,
    /// Non-CPU fraction of service time (I/O waits).
    pub io_wait_factor: f64,
    /// Idle CPU of the stack, percent-of-core.
    pub idle_cpu_pct: f64,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            vm: VmSpec::web_service(),
            mem_mb_per_inflight: None,
            io_wait_factor: 0.6,
            idle_cpu_pct: 2.0,
        }
    }
}

/// A build-time energy-environment hook: receives the built cluster and
/// the paper-default environment, returns the environment the scenario
/// should run under. This is how experiments install solar farms, tariff
/// shocks or price blindness *before* `build()` returns — no post-build
/// mutation needed even though sizing solar requires the cluster shape.
#[derive(Clone)]
pub struct EnergyHook(Arc<EnergyHookFn>);

/// The hook's function type.
type EnergyHookFn = dyn Fn(&Cluster, EnergyEnvironment) -> EnergyEnvironment + Send + Sync;

impl std::fmt::Debug for EnergyHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EnergyHook(..)")
    }
}

/// Fluent scenario builder.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    topology: Topology,
    workload_kind: WorkloadKind,
    vms: usize,
    pms_per_dc: usize,
    peak_rps: f64,
    load_scale: f64,
    flash_crowd_multiplier: Option<f64>,
    monitor: MonitorConfig,
    billing: BillingPolicy,
    faults: Vec<pamdc_infra::pm::FaultEvent>,
    profile_changes: Vec<ProfileChange>,
    seed: u64,
    deploy_all_in: Option<usize>,
    demand_override: Option<Demand>,
    energy_hook: Option<EnergyHook>,
    /// Per-DC host-class mix: each DC gets `count` hosts of each spec,
    /// in list order. Empty = `pms_per_dc` Atom hosts (the paper fleet).
    host_classes: Vec<(MachineSpec, usize)>,
    /// Per-service VM sizing: `count` consecutive services of each spec,
    /// in list order (counts must sum to `vms`). Empty = every VM is the
    /// paper's uniform web-service spec.
    service_specs: Vec<(ServiceSpec, usize)>,
}

impl ScenarioBuilder {
    /// §V-B setup: 1 DC, 4 PMs, local clients (Figure 4 / Table I).
    pub fn paper_intra_dc() -> Self {
        ScenarioBuilder {
            name: "intra-dc".into(),
            topology: Topology::IntraDc,
            workload_kind: WorkloadKind::IntraDc,
            vms: 5,
            pms_per_dc: 4,
            peak_rps: 240.0,
            load_scale: 1.0,
            flash_crowd_multiplier: None,
            monitor: MonitorConfig::default(),
            billing: BillingPolicy::default(),
            faults: Vec::new(),
            profile_changes: Vec::new(),
            seed: 1,
            deploy_all_in: None,
            demand_override: None,
            energy_hook: None,
            host_classes: Vec::new(),
            service_specs: Vec::new(),
        }
    }

    /// §V-C setup: 4 DCs × 1 PM, worldwide clients (Figures 6/7,
    /// Table III).
    pub fn paper_multi_dc() -> Self {
        ScenarioBuilder {
            name: "multi-dc".into(),
            topology: Topology::MultiDc,
            workload_kind: WorkloadKind::MultiDc,
            vms: 5,
            pms_per_dc: 1,
            peak_rps: 170.0,
            load_scale: 1.0,
            flash_crowd_multiplier: None,
            monitor: MonitorConfig::default(),
            billing: BillingPolicy::default(),
            faults: Vec::new(),
            profile_changes: Vec::new(),
            seed: 1,
            deploy_all_in: None,
            demand_override: None,
            energy_hook: None,
            host_classes: Vec::new(),
            service_specs: Vec::new(),
        }
    }

    /// The Figure 5 sanity check: one VM chasing the sun.
    pub fn follow_the_sun() -> Self {
        ScenarioBuilder {
            vms: 1,
            workload_kind: WorkloadKind::FollowTheSun,
            name: "follow-the-sun".into(),
            ..Self::paper_multi_dc()
        }
    }

    /// Number of VMs (= hosted web-services).
    pub fn vms(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.vms = n;
        self
    }

    /// Hosts per datacenter.
    pub fn pms_per_dc(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.pms_per_dc = n;
        self
    }

    /// Nominal peak request rate per service.
    pub fn peak_rps(mut self, rps: f64) -> Self {
        self.peak_rps = rps;
        self
    }

    /// Global load multiplier (the Figure 8 sweep axis).
    pub fn load_scale(mut self, k: f64) -> Self {
        self.load_scale = k.max(0.0);
        self
    }

    /// Adds the paper's minute-70–90 flash crowd.
    pub fn flash_crowd(mut self, multiplier: f64) -> Self {
        self.flash_crowd_multiplier = Some(multiplier);
        self
    }

    /// Overrides monitor distortion.
    pub fn monitor(mut self, cfg: MonitorConfig) -> Self {
        self.monitor = cfg;
        self
    }

    /// Overrides billing.
    pub fn billing(mut self, billing: BillingPolicy) -> Self {
        self.billing = billing;
        self
    }

    /// Initially deploys every VM into the given DC index (the
    /// de-location experiment starts with one overloaded home DC).
    pub fn deploy_all_in(mut self, dc_idx: usize) -> Self {
        self.deploy_all_in = Some(dc_idx);
        self
    }

    /// Replaces the preset synthetic workload with an explicit one.
    /// The workload is used as-is (no `peak_rps`/`load_scale` rescaling;
    /// a configured flash crowd is still attached); its service count
    /// must match [`ScenarioBuilder::vms`].
    pub fn workload(mut self, workload: Workload) -> Self {
        self.demand_override = Some(Demand::Synthetic(workload));
        self
    }

    /// Replaces the demand source entirely — e.g. a recorded
    /// [`pamdc_workload::trace::TraceSource`] replayed instead of the
    /// synthetic generator. The source's service count must match
    /// [`ScenarioBuilder::vms`].
    pub fn demand(mut self, demand: impl Into<Demand>) -> Self {
        self.demand_override = Some(demand.into());
        self
    }

    /// Installs a heterogeneous host-class mix: every datacenter gets
    /// `count` hosts of each [`MachineSpec`], in list order (so PM
    /// indices within a DC group by class). An empty list keeps the
    /// default fleet of [`ScenarioBuilder::pms_per_dc`] Atom hosts.
    pub fn host_classes(mut self, classes: Vec<(MachineSpec, usize)>) -> Self {
        assert!(
            classes.iter().all(|(_, count)| *count >= 1),
            "every host class needs at least one host per DC"
        );
        self.host_classes = classes;
        self
    }

    /// Installs per-service VM sizing: `count` consecutive services of
    /// each [`ServiceSpec`], in list order. The counts must sum to
    /// [`ScenarioBuilder::vms`] (checked at build). An empty list keeps
    /// the paper's uniform web-service VM for every service.
    pub fn service_specs(mut self, specs: Vec<(ServiceSpec, usize)>) -> Self {
        assert!(
            specs.iter().all(|(_, count)| *count >= 1),
            "every service spec needs at least one service"
        );
        self.service_specs = specs;
        self
    }

    /// Installs an energy-environment hook, run at the end of `build()`
    /// with the built cluster and the paper-default environment. This is
    /// the supported way to attach solar farms, tariff schedules or
    /// price blindness — environments need the cluster's shape, which
    /// only exists at build time.
    pub fn energy(
        mut self,
        hook: impl Fn(&Cluster, EnergyEnvironment) -> EnergyEnvironment + Send + Sync + 'static,
    ) -> Self {
        self.energy_hook = Some(EnergyHook(Arc::new(hook)));
        self
    }

    /// Schedules a host crash: PM index `pm_idx` fails at `at` and is
    /// repaired after `repair_after` (then reboots automatically).
    pub fn fault(mut self, pm_idx: usize, at: SimTime, repair_after: SimDuration) -> Self {
        self.faults.push(pamdc_infra::pm::FaultEvent {
            pm: PmId::from_index(pm_idx),
            at,
            repair_after,
        });
        self
    }

    /// Schedules a ground-truth performance change ("software update")
    /// for VM `vm` at `at`.
    pub fn profile_change(mut self, vm: usize, at: SimTime, profile: VmPerfProfile) -> Self {
        self.profile_changes.push(ProfileChange { at, vm, profile });
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Renames the scenario.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the world: cluster constructed, VMs deployed to their home
    /// DCs, workload attached.
    pub fn build(self) -> Scenario {
        let mut cluster = Cluster::new(NetworkModel::paper());
        let cities: &[City] = match self.topology {
            Topology::IntraDc => &[City::Barcelona],
            Topology::MultiDc => &City::ALL,
        };
        for city in cities {
            let dc =
                cluster.add_datacenter(city.code(), city.location(), paper_energy_price(*city));
            if self.host_classes.is_empty() {
                for _ in 0..self.pms_per_dc {
                    cluster.add_pm(dc, MachineSpec::atom());
                }
            } else {
                for (spec, count) in &self.host_classes {
                    for _ in 0..*count {
                        cluster.add_pm(dc, spec.clone());
                    }
                }
            }
        }

        // Per-service VM sizing: expand the (spec, count) list into one
        // entry per service. VM i takes entry i; an empty list sizes
        // every VM as the paper's uniform web service.
        let per_service: Vec<ServiceSpec> = self
            .service_specs
            .iter()
            .flat_map(|(spec, count)| std::iter::repeat_with(|| spec.clone()).take(*count))
            .collect();
        assert!(
            per_service.is_empty() || per_service.len() == self.vms,
            "service spec counts cover {} services but the scenario hosts {} VMs",
            per_service.len(),
            self.vms
        );
        let service_spec =
            |i: usize| -> ServiceSpec { per_service.get(i).cloned().unwrap_or_default() };

        // VMs: home region rotates (i % regions); deploy onto the home
        // DC's least-loaded PM (round-robin within the DC).
        let n_dcs = cluster.dc_count();
        for i in 0..self.vms {
            let home_city = match self.topology {
                Topology::IntraDc => City::Barcelona,
                Topology::MultiDc => City::ALL[i % 4],
            };
            let vm = cluster.add_vm(service_spec(i).vm, home_city.location());
            let dc = &cluster.dcs()[i % n_dcs.min(cities.len())];
            // In intra-DC there is one DC; in multi-DC home DC = i % 4.
            let dc_idx = self.deploy_all_in.unwrap_or(match self.topology {
                Topology::IntraDc => 0,
                Topology::MultiDc => i % 4,
            });
            let _ = dc;
            let pms = cluster.dcs()[dc_idx].pms().to_vec();
            let pm: PmId = pms[(i / n_dcs.max(1)) % pms.len()];
            cluster.deploy(vm, pm, SimTime::ZERO);
        }
        // Let boots complete before the run starts.
        cluster.tick(SimTime::from_mins(3));

        let scaled = self.peak_rps * self.load_scale;
        let demand = match self.demand_override {
            Some(demand) => {
                assert_eq!(
                    demand.service_count(),
                    self.vms,
                    "demand source must carry one service per VM"
                );
                match (demand, self.flash_crowd_multiplier) {
                    (Demand::Synthetic(w), Some(mult)) => Demand::Synthetic(w.with_flash_crowd(
                        pamdc_workload::flashcrowd::FlashCrowd::paper_fig6(mult),
                    )),
                    (Demand::Trace(_), Some(_)) => panic!(
                        "a flash crowd cannot be applied to a trace demand — it already \
                         carries its demand; bake the crowd into the recording"
                    ),
                    (demand, None) => demand,
                }
            }
            None => {
                let mut workload = match self.workload_kind {
                    WorkloadKind::IntraDc => libcn::intra_dc(self.vms, scaled, self.seed),
                    WorkloadKind::MultiDc => libcn::multi_dc(self.vms, scaled, self.seed),
                    WorkloadKind::FollowTheSun => libcn::follow_the_sun(scaled, self.seed),
                };
                if let Some(mult) = self.flash_crowd_multiplier {
                    workload = workload
                        .with_flash_crowd(pamdc_workload::flashcrowd::FlashCrowd::paper_fig6(mult));
                }
                Demand::Synthetic(workload)
            }
        };

        let perf_profiles = (0..self.vms)
            .map(|i| {
                let class = demand.service_class(i);
                let svc = service_spec(i);
                // Memory-per-in-flight precedence: an explicit service
                // spec wins, then a trace-imported per-service memory
                // profile (Alibaba's mem_util_percent), then the class
                // constant.
                let mem_mb_per_inflight = svc
                    .mem_mb_per_inflight
                    .or_else(|| demand.mem_mb_per_inflight(i))
                    .unwrap_or_else(|| class.mem_mb_per_inflight());
                VmPerfProfile {
                    base_mem_mb: cluster.vm(VmId::from_index(i)).spec.base_mem_mb,
                    mem_mb_per_inflight,
                    io_wait_factor: svc.io_wait_factor,
                    idle_cpu_pct: svc.idle_cpu_pct,
                }
            })
            .collect();

        let energy = {
            let default = EnergyEnvironment::paper_default(&cluster);
            match &self.energy_hook {
                Some(EnergyHook(hook)) => hook(&cluster, default),
                None => default,
            }
        };
        let mut faults = self.faults;
        faults.sort_by_key(|f| f.at);
        let mut profile_changes = self.profile_changes;
        profile_changes.sort_by_key(|c| c.at);
        for c in &profile_changes {
            assert!(
                c.vm < self.vms,
                "profile change targets VM {} of {}",
                c.vm,
                self.vms
            );
        }
        Scenario {
            name: self.name,
            cluster,
            workload: demand,
            perf_profiles,
            monitor: self.monitor,
            rt_cfg: RtModelConfig::default(),
            billing: self.billing,
            energy,
            faults,
            profile_changes,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_dc_shape() {
        let s = ScenarioBuilder::paper_intra_dc().vms(5).seed(3).build();
        assert_eq!(s.cluster.dc_count(), 1);
        assert_eq!(s.cluster.pm_count(), 4);
        assert_eq!(s.cluster.vm_count(), 5);
        assert_eq!(s.workload.service_count(), 5);
        assert_eq!(s.perf_profiles.len(), 5);
        // All VMs are placed.
        for i in 0..5 {
            assert!(s.cluster.placement(VmId::from_index(i)).is_some());
        }
        s.cluster.check_invariants();
    }

    #[test]
    fn multi_dc_spreads_homes() {
        let s = ScenarioBuilder::paper_multi_dc().vms(5).build();
        assert_eq!(s.cluster.dc_count(), 4);
        assert_eq!(s.cluster.pm_count(), 4);
        // VM i lives in DC i%4 initially.
        for i in 0..5 {
            let pm = s.cluster.placement(VmId::from_index(i)).unwrap();
            assert_eq!(s.cluster.dc_of_pm(pm).index(), i % 4);
        }
    }

    #[test]
    fn follow_the_sun_is_single_vm() {
        let s = ScenarioBuilder::follow_the_sun().build();
        assert_eq!(s.cluster.vm_count(), 1);
        assert_eq!(s.workload.service_count(), 1);
    }

    #[test]
    fn builder_knobs_apply() {
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(3)
            .pms_per_dc(2)
            .peak_rps(100.0)
            .load_scale(2.0)
            .flash_crowd(8.0)
            .seed(99)
            .name("custom")
            .build();
        assert_eq!(s.name, "custom");
        assert_eq!(s.cluster.pm_count(), 8);
        let Demand::Synthetic(workload) = &s.workload else {
            panic!("preset workloads are synthetic");
        };
        assert_eq!(workload.flash_crowds.len(), 1);
        assert_eq!(s.seed, 99);
        // Load scale doubles the nominal scale.
        assert!(
            (workload.services[0].scale_rps - 200.0 * 0.8).abs() < 1e-6
                || workload.services[0].scale_rps > 100.0
        );
    }

    #[test]
    fn host_classes_build_a_mixed_fleet() {
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(4)
            .host_classes(vec![
                (MachineSpec::atom(), 2),
                (MachineSpec::xeon(), 1),
                (MachineSpec::custom(2, 2048.0, 15.0, 22.0), 1),
            ])
            .build();
        // 4 DCs × (2 + 1 + 1) hosts, grouped by class within each DC.
        assert_eq!(s.cluster.pm_count(), 16);
        for dc in s.cluster.dcs() {
            let cores: Vec<usize> = dc
                .pms()
                .iter()
                .map(|&pm| s.cluster.pm(pm).spec.cores())
                .collect();
            assert_eq!(cores, vec![4, 4, 8, 2], "class order preserved per DC");
        }
        // All VMs deployed and invariants hold on the mixed fleet.
        for i in 0..4 {
            assert!(s.cluster.placement(VmId::from_index(i)).is_some());
        }
        s.cluster.check_invariants();
        // Empty classes keep the paper fleet bit-identical.
        let d = ScenarioBuilder::paper_multi_dc().vms(4).build();
        assert_eq!(d.cluster.pm_count(), 4);
    }

    #[test]
    fn energy_hook_runs_at_build_time() {
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(4)
            .energy(|cluster, env| {
                assert_eq!(cluster.dc_count(), 4, "hook sees the built cluster");
                env.price_blind()
            })
            .build();
        assert!(!s.energy.scheduler_sees_dynamic_prices);
        // Without a hook the paper default applies.
        let d = ScenarioBuilder::paper_multi_dc().vms(4).build();
        assert!(d.energy.scheduler_sees_dynamic_prices);
    }

    #[test]
    fn workload_override_replaces_preset() {
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(3)
            .workload(libcn::uniform_multi_dc(3, 150.0, 9))
            .build();
        let Demand::Synthetic(w) = &s.workload else {
            panic!("the override is synthetic");
        };
        assert_eq!(w.service_count(), 3);
        assert!(
            (w.services[0].scale_rps - 150.0).abs() < 1e-12,
            "override used as-is"
        );
    }

    #[test]
    fn trace_demand_builds_profiles_from_trace_classes() {
        use pamdc_workload::trace::{DemandTrace, TraceSource};

        let w = libcn::multi_dc(3, 120.0, 4);
        let classes: Vec<_> = w.services.iter().map(|s| s.class).collect();
        let trace = DemandTrace::record(
            &Demand::from(w),
            SimDuration::from_hours(1),
            SimDuration::from_mins(1),
        );
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(3)
            .demand(TraceSource::new(trace))
            .build();
        assert!(matches!(s.workload, Demand::Trace(_)));
        for (i, &class) in classes.iter().enumerate() {
            assert_eq!(s.workload.service_class(i), class);
        }
    }

    #[test]
    fn service_specs_size_vms_and_profiles() {
        let heavy = ServiceSpec {
            vm: VmSpec {
                image_size_mb: 8192.0,
                base_mem_mb: 2048.0,
                rt0_secs: 0.2,
                alpha: 5.0,
            },
            mem_mb_per_inflight: Some(24.0),
            io_wait_factor: 0.8,
            idle_cpu_pct: 3.0,
        };
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(3)
            .service_specs(vec![(ServiceSpec::default(), 2), (heavy, 1)])
            .build();
        // VMs 0-1: the uniform paper web service; VM 2: the heavy spec.
        let default_vm = s.cluster.vm(VmId::from_index(0));
        assert_eq!(default_vm.spec.image_size_mb, 2048.0);
        assert_eq!(default_vm.spec.base_mem_mb, 256.0);
        let heavy_vm = s.cluster.vm(VmId::from_index(2));
        assert_eq!(heavy_vm.spec.image_size_mb, 8192.0);
        assert_eq!(heavy_vm.spec.base_mem_mb, 2048.0);
        assert_eq!(heavy_vm.spec.rt0_secs, 0.2);
        // Perf profiles follow: explicit per-inflight override for the
        // heavy spec, class constants for the default ones.
        assert_eq!(s.perf_profiles[2].base_mem_mb, 2048.0);
        assert_eq!(s.perf_profiles[2].mem_mb_per_inflight, 24.0);
        assert_eq!(s.perf_profiles[2].io_wait_factor, 0.8);
        assert_eq!(s.perf_profiles[2].idle_cpu_pct, 3.0);
        assert_eq!(s.perf_profiles[0].base_mem_mb, 256.0);
        assert_eq!(
            s.perf_profiles[0].mem_mb_per_inflight,
            s.workload.service_class(0).mem_mb_per_inflight()
        );
        assert_eq!(s.perf_profiles[0].io_wait_factor, 0.6);
        s.cluster.check_invariants();
    }

    #[test]
    #[should_panic(expected = "service spec counts cover")]
    fn mismatched_service_spec_counts_panic() {
        let _ = ScenarioBuilder::paper_multi_dc()
            .vms(4)
            .service_specs(vec![(ServiceSpec::default(), 2)])
            .build();
    }

    #[test]
    fn imported_memory_profile_reaches_perf_profiles() {
        use pamdc_workload::trace::{DemandTrace, TraceSource};

        let w = Demand::from(libcn::multi_dc(2, 120.0, 4));
        let mut trace =
            DemandTrace::record(&w, SimDuration::from_hours(1), SimDuration::from_mins(1));
        trace.mem_mb_per_inflight = vec![Some(48.0), None];
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(2)
            .demand(TraceSource::new(trace))
            .build();
        // Service 0 carries a measured profile; service 1 falls back to
        // its class constant.
        assert_eq!(s.perf_profiles[0].mem_mb_per_inflight, 48.0);
        assert_eq!(
            s.perf_profiles[1].mem_mb_per_inflight,
            s.workload.service_class(1).mem_mb_per_inflight()
        );
        // An explicit service spec outranks the trace's measurement.
        let mut trace =
            DemandTrace::record(&w, SimDuration::from_hours(1), SimDuration::from_mins(1));
        trace.mem_mb_per_inflight = vec![Some(48.0), Some(48.0)];
        let override_spec = ServiceSpec {
            mem_mb_per_inflight: Some(7.0),
            ..ServiceSpec::default()
        };
        let s = ScenarioBuilder::paper_multi_dc()
            .vms(2)
            .service_specs(vec![(override_spec, 1), (ServiceSpec::default(), 1)])
            .demand(TraceSource::new(trace))
            .build();
        assert_eq!(s.perf_profiles[0].mem_mb_per_inflight, 7.0);
        assert_eq!(s.perf_profiles[1].mem_mb_per_inflight, 48.0);
    }

    #[test]
    #[should_panic(expected = "one service per VM")]
    fn mismatched_demand_override_panics() {
        let _ = ScenarioBuilder::paper_multi_dc()
            .vms(4)
            .workload(libcn::uniform_multi_dc(2, 100.0, 1))
            .build();
    }
}
