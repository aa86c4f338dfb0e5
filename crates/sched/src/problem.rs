//! The scheduling problem — the parameters of the paper's Figure 3
//! mathematical program, snapshotted for one scheduling round.
//!
//! A [`Problem`] is immutable input: the VMs to (re)place with their load
//! and SLA terms, the candidate hosts with their capacities, power curves
//! and energy prices, the network, the billing policy and the horizon
//! being optimized. Schedulers return a [`Schedule`] (the program's
//! output variable `Schedule[PM, VM]`); they never mutate the world.

use pamdc_econ::billing::BillingPolicy;
use pamdc_infra::gateway::FlowDemand;
use pamdc_infra::ids::{DcId, LocationId, PmId, VmId};
use pamdc_infra::network::NetworkModel;
use pamdc_infra::power::PowerModel;
use pamdc_infra::resources::Resources;
use pamdc_perf::demand::{OfferedLoad, VmPerfProfile};
use pamdc_perf::sla::SlaFunction;
use pamdc_simcore::time::SimDuration;
use std::sync::{Arc, OnceLock};

/// One VM in the round.
#[derive(Clone, Debug)]
pub struct VmInfo {
    /// World identifier.
    pub id: VmId,
    /// Aggregated offered load for the coming period (the scheduler's
    /// forecast — typically "same as the last window").
    pub load: OfferedLoad,
    /// Per-region flow mix (for transport-latency weighting).
    pub flows: Vec<FlowDemand>,
    /// Contract terms.
    pub sla: SlaFunction,
    /// Image size, MB (migration cost).
    pub image_size_mb: f64,
    /// Performance constants.
    pub perf: VmPerfProfile,
    /// Where the VM runs now (`None` = entering the system) — the
    /// program's `pastSched`.
    pub current_pm: Option<PmId>,
    /// Location of the current host (needed to price a migration even
    /// when that host is not among this round's candidates).
    pub current_location: Option<LocationId>,
    /// Observed mean usage over the last monitoring window — what plain
    /// Best-Fit sizes by.
    pub observed_usage: Resources,
}

/// One candidate host in the round.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// World identifier.
    pub id: PmId,
    /// Its datacenter.
    pub dc: DcId,
    /// Its location (= its DC's).
    pub location: LocationId,
    /// Schedulable capacity.
    pub capacity: Resources,
    /// Power curve (for marginal-energy pricing; shared, not cloned,
    /// across rounds).
    pub power: Arc<PowerModel>,
    /// Electricity tariff, €/kWh.
    pub energy_eur_kwh: f64,
    /// Hypervisor CPU overhead per hosted VM.
    pub virt_overhead_cpu_per_vm: f64,
    /// Demand already committed by VMs **not** part of this round
    /// (well-consolidated residents the filter kept out), including their
    /// hypervisor overhead.
    pub fixed_demand: Resources,
    /// Number of resident VMs outside the round.
    pub fixed_vm_count: usize,
    /// Whether the host is currently powered (placing onto a cold host
    /// pays its idle power for the whole horizon).
    pub powered_on: bool,
    /// Remaining boot time before this host can serve (zero when on).
    /// A VM migrated onto a booting host is blacked out until the boot
    /// completes, and the profit function must know it.
    pub boot_penalty: SimDuration,
}

/// Lazily built dense `PmId → hosts-index` map. Every consumer of
/// [`Problem::host_index`] (schedule validation, per-VM current-host
/// resolution in Best-Fit, believed-totals construction) used to pay a
/// linear scan per lookup; the cache makes the first lookup O(hosts)
/// and every later one O(1).
///
/// Host ids are dense cluster indices, so a flat vector indexed by
/// `PmId::index()` suffices (`usize::MAX` marks ids absent from the
/// round). Cloning a [`Problem`] resets the cache — the clone may be
/// edited (the hierarchical round rewrites `current_pm`s, tests rewire
/// hosts) before its first lookup, so inheriting a built map would risk
/// staleness for no measurable win.
#[derive(Debug, Default)]
pub struct HostIndexCache(OnceLock<Vec<usize>>);

impl Clone for HostIndexCache {
    fn clone(&self) -> Self {
        HostIndexCache(OnceLock::new())
    }
}

/// One scheduling round's full input.
#[derive(Clone, Debug)]
pub struct Problem {
    /// VMs to place.
    pub vms: Vec<VmInfo>,
    /// Candidate hosts.
    pub hosts: Vec<HostInfo>,
    /// The provider network (latencies, migration durations). Shared:
    /// building a round's problem bumps a refcount instead of cloning
    /// the latency matrix.
    pub net: Arc<NetworkModel>,
    /// Pricing policy (shared like [`Problem::net`]).
    pub billing: Arc<BillingPolicy>,
    /// The period the schedule will hold for (the paper reschedules
    /// every 10 minutes).
    pub horizon: SimDuration,
    /// Hysteresis: a challenger host must beat the current host's profit
    /// by at least this much (€) before a migration is worth the churn.
    /// Zero disables stickiness.
    pub stickiness_eur: f64,
    /// Lazily built id→index map backing [`Problem::host_index`].
    /// Constructed with `Default::default()`; do not reorder or re-id
    /// `hosts` after the first `host_index` call on a given instance.
    pub host_index_cache: HostIndexCache,
}

impl Problem {
    /// Index of a host by id — O(1) after the first call builds the
    /// dense map (see [`HostIndexCache`]).
    pub fn host_index(&self, pm: PmId) -> Option<usize> {
        let map = self.host_index_cache.0.get_or_init(|| {
            let len = self
                .hosts
                .iter()
                .map(|h| h.id.index() + 1)
                .max()
                .unwrap_or(0);
            let mut map = vec![usize::MAX; len];
            for (hi, h) in self.hosts.iter().enumerate() {
                map[h.id.index()] = hi;
            }
            map
        });
        map.get(pm.index()).copied().filter(|&hi| hi != usize::MAX)
    }
}

/// A scheduler's answer: host choice per problem-VM (same indexing as
/// [`Problem::vms`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Chosen host per VM (every VM must be placed — constraint 1 of the
    /// program).
    pub assignment: Vec<PmId>,
}

impl Schedule {
    /// How many VMs changed host relative to their `current_pm`
    /// (`Migr[i]` of the program; entering VMs don't count).
    pub fn migration_count(&self, problem: &Problem) -> usize {
        self.assignment
            .iter()
            .zip(&problem.vms)
            .filter(|(&to, vm)| vm.current_pm.is_some_and(|cur| cur != to))
            .count()
    }

    /// Checks constraint 1 (every VM exactly one host, trivially true by
    /// construction) and that every chosen host exists in the problem.
    pub fn validate(&self, problem: &Problem) {
        assert_eq!(self.assignment.len(), problem.vms.len(), "one host per VM");
        for &pm in &self.assignment {
            assert!(
                problem.host_index(pm).is_some(),
                "{pm} not a candidate host"
            );
        }
    }

    /// Aggregated demand per problem-host index under a demand function.
    pub fn demand_per_host(
        &self,
        problem: &Problem,
        demand_of: impl Fn(&VmInfo) -> Resources,
    ) -> Vec<Resources> {
        let mut per_host: Vec<Resources> = problem.hosts.iter().map(|h| h.fixed_demand).collect();
        let mut counts: Vec<usize> = vec![0; problem.hosts.len()];
        for (vm, &pm) in problem.vms.iter().zip(&self.assignment) {
            let hi = problem.host_index(pm).expect("validated schedule");
            per_host[hi] += demand_of(vm);
            counts[hi] += 1;
        }
        for (hi, host) in problem.hosts.iter().enumerate() {
            per_host[hi].cpu += host.virt_overhead_cpu_per_vm * counts[hi] as f64;
        }
        per_host
    }
}

/// Synthetic problem instances for tests, benches and scaling studies.
pub mod synthetic {
    use super::*;
    use pamdc_infra::network::City;
    use pamdc_infra::pm::MachineSpec;
    use pamdc_ml::predictors::{PredictionTarget, PredictorSuite};

    /// A problem with `n_hosts` Atom hosts across the four paper DCs
    /// (round-robin, so hosts `i` and `i+4` are twins in one DC) and
    /// `n_vms` identical web VMs, all currently on host 0, each loaded at
    /// `rps` from its home region (`i % 4`).
    pub fn problem(n_vms: usize, n_hosts: usize, rps: f64) -> Problem {
        let spec = MachineSpec::atom();
        let hosts = (0..n_hosts)
            .map(|i| {
                let city = City::ALL[i % 4];
                HostInfo {
                    id: PmId::from_index(i),
                    dc: DcId::from_index(i % 4),
                    location: city.location(),
                    capacity: spec.capacity,
                    power: spec.power.clone(),
                    energy_eur_kwh: pamdc_econ::prices::paper_energy_price(city),
                    virt_overhead_cpu_per_vm: spec.virt_overhead_cpu_per_vm,
                    fixed_demand: Resources::ZERO,
                    fixed_vm_count: 0,
                    powered_on: i == 0,
                    boot_penalty: if i == 0 {
                        SimDuration::ZERO
                    } else {
                        SimDuration::from_secs(120)
                    },
                }
            })
            .collect();
        let vms = (0..n_vms)
            .map(|i| {
                let home = City::ALL[i % 4].location();
                let load = OfferedLoad {
                    rps,
                    kb_in_per_req: 0.5,
                    kb_out_per_req: 4.0,
                    cpu_ms_per_req: 6.0,
                    backlog: 0.0,
                };
                VmInfo {
                    id: VmId::from_index(i),
                    load,
                    flows: vec![FlowDemand {
                        source: home,
                        req_per_sec: rps,
                        kb_per_req: 4.0,
                        cpu_ms_per_req: 6.0,
                    }],
                    sla: SlaFunction::paper(),
                    image_size_mb: 2048.0,
                    perf: VmPerfProfile::default(),
                    current_pm: Some(PmId(0)),
                    current_location: Some(City::ALL[0].location()),
                    observed_usage: pamdc_perf::demand::required_resources(
                        &load,
                        &VmPerfProfile::default(),
                        600.0,
                    ),
                }
            })
            .collect();
        Problem {
            vms,
            hosts,
            net: Arc::new(NetworkModel::paper()),
            billing: Arc::new(BillingPolicy::default()),
            horizon: SimDuration::from_mins(10),
            stickiness_eur: 0.0,
            host_index_cache: Default::default(),
        }
    }

    /// A Table-I suite trained on synthetic data, with targets that
    /// depend on every feature, so a change in any input of
    /// `MlOracle::sla` can change its answer. Deterministic (fixed
    /// training seed): the stand-in wherever a test needs an `MlOracle`
    /// without running the training pipeline.
    pub fn ml_suite() -> Arc<PredictorSuite> {
        use pamdc_ml::dataset::Dataset;
        use pamdc_ml::predictors::TrainedPredictor;
        use pamdc_simcore::rng::RngStream;
        let mut rng = RngStream::root(5);
        let predictors = PredictionTarget::ALL
            .iter()
            .map(|&target| {
                let ranges: &[f64] = match target {
                    PredictionTarget::VmRt | PredictionTarget::VmSla => {
                        &[300.0, 12.0, 200.0, 200.0, 1.0, 5.0, 1.0]
                    }
                    PredictionTarget::PmCpu => &[10.0, 400.0, 400.0],
                    _ => &[300.0, 4.0, 14.0, 12.0, 5.0],
                };
                let mut d = Dataset::with_features(target.feature_names());
                let mut row = vec![0.0; ranges.len()];
                for _ in 0..400 {
                    for (v, &hi) in row.iter_mut().zip(ranges) {
                        *v = rng.uniform_range(0.0, hi);
                    }
                    let y = match target {
                        PredictionTarget::VmRt | PredictionTarget::VmSla => {
                            (row[3] / (row[2] + 1.0)).min(1.0) * row[4] * (1.0 - 0.5 * row[6])
                                - 0.0005 * row[0]
                                - 0.01 * row[1]
                                - 0.02 * row[5]
                        }
                        _ => row
                            .iter()
                            .enumerate()
                            .map(|(j, v)| (j + 1) as f64 * v)
                            .sum(),
                    };
                    d.push(&row, y);
                }
                TrainedPredictor::train(target, &d, &mut rng)
            })
            .collect();
        Arc::new(PredictorSuite::from_predictors(predictors))
    }
}

#[cfg(test)]
mod tests {
    use super::synthetic::problem;
    use super::*;

    #[test]
    fn indices_resolve() {
        let p = problem(3, 4, 50.0);
        assert_eq!(p.host_index(PmId(2)), Some(2));
        assert_eq!(p.host_index(PmId(99)), None);
    }

    #[test]
    fn host_index_handles_sparse_and_reversed_ids() {
        // Reduced sub-problems keep original (non-contiguous) PmIds in
        // arbitrary positions; the dense map must not assume id == index.
        let mut p = problem(1, 3, 50.0);
        p.hosts[0].id = PmId(7);
        p.hosts[1].id = PmId(2);
        p.hosts[2].id = PmId(0);
        assert_eq!(p.host_index(PmId(7)), Some(0));
        assert_eq!(p.host_index(PmId(2)), Some(1));
        assert_eq!(p.host_index(PmId(0)), Some(2));
        for absent in [1u32, 3, 4, 5, 6, 8, 1000] {
            assert_eq!(p.host_index(PmId(absent)), None);
        }
    }

    #[test]
    fn host_index_cache_resets_on_clone() {
        let mut p = problem(1, 2, 50.0);
        assert_eq!(p.host_index(PmId(1)), Some(1)); // builds the cache
        let mut q = p.clone();
        q.hosts.swap(0, 1); // edit the clone before its first lookup
        assert_eq!(q.host_index(PmId(1)), Some(0));
        assert_eq!(q.host_index(PmId(0)), Some(1));
        // The original's cache is untouched.
        assert_eq!(p.host_index(PmId(1)), Some(1));
        // Mutating host *fields* (not ids/order) keeps the cache valid.
        p.hosts[0].energy_eur_kwh *= 2.0;
        assert_eq!(p.host_index(PmId(0)), Some(0));
    }

    #[test]
    fn migration_count_ignores_stay_and_new() {
        let mut p = problem(3, 4, 50.0);
        p.vms[2].current_pm = None; // entering VM
        let s = Schedule {
            assignment: vec![PmId(0), PmId(1), PmId(2)],
        };
        // vm0 stays, vm1 moves, vm2 enters (not a migration).
        assert_eq!(s.migration_count(&p), 1);
    }

    #[test]
    fn demand_per_host_adds_overhead_and_fixed() {
        let mut p = problem(2, 2, 50.0);
        p.hosts[1].fixed_demand = Resources::new(30.0, 256.0, 0.0, 0.0);
        let s = Schedule {
            assignment: vec![PmId(1), PmId(1)],
        };
        let d = s.demand_per_host(&p, |vm| vm.observed_usage);
        assert_eq!(d[0], Resources::ZERO);
        let expect_cpu =
            30.0 + 2.0 * p.vms[0].observed_usage.cpu + 2.0 * p.hosts[1].virt_overhead_cpu_per_vm;
        assert!((d[1].cpu - expect_cpu).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not a candidate host")]
    fn validate_rejects_unknown_host() {
        let p = problem(1, 2, 50.0);
        Schedule {
            assignment: vec![PmId(9)],
        }
        .validate(&p);
    }
}
