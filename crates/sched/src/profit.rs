//! The profit function — the paper's objective:
//!
//! ```text
//! Profit = Σ f_revenue(SLA[i]) − Σ f_penalty(Migr[i], Migl[i], ISize[i]) − Σ f_energycost(Power[h])
//! ```
//!
//! Two entry points: [`marginal_profit`] scores a single tentative
//! placement inside Best-Fit's inner loop (the `profit(v, h, ...)` call
//! of Algorithm 1), and [`evaluate_schedule`] scores a complete
//! assignment (used by the exact solver's objective and by tests).

use crate::index::CandidateIndex;
use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule, VmInfo};
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::ids::LocationId;
use pamdc_infra::network::NetworkModel;
use pamdc_infra::resources::Resources;
use pamdc_simcore::time::SimDuration;

/// Inter-DC transfer charges a VM's client traffic would accrue over
/// `horizon` when hosted at `host_loc`: every flow whose source region is
/// remote crosses the provider network and pays the per-GB price (both
/// directions; zero on the paper's free network).
pub fn client_traffic_eur(
    vm: &VmInfo,
    host_loc: LocationId,
    net: &NetworkModel,
    horizon: SimDuration,
) -> f64 {
    if net.eur_per_gb_interdc == 0.0 {
        return 0.0;
    }
    let secs = horizon.as_secs_f64();
    vm.flows
        .iter()
        .filter(|f| f.source != host_loc)
        .map(|f| {
            let kb = f.req_per_sec * (f.kb_per_req + vm.load.kb_in_per_req) * secs;
            net.transfer_cost_eur(kb * 1e-6, f.source, host_loc)
        })
        .sum()
}

/// What moving a VM off its current host costs on top of hosting it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct MoveCost {
    /// Revenue blacked out while the image moves, scaled by the queue
    /// debt the blackout leaves, plus the fixed migration fee, €.
    pub(crate) migration_eur: f64,
    /// Transfer charge for shipping the image (zero intra-DC and on the
    /// paper's free network), €.
    pub(crate) image_eur: f64,
}

/// The cost of moving `vm` from its current host to a host at `to`, or
/// `None` when it has no current host (a homeless VM has nothing to
/// move). It reads the destination only through its location; whether
/// a placement moves the VM at all (it does not on its current host) is
/// the caller's test.
pub(crate) fn move_cost(problem: &Problem, vm: &VmInfo, to: LocationId) -> Option<MoveCost> {
    let (Some(_), Some(from)) = (vm.current_pm, vm.current_location) else {
        return None;
    };
    // The VM earns nothing while frozen (§IV-A); the destination's
    // unavailability is priced with its revenue, not here.
    let blackout = problem.net.migration_duration(vm.image_size_mb, from, to);
    let lost = problem.billing.revenue(1.0, blackout.min(problem.horizon));
    // Every request arriving during the blackout queues and must be
    // drained later at degraded SLA; a VM already dragging a backlog
    // compounds that debt. Scale the penalty accordingly.
    let queue_debt = if vm.load.rps > 0.0 {
        (vm.load.backlog / (vm.load.rps * blackout.as_secs_f64().max(1.0))).min(3.0)
    } else {
        0.0
    };
    Some(MoveCost {
        migration_eur: lost * (1.0 + queue_debt) + problem.billing.migration_fee_eur,
        image_eur: problem
            .net
            .transfer_cost_eur(vm.image_size_mb / 1000.0, from, to),
    })
}

/// Mutable accumulation of a partial assignment during a round.
#[derive(Clone, Debug)]
pub struct PlacementState {
    pub(crate) demand: Vec<Resources>,
    pub(crate) vm_counts: Vec<usize>,
    /// Free-capacity candidate index, maintained incrementally by
    /// [`PlacementState::assign`] when enabled (Best-Fit). `None` keeps
    /// `assign` O(1) for consumers that scan hosts anyway (exact search,
    /// the reference full scan).
    index: Option<Box<CandidateIndex>>,
}

impl PlacementState {
    /// Fresh state: only each host's fixed residents.
    pub fn new(problem: &Problem) -> Self {
        PlacementState {
            demand: problem.hosts.iter().map(|h| h.fixed_demand).collect(),
            vm_counts: vec![0; problem.hosts.len()],
            index: None,
        }
    }

    /// Fresh state with the bucketed free-capacity [`CandidateIndex`]
    /// enabled: host equivalence groups are rebuilt incrementally on
    /// every [`PlacementState::assign`]. Near mode buckets hosts without
    /// their demand bits (coarser groups, approximate shortlists).
    pub fn with_candidate_index(problem: &Problem, mode: crate::index::IndexMode) -> Self {
        let mut state = Self::new(problem);
        state.index = Some(Box::new(CandidateIndex::new(
            problem,
            &state.demand,
            &state.vm_counts,
            mode,
        )));
        state
    }

    /// The candidate index, when enabled.
    pub fn candidate_index(&self) -> Option<&CandidateIndex> {
        self.index.as_deref()
    }

    /// Total believed demand on a host (fixed + assigned + hypervisor
    /// overhead for assigned VMs).
    pub fn host_demand(&self, problem: &Problem, host_idx: usize) -> Resources {
        let mut d = self.demand[host_idx];
        d.cpu += problem.hosts[host_idx].virt_overhead_cpu_per_vm * self.vm_counts[host_idx] as f64;
        d
    }

    /// Whether the host would be running anything after the assignments
    /// so far (fixed residents or newly assigned VMs).
    pub fn host_active(&self, problem: &Problem, host_idx: usize) -> bool {
        problem.hosts[host_idx].fixed_vm_count > 0 || self.vm_counts[host_idx] > 0
    }

    /// Commits a VM (with believed demand `demand`) onto a host,
    /// keeping the candidate index (when enabled) in sync.
    pub fn assign(&mut self, problem: &Problem, host_idx: usize, demand: Resources) {
        self.demand[host_idx] += demand;
        self.vm_counts[host_idx] += 1;
        if let Some(index) = &mut self.index {
            index.update_host(
                problem,
                host_idx,
                self.demand[host_idx],
                self.vm_counts[host_idx],
            );
        }
    }

    /// Does `demand` fit into the host's remaining believed capacity?
    pub fn fits(&self, problem: &Problem, host_idx: usize, demand: &Resources) -> bool {
        let host = &problem.hosts[host_idx];
        let mut after = self.host_demand(problem, host_idx);
        after += *demand;
        after.cpu += host.virt_overhead_cpu_per_vm; // the newcomer's overhead
        after.fits_within(&host.capacity)
    }

    /// Does `demand`'s **memory** alone fit the host's remaining RAM?
    /// The relaxed test Best-Fit's overflow path uses when nothing fits
    /// fully: CPU and network overcommit are survivable (contention
    /// degrades every tenant proportionally), RAM overcommit is not, so
    /// an out-of-capacity round still avoids it wherever possible.
    pub fn fits_memory(&self, problem: &Problem, host_idx: usize, demand: &Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.demand[host_idx].mem_mb + demand.mem_mb
            <= problem.hosts[host_idx].capacity.mem_mb + EPS
    }
}

/// Believed per-VM demands and per-host totals under the *current*
/// placement, computed once per scheduling round and shared by every
/// consumer (candidate filter, offer filter, hierarchical round) instead
/// of each rebuilding them from O(V) oracle queries.
#[derive(Clone, Debug)]
pub struct BelievedTotals {
    /// Oracle demand per problem-VM.
    pub demands: Vec<Resources>,
    /// Per-host believed demand excluding hypervisor overhead
    /// (fixed residents + currently-placed VMs).
    pub raw: Vec<Resources>,
    /// Currently-placed VMs per host.
    pub counts: Vec<usize>,
}

impl BelievedTotals {
    /// Totals under an explicit per-VM host assignment (`None` = not
    /// placed on any in-problem host). This is the placement-only
    /// snapshot the hierarchical round uses after its per-DC passes: the
    /// effective placement lives in a vector, so no `Problem` clone is
    /// needed to describe "where everything sits now".
    pub fn from_placement(
        problem: &Problem,
        demands: Vec<Resources>,
        host_of: &[Option<usize>],
    ) -> Self {
        debug_assert_eq!(
            demands.len(),
            problem.vms.len(),
            "one believed demand per VM"
        );
        debug_assert_eq!(host_of.len(), problem.vms.len(), "one host slot per VM");
        let mut raw: Vec<Resources> = problem.hosts.iter().map(|h| h.fixed_demand).collect();
        let mut counts: Vec<usize> = vec![0; problem.hosts.len()];
        for (slot, demand) in host_of.iter().zip(&demands) {
            if let Some(hi) = *slot {
                raw[hi] += *demand;
                counts[hi] += 1;
            }
        }
        BelievedTotals {
            demands,
            raw,
            counts,
        }
    }

    /// Believed total on a host including hypervisor overhead for its
    /// currently-placed VMs.
    pub fn with_overhead(&self, problem: &Problem, hi: usize) -> Resources {
        let mut d = self.raw[hi];
        d.cpu += problem.hosts[hi].virt_overhead_cpu_per_vm * self.counts[hi] as f64;
        d
    }
}

/// Components of one tentative placement's score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementScore {
    /// Estimated SLA fulfillment.
    pub sla: f64,
    /// Revenue over the horizon at that SLA, €.
    pub revenue_eur: f64,
    /// Migration penalty (lost revenue during blackout + fee), €.
    pub migration_eur: f64,
    /// Marginal energy cost of the placement over the horizon, €.
    pub energy_eur: f64,
    /// Inter-DC transfer charges (client traffic + image shipping), €.
    pub network_eur: f64,
}

impl PlacementScore {
    /// Net profit, €.
    pub fn profit(&self) -> f64 {
        self.revenue_eur - self.migration_eur - self.energy_eur - self.network_eur
    }
}

/// Scores placing `vm_idx` on `host_idx` given the partial assignment in
/// `state` — Algorithm 1's `profit(v, h, res_req, res_avail)`.
///
/// The per-pair invariants come precomputed: `demand` is the VM's
/// oracle demand (identical for every host) and `transport` the
/// weighted transport latency from its clients to the host's location
/// (identical for every host there), so a candidate loop hoists both.
/// Every solver scores through this one function, so all share one
/// float evaluation order — the bit-identity guarantee the shortlist
/// equivalence proptests rely on.
pub fn marginal_profit(
    problem: &Problem,
    oracle: &dyn QosOracle,
    state: &PlacementState,
    vm_idx: usize,
    host_idx: usize,
    demand: Resources,
    transport: f64,
) -> PlacementScore {
    let vm = &problem.vms[vm_idx];
    let host = &problem.hosts[host_idx];

    // Tentative totals on the host.
    let mut total = state.host_demand(problem, host_idx);
    total += demand;
    total.cpu += host.virt_overhead_cpu_per_vm;

    // QoS estimate, revenue-scaled by the host's availability over the
    // horizon: a booting host serves nothing until it is up, and a
    // crashed host serves nothing until repaired — whether the VM is
    // staying or arriving.
    let sla = oracle.sla(vm, host, &total, transport);
    let available = problem.horizon - host.boot_penalty.min(problem.horizon);
    let revenue_eur = problem.billing.revenue(sla, available);

    // Marginal energy: facility draw after minus before, billed at the
    // host's tariff for the horizon. A cold, empty host starts at 0 W —
    // powering it on is exactly what the marginal cost captures (the
    // consolidation incentive).
    let watts_before = if state.host_active(problem, host_idx) || host.powered_on {
        host.power
            .facility_watts(state.host_demand(problem, host_idx).cpu)
    } else {
        0.0
    };
    let watts_after = host.power.facility_watts(total.cpu);
    let delta_w = (watts_after - watts_before).max(0.0);
    let energy_eur = delta_w * problem.horizon.as_hours_f64() / 1000.0 * host.energy_eur_kwh;

    // Network charges: remote client traffic over the horizon. A
    // placement that migrates the VM adds the image shipment, and its
    // migration penalty is the revenue blacked out plus any fee.
    let mut network_eur = client_traffic_eur(vm, host.location, &problem.net, problem.horizon);
    let mut migration_eur = 0.0;
    if vm.current_pm != Some(host.id) {
        if let Some(cost) = move_cost(problem, vm, host.location) {
            migration_eur = cost.migration_eur;
            network_eur += cost.image_eur;
        }
    }

    PlacementScore {
        sla,
        revenue_eur,
        migration_eur,
        energy_eur,
        network_eur,
    }
}

/// Full evaluation of a complete schedule under an oracle's beliefs.
#[derive(Clone, Debug)]
pub struct ScheduleEval {
    /// Net estimated profit over the horizon, €.
    pub profit_eur: f64,
    /// Revenue component, €.
    pub revenue_eur: f64,
    /// Energy component, €.
    pub energy_eur: f64,
    /// Migration penalties, €.
    pub migration_eur: f64,
    /// Inter-DC transfer charges, €.
    pub network_eur: f64,
    /// Estimated SLA per problem-VM.
    pub per_vm_sla: Vec<f64>,
    /// Hosts that end up running at least one VM.
    pub active_hosts: usize,
}

impl ScheduleEval {
    /// Mean estimated SLA across VMs (0 when there are none).
    pub fn mean_sla(&self) -> f64 {
        if self.per_vm_sla.is_empty() {
            0.0
        } else {
            self.per_vm_sla.iter().sum::<f64>() / self.per_vm_sla.len() as f64
        }
    }
}

/// Scores a complete schedule: estimated SLA and revenue per VM under the
/// final co-location, migration penalties, and per-host energy. Hosts
/// left empty are assumed powered down by the manager after the round
/// (they cost nothing over the horizon).
pub fn evaluate_schedule(
    problem: &Problem,
    oracle: &dyn QosOracle,
    schedule: &Schedule,
) -> ScheduleEval {
    schedule.validate(problem);
    // Final believed demand per host.
    let mut state = PlacementState::new(problem);
    let host_of: Vec<usize> = schedule
        .assignment
        .iter()
        .map(|&pm| problem.host_index(pm).expect("validated"))
        .collect();
    for (vm_idx, &hi) in host_of.iter().enumerate() {
        state.assign(problem, hi, oracle.demand(&problem.vms[vm_idx]));
    }

    let mut revenue = 0.0;
    let mut migration = 0.0;
    let mut network = 0.0;
    let mut per_vm_sla = Vec::with_capacity(problem.vms.len());
    for (vm_idx, &hi) in host_of.iter().enumerate() {
        let vm = &problem.vms[vm_idx];
        let host = &problem.hosts[hi];
        let total = state.host_demand(problem, hi);
        let transport = weighted_transport_secs(&vm.flows, host.location, &problem.net);
        let sla = oracle.sla(vm, host, &total, transport);
        per_vm_sla.push(sla);
        let available = problem.horizon - host.boot_penalty.min(problem.horizon);
        revenue += problem.billing.revenue(sla, available);
        network += client_traffic_eur(vm, host.location, &problem.net, problem.horizon);
        if vm.current_pm != Some(host.id) {
            if let Some(cost) = move_cost(problem, vm, host.location) {
                migration += cost.migration_eur;
                network += cost.image_eur;
            }
        }
    }

    let mut energy = 0.0;
    let mut active_hosts = 0;
    for hi in 0..problem.hosts.len() {
        if state.host_active(problem, hi) {
            active_hosts += 1;
            let watts = problem.hosts[hi]
                .power
                .facility_watts(state.host_demand(problem, hi).cpu);
            energy +=
                watts * problem.horizon.as_hours_f64() / 1000.0 * problem.hosts[hi].energy_eur_kwh;
        }
    }

    ScheduleEval {
        profit_eur: revenue - energy - migration - network,
        revenue_eur: revenue,
        energy_eur: energy,
        migration_eur: migration,
        network_eur: network,
        per_vm_sla,
        active_hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MonitorOracle, TrueOracle};
    use crate::problem::synthetic::problem;
    use crate::reference::score_pair;
    use pamdc_infra::ids::PmId;

    #[test]
    fn staying_home_avoids_migration_penalty() {
        let p = problem(1, 4, 50.0);
        let o = MonitorOracle::plain();
        let state = PlacementState::new(&p);
        let stay = score_pair(&p, &o, &state, 0, 0);
        let moveaway = score_pair(&p, &o, &state, 0, 1);
        assert_eq!(stay.migration_eur, 0.0);
        assert!(moveaway.migration_eur > 0.0);
    }

    #[test]
    fn cross_dc_migration_costs_more_than_local() {
        // Hosts 0..4 are in four different DCs; add a 5th host in DC of
        // host 0 by reusing index pattern (i % 4): host 4 shares DC 0.
        let p = problem(1, 5, 50.0);
        let o = MonitorOracle::plain();
        let state = PlacementState::new(&p);
        let local = score_pair(&p, &o, &state, 0, 4); // same DC as current
        let remote = score_pair(&p, &o, &state, 0, 2);
        assert!(remote.migration_eur > local.migration_eur);
    }

    #[test]
    fn powering_a_cold_host_costs_idle_energy() {
        let p = problem(1, 4, 50.0);
        let o = MonitorOracle::plain();
        let state = PlacementState::new(&p);
        // Host 0 is powered_on in the fixture; host 1 is cold.
        let warm = score_pair(&p, &o, &state, 0, 0);
        let cold = score_pair(&p, &o, &state, 0, 1);
        assert!(
            cold.energy_eur > warm.energy_eur,
            "cold start {} must exceed warm marginal {}",
            cold.energy_eur,
            warm.energy_eur
        );
    }

    #[test]
    fn consolidation_beats_spreading_when_sla_is_safe() {
        // Two light VMs, two hosts in the same DC: piling both onto the
        // powered host must out-profit powering the second host.
        let mut p = problem(2, 2, 30.0);
        // Make both hosts the same DC/location to neutralize latency.
        let h0 = p.hosts[0].clone();
        p.hosts[1].dc = h0.dc;
        p.hosts[1].location = h0.location;
        p.hosts[1].energy_eur_kwh = h0.energy_eur_kwh;
        p.vms[1].current_pm = Some(PmId(0));
        p.vms[1].current_location = Some(h0.location);
        let o = TrueOracle::new();
        let consolidated = Schedule {
            assignment: vec![PmId(0), PmId(0)],
        };
        let spread = Schedule {
            assignment: vec![PmId(0), PmId(1)],
        };
        let ec = evaluate_schedule(&p, &o, &consolidated);
        let es = evaluate_schedule(&p, &o, &spread);
        assert!(
            ec.profit_eur > es.profit_eur,
            "{} vs {}",
            ec.profit_eur,
            es.profit_eur
        );
        assert_eq!(ec.active_hosts, 1);
        assert_eq!(es.active_hosts, 2);
    }

    #[test]
    fn overload_flips_the_decision_under_true_oracle() {
        // Two very heavy VMs: a truthful oracle sees the SLA collapse
        // when consolidated and prefers to spread despite the energy.
        let mut p = problem(2, 2, 600.0);
        let h0 = p.hosts[0].clone();
        p.hosts[1].dc = h0.dc;
        p.hosts[1].location = h0.location;
        p.hosts[1].energy_eur_kwh = h0.energy_eur_kwh;
        p.vms[1].current_pm = Some(PmId(0));
        p.vms[1].current_location = Some(h0.location);
        let o = TrueOracle::new();
        let consolidated = Schedule {
            assignment: vec![PmId(0), PmId(0)],
        };
        let spread = Schedule {
            assignment: vec![PmId(0), PmId(1)],
        };
        let ec = evaluate_schedule(&p, &o, &consolidated);
        let es = evaluate_schedule(&p, &o, &spread);
        assert!(
            es.profit_eur > ec.profit_eur,
            "spreading {} must beat crushing {}",
            es.profit_eur,
            ec.profit_eur
        );
        assert!(es.mean_sla() > ec.mean_sla());
    }

    #[test]
    fn failed_hosts_earn_nothing_so_policies_evacuate() {
        use pamdc_simcore::time::SimDuration;
        // Host 0 (the current home) is crashed for longer than the
        // horizon: staying earns zero revenue, so any live host wins
        // despite its migration penalty.
        let mut p = problem(1, 4, 50.0);
        p.hosts[0].powered_on = false;
        p.hosts[0].boot_penalty = SimDuration::from_hours(2);
        for h in 1..4 {
            p.hosts[h].powered_on = true;
            p.hosts[h].boot_penalty = SimDuration::ZERO;
        }
        let o = TrueOracle::new();
        let state = PlacementState::new(&p);
        let stay = score_pair(&p, &o, &state, 0, 0);
        assert_eq!(stay.revenue_eur, 0.0, "a dead host earns nothing");
        let best_alive = (1..4)
            .map(|h| score_pair(&p, &o, &state, 0, h).profit())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_alive > stay.profit(),
            "evacuating ({best_alive}) must beat staying ({})",
            stay.profit()
        );
    }

    #[test]
    fn network_pricing_penalizes_remote_hosting() {
        // Same problem on a free vs priced network: with per-GB transit
        // charges, hosting VM 0 (Brisbane clients) in Barcelona costs
        // network euros that hosting at home does not.
        let mut p = problem(1, 4, 120.0);
        p.net = std::sync::Arc::new(pamdc_infra::network::NetworkModel::paper_priced(0.05));
        let o = TrueOracle::new();
        let state = PlacementState::new(&p);
        let home = score_pair(&p, &o, &state, 0, 0);
        let remote = score_pair(&p, &o, &state, 0, 2);
        assert_eq!(home.network_eur, 0.0, "local clients ride free");
        assert!(
            remote.network_eur > 0.0,
            "remote hosting pays transit + image"
        );
        // Free network: both are zero.
        let mut free = problem(1, 4, 120.0);
        free.net = std::sync::Arc::new(pamdc_infra::network::NetworkModel::paper());
        let r = score_pair(&free, &o, &PlacementState::new(&free), 0, 2);
        assert_eq!(r.network_eur, 0.0);
    }

    #[test]
    fn schedule_eval_includes_network_costs() {
        let mut p = problem(2, 4, 80.0);
        p.net = std::sync::Arc::new(pamdc_infra::network::NetworkModel::paper_priced(0.05));
        let o = TrueOracle::new();
        // Everyone stays on host 0 (Brisbane): VM 1's Bangalore clients
        // pay transit.
        let stay = Schedule {
            assignment: vec![PmId(0), PmId(0)],
        };
        let eval = evaluate_schedule(&p, &o, &stay);
        assert!(eval.network_eur > 0.0);
        assert!(
            (eval.profit_eur
                - (eval.revenue_eur - eval.energy_eur - eval.migration_eur - eval.network_eur))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn placement_state_tracks_fit() {
        let p = problem(2, 1, 50.0);
        let mut state = PlacementState::new(&p);
        let big = Resources::new(390.0, 1024.0, 10.0, 10.0);
        assert!(state.fits(&p, 0, &big));
        state.assign(&p, 0, big);
        assert!(!state.fits(&p, 0, &big), "second giant VM cannot fit");
        assert_eq!(state.vm_counts[0], 1);
    }

    #[test]
    fn latency_differentiates_hosts_for_remote_clients() {
        // VM 0's clients are in Brisbane (home = ALL[0]); hosting it in
        // Brisbane must estimate a better SLA than hosting in Barcelona.
        let p = problem(1, 4, 120.0);
        let o = TrueOracle::new();
        let state = PlacementState::new(&p);
        let brisbane = score_pair(&p, &o, &state, 0, 0);
        let barcelona = score_pair(&p, &o, &state, 0, 2);
        assert!(brisbane.sla >= barcelona.sla);
    }
}
