//! Incremental schedule evaluation — the consolidation pass's hot path.
//!
//! [`crate::profit::evaluate_schedule`] prices a complete assignment in
//! O(V·H): it rebuilds every host's believed demand, re-estimates every
//! VM's SLA and re-prices every host's energy. The local search used to
//! call it once per *candidate move*, making one consolidation round
//! O(V²·H²) oracle evaluations — exactly the cost §IV-C's filtering is
//! supposed to avoid.
//!
//! [`ScheduleEvaluator`] caches the full decomposition of the current
//! schedule — per-host believed demand, per-VM SLA/revenue/migration/
//! network contributions, per-host energy — and exploits the profit
//! function's locality: relocating one VM only changes
//!
//! * the source and destination hosts' believed totals (and therefore
//!   the SLA and revenue of the VMs *on those two hosts*),
//! * the moved VM's migration and network charges, and
//! * the two hosts' energy terms.
//!
//! So a candidate move is scored by visiting the two affected hosts'
//! residents — O(occupancy) instead of O(V·H) — and scoring allocates
//! nothing. The source half of that work does not depend on the
//! destination: [`ScheduleEvaluator::leave`] prices it once per VM as a
//! [`Departure`] (the co-residents' revenue change and the source
//! host's energy change), and [`ScheduleEvaluator::move_gain`] adds the
//! destination half to it. A departure reads only its VM's own host, so
//! a caller may keep it until a move touches that host. Committing a
//! move updates the cached state in place the same way. The invariant,
//! enforced by `debug_assert!` and by the `evaluator_equivalence`
//! proptest suite: the tracked decomposition always matches what a
//! fresh [`crate::profit::evaluate_schedule`] of the same assignment
//! would produce, to within float-accumulation noise (≪ 1e-9 relative).

use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule, VmInfo};
use crate::profit::{client_traffic_eur, move_cost};
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::ids::LocationId;
use pamdc_infra::resources::Resources;
use pamdc_simcore::time::SimDuration;

/// Cached decomposition of one schedule's profit, supporting O(hosts
/// touched) rescoring of single-VM relocations.
pub struct ScheduleEvaluator<'a> {
    problem: &'a Problem,
    oracle: &'a dyn QosOracle,
    /// Believed demand per VM (oracle queried once).
    demands: Vec<Resources>,
    /// Current host index per VM.
    host_of: Vec<usize>,
    /// VM indices resident on each host (order irrelevant).
    vms_on: Vec<Vec<usize>>,
    /// Believed demand per host **excluding** hypervisor overhead
    /// (fixed residents + assigned VM demands), maintained in place.
    raw_demand: Vec<Resources>,
    /// Round-VMs assigned per host.
    counts: Vec<usize>,
    /// Location-dependent terms per (vm, location) pair, vm-major.
    /// Transport latency and move costs depend on the host only through
    /// its location, so pricing them once per location instead of per
    /// candidate keeps construction O(V·locations) and scoring free of
    /// them — the bits read back are identical.
    at_location: Vec<AtLocation>,
    /// Location slot per host (index into a VM's `at_location` row).
    loc_slot: Vec<usize>,
    /// Width of one VM's `at_location` row (max location index + 1).
    n_loc_slots: usize,
    /// Revenue-earning span per host (horizon minus boot blackout).
    available: Vec<SimDuration>,
    /// Cached per-VM terms under the current assignment.
    sla: Vec<f64>,
    revenue: Vec<f64>,
    migration: Vec<f64>,
    network: Vec<f64>,
    /// Cached per-host energy cost under the current assignment.
    energy: Vec<f64>,
    /// Running totals of the cached terms.
    revenue_total: f64,
    migration_total: f64,
    network_total: f64,
    energy_total: f64,
}

impl<'a> ScheduleEvaluator<'a> {
    /// Builds the cache for `schedule` (one full O(V·H) evaluation —
    /// the last one the round needs).
    pub fn new(problem: &'a Problem, oracle: &'a dyn QosOracle, schedule: &Schedule) -> Self {
        schedule.validate(problem);
        let n_vms = problem.vms.len();
        let n_hosts = problem.hosts.len();

        let demands: Vec<Resources> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();
        let mut host_of = Vec::with_capacity(n_vms);
        let mut vms_on: Vec<Vec<usize>> = vec![Vec::new(); n_hosts];
        let mut raw_demand: Vec<Resources> = problem.hosts.iter().map(|h| h.fixed_demand).collect();
        let mut counts = vec![0usize; n_hosts];
        // Problem::host_index is O(1) after its first call builds the
        // dense id→index map, so paying it per VM is fine.
        for (vi, &pm) in schedule.assignment.iter().enumerate() {
            let hi = problem.host_index(pm).expect("validated schedule");
            host_of.push(hi);
            vms_on[hi].push(vi);
            raw_demand[hi] += demands[vi];
            counts[hi] += 1;
        }

        // One set of terms per (vm, location present in the fleet);
        // absent location slots stay NaN and are never read.
        let loc_slot: Vec<usize> = problem.hosts.iter().map(|h| h.location.index()).collect();
        let n_loc_slots = loc_slot.iter().max().map_or(1, |&m| m + 1);
        let mut loc_at_slot = vec![None; n_loc_slots];
        for host in &problem.hosts {
            loc_at_slot[host.location.index()] = Some(host.location);
        }
        let at_location: Vec<AtLocation> = problem
            .vms
            .iter()
            .flat_map(|vm| {
                loc_at_slot.iter().map(|slot| match slot {
                    Some(loc) => AtLocation::price(problem, vm, *loc),
                    None => AtLocation::ABSENT,
                })
            })
            .collect();
        let available: Vec<SimDuration> = problem
            .hosts
            .iter()
            .map(|h| problem.horizon - h.boot_penalty.min(problem.horizon))
            .collect();

        let mut this = ScheduleEvaluator {
            problem,
            oracle,
            demands,
            host_of,
            vms_on,
            raw_demand,
            counts,
            at_location,
            loc_slot,
            n_loc_slots,
            available,
            sla: vec![0.0; n_vms],
            revenue: vec![0.0; n_vms],
            migration: vec![0.0; n_vms],
            network: vec![0.0; n_vms],
            energy: vec![0.0; n_hosts],
            revenue_total: 0.0,
            migration_total: 0.0,
            network_total: 0.0,
            energy_total: 0.0,
        };

        for vi in 0..n_vms {
            let hi = this.host_of[vi];
            let total = this.host_total(hi);
            this.sla[vi] = this.vm_sla(vi, hi, &total);
            this.revenue[vi] = this.vm_revenue(this.sla[vi], hi);
            let (mig, net) = this.vm_move_costs(vi, hi);
            this.migration[vi] = mig;
            this.network[vi] = net;
        }
        for hi in 0..n_hosts {
            this.energy[hi] = this.host_energy(hi, &this.host_total(hi), this.counts[hi]);
        }
        this.revenue_total = this.revenue.iter().sum();
        this.migration_total = this.migration.iter().sum();
        this.network_total = this.network.iter().sum();
        this.energy_total = this.energy.iter().sum();
        this
    }

    /// Net profit of the current assignment, €.
    #[inline]
    pub fn profit_eur(&self) -> f64 {
        self.revenue_total - self.energy_total - self.migration_total - self.network_total
    }

    /// `(revenue, energy, migration, network)` totals, €.
    pub fn components(&self) -> (f64, f64, f64, f64) {
        (
            self.revenue_total,
            self.energy_total,
            self.migration_total,
            self.network_total,
        )
    }

    /// Current host index of a VM.
    #[inline]
    pub fn host_of(&self, vi: usize) -> usize {
        self.host_of[vi]
    }

    /// Cached believed demand of a VM.
    #[inline]
    pub fn demand(&self, vi: usize) -> &Resources {
        &self.demands[vi]
    }

    /// Believed total on a host (fixed + assigned + hypervisor
    /// overhead), matching `PlacementState::host_demand`.
    #[inline]
    pub fn host_total(&self, hi: usize) -> Resources {
        let mut d = self.raw_demand[hi];
        d.cpu += self.problem.hosts[hi].virt_overhead_cpu_per_vm * self.counts[hi] as f64;
        d
    }

    /// Round-VM indices currently resident on a host. The order is an
    /// artifact of `apply_move`'s swap-removes; callers may only rely on
    /// the contents.
    #[inline]
    pub(crate) fn residents(&self, hi: usize) -> &[usize] {
        &self.vms_on[hi]
    }

    /// Believed raw demand per host (fixed residents + assigned VMs,
    /// excluding hypervisor overhead) — the candidate index's input.
    #[inline]
    pub(crate) fn raw_demands(&self) -> &[Resources] {
        &self.raw_demand
    }

    /// Round-VMs assigned per host — the candidate index's input.
    #[inline]
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The current assignment as a [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule {
            assignment: self
                .host_of
                .iter()
                .map(|&hi| self.problem.hosts[hi].id)
                .collect(),
        }
    }

    /// True when relocating `vi` onto `to` keeps the destination's
    /// believed memory within its RAM capacity. Memory is the one
    /// non-compressible resource — CPU or network overcommit degrades
    /// service, RAM overcommit kills it — so consumers treat this as a
    /// hard feasibility dimension, never a mere penalty. (Hypervisor
    /// overhead is CPU-only, so raw demand is the right accumulator.)
    #[inline]
    pub fn move_fits_memory(&self, vi: usize, to: usize) -> bool {
        const EPS: f64 = 1e-9;
        self.raw_demand[to].mem_mb + self.demands[vi].mem_mb
            <= self.problem.hosts[to].capacity.mem_mb + EPS
    }

    /// The source-host half of relocating `vi`: how its current host's
    /// co-residents' revenue and the host's energy bill change once it
    /// leaves. It reads only that host, so it stays valid until a move
    /// touches the host (no state change, no allocation).
    pub fn leave(&self, vi: usize) -> Departure {
        let from = self.host_of[vi];
        let (from_total, from_count) = self.host_totals_after(from, vi, Removed);
        let mut revenue = 0.0;
        for &w in &self.vms_on[from] {
            if w == vi {
                continue;
            }
            let sla = self.vm_sla(w, from, &from_total);
            revenue += self.vm_revenue(sla, from) - self.revenue[w];
        }
        let energy = self.host_energy(from, &from_total, from_count) - self.energy[from];
        Departure { revenue, energy }
    }

    /// Profit change if `vi` were relocated to `to` (no state change,
    /// no allocation), given its departure from [`Self::leave`]. `to`
    /// must differ from the VM's current host. The terms accumulate in
    /// one fixed order — departure revenue, destination residents, the
    /// moved VM, its migration and network charges, source energy, then
    /// destination energy — so a cached departure scores bit-identically
    /// to a fresh one.
    pub fn move_gain(&self, vi: usize, to: usize, departure: &Departure) -> f64 {
        debug_assert_ne!(
            self.host_of[vi], to,
            "move_gain requires an actual relocation"
        );
        let (to_total, to_count) = self.host_totals_after(to, vi, Added);

        // Revenue deltas for every VM whose host total changed.
        let mut delta = departure.revenue;
        for &w in &self.vms_on[to] {
            let sla = self.vm_sla(w, to, &to_total);
            delta += self.vm_revenue(sla, to) - self.revenue[w];
        }
        let moved_sla = self.vm_sla(vi, to, &to_total);
        delta += self.vm_revenue(moved_sla, to) - self.revenue[vi];

        // The moved VM's migration + network charges follow its host.
        let (mig, net) = self.vm_move_costs(vi, to);
        delta -= (mig - self.migration[vi]) + (net - self.network[vi]);

        // Source and destination energy.
        delta -= departure.energy;
        delta -= self.host_energy(to, &to_total, to_count) - self.energy[to];
        delta
    }

    /// Commits the relocation of `vi` to `to`, updating every cached
    /// term the move touches (the two hosts' demand is adjusted in
    /// place — no O(V·H) rebuild).
    pub fn apply_move(&mut self, vi: usize, to: usize) {
        let from = self.host_of[vi];
        debug_assert_ne!(from, to, "apply_move requires an actual relocation");

        // Re-home the VM.
        let pos = self.vms_on[from]
            .iter()
            .position(|&w| w == vi)
            .expect("resident list");
        self.vms_on[from].swap_remove(pos);
        self.vms_on[to].push(vi);
        self.host_of[vi] = to;
        let d = self.demands[vi];
        self.raw_demand[from] -= d;
        self.raw_demand[to] += d;
        self.counts[from] -= 1;
        self.counts[to] += 1;

        // Refresh both hosts' dependent terms.
        let from_total = self.host_total(from);
        let to_total = self.host_total(to);
        for hi in [from, to] {
            let total = if hi == from { from_total } else { to_total };
            for idx in 0..self.vms_on[hi].len() {
                let w = self.vms_on[hi][idx];
                let sla = self.vm_sla(w, hi, &total);
                let rev = self.vm_revenue(sla, hi);
                self.revenue_total += rev - self.revenue[w];
                self.sla[w] = sla;
                self.revenue[w] = rev;
            }
            let e = self.host_energy(hi, &total, self.counts[hi]);
            self.energy_total += e - self.energy[hi];
            self.energy[hi] = e;
        }

        let (mig, net) = self.vm_move_costs(vi, to);
        self.migration_total += mig - self.migration[vi];
        self.network_total += net - self.network[vi];
        self.migration[vi] = mig;
        self.network[vi] = net;
    }

    // ------------------------------------------------------------------
    // Term computation (each mirrors one clause of `evaluate_schedule`).
    // ------------------------------------------------------------------

    /// `vi`'s location-dependent terms at host `hi`'s location.
    #[inline]
    fn at_location(&self, vi: usize, hi: usize) -> &AtLocation {
        &self.at_location[vi * self.n_loc_slots + self.loc_slot[hi]]
    }

    #[inline]
    fn vm_sla(&self, vi: usize, hi: usize, host_total: &Resources) -> f64 {
        self.oracle.sla(
            &self.problem.vms[vi],
            &self.problem.hosts[hi],
            host_total,
            self.at_location(vi, hi).transport,
        )
    }

    #[inline]
    fn vm_revenue(&self, sla: f64, hi: usize) -> f64 {
        self.problem.billing.revenue(sla, self.available[hi])
    }

    /// Migration penalty and network charges of hosting `vi` on `hi` —
    /// independent of co-location, read from the per-location table.
    /// The VM's current host is the one host there that moves nothing.
    #[inline]
    fn vm_move_costs(&self, vi: usize, hi: usize) -> (f64, f64) {
        let at = self.at_location(vi, hi);
        if self.problem.vms[vi].current_pm == Some(self.problem.hosts[hi].id) {
            (0.0, at.traffic)
        } else {
            at.moved
        }
    }

    /// Energy cost of `hi` at the given believed total and resident
    /// count (0 € when the host ends the round empty and unpowered).
    fn host_energy(&self, hi: usize, host_total: &Resources, count: usize) -> f64 {
        let host = &self.problem.hosts[hi];
        if host.fixed_vm_count == 0 && count == 0 {
            return 0.0;
        }
        host.power.facility_watts(host_total.cpu) * self.problem.horizon.as_hours_f64() / 1000.0
            * host.energy_eur_kwh
    }

    /// Host `hi`'s believed total and count after removing/adding `vi`.
    fn host_totals_after(&self, hi: usize, vi: usize, dir: MoveDir) -> (Resources, usize) {
        let host = &self.problem.hosts[hi];
        let mut raw = self.raw_demand[hi];
        let count = match dir {
            Removed => {
                raw -= self.demands[vi];
                self.counts[hi] - 1
            }
            Added => {
                raw += self.demands[vi];
                self.counts[hi] + 1
            }
        };
        raw.cpu += host.virt_overhead_cpu_per_vm * count as f64;
        (raw, count)
    }
}

/// One VM's terms that depend on its host only through the host's
/// location, priced once per location at construction.
#[derive(Clone, Copy, Debug)]
struct AtLocation {
    /// Weighted transport latency from the VM's clients, s.
    transport: f64,
    /// Client-traffic charges over the horizon, €.
    traffic: f64,
    /// `(migration, network)` charges of a move onto a host here.
    moved: (f64, f64),
}

impl AtLocation {
    /// A location slot no host occupies; never read.
    const ABSENT: AtLocation = AtLocation {
        transport: f64::NAN,
        traffic: f64::NAN,
        moved: (f64::NAN, f64::NAN),
    };

    fn price(problem: &Problem, vm: &VmInfo, loc: LocationId) -> Self {
        let traffic = client_traffic_eur(vm, loc, &problem.net, problem.horizon);
        AtLocation {
            transport: weighted_transport_secs(&vm.flows, loc, &problem.net),
            traffic,
            moved: match move_cost(problem, vm, loc) {
                Some(cost) => (cost.migration_eur, traffic + cost.image_eur),
                None => (0.0, traffic),
            },
        }
    }
}

/// The destination-independent half of a relocation's gain: see
/// [`ScheduleEvaluator::leave`].
#[derive(Clone, Copy, Debug)]
pub struct Departure {
    /// Co-residents' revenue change, summed from 0 in resident order.
    revenue: f64,
    /// Source host's energy change.
    energy: f64,
}

impl Departure {
    /// True when both terms carry identical bits.
    pub(crate) fn same_bits(&self, other: &Departure) -> bool {
        self.revenue.to_bits() == other.revenue.to_bits()
            && self.energy.to_bits() == other.energy.to_bits()
    }
}

/// Direction of a tentative single-VM adjustment on one host.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MoveDir {
    Removed,
    Added,
}
use MoveDir::{Added, Removed};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;
    use crate::profit::evaluate_schedule;
    use pamdc_infra::ids::PmId;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_full_evaluation_at_construction() {
        for (vms, hosts, rps) in [(1usize, 1usize, 30.0), (4, 4, 120.0), (6, 8, 400.0)] {
            let p = problem(vms, hosts, rps);
            let o = TrueOracle::new();
            let s = crate::bestfit::best_fit(&p, &o, crate::index::IndexMode::Exact).schedule;
            let full = evaluate_schedule(&p, &o, &s);
            let inc = ScheduleEvaluator::new(&p, &o, &s);
            assert!(
                close(inc.profit_eur(), full.profit_eur),
                "{} vs {}",
                inc.profit_eur(),
                full.profit_eur
            );
            let (rev, energy, mig, net) = inc.components();
            assert!(close(rev, full.revenue_eur));
            assert!(close(energy, full.energy_eur));
            assert!(close(mig, full.migration_eur));
            assert!(close(net, full.network_eur));
        }
    }

    #[test]
    fn move_gain_matches_full_reevaluation() {
        // Every (VM, host) pair, scored from one departure per VM, under
        // the true and the learned oracle. Destinations of every shape:
        // plain empty hosts (3, 6), host 4 as VM 1's original host (no
        // migration term there), host 5 holding fixed residents only and
        // host 1 holding fixed residents beside round VMs. VM 2 is
        // homeless.
        let mut p = problem(5, 7, 150.0);
        p.vms[1].current_pm = Some(PmId(4));
        p.vms[1].current_location = Some(p.hosts[4].location);
        p.vms[2].current_pm = None;
        p.vms[2].current_location = None;
        for hi in [1, 5] {
            p.hosts[hi].fixed_demand = Resources::new(30.0, 256.0, 0.0, 0.0);
            p.hosts[hi].fixed_vm_count = 2;
            p.hosts[hi].powered_on = true;
            p.hosts[hi].boot_penalty = SimDuration::ZERO;
        }
        let s = Schedule {
            assignment: vec![PmId(0), PmId(0), PmId(1), PmId(1), PmId(2)],
        };
        let ml = crate::oracle::MlOracle::new(crate::problem::synthetic::ml_suite());
        let oracles: [&dyn QosOracle; 2] = [&TrueOracle::new(), &ml];
        for o in oracles {
            let inc = ScheduleEvaluator::new(&p, o, &s);
            let base = evaluate_schedule(&p, o, &s).profit_eur;
            for vi in 0..p.vms.len() {
                let departure = inc.leave(vi);
                for hi in 0..p.hosts.len() {
                    if inc.host_of(vi) == hi {
                        continue;
                    }
                    let mut moved = s.clone();
                    moved.assignment[vi] = p.hosts[hi].id;
                    let full_gain = evaluate_schedule(&p, o, &moved).profit_eur - base;
                    let inc_gain = inc.move_gain(vi, hi, &departure);
                    assert!(
                        close(inc_gain, full_gain),
                        "{}: vm {vi} -> host {hi}: incremental {inc_gain} vs full {full_gain}",
                        o.name()
                    );
                }
            }
        }
    }

    #[test]
    fn apply_move_keeps_cache_consistent() {
        let p = problem(5, 8, 200.0);
        let o = TrueOracle::new();
        let s = crate::baselines::round_robin(&p);
        let mut inc = ScheduleEvaluator::new(&p, &o, &s);
        // Walk a few arbitrary (valid) moves and re-check against the
        // full evaluation each time.
        let moves = [(0usize, 5usize), (2, 5), (0, 3), (4, 0)];
        for &(vi, hi) in &moves {
            if inc.host_of(vi) == hi {
                continue;
            }
            let predicted = inc.profit_eur() + inc.move_gain(vi, hi, &inc.leave(vi));
            inc.apply_move(vi, hi);
            assert!(close(inc.profit_eur(), predicted));
            let full = evaluate_schedule(&p, &o, &inc.schedule()).profit_eur;
            assert!(
                close(inc.profit_eur(), full),
                "after move {vi}->{hi}: cached {} vs full {full}",
                inc.profit_eur()
            );
        }
    }

    #[test]
    fn schedule_roundtrips() {
        let p = problem(3, 4, 100.0);
        let o = TrueOracle::new();
        let s = crate::baselines::round_robin(&p);
        let inc = ScheduleEvaluator::new(&p, &o, &s);
        assert_eq!(inc.schedule(), s);
    }
}
