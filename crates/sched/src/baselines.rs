//! Baseline scheduling policies the paper compares against (or that its
//! sanity checks exercise).
//!
//! * [`static_schedule`] — the "Static-Global" scenario of Figure 7 /
//!   Table III: VMs never leave their current host; DCs only forward
//!   client traffic.
//! * [`follow_the_load`] — the Figure 5 sanity check: profit reduced to
//!   client proximity only, so each VM chases its dominant load source
//!   around the planet.
//! * [`round_robin`] — a deliberately bad spread-everything baseline.
//! * [`cheapest_energy`] — consolidate everything toward the lowest
//!   tariff (the degenerate "energy-only" policy, the opposite sanity
//!   check the paper mentions).

use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};
use crate::profit::PlacementState;
use pamdc_infra::gateway::weighted_transport_secs;

/// Keep every VM where it is. VMs without a current host (entering the
/// system) are first-fit placed near their heaviest load source.
pub fn static_schedule(problem: &Problem, oracle: &dyn QosOracle) -> Schedule {
    let mut state = PlacementState::new(problem);
    let mut assignment = Vec::with_capacity(problem.vms.len());
    for vm in &problem.vms {
        let host_idx = match vm.current_pm.and_then(|pm| problem.host_index(pm)) {
            Some(hi) => hi,
            None => nearest_feasible_host(problem, oracle, &state, vm),
        };
        state.assign(problem, host_idx, oracle.demand(vm));
        assignment.push(problem.hosts[host_idx].id);
    }
    Schedule { assignment }
}

/// Pure client-proximity packing: each VM goes to the feasible host with
/// the lowest request-weighted transport latency (ties: lower host id).
/// Energy and migration costs are deliberately ignored — the paper's
/// "follow the load" sanity check.
pub fn follow_the_load(problem: &Problem, oracle: &dyn QosOracle) -> Schedule {
    let mut state = PlacementState::new(problem);
    let mut assignment = Vec::with_capacity(problem.vms.len());
    for vm in &problem.vms {
        let host_idx = nearest_feasible_host(problem, oracle, &state, vm);
        state.assign(problem, host_idx, oracle.demand(vm));
        assignment.push(problem.hosts[host_idx].id);
    }
    Schedule { assignment }
}

fn nearest_feasible_host(
    problem: &Problem,
    oracle: &dyn QosOracle,
    state: &PlacementState,
    vm: &crate::problem::VmInfo,
) -> usize {
    let demand = oracle.demand(vm);
    let latency =
        |hi: usize| weighted_transport_secs(&vm.flows, problem.hosts[hi].location, &problem.net);
    let feasible: Vec<usize> = (0..problem.hosts.len())
        .filter(|&hi| state.fits(problem, hi, &demand))
        .collect();
    let pool: Vec<usize> = if feasible.is_empty() {
        (0..problem.hosts.len()).collect()
    } else {
        feasible
    };
    pool.into_iter()
        .min_by(|&a, &b| {
            latency(a)
                .partial_cmp(&latency(b))
                .expect("finite")
                .then(a.cmp(&b))
        })
        .expect("at least one host")
}

/// Round-robin across hosts, ignoring capacity (a deliberately bad
/// spread-everything baseline).
pub fn round_robin(problem: &Problem) -> Schedule {
    let assignment = (0..problem.vms.len())
        .map(|i| problem.hosts[i % problem.hosts.len()].id)
        .collect();
    Schedule { assignment }
}

/// Consolidate toward the cheapest electricity: hosts sorted by tariff,
/// fill each before opening the next.
pub fn cheapest_energy(problem: &Problem, oracle: &dyn QosOracle) -> Schedule {
    let mut host_order: Vec<usize> = (0..problem.hosts.len()).collect();
    host_order.sort_by(|&a, &b| {
        problem.hosts[a]
            .energy_eur_kwh
            .partial_cmp(&problem.hosts[b].energy_eur_kwh)
            .expect("finite tariffs")
            .then(a.cmp(&b))
    });
    let mut state = PlacementState::new(problem);
    let mut assignment = Vec::with_capacity(problem.vms.len());
    for vm in &problem.vms {
        let demand = oracle.demand(vm);
        let host_idx = host_order
            .iter()
            .copied()
            .find(|&hi| state.fits(problem, hi, &demand))
            .unwrap_or(host_order[0]);
        state.assign(problem, host_idx, demand);
        assignment.push(problem.hosts[host_idx].id);
    }
    Schedule { assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;
    use pamdc_infra::ids::PmId;

    #[test]
    fn static_keeps_everyone_home() {
        let p = problem(4, 4, 100.0);
        let s = static_schedule(&p, &TrueOracle::new());
        assert_eq!(s.assignment, vec![PmId(0); 4]);
        assert_eq!(s.migration_count(&p), 0);
    }

    #[test]
    fn static_places_newcomers() {
        let mut p = problem(2, 4, 100.0);
        p.vms[1].current_pm = None;
        p.vms[1].current_location = None;
        let s = static_schedule(&p, &TrueOracle::new());
        assert_eq!(s.assignment.len(), 2);
        assert_eq!(s.assignment[0], PmId(0));
    }

    #[test]
    fn follow_the_load_goes_to_the_clients() {
        // Fixture VM i has all its clients in city i%4, and host i sits
        // in city i%4: follow-the-load sends each VM to "its" host.
        let p = problem(4, 4, 50.0);
        let s = follow_the_load(&p, &TrueOracle::new());
        assert_eq!(
            s.assignment,
            vec![PmId(0), PmId(1), PmId(2), PmId(3)],
            "each VM must sit with its clients"
        );
    }

    #[test]
    fn follow_the_load_respects_capacity() {
        // 6 heavy VMs all loving host 0's city, but only 4 hosts: the
        // packer must spill to other hosts rather than crush host 0.
        let mut p = problem(6, 4, 400.0);
        for vm in &mut p.vms {
            let home = p.hosts[0].location;
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        let o = TrueOracle::new();
        let s = follow_the_load(&p, &o);
        let per_host = s.demand_per_host(&p, |vm| o.demand(vm));
        // At most one host may be overloaded (the final fallback), and
        // only if nothing fit.
        let overloaded = per_host
            .iter()
            .zip(&p.hosts)
            .filter(|(d, h)| !d.fits_within(&h.capacity))
            .count();
        assert!(overloaded <= 1, "spill must respect capacity: {overloaded}");
    }

    #[test]
    fn round_robin_spreads() {
        let p = problem(4, 4, 50.0);
        let s = round_robin(&p);
        assert_eq!(s.assignment, vec![PmId(0), PmId(1), PmId(2), PmId(3)]);
    }

    #[test]
    fn cheapest_energy_prefers_boston() {
        // Boston (host 3 in the fixture) has the lowest tariff.
        let p = problem(2, 4, 50.0);
        let s = cheapest_energy(&p, &TrueOracle::new());
        assert_eq!(s.assignment, vec![PmId(3), PmId(3)]);
    }
}
