//! Descending Best-Fit — the paper's Algorithm 1.
//!
//! VMs are ordered by decreasing believed demand, then each is placed on
//! the host with the highest marginal profit. The profit function carries
//! all the trade-offs (SLA revenue, migration penalty, energy, latency),
//! so the same algorithm expresses plain BF, BF-OB and BF-ML purely by
//! swapping the [`QosOracle`].
//!
//! Following the paper's optimisations, hosts where the VM cannot fit
//! (under the oracle's believed demand) are preferred against; only when
//! no host fits is the least-bad overflow placement chosen — constraint 1
//! (every VM placed) outranks constraint 2 when the system is simply out
//! of capacity, which is exactly what happens during the Figure 6 flash
//! crowd. Overflow placements still honor memory as a hard dimension
//! where possible: a host whose RAM holds the VM outranks any
//! RAM-overcommitted one, because CPU/network contention degrades
//! gracefully while memory exhaustion does not.
//!
//! Candidates come from the bucketed free-capacity
//! [`CandidateIndex`](crate::index::CandidateIndex): one representative
//! is scored per host-equivalence group, which is the paper's §IV-C
//! "considering only once identical empty host machines" made exact.
//! The literal Algorithm 1 scan lives in [`crate::reference`], the
//! oracle `tests/shortlist_equivalence.rs` holds this module to.

use crate::index::IndexMode;
use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};
use crate::profit::{marginal_profit, PlacementScore, PlacementState};
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::resources::Resources;

/// Outcome of one Best-Fit run.
#[derive(Clone, Debug)]
pub struct BestFitResult {
    /// The chosen schedule.
    pub schedule: Schedule,
    /// Per-VM scores at decision time (problem-VM indexing).
    pub scores: Vec<PlacementScore>,
    /// VMs that did not fit anywhere under believed demand and were
    /// overflow-placed.
    pub overflow_count: usize,
    /// `marginal_profit` evaluations performed — the work metric the
    /// candidate index exists to shrink (full scan: VMs × hosts).
    pub scored_candidates: usize,
}

/// Algorithm 1's `order_by_demand(..., desc)` — VMs by decreasing
/// believed demand, normalized against the largest host so the
/// components are commensurable — after the input checks.
pub(crate) fn descending_order(problem: &Problem, demands: &[Resources]) -> Vec<usize> {
    assert!(
        !problem.hosts.is_empty(),
        "best-fit needs at least one candidate host"
    );
    assert_eq!(
        demands.len(),
        problem.vms.len(),
        "one believed demand per VM"
    );
    let reference = problem
        .hosts
        .iter()
        .map(|h| h.capacity)
        .fold(Resources::ZERO, |acc, c| acc.max(&c));
    let mut order: Vec<usize> = (0..problem.vms.len()).collect();
    order.sort_by(|&a, &b| {
        let da = demands[a].normalized_magnitude(&reference);
        let db = demands[b].normalized_magnitude(&reference);
        db.partial_cmp(&da).expect("finite demands").then(a.cmp(&b))
    });
    order
}

pub(crate) fn zero_scores(n: usize) -> Vec<PlacementScore> {
    vec![
        PlacementScore {
            sla: 0.0,
            revenue_eur: 0.0,
            migration_eur: 0.0,
            energy_eur: 0.0,
            network_eur: 0.0,
        };
        n
    ]
}

/// Tallied per call, flushed once — overflow is rare, but the counters
/// stay off the placement hot path entirely.
pub(crate) fn flush_overflow_counters(overflow_count: usize, mem_tier_hits: u64) {
    if overflow_count > 0 {
        pamdc_obs::metrics::add(pamdc_obs::Counter::BestfitOverflow, overflow_count as u64);
        pamdc_obs::metrics::add(pamdc_obs::Counter::BestfitMemTierFallback, mem_tier_hits);
    }
}

/// Replaces `best` when `cand` scores strictly higher profit, or ties it
/// with a lower host index — exactly the winner the ascending full scan's
/// strict `>` comparison keeps (first host attaining the maximum).
fn take_better(best: &mut Option<(usize, PlacementScore)>, cand: (usize, PlacementScore)) {
    let replace = match best {
        None => true,
        Some((bi, bs)) => {
            cand.1.profit() > bs.profit() || (cand.1.profit() == bs.profit() && cand.0 < *bi)
        }
    };
    if replace {
        *best = Some(cand);
    }
}

/// Runs descending Best-Fit over the problem under the oracle's beliefs.
///
/// Per VM, candidate groups come from a range scan of the index instead
/// of the full fleet. In [`IndexMode::Exact`] each group is scored once
/// through its lowest-indexed member not currently hosting the VM (all
/// members share the score bit-for-bit; the current host is scored
/// individually because its profit carries no migration term), so the
/// schedule, scores and overflow count equal those of
/// [`crate::reference::best_fit_full_scan`] on any input. [`IndexMode::Near`] scores up to `top_k` members of each
/// coarse group instead — **approximate**: the shortlist may miss the
/// true best host.
pub fn best_fit(problem: &Problem, oracle: &dyn QosOracle, mode: IndexMode) -> BestFitResult {
    pamdc_obs::metrics::add(pamdc_obs::Counter::BestfitCalls, 1);
    let _span = pamdc_obs::span!("bestfit_index");
    let demands: Vec<Resources> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();
    let order = descending_order(problem, &demands);
    // Members scored per group: the exact index's groups are
    // bit-identical, so one representative speaks for all of them.
    let (near, per_group) = match mode {
        IndexMode::Exact => (false, 1),
        IndexMode::Near { top_k } => (true, top_k.max(1)),
    };

    let mut state = PlacementState::with_candidate_index(problem, mode);
    let mut near_groups: u64 = 0;
    let mut assignment = vec![problem.hosts[0].id; problem.vms.len()];
    let mut scores = zero_scores(problem.vms.len());
    let mut overflow_count = 0;
    let mut mem_tier_hits: u64 = 0;
    let mut scored_candidates = 0;

    // Hot per-VM placement state, hoisted: the current-host index and
    // the per-location transport are computed once per VM (or per
    // location) and read by every candidate.
    let current_host_idx: Vec<Option<usize>> = problem
        .vms
        .iter()
        .map(|vm| vm.current_pm.and_then(|pm| problem.host_index(pm)))
        .collect();
    let max_loc = problem
        .hosts
        .iter()
        .map(|h| h.location.index())
        .max()
        .expect("at least one host");
    // Per-location transport scratch, refilled lazily per VM.
    let mut transport: Vec<f64> = vec![f64::NAN; max_loc + 1];

    for &vm_idx in &order {
        let demand = demands[vm_idx];
        let cur = current_host_idx[vm_idx];
        transport.iter_mut().for_each(|t| *t = f64::NAN);
        let mut score = |state: &PlacementState, host_idx: usize| -> PlacementScore {
            let loc = problem.hosts[host_idx].location;
            let mut t = transport[loc.index()];
            if t.is_nan() {
                t = weighted_transport_secs(&problem.vms[vm_idx].flows, loc, &problem.net);
                transport[loc.index()] = t;
            }
            scored_candidates += 1;
            marginal_profit(problem, oracle, state, vm_idx, host_idx, demand, t)
        };

        let mut best_fit_choice: Option<(usize, PlacementScore)> = None;
        let mut stay_choice: Option<(usize, PlacementScore)> = None;

        // Phase 1: hosts that fit. The range scan may yield groups that
        // only bucket-fit; each candidate's exact check settles it.
        let index = state.candidate_index().expect("index enabled");
        for members in index.fitting_groups(&demand) {
            near_groups += u64::from(near);
            for &hi in members
                .iter()
                .filter(|&&hi| Some(hi) != cur)
                .take(per_group)
            {
                if state.fits(problem, hi, &demand) {
                    take_better(&mut best_fit_choice, (hi, score(&state, hi)));
                }
            }
        }
        if let Some(cur_hi) = cur {
            if state.fits(problem, cur_hi, &demand) {
                let s = score(&state, cur_hi);
                stay_choice = Some((cur_hi, s));
                take_better(&mut best_fit_choice, (cur_hi, s));
            }
        }

        // Hysteresis: staying put wins unless the challenger clears the
        // stickiness margin. Without it, per-tick load noise flips
        // near-tied profit comparisons and the fleet churns (migrations
        // are far more expensive in reality than in expectation).
        if let (Some((stay_hi, stay_score)), Some((best_hi, best_score))) =
            (&stay_choice, &best_fit_choice)
        {
            if best_hi != stay_hi
                && best_score.profit() - stay_score.profit() <= problem.stickiness_eur
            {
                best_fit_choice = stay_choice;
            }
        }

        let (host_idx, chosen) = match best_fit_choice {
            Some(choice) => choice,
            None => {
                // Overflow: nothing fits, so constraint 1 (every VM
                // placed) outranks capacity. Score every group and keep
                // two tiers: a host whose RAM still holds the VM beats
                // any RAM-overcommitted one — memory is the one resource
                // contention cannot stretch.
                overflow_count += 1;
                let mut best_mem_ok: Option<(usize, PlacementScore)> = None;
                let mut best_any: Option<(usize, PlacementScore)> = None;
                let index = state.candidate_index().expect("index enabled");
                let others = index.all_groups().flat_map(|members| {
                    near_groups += u64::from(near);
                    members
                        .iter()
                        .copied()
                        .filter(|&hi| Some(hi) != cur)
                        .take(per_group)
                });
                for hi in others.chain(cur) {
                    let s = score(&state, hi);
                    if state.fits_memory(problem, hi, &demand) {
                        take_better(&mut best_mem_ok, (hi, s));
                    }
                    take_better(&mut best_any, (hi, s));
                }
                if best_mem_ok.is_some() {
                    mem_tier_hits += 1;
                }
                best_mem_ok.or(best_any).expect("at least one host")
            }
        };
        state.assign(problem, host_idx, demand);
        assignment[vm_idx] = problem.hosts[host_idx].id;
        scores[vm_idx] = chosen;
    }

    flush_overflow_counters(overflow_count, mem_tier_hits);
    if near_groups > 0 {
        pamdc_obs::metrics::add(pamdc_obs::Counter::IndexNearShortlistHits, near_groups);
    }
    let schedule = Schedule { assignment };
    schedule.validate(problem);
    BestFitResult {
        schedule,
        scores,
        overflow_count,
        scored_candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MonitorOracle, TrueOracle};
    use crate::problem::synthetic::problem;
    use crate::profit::evaluate_schedule;
    use pamdc_infra::ids::PmId;

    fn exact(p: &Problem, o: &dyn QosOracle) -> BestFitResult {
        best_fit(p, o, IndexMode::Exact)
    }

    #[test]
    fn light_load_consolidates_onto_current_host() {
        // 3 light VMs already on host 0 with *local* clients; migrating
        // or powering more hosts would only cost.
        let mut p = problem(3, 4, 20.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        let r = exact(&p, &TrueOracle::new());
        assert_eq!(r.schedule.assignment, vec![PmId(0); 3]);
        assert_eq!(r.schedule.migration_count(&p), 0);
        assert_eq!(r.overflow_count, 0);
    }

    #[test]
    fn heavy_load_deconsolidates() {
        // 4 heavy VMs cannot share one Atom; the true oracle spreads them.
        let p = problem(4, 4, 500.0);
        let r = exact(&p, &TrueOracle::new());
        let distinct: std::collections::BTreeSet<_> = r.schedule.assignment.iter().collect();
        assert!(
            distinct.len() >= 3,
            "heavy VMs must spread: {:?}",
            r.schedule.assignment
        );
    }

    #[test]
    fn respects_capacity_when_possible() {
        let p = problem(6, 6, 300.0);
        let o = TrueOracle::new();
        let r = exact(&p, &o);
        assert_eq!(r.overflow_count, 0);
        // Believed demand per host fits capacity.
        let per_host = r.schedule.demand_per_host(&p, |vm| o.demand(vm));
        for (d, h) in per_host.iter().zip(&p.hosts) {
            assert!(d.fits_within(&h.capacity), "{d:?} on {:?}", h.capacity);
        }
    }

    #[test]
    fn overflow_still_places_everyone() {
        // 10 giant VMs, 1 host: everything overflows but is placed.
        let p = problem(10, 1, 700.0);
        let r = exact(&p, &TrueOracle::new());
        assert_eq!(r.schedule.assignment.len(), 10);
        assert!(r.overflow_count > 0);
    }

    #[test]
    fn beats_or_matches_naive_spread_on_profit() {
        let p = problem(4, 4, 120.0);
        let o = TrueOracle::new();
        let bf = exact(&p, &o);
        let spread = Schedule {
            assignment: (0..4).map(PmId::from_index).collect(),
        };
        let bf_eval = evaluate_schedule(&p, &o, &bf.schedule);
        let spread_eval = evaluate_schedule(&p, &o, &spread);
        assert!(
            bf_eval.profit_eur >= spread_eval.profit_eur - 1e-9,
            "best-fit {} vs naive {}",
            bf_eval.profit_eur,
            spread_eval.profit_eur
        );
    }

    #[test]
    fn plain_bf_overconsolidates_versus_true_oracle() {
        // The paper's §V-B story. Under contention, monitors under-report:
        // halve the observed usage relative to truth.
        let mut p = problem(4, 4, 450.0);
        for vm in &mut p.vms {
            vm.observed_usage = vm.observed_usage * 0.4;
        }
        let plain = exact(&p, &MonitorOracle::plain());
        let truth = exact(&p, &TrueOracle::new());
        let hosts_plain: std::collections::BTreeSet<_> = plain.schedule.assignment.iter().collect();
        let hosts_truth: std::collections::BTreeSet<_> = truth.schedule.assignment.iter().collect();
        assert!(
            hosts_plain.len() <= hosts_truth.len(),
            "plain BF must use no more hosts than the informed scheduler"
        );
        // And the informed schedule achieves better (estimated-true) SLA.
        let o = TrueOracle::new();
        let e_plain = evaluate_schedule(&p, &o, &plain.schedule);
        let e_truth = evaluate_schedule(&p, &o, &truth.schedule);
        assert!(e_truth.mean_sla() >= e_plain.mean_sla());
    }

    #[test]
    fn deterministic_given_same_input() {
        let p = problem(5, 4, 200.0);
        let a = exact(&p, &TrueOracle::new());
        let b = exact(&p, &TrueOracle::new());
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn index_agrees_with_the_full_scan_and_scores_fewer_candidates() {
        let p = problem(30, 80, 180.0);
        let o = TrueOracle::new();
        let indexed = exact(&p, &o);
        let full = crate::reference::best_fit_full_scan(&p, &o);
        assert_eq!(indexed.schedule, full.schedule);
        assert_eq!(indexed.scores, full.scores);
        assert_eq!(indexed.overflow_count, full.overflow_count);
        assert!(
            indexed.scored_candidates < full.scored_candidates / 2,
            "index must shrink the scored-candidate count: {} vs {}",
            indexed.scored_candidates,
            full.scored_candidates
        );
    }
}
