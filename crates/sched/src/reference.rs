//! Reference solvers: the literal loops the production paths are held to.
//!
//! [`best_fit_full_scan`] is Algorithm 1 with its O(VMs × hosts) inner
//! loop, and [`improve_schedule_reference`] is steepest ascent with a
//! full (VM, host) rescan after every accepted move. Production planning
//! never calls them: [`crate::bestfit::best_fit`] and
//! [`crate::localsearch::improve_schedule`] answer the same questions
//! through the candidate index, **bit-identically** in exact mode. These
//! stay callable at any size as the oracles of
//! `tests/shortlist_equivalence.rs` and `tests/localsearch_equivalence.rs`
//! and as the baselines the scaling benches time.

use crate::bestfit::{descending_order, flush_overflow_counters, zero_scores, BestFitResult};
use crate::evaluator::ScheduleEvaluator;
use crate::localsearch::LocalSearchConfig;
use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};
use crate::profit::{marginal_profit, PlacementScore, PlacementState};
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::resources::Resources;

/// [`marginal_profit`] of one (VM, host) pair with nothing hoisted: the
/// VM's oracle demand and its transport latency to the host are
/// computed for this pair alone.
pub fn score_pair(
    problem: &Problem,
    oracle: &dyn QosOracle,
    state: &PlacementState,
    vm_idx: usize,
    host_idx: usize,
) -> PlacementScore {
    let vm = &problem.vms[vm_idx];
    let host = &problem.hosts[host_idx];
    let demand = oracle.demand(vm);
    let transport = weighted_transport_secs(&vm.flows, host.location, &problem.net);
    marginal_profit(problem, oracle, state, vm_idx, host_idx, demand, transport)
}

/// Algorithm 1 scoring every (VM, host) pair.
pub fn best_fit_full_scan(problem: &Problem, oracle: &dyn QosOracle) -> BestFitResult {
    let _span = pamdc_obs::span!("bestfit_scan");
    let demands: Vec<Resources> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();
    let order = descending_order(problem, &demands);

    let mut state = PlacementState::new(problem);
    let mut assignment = vec![problem.hosts[0].id; problem.vms.len()];
    let mut scores = zero_scores(problem.vms.len());
    let mut overflow_count = 0;
    let mut mem_tier_hits: u64 = 0;
    let mut scored_candidates = 0;

    let current_host_idx: Vec<Option<usize>> = problem
        .vms
        .iter()
        .map(|vm| vm.current_pm.and_then(|pm| problem.host_index(pm)))
        .collect();

    for &vm_idx in &order {
        let mut best_fit_choice: Option<(usize, PlacementScore)> = None;
        let mut best_any: Option<(usize, PlacementScore)> = None;
        let mut best_mem_ok: Option<(usize, PlacementScore)> = None;
        let mut stay_choice: Option<(usize, PlacementScore)> = None;
        for host_idx in 0..problem.hosts.len() {
            let score = score_pair(problem, oracle, &state, vm_idx, host_idx);
            scored_candidates += 1;
            let fits = state.fits(problem, host_idx, &demands[vm_idx]);
            if fits && current_host_idx[vm_idx] == Some(host_idx) {
                stay_choice = Some((host_idx, score));
            }
            if fits
                && best_fit_choice
                    .as_ref()
                    .is_none_or(|(_, b)| score.profit() > b.profit())
            {
                best_fit_choice = Some((host_idx, score));
            }
            // Overflow fallback tiers: a host whose RAM still holds the
            // VM beats any RAM-overcommitted one.
            if state.fits_memory(problem, host_idx, &demands[vm_idx])
                && best_mem_ok
                    .as_ref()
                    .is_none_or(|(_, b)| score.profit() > b.profit())
            {
                best_mem_ok = Some((host_idx, score));
            }
            if best_any
                .as_ref()
                .is_none_or(|(_, b)| score.profit() > b.profit())
            {
                best_any = Some((host_idx, score));
            }
        }
        // Hysteresis: staying put wins unless the challenger clears the
        // stickiness margin.
        if let (Some((stay_hi, stay_score)), Some((best_hi, best_score))) =
            (&stay_choice, &best_fit_choice)
        {
            if best_hi != stay_hi
                && best_score.profit() - stay_score.profit() <= problem.stickiness_eur
            {
                best_fit_choice = stay_choice;
            }
        }
        let (host_idx, score) = match best_fit_choice {
            Some(choice) => choice,
            None => {
                overflow_count += 1;
                if best_mem_ok.is_some() {
                    mem_tier_hits += 1;
                }
                best_mem_ok.or(best_any).expect("at least one host")
            }
        };
        state.assign(problem, host_idx, demands[vm_idx]);
        assignment[vm_idx] = problem.hosts[host_idx].id;
        scores[vm_idx] = score;
    }

    flush_overflow_counters(overflow_count, mem_tier_hits);
    let schedule = Schedule { assignment };
    schedule.validate(problem);
    BestFitResult {
        schedule,
        scores,
        overflow_count,
        scored_candidates,
    }
}

/// Steepest ascent rescanning every (VM, host) pair after each accepted
/// move.
pub fn improve_schedule_reference(
    problem: &Problem,
    oracle: &dyn QosOracle,
    schedule: Schedule,
    cfg: &LocalSearchConfig,
) -> (Schedule, usize) {
    let _span = pamdc_obs::span!("localsearch");
    let mut eval = ScheduleEvaluator::new(problem, oracle, &schedule);
    let mut moves = 0;
    // Candidates that cleared the gain threshold; all but the applied
    // ones count as rejected.
    let mut cleared: u64 = 0;

    while moves < cfg.max_moves {
        let mut best: Option<(usize, usize, f64)> = None; // (vm, host, gain)
        for vi in 0..problem.vms.len() {
            let from = eval.host_of(vi);
            for (hi, host) in problem.hosts.iter().enumerate() {
                if hi == from {
                    continue;
                }
                // Hard feasibility: a move that overcommits the
                // destination's RAM is not a candidate at any gain —
                // memory does not contend, it evicts.
                if !eval.move_fits_memory(vi, hi) {
                    continue;
                }
                // Headroom guard on the destination.
                let mut after = eval.host_total(hi);
                after += *eval.demand(vi);
                after.cpu += host.virt_overhead_cpu_per_vm;
                if after.dominant_share(&host.capacity) > cfg.max_util_after_move {
                    continue;
                }
                let gain = eval.move_gain(vi, hi, &eval.leave(vi));
                if gain > cfg.min_gain_eur {
                    cleared += 1;
                    if best.as_ref().is_none_or(|&(_, _, bg)| gain > bg) {
                        best = Some((vi, hi, gain));
                    }
                }
            }
        }
        match best {
            Some((vi, hi, _)) => {
                eval.apply_move(vi, hi);
                moves += 1;
            }
            None => break,
        }
    }
    pamdc_obs::metrics::add(pamdc_obs::Counter::LocalsearchMovesAccepted, moves as u64);
    pamdc_obs::metrics::add(
        pamdc_obs::Counter::LocalsearchMovesRejected,
        cleared.saturating_sub(moves as u64),
    );
    (eval.schedule(), moves)
}
