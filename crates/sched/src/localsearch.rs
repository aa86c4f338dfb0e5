//! Profit-improving local search — the consolidation pass.
//!
//! Descending Best-Fit places VMs one at a time with marginal profit, so
//! it cannot see gains that only materialize when a host *empties* (its
//! idle draw disappears). The paper's observed behaviour — "when a
//! potential VM move does not bring any improvement in SLA or energy
//! use, the VM either stays in its DC or is consolidated"; "energy
//! consumption pushes for consolidation into the DC with cheapest
//! energy (see the low load moments)" — needs exactly that whole-schedule
//! view.
//!
//! [`improve_schedule`] runs steepest-ascent single-VM relocation over
//! the full objective (which prices emptied hosts correctly and charges
//! migration blackouts), accepting only strictly improving moves.
//! Because every accepted move must beat its own migration penalty, the
//! pass is self-damping — no churn.
//!
//! The pass is incremental: a move from host `a` to host `b` only
//! changes the gains of pairs *touching* `a` or `b`. It keeps, per VM,
//! the best qualifying candidate move, and after an accepted move
//! re-scores only (1) VMs resident on the two touched hosts (their
//! cached revenue changed, so every gain of theirs is stale), (2) other
//! VMs' candidates *toward* the touched hosts, and (3) VMs whose stored
//! best aimed at a touched host. Every score starts from the VM's cached
//! [`Departure`] (the source-host half of its gain): the pass prices all
//! departures once per round and, after each accepted move, re-prices
//! only those of the two touched hosts' residents, before their rescans
//! — a departure reads only its VM's own host, and a move changes only
//! those two. Debug builds check every cached departure against a fresh
//! one after each move. Per-VM rescans shortlist destinations
//! through the bucketed [`crate::index::CandidateIndex`] instead of
//! scanning all hosts: groups failing the (group-uniform) memory and
//! headroom guards are skipped wholesale with one check, and empty
//! groups are scored through one representative. The literal
//! full-rescan loop lives in [`crate::reference`], the oracle
//! `tests/localsearch_equivalence.rs` holds this module to.

use crate::evaluator::{Departure, ScheduleEvaluator};
use crate::index::{CandidateIndex, IndexMode};
use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};

/// Local-search knobs.
#[derive(Clone, Debug)]
pub struct LocalSearchConfig {
    /// Upper bound on accepted moves per round (safety valve; the search
    /// almost always converges earlier).
    pub max_moves: usize,
    /// Minimum € gain for a move to be accepted (keeps estimate noise
    /// from triggering an exchange).
    pub min_gain_eur: f64,
    /// Consolidation headroom: reject moves that push the destination
    /// host's believed utilisation (dominant share) above this. The
    /// schedule holds for a whole round while load drifts and jitters;
    /// packing to 100% of the *current* estimate trades real SLA for
    /// estimated energy.
    pub max_util_after_move: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_moves: 16,
            min_gain_eur: 1e-6,
            max_util_after_move: 0.45,
        }
    }
}

/// Work tallies of one incremental run, flushed into the metrics
/// registry once at the end.
#[derive(Default)]
struct IncStats {
    /// `move_gain` evaluations.
    rescored: u64,
    /// Gains that cleared the acceptance threshold.
    cleared: u64,
    /// Full per-VM shortlist rebuilds.
    vm_rescans: u64,
    /// Candidate-index host re-keyings.
    index_updates: u64,
    /// Groups scored through the near-equivalence relaxation.
    near_groups: u64,
}

/// Steepest-ascent single-VM relocation until no move clears the gain
/// threshold. Returns the improved schedule and the number of moves
/// applied. In [`IndexMode::Exact`] the result is bit-identical to
/// [`crate::reference::improve_schedule_reference`] on any input
/// (property-tested; the work counters differ because the paths do
/// different work). [`IndexMode::Near`] shortlists up to `top_k`
/// members per coarse group — approximate.
pub fn improve_schedule(
    problem: &Problem,
    oracle: &dyn QosOracle,
    schedule: Schedule,
    cfg: &LocalSearchConfig,
    mode: IndexMode,
) -> (Schedule, usize) {
    let _span = pamdc_obs::span!("localsearch");
    let mut eval = ScheduleEvaluator::new(problem, oracle, &schedule);
    let n_vms = problem.vms.len();
    let mut index = CandidateIndex::new(problem, eval.raw_demands(), eval.counts(), mode);
    let mut stats = IncStats::default();

    // departures[vi] = the source half of every move of `vi`, priced
    // once here and refreshed only when a move touches the VM's host.
    let mut departures: Vec<Departure> = (0..n_vms).map(|vi| eval.leave(vi)).collect();

    // best[vi] = the VM's best qualifying move (destination, gain):
    // passes the memory and headroom guards, clears the gain threshold,
    // ties broken toward the lowest host index — exactly the candidate
    // the reference scan would keep for that VM.
    let mut best: Vec<Option<(usize, f64)>> = (0..n_vms)
        .map(|vi| rescan_vm(problem, &eval, &index, cfg, vi, &departures[vi], &mut stats))
        .collect();

    let mut moves = 0usize;
    while moves < cfg.max_moves {
        // Steepest candidate overall; ties toward the lowest VM index
        // reproduce the reference scan's first-strict-maximum pick.
        let mut winner: Option<(usize, usize, f64)> = None;
        for (vi, slot) in best.iter().enumerate() {
            if let Some((hi, g)) = *slot {
                if winner.as_ref().is_none_or(|&(_, _, wg)| g > wg) {
                    winner = Some((vi, hi, g));
                }
            }
        }
        let Some((vi, to, _)) = winner else { break };
        let from = eval.host_of(vi);
        eval.apply_move(vi, to);
        moves += 1;
        index.update_host(problem, from, eval.raw_demands()[from], eval.counts()[from]);
        index.update_host(problem, to, eval.raw_demands()[to], eval.counts()[to]);
        stats.index_updates += 2;

        // (1) VMs now resident on the touched hosts (including the moved
        // one): their cached revenue changed, so their departures and all
        // their gains are stale — re-price the departures, then rebuild
        // their shortlists. No other departure reads a touched host.
        let mut touched: Vec<usize> = eval.residents(from).to_vec();
        touched.extend_from_slice(eval.residents(to));
        for &w in &touched {
            departures[w] = eval.leave(w);
        }
        debug_assert!(
            departures
                .iter()
                .enumerate()
                .all(|(w, d)| d.same_bits(&eval.leave(w))),
            "a cached departure went stale"
        );
        for &w in &touched {
            best[w] = rescan_vm(problem, &eval, &index, cfg, w, &departures[w], &mut stats);
        }

        // (2) Every other VM: only its candidates *toward* the touched
        // hosts changed. A stored best on an untouched host is still the
        // exact maximum over untouched destinations (their gains are
        // bit-unchanged), so merging the two recomputed candidates keeps
        // it exact; a stored best *on* a touched host leaves the
        // untouched maximum unknown, forcing a full rescan.
        for (w, slot) in best.iter_mut().enumerate() {
            let wh = eval.host_of(w);
            if wh == from || wh == to {
                continue;
            }
            if let Some((bh, _)) = *slot {
                if bh == from || bh == to {
                    *slot = rescan_vm(problem, &eval, &index, cfg, w, &departures[w], &mut stats);
                    continue;
                }
            }
            for h in [from, to] {
                if h != wh {
                    if let Some(g) =
                        qualified_gain(problem, &eval, cfg, w, h, &departures[w], &mut stats)
                    {
                        merge(slot, h, g);
                    }
                }
            }
        }
    }

    pamdc_obs::metrics::add(pamdc_obs::Counter::LocalsearchMovesAccepted, moves as u64);
    pamdc_obs::metrics::add(
        pamdc_obs::Counter::LocalsearchMovesRejected,
        stats.cleared.saturating_sub(moves as u64),
    );
    pamdc_obs::metrics::add(
        pamdc_obs::Counter::LocalsearchCandidatesRescored,
        stats.rescored,
    );
    pamdc_obs::metrics::add(pamdc_obs::Counter::LocalsearchVmRescans, stats.vm_rescans);
    pamdc_obs::metrics::add(
        pamdc_obs::Counter::LocalsearchIndexUpdates,
        stats.index_updates,
    );
    if stats.near_groups > 0 {
        pamdc_obs::metrics::add(
            pamdc_obs::Counter::IndexNearShortlistHits,
            stats.near_groups,
        );
    }
    (eval.schedule(), moves)
}

/// Keeps `slot` holding the maximum-gain candidate, ties toward the
/// lowest host index — the winner the reference's ascending strict-`>`
/// scan keeps.
fn merge(slot: &mut Option<(usize, f64)>, hi: usize, gain: f64) {
    let replace = match slot {
        None => true,
        Some((bh, bg)) => gain > *bg || (gain == *bg && hi < *bh),
    };
    if replace {
        *slot = Some((hi, gain));
    }
}

/// Full guard chain for one (VM, destination) pair, in the reference
/// loop's order: memory, headroom, then the gain threshold.
fn qualified_gain(
    problem: &Problem,
    eval: &ScheduleEvaluator,
    cfg: &LocalSearchConfig,
    vi: usize,
    hi: usize,
    departure: &Departure,
    stats: &mut IncStats,
) -> Option<f64> {
    if !eval.move_fits_memory(vi, hi) {
        return None;
    }
    let host = &problem.hosts[hi];
    let mut after = eval.host_total(hi);
    after += *eval.demand(vi);
    after.cpu += host.virt_overhead_cpu_per_vm;
    if after.dominant_share(&host.capacity) > cfg.max_util_after_move {
        return None;
    }
    gain_only(eval, cfg, vi, hi, departure, stats)
}

/// The gain threshold alone — for destinations whose guards were already
/// settled group-wide.
fn gain_only(
    eval: &ScheduleEvaluator,
    cfg: &LocalSearchConfig,
    vi: usize,
    hi: usize,
    departure: &Departure,
    stats: &mut IncStats,
) -> Option<f64> {
    stats.rescored += 1;
    let gain = eval.move_gain(vi, hi, departure);
    if gain > cfg.min_gain_eur {
        stats.cleared += 1;
        Some(gain)
    } else {
        None
    }
}

/// Rebuilds one VM's best qualifying candidate through the index
/// shortlist. Exact mode skips guard-failing groups with one check
/// (memory fit, headroom and — for empty groups — the gain itself are
/// group-uniform) and scores occupied groups member-by-member; near mode
/// scores up to `top_k` members per group with per-member guards.
fn rescan_vm(
    problem: &Problem,
    eval: &ScheduleEvaluator,
    index: &CandidateIndex,
    cfg: &LocalSearchConfig,
    vi: usize,
    departure: &Departure,
    stats: &mut IncStats,
) -> Option<(usize, f64)> {
    stats.vm_rescans += 1;
    let from = eval.host_of(vi);
    // The one member whose gain differs within an empty group: the VM's
    // original (pre-round) host carries no migration term. `None` when
    // the VM is homeless or its home is off-problem — then no member is
    // special.
    let orig = problem.vms[vi]
        .current_pm
        .and_then(|pm| problem.host_index(pm));
    let demand = eval.demand(vi);
    let mut best: Option<(usize, f64)> = None;

    // The bucket range scan is only a sound prefilter while the headroom
    // cap keeps destinations within capacity: a group is range-skipped
    // only when the demand overflows its members' free capacity, which
    // implies a dominant share above 1.0. A cap above 1.0 admits such
    // destinations, so fall back to scanning every group.
    let scan_all = cfg.max_util_after_move > 1.0;

    let mut scan = |members: &[usize]| {
        match index.mode() {
            IndexMode::Exact => {
                // Guards are group-uniform (same class, count and demand
                // bits): one check settles the whole group. `from` may
                // serve as the probe — its guard answer matches its
                // twins' — but is never a destination.
                let probe = members[0];
                if !eval.move_fits_memory(vi, probe) {
                    return;
                }
                let host = &problem.hosts[probe];
                let mut after = eval.host_total(probe);
                after += *demand;
                after.cpu += host.virt_overhead_cpu_per_vm;
                if after.dominant_share(&host.capacity) > cfg.max_util_after_move {
                    return;
                }
                if eval.counts()[probe] == 0 && eval.residents(probe).is_empty() {
                    // Empty group: every member's gain is the same bits,
                    // except the VM's original host (no migration term).
                    // `from` holds the VM, so it is never in this group.
                    if let Some(rep) = members.iter().copied().find(|&hi| Some(hi) != orig) {
                        if let Some(g) = gain_only(eval, cfg, vi, rep, departure, stats) {
                            merge(&mut best, rep, g);
                        }
                    }
                    if let Some(oh) = orig {
                        if members.binary_search(&oh).is_ok() {
                            if let Some(g) = gain_only(eval, cfg, vi, oh, departure, stats) {
                                merge(&mut best, oh, g);
                            }
                        }
                    }
                } else {
                    // Occupied group: the destination's residents are
                    // re-scored inside `move_gain`, so gains differ per
                    // member — score each.
                    for &hi in members {
                        if hi == from {
                            continue;
                        }
                        if let Some(g) = gain_only(eval, cfg, vi, hi, departure, stats) {
                            merge(&mut best, hi, g);
                        }
                    }
                }
            }
            IndexMode::Near { top_k } => {
                // Members only share buckets, not bits: per-member
                // guards, bounded to the first `top_k` members.
                stats.near_groups += 1;
                for &hi in members.iter().filter(|&&hi| hi != from).take(top_k) {
                    if let Some(g) = qualified_gain(problem, eval, cfg, vi, hi, departure, stats) {
                        merge(&mut best, hi, g);
                    }
                }
            }
        }
    };

    if scan_all {
        for members in index.all_groups() {
            scan(members);
        }
    } else {
        for members in index.fitting_groups(demand) {
            scan(members);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;
    use crate::profit::evaluate_schedule;
    use crate::reference::improve_schedule_reference;
    use pamdc_infra::ids::PmId;

    #[test]
    fn consolidates_idle_spread_for_energy() {
        // Two feather-light VMs spread over two same-DC hosts with local
        // clients: merging them empties a host and saves its idle draw.
        let mut p = problem(2, 8, 10.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        // VM1 starts on host 4 (host 0's same-DC twin), both powered.
        p.vms[1].current_pm = Some(PmId(4));
        p.hosts[4].powered_on = true;
        p.hosts[4].boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        let o = TrueOracle::new();
        let spread = Schedule {
            assignment: vec![PmId(0), PmId(4)],
        };
        let before = evaluate_schedule(&p, &o, &spread);
        let (improved, moves) = improve_schedule(
            &p,
            &o,
            spread,
            &LocalSearchConfig::default(),
            IndexMode::Exact,
        );
        let after = evaluate_schedule(&p, &o, &improved);
        assert!(moves >= 1, "light VMs must consolidate");
        assert!(after.profit_eur > before.profit_eur);
        assert_eq!(after.active_hosts, 1);
    }

    #[test]
    fn never_decreases_profit() {
        for rps in [20.0, 200.0, 500.0] {
            let p = problem(4, 8, rps);
            let o = TrueOracle::new();
            let start = crate::bestfit::best_fit(&p, &o, IndexMode::Exact).schedule;
            let before = evaluate_schedule(&p, &o, &start).profit_eur;
            let (improved, _) = improve_schedule(
                &p,
                &o,
                start,
                &LocalSearchConfig::default(),
                IndexMode::Exact,
            );
            let after = evaluate_schedule(&p, &o, &improved).profit_eur;
            assert!(after >= before - 1e-12, "{after} < {before} at rps {rps}");
        }
    }

    #[test]
    fn leaves_overloaded_spread_alone() {
        // Heavy VMs on distinct hosts: merging would crush SLA, so no
        // move should be accepted.
        let mut p = problem(2, 2, 500.0);
        p.vms[1].current_pm = Some(PmId(1));
        p.hosts[1].powered_on = true;
        p.hosts[1].boot_penalty = pamdc_simcore::time::SimDuration::ZERO;
        let o = TrueOracle::new();
        let spread = Schedule {
            assignment: vec![PmId(0), PmId(1)],
        };
        let (improved, moves) = improve_schedule(
            &p,
            &o,
            spread.clone(),
            &LocalSearchConfig::default(),
            IndexMode::Exact,
        );
        assert_eq!(moves, 0);
        assert_eq!(improved, spread);
    }

    #[test]
    fn respects_move_cap() {
        let p = problem(6, 8, 15.0);
        let o = TrueOracle::new();
        let start = crate::baselines::round_robin(&p);
        let cfg = LocalSearchConfig {
            max_moves: 1,
            ..Default::default()
        };
        let (_, moves) = improve_schedule(&p, &o, start, &cfg, IndexMode::Exact);
        assert!(moves <= 1);
    }

    #[test]
    fn matches_reference_on_small_fleets() {
        for rps in [10.0, 120.0, 420.0] {
            let p = problem(6, 12, rps);
            let o = TrueOracle::new();
            let start = crate::baselines::round_robin(&p);
            let cfg = LocalSearchConfig {
                max_moves: 64,
                ..Default::default()
            };
            let (a, am) = improve_schedule_reference(&p, &o, start.clone(), &cfg);
            let (b, bm) = improve_schedule(&p, &o, start, &cfg, IndexMode::Exact);
            assert_eq!(am, bm, "move counts at rps {rps}");
            assert_eq!(a, b, "schedules at rps {rps}");
        }
    }

    #[test]
    fn matches_reference_on_large_fleets() {
        let p = problem(24, 80, 25.0);
        let o = TrueOracle::new();
        let start = crate::baselines::round_robin(&p);
        let (a, am) = improve_schedule(
            &p,
            &o,
            start.clone(),
            &LocalSearchConfig::default(),
            IndexMode::Exact,
        );
        let (b, bm) = improve_schedule_reference(&p, &o, start, &LocalSearchConfig::default());
        assert_eq!(am, bm);
        assert_eq!(a, b);
    }
}
