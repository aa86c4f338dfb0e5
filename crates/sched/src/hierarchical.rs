//! The two-layer hierarchical scheduler — the paper's main contribution
//! (§III-B, §IV-C).
//!
//! Multi-DC systems decentralize: "each DC deals with its VMs and
//! resources, bringing to the global scheduler information about the
//! offered or tentative host where each VM may be placed". Concretely,
//! each round:
//!
//! 1. **Intra-DC pass** — every datacenter runs Descending Best-Fit over
//!    its own VMs and hosts (consolidating or deconsolidating locally).
//! 2. **Narrow interface** — each DC publishes (a) the VMs whose
//!    estimated QoS stays poor even after the local pass (they "could
//!    improve if moved across DCs") and (b) its hosts with headroom,
//!    identical empty machines deduplicated.
//! 3. **Global pass** — one Best-Fit over the published candidates and
//!    offers, whose profit function sees inter-DC latency, energy-price
//!    differences and migration blackouts.
//!
//! The global pass overrides the intra-DC choice only for the VMs it was
//! given — everything else never leaves its DC, which is what keeps the
//! round cheap ("this approach largely reduces solving cost").
//!
//! The intra-DC passes are independent by construction (each sees only
//! its own DC's VMs and hosts), so step 1 fans the per-DC shards out
//! through [`pamdc_simcore::par::parallel_map`]. Results are merged in
//! DC order and each shard's Best-Fit is deterministic, so a round is
//! bit-identical at any worker count — cross-DC delocation still happens
//! only in the global pass over the shard summaries, exactly as before.

use crate::bestfit::best_fit;
use crate::filter::{hosts_worth_offering, reduced_problem, vms_needing_attention};
use crate::index::IndexMode;
use crate::localsearch::{improve_schedule, LocalSearchConfig};
use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};
use crate::profit::BelievedTotals;
use pamdc_infra::ids::{DcId, LocationId, PmId};
use pamdc_infra::resources::Resources;
use std::collections::BTreeMap;

/// Hierarchical scheduler configuration.
#[derive(Clone, Debug)]
pub struct HierarchicalConfig {
    /// Whole-schedule consolidation pass (None disables it). This is the
    /// global manager's final word: single-VM relocations accepted only
    /// when the full objective — including idle hosts emptied and
    /// migration blackouts — strictly improves.
    pub local_search: Option<LocalSearchConfig>,
    /// Candidate-index grouping for every solver pass of the round
    /// (intra-DC shards, global pass, fallback, consolidation).
    pub index_mode: IndexMode,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            local_search: Some(LocalSearchConfig::default()),
            index_mode: IndexMode::Exact,
        }
    }
}

/// Statistics of one hierarchical round (for the paper's scalability
/// discussion).
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// VMs handled purely intra-DC.
    pub intra_vms: usize,
    /// VMs escalated to the global pass.
    pub global_vms: usize,
    /// Hosts offered to the global pass.
    pub offered_hosts: usize,
    /// Moves applied by the consolidation pass.
    pub consolidation_moves: usize,
    /// Per-DC shards the intra-DC pass fanned out over.
    pub shards: usize,
}

/// Runs one full hierarchical round.
pub fn hierarchical_round(
    problem: &Problem,
    oracle: &dyn QosOracle,
    cfg: &HierarchicalConfig,
) -> (Schedule, RoundStats) {
    let _span = pamdc_obs::span!("hier");
    // Believed demand per VM: queried once here, shared by both filters
    // and by every sub-problem's fixed-demand folding. (A VM's believed
    // demand does not depend on its placement, so the vector stays
    // valid all round.)
    let demands: Vec<Resources> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();

    // ------------------------------------------------------------------
    // 1. Intra-DC pass: group VMs by the DC of their current host.
    // ------------------------------------------------------------------
    let mut assignment: Vec<Option<_>> = vec![None; problem.vms.len()];
    let mut by_dc: BTreeMap<DcId, Vec<usize>> = BTreeMap::new();
    let mut homeless: Vec<usize> = Vec::new();
    for (vi, vm) in problem.vms.iter().enumerate() {
        match vm.current_pm.and_then(|pm| problem.host_index(pm)) {
            Some(hi) => by_dc.entry(problem.hosts[hi].dc).or_default().push(vi),
            None => homeless.push(vi),
        }
    }

    // Each DC's pass reads only shared immutable state, so the shards
    // run in parallel; merging in input (= DC) order keeps the round
    // bit-identical to the old sequential loop at any worker count.
    let shards: Vec<(DcId, Vec<usize>)> = by_dc.into_iter().collect();
    let shard_count = shards.len();
    let current_pm: Vec<Option<PmId>> = problem.vms.iter().map(|vm| vm.current_pm).collect();
    let current_loc: Vec<Option<LocationId>> =
        problem.vms.iter().map(|vm| vm.current_location).collect();
    let shard_results = {
        let _intra = pamdc_obs::span!("intra");
        pamdc_simcore::par::parallel_map(shards, |(dc, vm_indices)| {
            // Worker threads inherit the round's span path, so this
            // nests as `.../hier/intra/dc<N>` in a traced run.
            let _shard = pamdc_obs::span::enter_dyn(|| format!("dc{}", dc.0));
            let host_indices: Vec<usize> = (0..problem.hosts.len())
                .filter(|&hi| problem.hosts[hi].dc == dc)
                .collect();
            let (sub, mapping) = reduced_problem(
                problem,
                &demands,
                &vm_indices,
                &host_indices,
                &current_pm,
                &current_loc,
            );
            let result = best_fit(&sub, oracle, cfg.index_mode);
            (mapping, result.schedule.assignment)
        })
    };
    for (mapping, shard_assignment) in shard_results {
        for (sub_vi, &orig_vi) in mapping.iter().enumerate() {
            assignment[orig_vi] = Some(shard_assignment[sub_vi]);
        }
    }

    // Effective post-local placement: the current placement overridden
    // by the intra-DC outcome (so the global filter judges the
    // *post-local* situation, as the paper specifies). Held as per-VM
    // vectors — a placement-only snapshot — instead of cloning and
    // rewriting the whole `Problem` (hosts, VMs, profiles), which at
    // fleet scale cost more than the passes it fed.
    let (mut eff_pm, mut eff_loc) = (current_pm, current_loc);
    for (vi, slot) in assignment.iter().enumerate() {
        if let Some(pm) = slot {
            eff_pm[vi] = Some(*pm);
            if let Some(hi) = problem.host_index(*pm) {
                eff_loc[vi] = Some(problem.hosts[hi].location);
            }
        }
    }
    let eff_host: Vec<Option<usize>> = eff_pm
        .iter()
        .map(|pm| pm.and_then(|pm| problem.host_index(pm)))
        .collect();

    // ------------------------------------------------------------------
    // 2. Narrow interface: candidates + offers. Both filters judge the
    //    post-local placement over one shared believed-totals snapshot.
    // ------------------------------------------------------------------
    let interface_span = pamdc_obs::span!("interface");
    let believed = BelievedTotals::from_placement(problem, demands.clone(), &eff_host);
    let mut candidates = vms_needing_attention(problem, oracle, &believed, &eff_host);
    for vi in homeless {
        if !candidates.contains(&vi) {
            candidates.push(vi);
        }
    }
    candidates.sort_unstable();
    let offers = hosts_worth_offering(problem, &believed);
    drop(interface_span);

    let stats = RoundStats {
        intra_vms: problem.vms.len() - candidates.len(),
        global_vms: candidates.len(),
        offered_hosts: offers.len(),
        consolidation_moves: 0,
        shards: shard_count,
    };

    // ------------------------------------------------------------------
    // 3. Global pass (skipped when nobody needs it).
    // ------------------------------------------------------------------
    if !candidates.is_empty() && !offers.is_empty() {
        let _global = pamdc_obs::span!("global");
        let (sub, mapping) =
            reduced_problem(problem, &demands, &candidates, &offers, &eff_pm, &eff_loc);
        let result = best_fit(&sub, oracle, cfg.index_mode);
        for (sub_vi, &orig_vi) in mapping.iter().enumerate() {
            assignment[orig_vi] = Some(result.schedule.assignment[sub_vi]);
        }
    }

    // Any VM still unassigned (e.g. homeless with no offers) falls back
    // to a plain global Best-Fit over everything.
    if assignment.iter().any(Option::is_none) {
        let _fallback = pamdc_obs::span!("fallback");
        let fallback = best_fit(problem, oracle, cfg.index_mode);
        for (vi, slot) in assignment.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(fallback.schedule.assignment[vi]);
            }
        }
    }

    let mut schedule = Schedule {
        assignment: assignment
            .into_iter()
            .map(|s| s.expect("all placed"))
            .collect(),
    };
    schedule.validate(problem);

    // ------------------------------------------------------------------
    // 4. Consolidation pass: the global manager's energy sweep.
    // ------------------------------------------------------------------
    let mut stats = stats;
    if let Some(ls) = &cfg.local_search {
        let _consolidate = pamdc_obs::span!("consolidate");
        let (improved, moves) = improve_schedule(problem, oracle, schedule, ls, cfg.index_mode);
        schedule = improved;
        stats.consolidation_moves = moves;
    }

    // Round-boundary counter flush: one add per field, mirroring
    // `RoundStats` into the metrics registry.
    use pamdc_obs::{metrics, Counter};
    metrics::add(Counter::HierRounds, 1);
    metrics::add(Counter::HierShards, stats.shards as u64);
    metrics::add(Counter::HierOfferedHosts, stats.offered_hosts as u64);
    metrics::add(Counter::HierGlobalVms, stats.global_vms as u64);
    metrics::add(
        Counter::HierConsolidationMoves,
        stats.consolidation_moves as u64,
    );
    (schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;
    use crate::profit::evaluate_schedule;
    use pamdc_infra::ids::PmId;

    /// 8 hosts = 2 per DC (fixture assigns round-robin i%4), 4 VMs all
    /// currently crushed onto host 0.
    fn crushed() -> Problem {
        let mut p = problem(4, 8, 420.0);
        for vm in &mut p.vms {
            vm.current_pm = Some(PmId(0));
        }
        p
    }

    #[test]
    fn light_load_never_escalates() {
        let mut p = problem(3, 8, 20.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        let (schedule, stats) = hierarchical_round(&p, &TrueOracle::new(), &Default::default());
        assert_eq!(stats.global_vms, 0, "healthy VMs must stay intra-DC");
        assert_eq!(schedule.migration_count(&p), 0);
    }

    #[test]
    fn overload_escalates_and_improves() {
        let p = crushed();
        let o = TrueOracle::new();
        let (schedule, stats) = hierarchical_round(&p, &o, &Default::default());
        let stay = crate::baselines::static_schedule(&p, &o);
        let e_dyn = evaluate_schedule(&p, &o, &schedule);
        let e_stat = evaluate_schedule(&p, &o, &stay);
        assert!(stats.global_vms > 0, "crushed VMs must escalate");
        assert!(
            e_dyn.mean_sla() > e_stat.mean_sla(),
            "hierarchical {} must beat static {}",
            e_dyn.mean_sla(),
            e_stat.mean_sla()
        );
    }

    #[test]
    fn local_headroom_is_used_before_going_global() {
        // 2 heavy VMs on host 0; host 4 is the empty twin in the SAME dc.
        // The intra-DC pass alone can fix this — the global round should
        // see no candidates.
        let mut p = problem(2, 8, 380.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            vm.current_pm = Some(PmId(0));
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        let (schedule, stats) = hierarchical_round(&p, &TrueOracle::new(), &Default::default());
        assert_eq!(stats.global_vms, 0, "local deconsolidation suffices");
        let used: std::collections::BTreeSet<_> = schedule.assignment.iter().collect();
        // Both hosts used are in DC 0 (indices 0 and 4 -> i%4 == 0).
        for pm in used {
            assert_eq!(p.hosts[p.host_index(*pm).unwrap()].dc, p.hosts[0].dc);
        }
    }

    #[test]
    fn homeless_vms_get_placed() {
        let mut p = problem(3, 8, 100.0);
        for vm in &mut p.vms {
            vm.current_pm = None;
            vm.current_location = None;
        }
        let (schedule, stats) = hierarchical_round(&p, &TrueOracle::new(), &Default::default());
        assert_eq!(schedule.assignment.len(), 3);
        assert_eq!(stats.global_vms, 3);
    }

    #[test]
    fn intra_pass_shards_per_dc_and_merges_deterministically() {
        // Residents spread over all 8 hosts → all 4 DCs have a shard.
        let mut p = problem(8, 8, 150.0);
        for (i, vm) in p.vms.iter_mut().enumerate() {
            vm.current_pm = Some(PmId(i as u32));
            vm.current_location = Some(p.hosts[i].location);
        }
        let o = TrueOracle::new();
        let (a, stats) = hierarchical_round(&p, &o, &Default::default());
        assert_eq!(stats.shards, 4, "one shard per DC with residents");
        let (b, _) = hierarchical_round(&p, &o, &Default::default());
        assert_eq!(a, b, "parallel shard merge must stay deterministic");
    }

    #[test]
    fn round_is_deterministic() {
        let p = crushed();
        let o = TrueOracle::new();
        let (a, _) = hierarchical_round(&p, &o, &Default::default());
        let (b, _) = hierarchical_round(&p, &o, &Default::default());
        assert_eq!(a, b);
    }
}
