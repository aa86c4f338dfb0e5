//! Exact branch-and-bound solver.
//!
//! The paper reports that exhaustive MILP solving (GUROBI) "required
//! several minutes to schedule 10 jobs among 40 candidate hosts", which
//! is what pushed it to the Best-Fit heuristic. This module reproduces
//! that comparison point: an optimal solver whose cost explodes with
//! problem size, benchmarked against the heuristic in
//! `benches/solver_scaling.rs`.
//!
//! The search assigns VMs one at a time (most-demanding first, mirroring
//! the heuristic's order) and prunes with an admissible bound: the best
//! already-banked profit plus, for every unassigned VM, the maximum
//! revenue it could possibly earn (SLA = 1, no migration, no marginal
//! energy).

use crate::oracle::QosOracle;
use crate::problem::{Problem, Schedule};
use crate::profit::{evaluate_schedule, marginal_profit, PlacementState, ScheduleEval};
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::resources::Resources;

/// Result of an exact search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The optimal schedule found.
    pub schedule: Schedule,
    /// Its full evaluation.
    pub eval: ScheduleEval,
    /// Search nodes expanded (the scaling metric).
    pub nodes_expanded: u64,
}

/// Outcome of a budgeted exact search.
///
/// The solver's cost is exponential in the VM count, so callers that run
/// it on sized-up instances (the scaling experiment, ad-hoc
/// benchmarking) must bound it. Exhausting the budget is reported
/// loudly rather than silently returning the incumbent as "optimal".
#[derive(Clone, Debug)]
pub enum ExactOutcome {
    /// The search ran to completion; the result is provably optimal.
    Optimal(ExactResult),
    /// The node budget ran out before the search space was exhausted.
    BudgetExhausted {
        /// Nodes expanded before giving up (≈ the budget).
        nodes_expanded: u64,
        /// Best complete schedule found so far, if any reached depth n.
        /// It is a feasible answer but carries no optimality claim.
        incumbent: Option<ExactResult>,
    },
}

impl ExactOutcome {
    /// The result, insisting the search completed.
    ///
    /// Panics on [`ExactOutcome::BudgetExhausted`] — use this only where
    /// an exhausted budget means the experiment configuration is wrong.
    pub fn expect_optimal(self) -> ExactResult {
        match self {
            ExactOutcome::Optimal(r) => r,
            ExactOutcome::BudgetExhausted { nodes_expanded, .. } => panic!(
                "exact search exhausted its node budget after {nodes_expanded} nodes; \
                 raise the budget or shrink the instance"
            ),
        }
    }
}

/// Exhaustive branch-and-bound over all `hosts^vms` assignments, with a
/// hard cap on expanded search nodes (`u64::MAX` for none).
///
/// Feasibility (believed demand within capacity) is enforced during the
/// search; when the whole instance is infeasible the solver falls back to
/// allowing overflow placements so constraint 1 still holds. The budget
/// spans the entire call, including that overflow re-run. When it runs
/// out the search stops immediately and the best complete schedule seen
/// so far (if any) is returned as a non-optimal incumbent; callers that
/// need the optimum call [`ExactOutcome::expect_optimal`].
pub fn branch_and_bound(
    problem: &Problem,
    oracle: &dyn QosOracle,
    node_budget: u64,
) -> ExactOutcome {
    let _span = pamdc_obs::span!("bnb");
    assert!(!problem.hosts.is_empty(), "need at least one host");
    let n = problem.vms.len();
    let demands: Vec<Resources> = problem.vms.iter().map(|vm| oracle.demand(vm)).collect();

    // Most-demanding-first ordering tightens the bound early.
    let reference = problem
        .hosts
        .iter()
        .map(|h| h.capacity)
        .fold(Resources::ZERO, |acc, c| acc.max(&c));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let da = demands[a].normalized_magnitude(&reference);
        let db = demands[b].normalized_magnitude(&reference);
        db.partial_cmp(&da).expect("finite").then(a.cmp(&b))
    });

    // Optimistic per-VM profit cap: full revenue, zero costs.
    let max_rev = problem.billing.revenue(1.0, problem.horizon);

    struct Search<'a> {
        problem: &'a Problem,
        oracle: &'a dyn QosOracle,
        demands: &'a [Resources],
        order: &'a [usize],
        max_rev: f64,
        best_profit: f64,
        best_assignment: Vec<usize>,
        nodes: u64,
        node_budget: u64,
        exhausted: bool,
        allow_overflow: bool,
    }

    impl Search<'_> {
        fn dfs(
            &mut self,
            depth: usize,
            state: &mut PlacementState,
            current: &mut Vec<usize>,
            banked: f64,
        ) {
            if self.exhausted {
                return;
            }
            if self.nodes >= self.node_budget {
                self.exhausted = true;
                return;
            }
            self.nodes += 1;
            if depth == self.order.len() {
                // Score the complete assignment with the *final*
                // co-location (placement-time SLAs in `banked` are an
                // optimistic bound: adding VMs later only degrades
                // earlier estimates, energy telescopes exactly and
                // migration terms are placement-independent).
                let mut assignment = vec![self.problem.hosts[0].id; self.order.len()];
                for (d, &host_idx) in current.iter().enumerate() {
                    assignment[self.order[d]] = self.problem.hosts[host_idx].id;
                }
                let eval = evaluate_schedule(self.problem, self.oracle, &Schedule { assignment });
                if eval.profit_eur > self.best_profit {
                    self.best_profit = eval.profit_eur;
                    self.best_assignment = current.clone();
                }
                return;
            }
            // Admissible bound: banked + optimistic remainder.
            let remaining = (self.order.len() - depth) as f64;
            if banked + remaining * self.max_rev <= self.best_profit {
                return;
            }
            let vm_idx = self.order[depth];
            for host_idx in 0..self.problem.hosts.len() {
                let fits = state.fits(self.problem, host_idx, &self.demands[vm_idx]);
                if !fits && !self.allow_overflow {
                    continue;
                }
                let host = &self.problem.hosts[host_idx];
                let flows = &self.problem.vms[vm_idx].flows;
                let transport = weighted_transport_secs(flows, host.location, &self.problem.net);
                let demand = self.demands[vm_idx];
                let score = marginal_profit(
                    self.problem,
                    self.oracle,
                    state,
                    vm_idx,
                    host_idx,
                    demand,
                    transport,
                );
                let mut next = state.clone();
                next.assign(self.problem, host_idx, self.demands[vm_idx]);
                current.push(host_idx);
                self.dfs(depth + 1, &mut next, current, banked + score.profit());
                current.pop();
            }
        }
    }

    let mut search = Search {
        problem,
        oracle,
        demands: &demands,
        order: &order,
        max_rev,
        best_profit: f64::NEG_INFINITY,
        best_assignment: Vec::new(),
        nodes: 0,
        node_budget,
        exhausted: false,
        allow_overflow: false,
    };
    let mut state = PlacementState::new(problem);
    let mut current = Vec::with_capacity(n);
    search.dfs(0, &mut state, &mut current, 0.0);

    if search.best_assignment.is_empty() && n > 0 && !search.exhausted {
        // Infeasible under capacity: re-run allowing overflow. The node
        // budget is shared across both passes.
        search.allow_overflow = true;
        search.best_profit = f64::NEG_INFINITY;
        let mut state = PlacementState::new(problem);
        let mut current = Vec::with_capacity(n);
        search.dfs(0, &mut state, &mut current, 0.0);
    }

    if search.best_assignment.is_empty() && n > 0 {
        // Budget died before any complete schedule was reached.
        pamdc_obs::metrics::add(pamdc_obs::Counter::ExactBudgetExhausted, 1);
        return ExactOutcome::BudgetExhausted {
            nodes_expanded: search.nodes,
            incumbent: None,
        };
    }

    // Translate the depth-ordered assignment back to problem-VM indexing.
    let mut assignment = vec![problem.hosts[0].id; n];
    for (depth, &host_idx) in search.best_assignment.iter().enumerate() {
        assignment[order[depth]] = problem.hosts[host_idx].id;
    }
    let schedule = Schedule { assignment };
    schedule.validate(problem);
    let eval = evaluate_schedule(problem, oracle, &schedule);
    let result = ExactResult {
        schedule,
        eval,
        nodes_expanded: search.nodes,
    };
    if search.exhausted {
        pamdc_obs::metrics::add(pamdc_obs::Counter::ExactBudgetExhausted, 1);
        ExactOutcome::BudgetExhausted {
            nodes_expanded: search.nodes,
            incumbent: Some(result),
        }
    } else {
        ExactOutcome::Optimal(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestfit::best_fit;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;

    #[test]
    fn optimal_at_least_as_good_as_heuristic() {
        for (vms, hosts, rps) in [(3, 3, 120.0), (4, 3, 300.0), (2, 4, 500.0)] {
            let p = problem(vms, hosts, rps);
            let o = TrueOracle::new();
            let exact = branch_and_bound(&p, &o, u64::MAX).expect_optimal();
            let heur = best_fit(&p, &o, crate::index::IndexMode::Exact);
            let heur_eval = evaluate_schedule(&p, &o, &heur.schedule);
            assert!(
                exact.eval.profit_eur >= heur_eval.profit_eur - 1e-9,
                "exact {} < heuristic {} on ({vms},{hosts},{rps})",
                exact.eval.profit_eur,
                heur_eval.profit_eur
            );
        }
    }

    #[test]
    fn tiny_instance_enumerates_correctly() {
        // 2 VMs × 2 hosts = 4 assignments; brute-force check.
        let p = problem(2, 2, 200.0);
        let o = TrueOracle::new();
        let exact = branch_and_bound(&p, &o, u64::MAX).expect_optimal();
        let mut best = f64::NEG_INFINITY;
        for a in 0..2 {
            for b in 0..2 {
                let s = Schedule {
                    assignment: vec![p.hosts[a].id, p.hosts[b].id],
                };
                best = best.max(evaluate_schedule(&p, &o, &s).profit_eur);
            }
        }
        assert!((exact.eval.profit_eur - best).abs() < 1e-9);
    }

    #[test]
    fn infeasible_instance_still_places_all() {
        let p = problem(6, 1, 700.0);
        let o = TrueOracle::new();
        let exact = branch_and_bound(&p, &o, u64::MAX).expect_optimal();
        assert_eq!(exact.schedule.assignment.len(), 6);
    }

    #[test]
    fn budget_exhaustion_is_loud_and_carries_the_incumbent() {
        let p = problem(6, 4, 150.0);
        let o = TrueOracle::new();
        let full = branch_and_bound(&p, &o, u64::MAX).expect_optimal();
        assert!(full.nodes_expanded > 50, "want a non-trivial search");
        // A budget far below the full search must report exhaustion.
        match branch_and_bound(&p, &o, full.nodes_expanded / 2) {
            ExactOutcome::BudgetExhausted {
                nodes_expanded,
                incumbent,
            } => {
                assert!(nodes_expanded <= full.nodes_expanded / 2 + 1);
                if let Some(inc) = incumbent {
                    // Any incumbent is a valid (if sub-optimal) schedule.
                    assert!(inc.eval.profit_eur <= full.eval.profit_eur + 1e-9);
                }
            }
            ExactOutcome::Optimal(_) => panic!("half the nodes cannot prove optimality"),
        }
        // A generous budget reproduces the unbudgeted answer exactly.
        match branch_and_bound(&p, &o, full.nodes_expanded * 2) {
            ExactOutcome::Optimal(r) => assert_eq!(r.schedule, full.schedule),
            ExactOutcome::BudgetExhausted { .. } => panic!("budget was sufficient"),
        }
    }

    #[test]
    fn tiny_budget_on_infeasible_instance_reports_no_incumbent() {
        // Infeasible instance + budget too small to even finish the
        // feasibility pass: no incumbent exists, and that is reported
        // rather than panicking or fabricating a schedule.
        let p = problem(6, 1, 700.0);
        let o = TrueOracle::new();
        match branch_and_bound(&p, &o, 3) {
            ExactOutcome::BudgetExhausted { incumbent, .. } => assert!(incumbent.is_none()),
            ExactOutcome::Optimal(_) => panic!("3 nodes cannot solve 6 VMs"),
        }
    }

    #[test]
    fn node_count_grows_with_instance_size() {
        let o = TrueOracle::new();
        let small = branch_and_bound(&problem(3, 3, 150.0), &o, u64::MAX).expect_optimal();
        let large = branch_and_bound(&problem(6, 4, 150.0), &o, u64::MAX).expect_optimal();
        assert!(
            large.nodes_expanded > small.nodes_expanded,
            "{} vs {}",
            large.nodes_expanded,
            small.nodes_expanded
        );
    }
}
