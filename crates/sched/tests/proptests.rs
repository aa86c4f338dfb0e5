//! Property-based tests for the scheduling stack: every scheduler, on
//! randomized problem instances, must produce valid schedules and
//! respect the model's invariants.

use pamdc_sched::prelude::*;
use pamdc_sched::problem::synthetic;
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = (usize, usize, f64)> {
    (1usize..8, 1usize..10, 10.0f64..500.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constraint 1 of the paper's program: every VM on exactly one,
    /// existing host — for every scheduler.
    #[test]
    fn all_schedulers_produce_valid_schedules((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracle = TrueOracle::new();
        let schedules = vec![
            best_fit(&p, &oracle, IndexMode::Exact).schedule,
            static_schedule(&p, &oracle),
            follow_the_load(&p, &oracle),
            round_robin(&p),
            cheapest_energy(&p, &oracle),
            hierarchical_round(&p, &oracle, &Default::default()).0,
        ];
        for s in schedules {
            s.validate(&p);
            prop_assert_eq!(s.assignment.len(), vms);
        }
    }

    /// Best-Fit with zero overflow never violates constraint 2 (believed
    /// demand within capacity).
    #[test]
    fn bestfit_respects_capacity_unless_overflowing((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracle = TrueOracle::new();
        let result = best_fit(&p, &oracle, IndexMode::Exact);
        if result.overflow_count == 0 {
            let per_host = result.schedule.demand_per_host(&p, |vm| oracle.demand(vm));
            for (d, h) in per_host.iter().zip(&p.hosts) {
                prop_assert!(
                    d.fits_within(&h.capacity),
                    "believed demand {d:?} exceeds capacity on {}",
                    h.id
                );
            }
        }
    }

    /// The profit decomposition is consistent: evaluate_schedule's total
    /// equals revenue − energy − migration, and SLAs are in [0, 1].
    #[test]
    fn profit_decomposition_consistent((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracle = TrueOracle::new();
        let s = best_fit(&p, &oracle, IndexMode::Exact).schedule;
        let eval = evaluate_schedule(&p, &oracle, &s);
        prop_assert!(
            (eval.profit_eur - (eval.revenue_eur - eval.energy_eur - eval.migration_eur)).abs()
                < 1e-9
        );
        for &sla in &eval.per_vm_sla {
            prop_assert!((0.0..=1.0).contains(&sla), "sla {sla}");
        }
        prop_assert!(eval.energy_eur >= 0.0 && eval.migration_eur >= 0.0);
        prop_assert!(eval.active_hosts <= hosts);
    }

    /// Local search never worsens the objective and always terminates
    /// within its move budget.
    #[test]
    fn local_search_monotone((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracle = TrueOracle::new();
        let start = round_robin(&p);
        let before = evaluate_schedule(&p, &oracle, &start).profit_eur;
        let cfg = LocalSearchConfig::default();
        let (improved, moves) = improve_schedule(&p, &oracle, start, &cfg, IndexMode::Exact);
        let after = evaluate_schedule(&p, &oracle, &improved).profit_eur;
        prop_assert!(after >= before - 1e-9, "{after} < {before}");
        prop_assert!(moves <= cfg.max_moves);
        improved.validate(&p);
    }

    /// Exact branch-and-bound is never beaten by the heuristic (on small
    /// instances where it runs).
    #[test]
    fn exact_dominates_heuristic(vms in 1usize..5, hosts in 1usize..5, rps in 50.0f64..400.0) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracle = TrueOracle::new();
        let exact = branch_and_bound(&p, &oracle, u64::MAX).expect_optimal();
        let heur = best_fit(&p, &oracle, IndexMode::Exact).schedule;
        let heur_profit = evaluate_schedule(&p, &oracle, &heur).profit_eur;
        prop_assert!(
            exact.eval.profit_eur >= heur_profit - 1e-9,
            "exact {} < heuristic {}",
            exact.eval.profit_eur,
            heur_profit
        );
    }

    /// Oracle demand estimates are always valid resource vectors, and
    /// SLA estimates stay in [0, 1].
    #[test]
    fn oracle_outputs_well_formed((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let oracles: Vec<Box<dyn QosOracle>> = vec![
            Box::new(MonitorOracle::plain()),
            Box::new(MonitorOracle::overbooked()),
            Box::new(TrueOracle::new()),
        ];
        for oracle in &oracles {
            for vm in &p.vms {
                let d = oracle.demand(vm);
                prop_assert!(d.is_valid(), "{}: {d:?}", oracle.name());
                let host = &p.hosts[0];
                let sla = oracle.sla(vm, host, &d, 0.05);
                prop_assert!((0.0..=1.0).contains(&sla), "{}: sla {sla}", oracle.name());
            }
        }
    }

    /// Migration counting matches the assignment diff.
    #[test]
    fn migration_count_matches_diff((vms, hosts, rps) in arb_instance()) {
        let p = synthetic::problem(vms, hosts, rps);
        let s = round_robin(&p);
        let by_hand = s
            .assignment
            .iter()
            .zip(&p.vms)
            .filter(|(&to, vm)| vm.current_pm.is_some_and(|c| c != to))
            .count();
        prop_assert_eq!(s.migration_count(&p), by_hand);
    }
}
