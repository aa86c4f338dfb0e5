//! Property suite: the incremental [`ScheduleEvaluator`] must agree
//! with the full [`evaluate_schedule`] decomposition — at construction
//! and after arbitrary sequences of single-VM relocations — to within
//! 1e-9. This is the invariant that lets the consolidation pass score
//! moves in O(hosts touched) instead of re-evaluating the whole
//! schedule per candidate.

use pamdc_sched::evaluator::ScheduleEvaluator;
use pamdc_sched::oracle::{MonitorOracle, QosOracle, TrueOracle};
use pamdc_sched::problem::synthetic;
use pamdc_sched::problem::{Problem, Schedule};
use pamdc_sched::profit::evaluate_schedule;
use proptest::prelude::*;

/// Relative-tolerance comparison at the suite's 1e-9 bar.
fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
    assert!((a - b).abs() <= tol, "{what}: incremental {a} vs full {b}");
}

/// Builds a random-ish schedule from index draws (every VM placed on an
/// existing host, as `Schedule::validate` requires).
fn schedule_from_picks(problem: &Problem, picks: &[usize]) -> Schedule {
    let hosts = problem.hosts.len();
    Schedule {
        assignment: (0..problem.vms.len())
            .map(|vi| problem.hosts[picks[vi % picks.len()] % hosts].id)
            .collect(),
    }
}

fn check_move_sequence(
    problem: &Problem,
    oracle: &dyn QosOracle,
    start: &Schedule,
    moves: &[(usize, usize)],
) {
    let full_start = evaluate_schedule(problem, oracle, start);
    let mut inc = ScheduleEvaluator::new(problem, oracle, start);
    assert_close(
        inc.profit_eur(),
        full_start.profit_eur,
        "profit at construction",
    );

    for &(vi_raw, hi_raw) in moves {
        let vi = vi_raw % problem.vms.len();
        let hi = hi_raw % problem.hosts.len();
        if inc.host_of(vi) == hi {
            continue;
        }
        // The scored gain must predict the committed state exactly.
        let predicted = inc.profit_eur() + inc.move_gain(vi, hi, &inc.leave(vi));
        inc.apply_move(vi, hi);
        assert_close(inc.profit_eur(), predicted, "gain vs applied profit");

        // And the cached decomposition must match a fresh full
        // evaluation of the same assignment.
        let full = evaluate_schedule(problem, oracle, &inc.schedule());
        let (rev, energy, mig, net) = inc.components();
        assert_close(inc.profit_eur(), full.profit_eur, "profit after move");
        assert_close(rev, full.revenue_eur, "revenue after move");
        assert_close(energy, full.energy_eur, "energy after move");
        assert_close(mig, full.migration_eur, "migration after move");
        assert_close(net, full.network_eur, "network after move");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random problems, random starting schedules, random move
    /// sequences, truthful oracle.
    #[test]
    fn incremental_matches_full_true_oracle(
        vms in 1usize..8,
        hosts in 1usize..10,
        rps in 10.0f64..500.0,
        picks in proptest::collection::vec(0usize..64, 1..8),
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..24),
    ) {
        let p = synthetic::problem(vms, hosts, rps);
        let start = schedule_from_picks(&p, &picks);
        check_move_sequence(&p, &TrueOracle::new(), &start, &moves);
    }

    /// Same invariant under the monitor oracle (different SLA branch
    /// structure: fit-based estimate instead of the RT model).
    #[test]
    fn incremental_matches_full_monitor_oracle(
        vms in 1usize..8,
        hosts in 1usize..10,
        rps in 10.0f64..500.0,
        picks in proptest::collection::vec(0usize..64, 1..8),
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..24),
    ) {
        let p = synthetic::problem(vms, hosts, rps);
        let start = schedule_from_picks(&p, &picks);
        check_move_sequence(&p, &MonitorOracle::plain(), &start, &moves);
    }

    /// Priced networks exercise the client-traffic and image-transfer
    /// terms that are zero on the paper's free network.
    #[test]
    fn incremental_matches_full_priced_network(
        vms in 1usize..6,
        hosts in 2usize..8,
        rps in 50.0f64..400.0,
        eur_per_gb in 0.01f64..0.2,
        moves in proptest::collection::vec((0usize..64, 0usize..64), 1..16),
    ) {
        let mut p = synthetic::problem(vms, hosts, rps);
        p.net = std::sync::Arc::new(
            pamdc_infra::network::NetworkModel::paper_priced(eur_per_gb),
        );
        let start = pamdc_sched::baselines::round_robin(&p);
        check_move_sequence(&p, &TrueOracle::new(), &start, &moves);
    }

    /// `improve_schedule` on the incremental evaluator must never lose
    /// profit versus the schedule it was given (the invariant the old
    /// full-evaluation search guaranteed by construction).
    #[test]
    fn improve_schedule_never_decreases_profit(
        vms in 1usize..8,
        hosts in 1usize..10,
        rps in 10.0f64..500.0,
    ) {
        use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
        let p = synthetic::problem(vms, hosts, rps);
        let o = TrueOracle::new();
        let start = pamdc_sched::bestfit::best_fit(&p, &o, pamdc_sched::index::IndexMode::Exact).schedule;
        let before = evaluate_schedule(&p, &o, &start).profit_eur;
        let (improved, _) = improve_schedule(&p, &o, start, &LocalSearchConfig::default(), pamdc_sched::index::IndexMode::Exact);
        let after = evaluate_schedule(&p, &o, &improved).profit_eur;
        prop_assert!(after >= before - 1e-9, "{after} < {before}");
    }
}
