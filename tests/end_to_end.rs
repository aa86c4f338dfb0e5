//! Cross-crate integration tests: the paper's headline claims, asserted
//! against live (shortened) experiment runs.

use pamdc::manager::experiments::{deloc, solver_scaling, table1, table2};
use pamdc::prelude::*;
use pamdc_scenario::runner::{run_arms, run_spec};
use pamdc_scenario::{kinds, registry};
use pamdc_sched::oracle::TrueOracle;
use std::path::Path;

/// A builtin's report metrics, looked up by key.
fn builtin_metrics(name: &str, quick: bool) -> impl Fn(&str) -> f64 + '_ {
    let spec = registry::find(name).expect("builtin").spec;
    let report = run_spec(&spec, Path::new("."), quick).expect("builtin runs");
    move |key| {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{name} reports no {key}"))
            .1
    }
}

#[test]
fn quickstart_shape() {
    let scenario = ScenarioBuilder::paper_multi_dc().vms(5).seed(7).build();
    let outcome = Controller::new(
        scenario,
        Box::new(HierarchicalPolicy::new(TrueOracle::new())),
    )
    .run_for(SimDuration::from_hours(2))
    .0;
    assert!(
        outcome.mean_sla > 0.5 && outcome.mean_sla <= 1.0,
        "sla {}",
        outcome.mean_sla
    );
    assert!(outcome.avg_watts > 0.0);
    assert!(outcome.profit.revenue_eur > 0.0);
    assert!(outcome.series.get("sla").is_some());
}

#[test]
fn table2_constants_hold() {
    table2::verify();
    let rendered = table2::render();
    assert!(rendered.contains("0.1314") && rendered.contains("265"));
}

/// E-T1: the learning pipeline reaches paper-band quality on every
/// target, and the method assignments match the paper's choices.
#[test]
fn table1_learning_quality() {
    let spec = registry::find("table1").expect("builtin").spec;
    let spec = kinds::quick_spec(&spec, kinds::find("table1").expect("kind")).expect("quick");
    let outcome = table1::run(&pamdc_scenario::build::training(&spec.training));
    assert_eq!(outcome.reports.len(), 7);
    for (name, rep) in &outcome.reports {
        assert!(
            rep.correlation > 0.7,
            "{name}: correlation {} below the paper band",
            rep.correlation
        );
        assert!(rep.n_train > 100, "{name}: too few training examples");
    }
    let sla = &outcome
        .reports
        .iter()
        .find(|(n, _)| n == "Predict VM SLA")
        .unwrap()
        .1;
    assert_eq!(sla.method, "K-NN");
    assert!(sla.correlation > 0.9, "SLA k-NN corr {}", sla.correlation);
}

/// E-F5: the follow-the-load VM visits at least 3 of the 4 DCs over two
/// simulated days.
#[test]
fn fig5_vm_follows_the_sun() {
    let metric = builtin_metrics("fig5", false);
    assert!(
        metric("dcs_visited") >= 3.0,
        "VM should chase the load around the planet, visited {}",
        metric("dcs_visited")
    );
    assert!(metric("migrations") >= 3.0);
}

/// E-DL: allowing de-location from an overloaded home DC raises SLA.
#[test]
fn deloc_improves_sla() {
    let builtin = registry::find("deloc").expect("builtin").spec;
    let spec = kinds::quick_spec(&builtin, kinds::find("deloc").expect("kind")).expect("quick");
    let mut outcomes = run_arms(&spec, Path::new("."), false)
        .expect("deloc runs")
        .into_outcomes()
        .into_iter();
    let result = deloc::DelocResult {
        fixed: outcomes.next().expect("fixed arm"),
        delocating: outcomes.next().expect("de-locating arm"),
    };
    assert!(
        result.sla_gain() > 0.02,
        "de-location must buy SLA: fixed {} vs deloc {}",
        result.fixed.mean_sla,
        result.delocating.mean_sla
    );
    assert!(result.benefit_eur_per_vm_day(spec.workload.vms) > 0.0);
}

/// E-F6: the flash crowd dents SLA and the system recovers afterwards.
#[test]
fn fig6_flash_crowd_dents_and_recovers() {
    let metric = builtin_metrics("fig6", true);
    let (before, during, after) = (
        metric("sla_before_crowd"),
        metric("sla_during_crowd"),
        metric("sla_after_crowd"),
    );
    assert!(
        during < before - 0.1,
        "crowd must dent SLA: before {before} during {during}"
    );
    assert!(
        after > during,
        "system must recover: during {during} after {after}"
    );
}

/// E-F7/T3: dynamic multi-DC management saves substantial energy at
/// comparable SLA.
#[test]
fn table3_dynamic_saves_energy() {
    let metric = builtin_metrics("fig7-table3", true);
    assert!(
        metric("energy_saving_frac") > 0.10,
        "dynamic must save energy: static {} W vs dynamic {} W",
        metric("static_avg_watts"),
        metric("dynamic_avg_watts")
    );
    assert!(
        metric("dynamic_mean_sla") > metric("static_mean_sla") - 0.05,
        "SLA must stay comparable: static {} dynamic {}",
        metric("static_mean_sla"),
        metric("dynamic_mean_sla")
    );
    assert_eq!(metric("static_migrations"), 0.0);
}

/// E-SC: the exact solver's work explodes with instance size while
/// Best-Fit stays fast, and the heuristic's profit gap stays small.
#[test]
fn solver_scaling_shape() {
    let points = solver_scaling::run(&solver_scaling::ScalingConfig {
        sizes: vec![(2, 4), (4, 8), (6, 8)],
        exact_vm_cap: 6,
        rps: 250.0,
        exact_node_budget: u64::MAX,
    });
    assert!(
        points.iter().all(|p| !p.exact_budget_exhausted),
        "unbounded budget must never exhaust"
    );
    let nodes: Vec<u64> = points.iter().filter_map(|p| p.exact_nodes).collect();
    assert!(
        nodes.windows(2).all(|w| w[1] >= w[0]),
        "nodes must grow: {nodes:?}"
    );
    assert!(
        nodes.last().unwrap() > &(nodes[0] * 4),
        "exact search must blow up super-linearly: {nodes:?}"
    );
    for p in &points {
        if let Some(gap) = p.profit_gap {
            assert!(gap >= -1e-9, "exact must be at least as good");
            assert!(gap < 0.35, "heuristic must stay competitive, gap {gap}");
        }
    }
}
