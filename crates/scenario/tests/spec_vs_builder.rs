//! Spec-built worlds are bit-identical to the hand-built `ScenarioBuilder`
//! presets (same seed, same numbers). The reports of the kinds that run
//! these worlds are pinned by the fig4/fig6 goldens.

use pamdc_core::engine::Controller;
use pamdc_core::policy::{BestFitPolicy, PlacementPolicy};
use pamdc_core::scenario::{Scenario, ScenarioBuilder};
use pamdc_core::simulation::RunOutcome;
use pamdc_scenario::build::build_scenario;
use pamdc_scenario::registry;
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::time::SimDuration;
use pamdc_workload::source::Demand;
use std::path::Path;

/// Drives a scenario under a fixed reference policy for two hours.
fn reference_run(scenario: Scenario) -> RunOutcome {
    let policy: Box<dyn PlacementPolicy> = Box::new(BestFitPolicy::new(TrueOracle::new()));
    Controller::new(scenario, policy)
        .run_for(SimDuration::from_hours(2))
        .0
}

/// Asserts two scenarios produce bit-identical dynamics.
fn assert_bit_identical(a: Scenario, b: Scenario, label: &str) {
    assert_eq!(a.cluster.dc_count(), b.cluster.dc_count(), "{label}: DCs");
    assert_eq!(a.cluster.pm_count(), b.cluster.pm_count(), "{label}: PMs");
    assert_eq!(a.cluster.vm_count(), b.cluster.vm_count(), "{label}: VMs");
    assert_eq!(a.seed, b.seed, "{label}: seed");
    let (Demand::Synthetic(wa), Demand::Synthetic(wb)) = (&a.workload, &b.workload) else {
        panic!("{label}: preset worlds are synthetic");
    };
    assert_eq!(wa.services.len(), wb.services.len());
    for (sa, sb) in wa.services.iter().zip(&wb.services) {
        assert_eq!(
            sa.scale_rps.to_bits(),
            sb.scale_rps.to_bits(),
            "{label}: scale"
        );
        assert_eq!(sa.class, sb.class, "{label}: class");
        assert_eq!(sa.region_weights, sb.region_weights, "{label}: weights");
    }
    let (oa, ob) = (reference_run(a), reference_run(b));
    assert_eq!(oa.mean_sla.to_bits(), ob.mean_sla.to_bits(), "{label}: SLA");
    assert_eq!(
        oa.total_wh.to_bits(),
        ob.total_wh.to_bits(),
        "{label}: energy"
    );
    assert_eq!(oa.migrations, ob.migrations, "{label}: migrations");
    assert_eq!(
        oa.profit.profit_eur().to_bits(),
        ob.profit.profit_eur().to_bits(),
        "{label}: profit"
    );
}

#[test]
fn fig4_spec_world_matches_hand_built() {
    let spec = registry::find("fig4").unwrap().spec;
    let from_spec = build_scenario(&spec, Path::new(".")).expect("build");
    let hand_built = ScenarioBuilder::paper_intra_dc()
        .vms(5)
        .load_scale(1.0)
        .seed(4)
        .name("fig4")
        .build();
    assert_bit_identical(from_spec, hand_built, "fig4");
}

#[test]
fn fig6_spec_world_matches_hand_built() {
    let spec = registry::find("fig6").unwrap().spec;
    let from_spec = build_scenario(&spec, Path::new(".")).expect("build");
    let hand_built = ScenarioBuilder::paper_multi_dc()
        .vms(5)
        .flash_crowd(8.0)
        .seed(7)
        .name("fig6")
        .build();
    assert_bit_identical(from_spec, hand_built, "fig6");
}
