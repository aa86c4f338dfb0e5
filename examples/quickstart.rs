//! Quickstart: build the paper's 4-city cloud, run it for a few hours
//! under the hierarchical power-aware scheduler, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pamdc::prelude::*;
use pamdc_sched::oracle::TrueOracle;

fn main() {
    // The paper's §V-C world: Brisbane, Bangalore, Barcelona and Boston,
    // one Atom host each, five customer web-services with worldwide
    // clients following their local time zones.
    let scenario = ScenarioBuilder::paper_multi_dc().vms(5).seed(7).build();
    println!(
        "Scenario '{}': {} DCs, {} hosts, {} VMs",
        scenario.name,
        scenario.cluster.dc_count(),
        scenario.cluster.pm_count(),
        scenario.cluster.vm_count()
    );

    // The paper's contribution: the two-layer hierarchical scheduler.
    // (`TrueOracle` = ground-truth beliefs; see `intra_dc_ml` for the
    // ML-trained variant.)
    let policy = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
    let (outcome, _) = Controller::new(scenario, policy).run_for(SimDuration::from_hours(6));

    println!("\nAfter {} simulated:", outcome.duration);
    println!("  mean SLA        : {:.4}", outcome.mean_sla);
    println!(
        "  avg power       : {:.1} W (facility, incl. cooling)",
        outcome.avg_watts
    );
    println!("  energy          : {:.1} Wh", outcome.total_wh);
    println!("  migrations      : {}", outcome.migrations);
    println!("  revenue         : {:.4} EUR", outcome.profit.revenue_eur);
    println!("  energy cost     : {:.4} EUR", outcome.profit.energy_eur);
    println!(
        "  net profit      : {:.4} EUR ({:.4} EUR/h)",
        outcome.profit.profit_eur(),
        outcome.eur_per_hour()
    );
    println!("  avg hosts on    : {:.2} / 4", outcome.avg_active_pms);

    // Every run records plot-ready series.
    let sla = outcome.series.get("sla").expect("sla series");
    let (t_last, v_last) = sla.last().expect("non-empty run");
    println!(
        "\nRecorded {} SLA samples; last at {}: {:.3}",
        sla.len(),
        t_last,
        v_last
    );
    println!(
        "Series available: {}",
        outcome.series.names().collect::<Vec<_>>().join(", ")
    );
}
