//! Failure injection: crash the busiest host mid-run and watch the
//! reactive scheduler evacuate its VMs while the static baseline leaves
//! them dark until the repair. Also demonstrates bandwidth-shared
//! migrations — an operational reality around the paper's clean
//! testbed.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use pamdc::prelude::*;
use pamdc_sched::oracle::TrueOracle;

fn run(label: &str, policy: Box<dyn PlacementPolicy>) -> RunOutcome {
    let scenario = ScenarioBuilder::paper_intra_dc()
        .vms(4)
        .seed(5)
        // Host 0 dies 45 minutes in; repair takes 5 hours.
        .fault(0, SimTime::from_mins(45), SimDuration::from_hours(5))
        .build();
    let (outcome, _) = Controller::new(scenario, policy).run_for(SimDuration::from_hours(4));
    println!(
        "{label:<20} mean SLA {:.4}   migrations {:<3} dropped requests {:>8.0}",
        outcome.mean_sla, outcome.migrations, outcome.dropped_requests
    );
    outcome
}

fn main() {
    println!("Intra-DC fleet, 4 VMs on 4 Atom hosts. Host 0 crashes at minute 45.\n");
    let reactive = run(
        "reactive best-fit",
        Box::new(BestFitPolicy::new(TrueOracle::new())),
    );
    let frozen = run(
        "static placement",
        Box::new(StaticPolicy(TrueOracle::new())),
    );

    // The SLA dip and recovery, minute by minute around the crash.
    println!("\nMean SLA around the crash (reactive arm):");
    let sla = reactive.series.get("sla").expect("series kept");
    for (t, v) in sla.iter() {
        let m = t.as_mins();
        if (40..=70).contains(&m) && m % 5 == 0 {
            let bar = "#".repeat((v * 40.0).round() as usize);
            println!("  min {m:>3} |{bar:<40}| {v:.3}");
        }
    }
    println!(
        "\nReactive SLA {:.4} vs static {:.4}: evacuation wins {:.1} SLA points.",
        reactive.mean_sla,
        frozen.mean_sla,
        100.0 * (reactive.mean_sla - frozen.mean_sla)
    );
}
