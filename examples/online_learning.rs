//! On-line learning under concept drift: a fleet-wide "software update"
//! changes every VM's memory footprint mid-run. The frozen Table-I model
//! never recovers; a sliding-window learner does; a Page–Hinkley-guarded
//! learner recovers fastest — the paper's future-work item 4, measured
//! with the `online-drift` built-in scenario.
//!
//! ```sh
//! cargo run --release --example online_learning
//! ```

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;

fn main() {
    let spec = registry::find("online-drift").expect("builtin").spec;
    println!(
        "{} VMs, {} h; at hour {} every VM's base memory grows 1.8x and its",
        spec.workload.vms,
        spec.run.hours,
        spec.run.hours / 2
    );
    println!("per-request memory 2.5x. Three MEM predictors ride the same prequential");
    println!("stream (predict first, then learn):\n");

    let report = run_spec(&spec, Path::new("."), false).expect("online-drift runs");
    println!("{}", report.text);

    println!("\nReading the table:");
    println!(" * pre        — all three agree: the world is learnable (paper Table I).");
    println!(" * transition — the update lands; everyone's error spikes.");
    println!(" * recovered  — frozen stays broken; the online learners re-converge,");
    println!("                the drift-aware one without old-regime pollution.");
}
