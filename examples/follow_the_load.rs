//! The paper's Figure 5 sanity check: one VM, clients everywhere, load
//! peaking at local noon in each region — watch the VM chase the sun
//! through Brisbane, Bangalore, Barcelona and Boston.
//!
//! ```sh
//! cargo run --release --example follow_the_load
//! ```

use pamdc::manager::experiments::fig5;
use pamdc_scenario::registry;
use pamdc_scenario::runner::run_arms;
use std::path::Path;

fn main() {
    let spec = registry::find("fig5").expect("builtin").spec;
    println!(
        "Simulating {} h of follow-the-load scheduling...",
        spec.run.hours
    );
    let run = run_arms(&spec, Path::new("."), false).expect("fig5 runs");
    let placements = run.outcomes[0].1.series.get("vm0_dc").cloned();
    println!("\n{}", fig5::report(run).text);

    // Emit the raw placement series as CSV for plotting.
    if let Some(trace) = placements {
        println!("\nminutes,dc_index");
        for (t, dc) in trace.resample(pamdc::simcore::time::SimDuration::from_mins(30)) {
            println!("{},{}", t.as_mins(), dc);
        }
    }
}
