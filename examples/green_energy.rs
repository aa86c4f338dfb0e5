//! Follow-the-sun: give datacenters on-site solar and let the profit
//! function chase daylight around the planet — the paper's §II claim
//! that *"a 'follow the sun/wind' policy could also be introduced easily
//! into the energy cost computation"*, made runnable with the `green`
//! built-in scenario.
//!
//! ```sh
//! cargo run --release --example green_energy
//! ```

use pamdc::manager::experiments::green;
use pamdc::prelude::*;
use pamdc_scenario::registry;
use pamdc_scenario::runner::run_arms;
use std::path::Path;

fn main() {
    let spec = registry::find("green").expect("builtin").spec;
    println!(
        "Two identical hierarchical schedulers over {} VMs, 4 DCs x {} hosts, {} h.",
        spec.workload.vms, spec.topology.pms_per_dc, spec.run.hours
    );
    println!(
        "DCs {:?} have {:.0} W of solar per host (Brisbane and Barcelona —",
        spec.energy.solar_dcs, spec.energy.solar_per_pm_w
    );
    println!("nine timezones apart, so one is usually lit). One arm is quoted the live");
    println!("marginal price (green headroom ~= free), the other only posted tariffs.\n");

    let run = run_arms(&spec, Path::new("."), false).expect("green runs");
    // Show the sun being followed: hourly green coverage of the aware arm.
    let series = run.outcomes[0].1.series.clone();
    println!("{}", green::report(run).text);
    if let (Some(green), Some(watts)) = (series.get("green_watts"), series.get("watts")) {
        println!("Sun-aware arm, green coverage by simulated hour (first day):");
        for hour in 0..24u64 {
            let from = SimTime::from_hours(hour);
            let to = SimTime::from_hours(hour + 1);
            let g = green.mean_in_window(from, to);
            let w = watts.mean_in_window(from, to).max(1e-9);
            let bar = "#".repeat((g / w * 40.0).round() as usize);
            println!("  {hour:>2}h |{bar:<40}| {:>5.1}%", 100.0 * g / w);
        }
    }
}
