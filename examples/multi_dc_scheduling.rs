//! The paper's headline evaluation (§V-C): full inter-DC scheduling.
//!
//! Runs three built-in scenarios against the 4-city world:
//!  1. `deloc` — the de-location benefit (one overloaded home DC vs
//!     freedom),
//!  2. `fig6` — Figure 6, full scheduling through a flash crowd,
//!  3. `fig7-table3` — Figure 7 / Table III, Static-Global vs Dynamic.
//!
//! ```sh
//! cargo run --release --example multi_dc_scheduling            # quick
//! cargo run --release --example multi_dc_scheduling -- --full  # 24 h arms
//! ```

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;

fn main() {
    let quick = !std::env::args().any(|a| a == "--full");
    for name in ["deloc", "fig6", "fig7-table3"] {
        let spec = registry::find(name).expect("builtin").spec;
        println!("{name}: {}...", spec.description);
        let report = run_spec(&spec, Path::new("."), quick).expect("builtin runs");
        println!("\n{}", report.text);
        if let Some((_, saving)) = report
            .metrics
            .iter()
            .find(|(k, _)| k == "energy_saving_frac")
        {
            println!("Dynamic saves {:.1}% energy vs static.", 100.0 * saving);
        }
    }
}
