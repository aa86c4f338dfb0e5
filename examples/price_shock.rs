//! Price adaptation: Boston's tariff quadruples mid-run. The scheduler
//! that is quoted live prices evacuates on its own; the one configured
//! with posted prices keeps paying — the result the paper mentions but
//! does not report (§V-B: ML-augmented versions "automatically adapt to
//! changes in … power price", ad-hoc ones need a human).
//!
//! ```sh
//! cargo run --release --example price_shock
//! ```

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;

fn main() {
    let spec = registry::find("price-adaptation").expect("builtin").spec;
    let spike = spec.experiment.as_ref().expect("bound").spike_factor;
    println!(
        "Fleet of {} VMs starts consolidated in Boston (cheapest posted tariff).",
        spec.workload.vms
    );
    println!(
        "At hour {} Boston's price spikes x{spike:.0}; run lasts {} h.\n",
        spec.run.hours / 2,
        spec.run.hours
    );

    let report = run_spec(&spec, Path::new("."), false).expect("price-adaptation runs");
    println!("{}", report.text);

    let metric = |key: &str| {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .expect("metric")
            .1
    };
    let (posted, adaptive) = (metric("posted_energy_eur"), metric("adaptive_energy_eur"));
    println!(
        "\nAdaptive arm saved {:.4} EUR of electricity ({:.1}% of the posted arm's bill)",
        posted - adaptive,
        100.0 * (posted - adaptive) / posted.max(1e-12)
    );
}
