//! The paper's §V-B pipeline end to end: learn the Table-I models from
//! monitored exploration runs, print the learning table, then fight the
//! Figure-4 battle — BF vs BF-OB vs BF-ML (vs the BF-True upper bound).
//!
//! ```sh
//! cargo run --release --example intra_dc_ml            # quick (~30 s)
//! cargo run --release --example intra_dc_ml -- --full  # paper scale
//! ```

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;

fn main() {
    let quick = !std::env::args().any(|a| a == "--full");
    let run = |name: &str| {
        let spec = registry::find(name).expect("builtin").spec;
        println!("{name}: {}...", spec.description);
        let report = run_spec(&spec, Path::new("."), quick).expect("builtin runs");
        println!("\n{}", report.text);
        report.metrics
    };
    run("table1");
    let metrics = run("fig4");

    // The paper's qualitative claim, checked live.
    let sla = |arm: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == &format!("{arm}_mean_sla"))
            .expect("arm metric")
            .1
    };
    let (bf, ml) = (sla("bestfit_BF_"), sla("bestfit_BF-ML_"));
    if ml >= bf {
        println!(
            "BF-ML holds SLA at {ml:.4} vs plain BF {bf:.4} (paper: ML deconsolidates to protect QoS)"
        );
    } else {
        println!("note: BF-ML {ml:.4} vs BF {bf:.4} — shapes vary at short horizons; try --full");
    }
}
