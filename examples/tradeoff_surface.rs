//! The paper's Figure 8 (SLA vs energy vs load) plus the §IV-C solver
//! scaling study, both exercising the parallel sweep harness.
//!
//! ```sh
//! cargo run --release --example tradeoff_surface            # quick
//! cargo run --release --example tradeoff_surface -- --full  # denser sweep
//! ```

use pamdc::manager::experiments::{fig8, solver_scaling};
use pamdc_scenario::registry;
use pamdc_scenario::runner::run_arms;
use std::path::Path;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    // ---- Figure 8 surface (parallel sweep) ----
    let mut spec = registry::find("fig8").expect("builtin").spec;
    if full {
        spec = spec
            .with_params(&[
                (
                    "experiment.load_scales",
                    "[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]",
                ),
                ("run.hours", "8"),
            ])
            .expect("valid overrides");
    }
    let axes = spec.experiment.clone().expect("bound");
    println!(
        "Sweeping {} (load x energy-budget) points in parallel, {} h each...",
        axes.load_scales.len() * axes.pms_levels.len(),
        spec.run.hours
    );
    let run = run_arms(&spec, Path::new("."), false).expect("fig8 runs");

    // The arms run load-major over the two axes.
    let grid: Vec<(f64, usize)> = axes
        .load_scales
        .iter()
        .flat_map(|&l| axes.pms_levels.iter().map(move |&p| (l, p)))
        .collect();

    // For a fixed load, more energy (hosts) must buy equal-or-better SLA.
    let mut summary = Vec::new();
    for (row, ls) in run
        .outcomes
        .chunks(axes.pms_levels.len())
        .zip(&axes.load_scales)
    {
        let (first, last) = (&row[0].1, &row[row.len() - 1].1);
        summary.push(format!(
            "load x{ls:.2}: SLA {:.3} @ {:.0} W  ->  SLA {:.3} @ {:.0} W",
            first.mean_sla, first.avg_watts, last.mean_sla, last.avg_watts,
        ));
    }
    println!("\n{}", fig8::report(run, &grid).text);
    println!("{}", summary.join("\n"));

    // ---- Solver scaling ----
    let sc_cfg = if full {
        solver_scaling::ScalingConfig::default()
    } else {
        solver_scaling::ScalingConfig {
            sizes: vec![(2, 4), (4, 8), (6, 12)],
            exact_vm_cap: 6,
            ..solver_scaling::ScalingConfig::default()
        }
    };
    println!("\nSolver scaling study (the paper's 'MILP needs minutes' observation)...");
    let points = solver_scaling::run(&sc_cfg);
    println!("\n{}", solver_scaling::render(&points));
}
