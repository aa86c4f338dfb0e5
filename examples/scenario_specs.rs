//! The scenario engine as a library: parse a spec, tweak it, run it,
//! and round-trip a demand trace — everything `pamdc` does on the
//! command line, programmatically.
//!
//! ```sh
//! cargo run --release --example scenario_specs
//! ```

use pamdc_scenario::prelude::*;
use pamdc_workload::trace::{DemandTrace, TraceSource};
use std::path::Path;

fn main() {
    // 1. The registry: every paper experiment as data.
    println!("built-in scenarios:");
    for b in builtins() {
        println!("  {:12} {}", b.name, b.title);
    }

    // 2. Specs are plain text. Parse one, inspect it, emit it back.
    let spec = ScenarioSpec::parse(
        r#"
name = "example"
seed = 5

[topology]
preset = "intra-dc"

[workload]
preset = "intra-dc"
vms = 3

[policy]
kind = "bestfit"

[run]
hours = 2

[[faults]]
pm = 0
at_min = 30
repair_after_min = 240
"#,
    )
    .expect("valid spec");
    assert_eq!(
        ScenarioSpec::parse(&spec.emit()).unwrap(),
        spec,
        "emit/parse round-trips"
    );

    // 3. Run it (the generic path: build world, build policy, simulate).
    let report = run_spec(&spec, Path::new("."), false).expect("run");
    println!("\n{}", report.text);

    // 4. Sweeps are spec edits: same scenario, three load levels.
    let variants: Vec<SpecReport> = [0.5, 1.0, 1.5]
        .iter()
        .map(|k| {
            let mut v = spec
                .with_params(&[("workload.load_scale", &k.to_string())])
                .unwrap();
            v.name = format!("example[load={k}]");
            run_spec(&v, Path::new("."), false).expect("run")
        })
        .collect();
    println!("{}", reports_csv(&variants));

    // 5. Record the spec's demand to a trace and replay it verbatim:
    //    the replayed world sees bit-identical demand.
    let scenario = build_scenario(&spec, Path::new(".")).expect("build");
    let trace = DemandTrace::record(
        &scenario.workload,
        pamdc_simcore::time::SimDuration::from_hours(2),
        pamdc_simcore::time::SimDuration::from_mins(1),
    );
    println!(
        "recorded {} ticks x {} services; csv is {} bytes",
        trace.tick_count(),
        trace.service_count(),
        trace.to_csv().len()
    );
    let replay = TraceSource::new(trace);
    let replayed = pamdc_core::scenario::ScenarioBuilder::paper_intra_dc()
        .vms(3)
        .seed(5)
        .demand(replay)
        .build();
    let t = pamdc_simcore::time::SimTime::from_mins(45);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    replayed.workload.sample_into(0, t, &mut got);
    scenario.workload.sample_into(0, t, &mut want);
    assert_eq!(got, want);
    println!("replayed demand matches the generator sample-for-sample.");
}
