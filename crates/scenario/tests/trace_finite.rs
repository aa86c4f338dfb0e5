//! Any trace that parses and replays simulates to finite metrics.
//!
//! Trace CSVs and rate scales are drawn with values across the whole
//! `f64` range — subnormals to `f64::MAX`, infinities, NaN, negative
//! numbers and raw bit patterns. Whenever the parser and
//! `TraceSource::replay` accept one, a few-VM world (the `pamdc replay`
//! default) replays it for an hour and every `outcome_metrics` value
//! must be finite. The proptest shim does not shrink, so a failure
//! prints the case's seed, its rate scale and its CSV bytes.

use pamdc_core::experiment::outcome_metrics;
use pamdc_scenario::build::{build_scenario, session};
use pamdc_scenario::registry;
use pamdc_scenario::spec::ScenarioSpec;
use pamdc_simcore::rng::RngStream;
use pamdc_simcore::time::SimDuration;
use pamdc_workload::service::ServiceClass;
use pamdc_workload::trace::{DemandTrace, TraceSource};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// Parses `csv`, replays it under `rate_scale` and runs the default
/// replay world for an hour. `Err` carries the refusal when the parser
/// or the replay transforms reject the input; `Ok` the non-finite
/// metrics of an accepted one (empty when all are finite).
fn replay_metrics(csv: &str, rate_scale: f64) -> Result<Vec<(String, f64)>, String> {
    let trace = DemandTrace::parse_csv(csv).map_err(|e| e.to_string())?;
    let source =
        TraceSource::replay(trace, rate_scale, 1.0, Vec::new()).map_err(|e| e.to_string())?;
    let controller = session(&mut ScenarioSpec::default(), source.into()).expect("session");
    let (outcome, _) = controller.run_for(SimDuration::from_hours(1));
    Ok(outcome_metrics("", &outcome)
        .into_iter()
        .filter(|(_, v)| !v.is_finite())
        .collect())
}

/// The property for one input, with everything needed to replay it in
/// the panic message.
fn assert_finite_if_accepted(label: &str, csv: &str, rate_scale: f64) {
    if let Ok(bad) = replay_metrics(csv, rate_scale) {
        assert!(
            bad.is_empty(),
            "{label}: non-finite metrics {bad:?} at rate_scale {rate_scale:e}; CSV:\n{csv}"
        );
    }
}

/// A value anywhere in the `f64` range. Most draws are positive with a
/// log-uniform decimal exponent in `exp`; the rest are special values
/// or raw bit patterns.
fn wide(rng: &mut RngStream, exp: (f64, f64)) -> f64 {
    match rng.index(40) {
        0 => [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e9,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ][rng.index(9)],
        1 => {
            let [hi, lo] = [(); 2].map(|_| (rng.uniform() * 4_294_967_296.0) as u64);
            f64::from_bits(hi << 32 | lo)
        }
        _ => rng.uniform_range(1.0, 10.0) * 10f64.powf(rng.uniform_range(exp.0, exp.1)),
    }
}

/// Decimal exponents from the subnormals to `f64::MAX`.
const FULL_RANGE: (f64, f64) = (-324.0, 308.3);

/// A trace CSV of up to three services over four regions and up to four
/// ticks, each demand value drawn by [`wide`] within a per-trace band of
/// exponents, so that some traces sit wholly below the demand ceiling,
/// some near it and some far above it.
fn random_csv(rng: &mut RngStream) -> String {
    let services = 1 + rng.index(3);
    let ticks = 1 + rng.index(4);
    let [a, b] = [(); 2].map(|_| rng.uniform_range(FULL_RANGE.0, FULL_RANGE.1));
    let band = (a.min(b), a.max(b));
    let classes: Vec<&str> = (0..services)
        .map(|_| ServiceClass::ALL[rng.index(ServiceClass::ALL.len())].label())
        .collect();
    let mut csv = format!(
        "# pamdc-trace v1\n# tick_ms = 60000\n# ticks = {ticks}\n# regions = 4\n\
         # classes = {}\ntick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n",
        classes.join(",")
    );
    for tick in 0..ticks {
        for service in 0..services {
            for _ in 0..rng.index(3) {
                let region = rng.index(4);
                let [rps, kb_in, kb_out, cpu_ms] = [(); 4].map(|_| wide(rng, band));
                let _ = writeln!(
                    csv,
                    "{tick},{service},{region},{rps:e},{kb_in:e},{kb_out:e},{cpu_ms:e}"
                );
            }
        }
    }
    csv
}

/// One hour of the `resilience` built-in's demand, as `pamdc record
/// resilience --hours 1` writes it.
fn recorded_resilience_hour() -> String {
    let spec = registry::find("resilience").expect("built-in").spec;
    let scenario = build_scenario(&spec, Path::new(".")).expect("builds");
    let tick = SimDuration::from_secs(spec.run.tick_secs);
    DemandTrace::record(&scenario.workload, SimDuration::from_hours(1), tick).to_csv()
}

/// The recorded hour with every row's four demand columns set to
/// `value`.
fn with_every_demand(csv: &str, value: &str) -> String {
    csv.lines()
        .map(|line| match line.split(',').collect::<Vec<_>>()[..] {
            [tick, service, region, _, _, _, _] if tick.parse::<usize>().is_ok() => {
                format!("{tick},{service},{region},{value},{value},{value},{value}\n")
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

/// The two inputs that once replayed to a NaN profit: a recorded trace
/// at `--rate-scale 1e306`, and one whose demand columns all read
/// `1e300`. Both are now refused, naming the demand ceiling.
#[test]
fn inputs_that_once_gave_nan_profit_are_refused() {
    let recorded = recorded_resilience_hour();
    let huge = with_every_demand(&recorded, "1e300");
    for (label, csv, rate_scale) in [
        ("rate-scale 1e306", &recorded, 1e306),
        ("demand 1e300", &huge, 1.0),
    ] {
        assert_finite_if_accepted(label, csv, rate_scale);
        let refusal = replay_metrics(csv, rate_scale).expect_err(label);
        assert!(
            refusal.contains("demand ceiling of 1e9"),
            "{label}: {refusal}"
        );
    }
    // At the ceiling itself the trace replays, finitely.
    let at_ceiling = with_every_demand(&recorded, "1e9");
    assert_eq!(replay_metrics(&at_ceiling, 1.0), Ok(Vec::new()));
    assert_eq!(replay_metrics(&recorded, 1e9 / 200.0), Ok(Vec::new()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_trace_that_replays_simulates_to_finite_metrics(seed in 0u64..u64::MAX) {
        let mut rng = RngStream::root(seed);
        let csv = random_csv(&mut rng);
        let rate_scale = match rng.index(4) {
            0 => 1.0,
            _ => wide(&mut rng, FULL_RANGE),
        };
        assert_finite_if_accepted(&format!("seed {seed}"), &csv, rate_scale);
    }
}
