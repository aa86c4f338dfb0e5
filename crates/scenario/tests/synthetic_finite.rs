//! Any synthetic-demand spec that validates simulates to finite metrics.
//!
//! The keys that multiply the generator's rates — `workload.peak_rps`,
//! `workload.load_scale`, `workload.flash_crowd`, `training.scales` and
//! `experiment.load_scales` — are drawn with values across the whole
//! `f64` range: subnormals to `f64::MAX`, infinities, NaN, negative
//! numbers and raw bit patterns. A spec that validates runs its arms: a
//! few-VM world for two hours, so the minute 70-90 flash crowd fires,
//! with Table I trained first when the oracle is `ml`, or as fig8's
//! load-scale arm. Every `outcome_metrics` value must be finite. Any
//! other spec is refused naming one of the drawn keys. The proptest shim
//! does not shrink, so a failure prints the case's seed and values.

use pamdc_core::experiment::outcome_metrics;
use pamdc_scenario::registry;
use pamdc_scenario::runner::run_arms;
use pamdc_scenario::spec::{ExperimentSpec, OracleKind, ScenarioSpec, TrainingSpec};
use pamdc_simcore::rng::RngStream;
use proptest::prelude::*;
use std::path::Path;

/// The keys a draw sets.
const KEYS: [&str; 5] = [
    "workload.peak_rps",
    "workload.load_scale",
    "workload.flash_crowd",
    "training.scales",
    "experiment.load_scales",
];

/// One case: the drawn values and which arms read them.
#[derive(Clone, Copy, Debug)]
struct Draw {
    peak_rps: f64,
    load_scale: f64,
    flash_crowd: Option<f64>,
    training_scale: f64,
    /// Run as fig8 at this load scale (`experiment.load_scales`).
    fig8_load: Option<f64>,
    /// Plan with the trained Table-I oracle.
    ml: bool,
}

/// A three-VM multi-DC world over two hours carrying `d`.
fn spec_of(d: &Draw) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "synthetic-finite".into(),
        training: TrainingSpec {
            vms: 2,
            scales: vec![d.training_scale],
            hours_per_scale: 1,
            seed: 1,
        },
        experiment: d.fig8_load.map(|load| ExperimentSpec {
            kind: "fig8".into(),
            load_scales: vec![load],
            ..ExperimentSpec::default()
        }),
        ..ScenarioSpec::default()
    };
    spec.workload.vms = 3;
    spec.workload.peak_rps = d.peak_rps;
    spec.workload.load_scale = d.load_scale;
    spec.workload.flash_crowd = d.flash_crowd;
    spec.run.hours = 2;
    if d.ml {
        spec.policy.oracle = OracleKind::Ml;
    }
    spec
}

/// The property for one case: refused naming a drawn key, or run to
/// finite metrics.
fn assert_refused_or_finite(label: &str, d: &Draw) {
    let spec = spec_of(d);
    if let Err(refusal) = spec.validate() {
        assert!(
            KEYS.iter().any(|k| refusal.0.contains(k)),
            "{label}: the refusal names none of the drawn keys: {refusal} ({d:?})"
        );
        return;
    }
    let run = run_arms(&spec, Path::new("."), false)
        .unwrap_or_else(|e| panic!("{label}: a valid spec fails to run: {e} ({d:?})"));
    for (arm, outcome) in &run.outcomes {
        let bad: Vec<(String, f64)> = outcome_metrics("", outcome)
            .into_iter()
            .filter(|(_, v)| !v.is_finite())
            .collect();
        assert!(
            bad.is_empty(),
            "{label}: arm {arm:?} reports non-finite metrics {bad:?} ({d:?})"
        );
    }
}

/// A value anywhere in the `f64` range: one draw in three is a special
/// value, a raw bit pattern or a decimal exponent from the subnormals
/// to `f64::MAX`; the rest stay near the paper's values (exponents -3
/// to 2), so that a fair share of whole specs validates.
fn wide(rng: &mut RngStream) -> f64 {
    match rng.index(9) {
        0 => [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e4,
            100.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ][rng.index(10)],
        1 => {
            let [hi, lo] = [(); 2].map(|_| (rng.uniform() * 4_294_967_296.0) as u64);
            f64::from_bits(hi << 32 | lo)
        }
        2 => rng.uniform_range(1.0, 10.0) * 10f64.powf(rng.uniform_range(-324.0, 308.3)),
        _ => rng.uniform_range(1.0, 10.0) * 10f64.powf(rng.uniform_range(-3.0, 2.0)),
    }
}

fn draw(rng: &mut RngStream) -> Draw {
    let mode = rng.index(3);
    Draw {
        peak_rps: wide(rng),
        load_scale: wide(rng),
        flash_crowd: (rng.index(2) == 0).then(|| wide(rng)),
        training_scale: wide(rng),
        fig8_load: (mode == 1).then(|| wide(rng)),
        ml: mode == 2,
    }
}

/// `pamdc sweep resilience --param workload.load_scale=1e306 --quick`
/// once panicked in Best-Fit ("finite demands"); the override is now
/// refused naming the key.
#[test]
fn a_load_scale_of_1e306_is_refused_naming_the_key() {
    let resilience = registry::find("resilience").expect("built-in").spec;
    let err = resilience
        .with_params(&[("workload.load_scale", "1e306")])
        .expect_err("past the ceiling");
    assert!(
        err.0.contains("workload.load_scale must be in [0, 100]"),
        "{err}"
    );
}

/// Every key at its ceiling: the largest rate the generator can make,
/// through the flash crowd, on the generic path, under the ML oracle
/// and as fig8's arm.
#[test]
fn every_key_at_its_ceiling_simulates_to_finite_metrics() {
    let top = Draw {
        peak_rps: 1e4,
        load_scale: 100.0,
        flash_crowd: Some(100.0),
        training_scale: 100.0,
        fig8_load: None,
        ml: false,
    };
    for d in [
        top,
        Draw { ml: true, ..top },
        Draw {
            fig8_load: Some(100.0),
            ..top
        },
    ] {
        assert!(spec_of(&d).validate().is_ok(), "{d:?}");
        assert_refused_or_finite("ceiling", &d);
    }
    let past = Draw {
        load_scale: 100.0 * (1.0 + f64::EPSILON),
        ..top
    };
    assert!(spec_of(&past).validate().is_err());
    // Table I needs a load scale to collect at.
    let mut none = spec_of(&Draw { ml: true, ..top });
    none.training.scales.clear();
    let err = none.validate().expect_err("no training scale");
    assert!(err.0.contains("training.scales"), "{err}");
}

/// The bounds leave every shipped spec as it is.
#[test]
fn every_builtin_and_example_spec_still_validates() {
    for b in registry::builtins() {
        b.spec
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut specs = 0;
    for entry in std::fs::read_dir(dir).expect("examples/specs") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|x| x == "toml") {
            let text = std::fs::read_to_string(&path).expect("spec");
            ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            specs += 1;
        }
    }
    assert!(specs >= 3, "found {specs} example specs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_synthetic_spec_that_validates_simulates_to_finite_metrics(seed in 0u64..u64::MAX) {
        let mut rng = RngStream::root(seed);
        let d = draw(&mut rng);
        assert_refused_or_finite(&format!("seed {seed}"), &d);
    }
}
