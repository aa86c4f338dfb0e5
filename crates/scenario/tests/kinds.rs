//! Every world kind honours the world tables: a quick run on a per-DC
//! Xeon + Atom `[[topology.classes]]` mix, or with a
//! `[[workload.services]]` table, validates, finishes with finite
//! metrics and draws different power than the all-Atom default world.
//! The analysis kinds, which build no world, reject both tables naming
//! the key. The kinds' headline shapes are asserted through their
//! report metrics.

use pamdc_scenario::kinds::{self, Plan};
use pamdc_scenario::registry;
use pamdc_scenario::runner::{run_arms, run_spec, SpecReport};
use pamdc_scenario::spec::{HostClassSpec, MachineClass, ScenarioSpec, ServiceSpecEntry};
use std::path::Path;

/// The builtin spec bound to `kind`, in its quick-mode form.
fn quick_builtin(kind: &str) -> ScenarioSpec {
    let spec = registry::builtins()
        .into_iter()
        .find(|b| b.spec.experiment.as_ref().is_some_and(|e| e.kind == kind))
        .unwrap_or_else(|| panic!("no builtin runs {kind}"))
        .spec;
    kinds::quick_spec(&spec, kinds::find(kind).expect("registered")).expect("quick rows")
}

/// One Xeon (listed first, so initial deployments land on it) beside
/// one Atom in every DC.
fn with_xeon_mix(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.topology.classes = vec![
        HostClassSpec {
            count: 1,
            machine: MachineClass::Xeon,
        },
        HostClassSpec {
            count: 1,
            machine: MachineClass::Atom,
        },
    ];
    spec
}

fn with_services(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.workload.services = vec![ServiceSpecEntry {
        count: spec.workload.vms,
        base_mem_mb: 1024.0,
        idle_cpu_pct: 15.0,
        ..ServiceSpecEntry::default()
    }];
    spec
}

/// Each arm's average draw, in arm order.
fn arm_watts(spec: &ScenarioSpec) -> Vec<f64> {
    run_arms(spec, Path::new("."), false)
        .expect("arms run")
        .outcomes
        .iter()
        .map(|(_, o)| o.avg_watts)
        .collect()
}

fn world_kinds() -> impl Iterator<Item = &'static str> {
    kinds::KINDS
        .iter()
        .filter(|k| matches!(k.plan, Plan::Arms { .. }))
        .map(|k| k.kind)
}

/// Runs `spec` and checks it finished with finite metrics.
fn finite_report(spec: &ScenarioSpec, label: &str) {
    spec.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    let report = run_spec(spec, Path::new("."), false).unwrap_or_else(|e| panic!("{label}: {e}"));
    for (key, value) in &report.metrics {
        assert!(value.is_finite(), "{label}: {key} = {value}");
    }
}

/// `transform` yields a valid world that every world kind runs to a
/// finite report, drawing different power than the untouched world.
fn every_world_kind_honours(table: &str, transform: fn(ScenarioSpec) -> ScenarioSpec) {
    let kinds: Vec<&str> = world_kinds().collect();
    assert_eq!(kinds.len(), 10, "{kinds:?}");
    for kind in kinds {
        let base = quick_builtin(kind);
        let changed = transform(base.clone());
        let label = format!("{kind} with {table}");
        finite_report(&changed, &label);
        assert_ne!(
            arm_watts(&changed),
            arm_watts(&base),
            "{label}: avg_watts must differ from the default world"
        );
    }
}

#[test]
fn every_world_kind_honours_a_host_class_mix() {
    every_world_kind_honours("[[topology.classes]]", with_xeon_mix);
}

#[test]
fn every_world_kind_honours_a_services_table() {
    every_world_kind_honours("[[workload.services]]", with_services);
}

#[test]
fn analysis_kinds_reject_world_tables() {
    for entry in kinds::KINDS {
        if !matches!(entry.plan, Plan::Analysis(_)) {
            continue;
        }
        let mut spec = ScenarioSpec::default();
        spec.experiment = Some(pamdc_scenario::spec::ExperimentSpec {
            kind: entry.kind.into(),
            ..Default::default()
        });
        for (key, bad) in [
            ("topology.classes", with_xeon_mix(spec.clone())),
            ("workload.services", with_services(spec.clone())),
        ] {
            let err = bad.validate().expect_err(entry.kind).0;
            assert!(err.contains(key), "{}: {err}", entry.kind);
            assert!(run_spec(&bad, Path::new("."), true).is_err());
        }
    }
}

/// A quick builtin run with `params` applied first.
fn quick_report(name: &str, params: &[(&str, &str)]) -> SpecReport {
    let spec = registry::find(name)
        .expect("builtin")
        .spec
        .with_params(params)
        .expect("override");
    run_spec(&spec, Path::new("."), true).expect("run")
}

fn metric(report: &SpecReport, key: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no metric {key}"))
        .1
}

#[test]
fn sun_aware_beats_blind_on_green_share() {
    let r = quick_report("green", &[("seed", "3")]);
    let m = |k: &str| metric(&r, k);
    assert!(
        m("green_fraction_gain") > 0.02,
        "following the sun must raise the green share: gain {:.3}",
        m("green_fraction_gain")
    );
    assert!(m("sun_aware_co2_g_per_kwh") < m("price_blind_co2_g_per_kwh"));
    // QoS must not collapse to buy the green share.
    assert!(m("sun_aware_mean_sla") > m("price_blind_mean_sla") - 0.05);
    // Chasing the sun requires actually migrating.
    assert!(m("sun_aware_migrations") > 0.0);
    assert!(r.text.contains("Sun-aware"));
}

#[test]
fn benefit_grows_with_heterogeneity() {
    let r = quick_report("heterogeneity", &[("seed", "5")]);
    let m = |k: &str| metric(&r, k);
    let (low, high) = (
        m("x1_energy_cost_saving_frac"),
        m("x6_energy_cost_saving_frac"),
    );
    assert!(
        high > low,
        "saving at x6 ({high:.3}) must exceed saving at x1 ({low:.3})"
    );
    // SLA must not be sacrificed for it.
    assert!(m("x6_dynamic_mean_sla") > m("x6_static_mean_sla") - 0.05);
    assert!(r.text.contains("spread"));
}

#[test]
fn mixed_fleet_cells_run_and_stay_deterministic() {
    // Price heterogeneity on a machine-heterogeneous fleet: one Atom +
    // one small custom host per DC. The sweep must run, keep its SLA
    // sane, and reproduce bit-for-bit.
    let mut spec = registry::find("heterogeneity").expect("builtin").spec;
    spec.topology.classes = vec![
        HostClassSpec {
            count: 1,
            machine: MachineClass::Atom,
        },
        HostClassSpec {
            count: 1,
            machine: MachineClass::Custom {
                cores: 2,
                mem_mb: 2048.0,
                idle_watts: 15.0,
                peak_watts: 22.0,
            },
        },
    ];
    spec.run.hours = 4;
    spec.workload.vms = 3;
    spec.experiment.as_mut().expect("bound").spreads = vec![1.0, 6.0];
    let a = run_spec(&spec, Path::new("."), false).expect("run");
    let b = run_spec(&spec, Path::new("."), false).expect("run");
    for spread in ["x1", "x6"] {
        let key = format!("{spread}_dynamic_energy_eur");
        assert_eq!(metric(&a, &key).to_bits(), metric(&b, &key).to_bits());
        let sla = metric(&a, &format!("{spread}_dynamic_mean_sla"));
        assert!(sla > 0.5, "sla {sla}");
    }
}

#[test]
fn adaptive_arm_flees_the_spiked_tariff() {
    let r = quick_report("price-adaptation", &[("seed", "7")]);
    let m = |k: &str| metric(&r, k);
    // The adaptive arm must hold less of its fleet in Boston after the
    // spike than the posted-price arm does.
    assert!(
        m("adaptive_boston_share_post") < m("posted_boston_share_post"),
        "adaptive {} vs posted {}",
        m("adaptive_boston_share_post"),
        m("posted_boston_share_post")
    );
    // And its electricity bill must be no worse.
    assert!(m("adaptive_energy_eur") <= m("posted_energy_eur") + 1e-9);
    assert!(r.text.contains("Adaptive"));
}

#[test]
fn online_models_survive_the_update() {
    let r = quick_report("online-drift", &[("seed", "5")]);
    let m = |k: &str| metric(&r, k);
    // Pre-update: all models comparable (within 3x of each other).
    assert!(m("frozen_mae_pre") < m("window_mae_pre") * 3.0 + 5.0);
    // The update hurts the frozen model lastingly.
    assert!(
        m("frozen_mae_recovered") > m("frozen_mae_pre") * 3.0,
        "frozen model must degrade: pre {} vs recovered {}",
        m("frozen_mae_pre"),
        m("frozen_mae_recovered")
    );
    // Online models recover to near their pre-update error.
    for model in ["window", "drift_aware"] {
        assert!(
            m(&format!("{model}_mae_recovered")) < m("frozen_mae_recovered") * 0.5,
            "{model} must beat frozen"
        );
    }
    // Detection fired, and within the 300-sample transition window.
    let k = m("detected_after_samples");
    assert!((0.0..300.0).contains(&k), "detection after {k} samples");
    assert!(r.text.contains("drift detected"));
}

#[test]
fn the_xeon_fig7_example_runs() {
    // The worked example under examples/specs: Figure 7 on a class mix.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/fig7_xeon.toml");
    let spec =
        ScenarioSpec::parse(&std::fs::read_to_string(&path).expect("example")).expect("parse");
    let report = run_spec(&spec, path.parent().expect("dir"), true).expect("run");
    assert!(metric(&report, "energy_saving_frac").is_finite());
    assert_eq!(metric(&report, "static_migrations"), 0.0);
}
