//! End-to-end acceptance for the trace-import + heterogeneous-fleet
//! path: the committed Azure- and Alibaba-format mini-fixtures must
//!
//! 1. import through the normalizers,
//! 2. round-trip through the native trace CSV **bit-identically** (the
//!    imported demand replays through `TraceSource` exactly),
//! 3. drive a full quick-mode run on a `[[topology.classes]]` fleet,
//!    deterministically.

use pamdc_scenario::build;
use pamdc_scenario::runner::run_spec;
use pamdc_scenario::spec::{HostClassSpec, ImportSpec, MachineClass, ScenarioSpec};
use pamdc_workload::import::{import_path, TraceFormat};
use pamdc_workload::trace::{DemandTrace, TraceSource};
use std::path::{Path, PathBuf};

/// Repo-root `fixtures/traces/`.
fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/traces")
}

fn fixture(format: TraceFormat) -> (PathBuf, &'static str) {
    match format {
        TraceFormat::Azure => (fixtures_dir().join("azure_mini.csv"), "azure"),
        TraceFormat::Alibaba => (fixtures_dir().join("alibaba_mini.csv"), "alibaba"),
    }
}

/// A multi-DC spec hosting the fixture's 4 services on a mixed fleet.
#[allow(clippy::field_reassign_with_default)] // builtin-registry style: document the deltas
fn fleet_spec(format_name: &str, path: &Path) -> ScenarioSpec {
    let mut spec = ScenarioSpec::default();
    spec.name = format!("{format_name}-e2e");
    spec.seed = 11;
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
    spec.workload.vms = 4;
    spec.workload.import = Some(ImportSpec {
        path: path.to_string_lossy().into_owned(),
        format: format_name.into(),
        ..ImportSpec::default()
    });
    spec.run.hours = 2;
    spec
}

fn check_format(format: TraceFormat) {
    let (path, name) = fixture(format);

    // 1-2: import, then prove the CSV round-trip is bit-identical and
    // the replayer reproduces the imported flows verbatim.
    let trace = import_path(
        format,
        &path,
        &build::import_options(&ImportSpec::default()),
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(trace.service_count(), 4, "{name} fixture hosts 4 services");
    assert!(trace.tick_count() > 1);
    let reparsed = DemandTrace::parse_csv(&trace.to_csv()).expect("reparse");
    assert_eq!(trace, reparsed, "{name}: csv round-trip must be exact");
    assert_eq!(trace.to_csv(), reparsed.to_csv());
    let replay = TraceSource::new(reparsed);
    let mut sampled = Vec::new();
    for tick in 0..trace.tick_count() {
        let t = pamdc_simcore::time::SimTime::ZERO + trace.tick * tick as u64;
        for s in 0..trace.service_count() {
            replay.sample_into(s, t, &mut sampled);
            assert_eq!(
                sampled, trace.flows[tick][s],
                "{name}: tick {tick} service {s} must replay verbatim"
            );
        }
    }

    // 3: the imported trace drives a quick run on the mixed fleet,
    // bit-for-bit deterministically.
    let spec = fleet_spec(name, &path);
    let a = run_spec(&spec, Path::new("."), true).unwrap_or_else(|e| panic!("{name}: {e}"));
    let b = run_spec(&spec, Path::new("."), true).expect(name);
    assert_eq!(a.text, b.text, "{name}: report must be deterministic");
    for ((ka, va), (kb, vb)) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(ka, kb);
        assert_eq!(va.to_bits(), vb.to_bits(), "{name}: metric {ka}");
    }
    let sla = a.metrics.iter().find(|(k, _)| k == "mean_sla").unwrap().1;
    assert!(sla > 0.0 && sla <= 1.0, "{name}: mean_sla {sla}");
}

#[test]
fn azure_fixture_imports_runs_and_replays_bit_identically() {
    check_format(TraceFormat::Azure);
}

#[test]
fn alibaba_fixture_imports_runs_and_replays_bit_identically() {
    check_format(TraceFormat::Alibaba);
}

#[test]
fn example_spec_file_runs() {
    // The worked example shipped under examples/specs must stay green:
    // paths resolve relative to the spec file's directory, exactly as
    // `pamdc run examples/specs/azure_fleet.toml` resolves them.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/azure_fleet.toml");
    let text = std::fs::read_to_string(&path).expect("example spec");
    let spec = ScenarioSpec::parse(&text).expect("parse");
    assert_eq!(spec.topology.classes.len(), 2);
    let report = run_spec(&spec, path.parent().unwrap(), true).expect("run");
    assert!(report.metrics.iter().any(|(k, _)| k == "mean_sla"));
}
