//! Pins the spec wire format and what the field table derives from it:
//!
//! * the canonical `emit()` of every builtin, byte-for-byte against its
//!   snapshot under `tests/spec_golden/` (the text `pamdc show <name>`
//!   prints);
//! * the key table in `docs/SCENARIOS.md`, exactly as the table renders;
//! * every TOML example in the docs parses;
//! * every numeric key rejects NaN, ±inf and a value just outside its
//!   range with an error naming the key.
//!
//! Regenerate the snapshots and the docs table deliberately with
//!
//! ```text
//! PAMDC_UPDATE_GOLDEN=1 cargo test -p pamdc-scenario --test spec_schema
//! ```

use pamdc_scenario::campaign::Campaign;
use pamdc_scenario::registry;
use pamdc_scenario::schema::Check;
use pamdc_scenario::spec::{
    ExperimentSpec, FaultSpec, HostClassSpec, ImportSpec, MachineClass, ProfileChangeSpec,
    ScenarioSpec, ServeSpec, ServiceSpecEntry, TariffSpec, TraceReplaySpec,
};
use pamdc_scenario::toml::{self, Table, Value};
use std::path::{Path, PathBuf};

fn updating() -> bool {
    std::env::var("PAMDC_UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn spec_golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/spec_golden")
}

#[test]
fn builtin_emit_matches_the_snapshot() {
    let builtins = registry::builtins();
    assert_eq!(builtins.len(), 19, "one snapshot per builtin");
    for b in builtins {
        let emitted = b.spec.emit();
        let path = spec_golden_dir().join(format!("{}.toml", b.name));
        if updating() {
            std::fs::create_dir_all(spec_golden_dir()).expect("golden dir");
            std::fs::write(&path, &emitted).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing {} ({e}); regenerate with PAMDC_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            emitted, want,
            "{}: emit() diverged from its snapshot",
            b.name
        );
    }
}

const BEGIN: &str = "<!-- spec-keys:begin (generated; PAMDC_UPDATE_GOLDEN=1 rewrites it) -->\n";
const END: &str = "<!-- spec-keys:end -->";

#[test]
fn docs_key_table_matches_the_field_table() {
    let path = repo_file("docs/SCENARIOS.md");
    let doc = std::fs::read_to_string(&path).expect("read docs/SCENARIOS.md");
    let start = doc.find(BEGIN).expect("begin marker") + BEGIN.len();
    let end = doc.find(END).expect("end marker");
    let table = pamdc_scenario::schema::markdown::<ScenarioSpec>();
    if updating() {
        let rewritten = format!("{}{table}{}", &doc[..start], &doc[end..]);
        std::fs::write(&path, rewritten).expect("write docs");
        return;
    }
    let have = &doc[start..end];
    if have != table {
        let stale: Vec<&str> = have.lines().filter(|l| !table.contains(l)).collect();
        let missing: Vec<&str> = table.lines().filter(|l| !have.contains(l)).collect();
        panic!(
            "docs/SCENARIOS.md key table is stale; regenerate with PAMDC_UPDATE_GOLDEN=1\n\
             only in the docs:\n{}\nonly in the field table:\n{}",
            stale.join("\n"),
            missing.join("\n")
        );
    }
}

/// The bodies of the ` ```toml ` blocks of a Markdown file, with their
/// 1-based opening line.
fn toml_blocks(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut open: Option<(usize, String)> = None;
    for (i, line) in text.lines().enumerate() {
        match &mut open {
            None if line.trim() == "```toml" => open = Some((i + 1, String::new())),
            Some(_) if line.trim() == "```" => out.extend(open.take()),
            Some((_, body)) => {
                body.push_str(line);
                body.push('\n');
            }
            None => {}
        }
    }
    out
}

#[test]
fn docs_toml_examples_parse() {
    let (mut specs, mut campaigns) = (0, 0);
    for doc in ["docs/SCENARIOS.md", "docs/SERVE.md", "docs/TRACES.md"] {
        let text = std::fs::read_to_string(repo_file(doc)).expect(doc);
        for (line, body) in toml_blocks(&text) {
            let outcome = if body.contains("[[runs]]") {
                campaigns += 1;
                Campaign::parse(&body).map(drop)
            } else {
                specs += 1;
                ScenarioSpec::parse(&body).map(drop)
            };
            if let Err(e) = outcome {
                panic!("{doc}:{line}: example does not parse: {e}\n{body}");
            }
        }
    }
    assert_eq!((specs, campaigns), (6, 1), "every docs example was seen");
}

/// Valid specs that between them hold every table and entry kind (the
/// demand sources and an experiment binding exclude one another).
fn base_trees() -> Vec<Table> {
    let mut rich = ScenarioSpec::default();
    rich.topology.classes = vec![HostClassSpec {
        count: 1,
        machine: MachineClass::Custom {
            cores: 2,
            mem_mb: 2048.0,
            idle_watts: 10.0,
            peak_watts: 20.0,
        },
    }];
    rich.topology.deploy_all_in = Some(0);
    rich.workload.flash_crowd = Some(2.0);
    rich.workload.services = vec![ServiceSpecEntry {
        count: 5,
        mem_mb_per_inflight: Some(8.0),
        ..ServiceSpecEntry::default()
    }];
    rich.energy.tariffs = vec![TariffSpec {
        dc: 0,
        eur_per_kwh: 0.1,
        step_at_hour: Some(3),
        step_eur_per_kwh: Some(0.2),
    }];
    rich.policy.plan_horizon_ticks = Some(60);
    rich.policy.near_equivalence_top_k = Some(2);
    rich.serve = ServeSpec {
        budget_ms: 10,
        snapshot_every: 5,
        status_out: Some("status.jsonl".into()),
    };
    rich.faults = vec![FaultSpec {
        pm: 0,
        at_min: 1,
        repair_after_min: 1,
    }];
    rich.profile_changes = vec![ProfileChangeSpec {
        vm: 0,
        at_min: 1,
        ..ProfileChangeSpec::default()
    }];

    let mut traced = ScenarioSpec::default();
    traced.workload.trace = Some(TraceReplaySpec {
        path: "day.csv".into(),
        ..TraceReplaySpec::default()
    });

    let mut imported = ScenarioSpec::default();
    imported.workload.import = Some(ImportSpec {
        path: "azure.csv".into(),
        tick_secs: Some(60),
        max_services: Some(3),
        max_ticks: Some(10),
        ..ImportSpec::default()
    });

    let bound = ScenarioSpec {
        experiment: Some(ExperimentSpec {
            kind: "fig8".into(),
            load_scales: vec![1.0],
            pms_levels: vec![1],
            spreads: vec![1.0],
            spike_factor: 2.0,
            ..ExperimentSpec::default()
        }),
        ..ScenarioSpec::default()
    };

    [rich, traced, imported, bound]
        .iter()
        .map(|spec| {
            spec.validate().expect("base spec is valid");
            toml::parse(&spec.emit()).expect("base spec emits")
        })
        .collect()
}

/// The table a dotted key sits in (the first entry of an array of
/// tables), when `tree` has it.
fn parent_table<'a>(tree: &'a mut Table, parents: &[&str]) -> Option<&'a mut Table> {
    let mut table = tree;
    for part in parents {
        table = match table.get_mut(*part)? {
            Value::Table(t) => t,
            Value::Array(items) => match items.first_mut()? {
                Value::Table(t) => t,
                _ => return None,
            },
            _ => return None,
        };
    }
    Some(table)
}

/// NaN, ±inf and values just outside `check` for a numeric key.
fn bad_values(kind: &str, check: Check) -> Vec<Value> {
    let mut out = vec![
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
    ];
    let integer = kind.contains("integer");
    match check {
        Check::Num { lo, open, hi } => {
            let step = if integer {
                1.0
            } else {
                lo.abs().max(1.0) * 1e-9
            };
            let below = if open { lo } else { lo - step };
            out.push(if integer {
                Value::Int(below as i64)
            } else {
                Value::Float(below)
            });
            if hi.is_finite() {
                out.push(Value::Float(hi + step));
            }
        }
        // Unbounded integers: below zero is outside the type.
        _ if integer => out.push(Value::Int(-1)),
        other => panic!("float keys need a range, got {other:?}"),
    }
    out
}

#[test]
fn every_numeric_key_rejects_non_finite_and_out_of_range_values() {
    let bases = base_trees();
    let keys = pamdc_scenario::schema::keys::<ScenarioSpec>("");
    let numeric: Vec<_> = keys
        .iter()
        .filter(|k| k.kind.contains("float") || k.kind.contains("integer"))
        .collect();
    assert!(numeric.len() > 50, "{} numeric keys", numeric.len());
    for key in numeric {
        let parts: Vec<&str> = key.path.split('.').collect();
        let (leaf, parents) = parts.split_last().expect("non-empty path");
        let base = bases
            .iter()
            .find(|tree| parent_table(&mut (*tree).clone(), parents).is_some())
            .unwrap_or_else(|| panic!("no base spec holds the table of {}", key.path));
        for value in bad_values(&key.kind, key.check) {
            let value = if key.kind.starts_with('[') {
                Value::Array(vec![value])
            } else {
                value
            };
            let mut tree = base.clone();
            let table = parent_table(&mut tree, parents).expect("table present");
            table.insert(leaf.to_string(), value.clone());
            let doc = toml::emit(&tree);
            match ScenarioSpec::parse(&doc) {
                Ok(_) => panic!("{} = {value:?} was accepted", key.path),
                Err(e) => assert!(
                    e.0.contains(&key.path),
                    "{} = {value:?}: error does not name the key: {e}",
                    key.path
                ),
            }
        }
    }
}

#[test]
fn sweep_hints_are_the_rows_flagged_sweepable() {
    let mut hints = pamdc_scenario::spec::sweep_hints();
    hints.sort();
    assert_eq!(
        hints,
        [
            "billing.vm_eur_per_hour",
            "energy.solar_per_pm_w",
            "policy.kind",
            "policy.near_equivalence_top_k",
            "policy.oracle",
            "run.hours",
            "run.round_every_ticks",
            "seed",
            "topology.pms_per_dc",
            "workload.flash_crowd",
            "workload.load_scale",
            "workload.peak_rps",
            "workload.vms",
        ]
    );
}
