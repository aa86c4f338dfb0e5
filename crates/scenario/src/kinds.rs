//! The experiment-kind registry: one entry per `[experiment] kind`.
//!
//! A **world kind** is a list of arms over the spec plus the report
//! function its module in `pamdc_core::experiments` provides. An arm is
//! a label and the spec with that arm's overrides applied — the policy
//! kind and oracle, and world keys such as `energy.price_blind`,
//! `[[energy.tariffs]]` rows, `workload.load_scale` or
//! `topology.pms_per_dc`. The runner builds every arm with the same
//! `build_scenario` / `build_policy` / `run_config` calls, so every world
//! kind honours every spec key. A spec without an `[experiment]` table
//! runs [`GENERIC`], the one-arm case. An **analysis kind** builds no
//! world of its own and is a single report function over the spec.
//!
//! Quick mode is data: [`quick_spec`] applies the shared
//! [`TRAINING_QUICK`] rows and then the entry's own `quick` rows
//! through [`ScenarioSpec::with_param`]; every other value stays the
//! spec's.
//!
//! This table is the **only** place a kind is wired up: `pamdc
//! run/sweep/campaign`, spec validation and the golden tests read it.

use crate::build;
use crate::spec::{OracleKind, PolicyKind, ProfileChangeSpec, ScenarioSpec, SpecError, TariffSpec};
use pamdc_core::experiment::{outcome_metrics, render_outcome, ExperimentReport, ExperimentRun};
use pamdc_core::experiments::{
    ablations, deloc, fig4, fig5, fig6, fig7_table3, fig8, green, heterogeneity, online_drift,
    price_adaptation, scaling, solver_scaling, table1, table2,
};
use pamdc_core::scenario::Scenario;
use pamdc_simcore::time::SimTime;

/// One arm of a world kind.
pub struct SpecArm {
    /// Metric prefix (empty for single-arm kinds).
    pub label: String,
    /// The spec this arm runs: the kind's spec with the arm's overrides.
    pub spec: ScenarioSpec,
    /// Collect training samples during the run (the arm's report reads
    /// them from [`ExperimentRun::samples`]).
    pub collect: bool,
}

/// How a kind produces its report.
pub enum Plan {
    /// A world kind: the arms over the spec (the spec's own world is
    /// passed in, built), then the report over their run.
    Arms {
        /// The arms, in report order.
        arms: fn(&ScenarioSpec, &Scenario) -> Vec<SpecArm>,
        /// Folds the executed arms into the report.
        report: fn(&ScenarioSpec, ExperimentRun) -> ExperimentReport,
    },
    /// An analysis kind: no world, one report function. `quick` picks
    /// the reduced study where its size is not a spec key.
    Analysis(fn(&ScenarioSpec, bool) -> ExperimentReport),
}

/// One registered experiment kind.
pub struct KindEntry {
    /// The `[experiment] kind` string.
    pub kind: &'static str,
    /// False for wall-clock timing studies whose reports vary run to
    /// run (excluded from golden snapshots; still CI-smoked).
    pub deterministic: bool,
    /// `(key path, value)` rows quick mode applies after
    /// [`TRAINING_QUICK`].
    pub quick: &'static [(&'static str, &'static str)],
    /// How the report is produced.
    pub plan: Plan,
}

/// The Table-I collection every kind runs in quick mode.
pub const TRAINING_QUICK: &[(&str, &str)] = &[
    ("training.vms", "4"),
    ("training.scales", "[0.5, 1.0, 1.5]"),
    ("training.hours_per_scale", "4"),
];

/// The spec's quick-mode form under `entry`.
pub fn quick_spec(spec: &ScenarioSpec, entry: &KindEntry) -> Result<ScenarioSpec, SpecError> {
    TRAINING_QUICK
        .iter()
        .chain(entry.quick)
        .try_fold(spec.clone(), |s, (key, value)| s.with_param(key, value))
}

/// An arm running `spec` under `kind` with `oracle`.
fn arm(label: &str, spec: &ScenarioSpec, kind: PolicyKind, oracle: OracleKind) -> SpecArm {
    let mut spec = spec.clone();
    spec.policy.kind = kind;
    spec.policy.oracle = oracle;
    SpecArm {
        label: label.into(),
        spec,
        collect: false,
    }
}

/// The `[experiment]` table of a dispatched spec.
fn exp(spec: &ScenarioSpec) -> &crate::spec::ExperimentSpec {
    spec.experiment.as_ref().expect("dispatched kind")
}

/// Half the horizon: when price-adaptation's spike and online-drift's
/// update land.
fn midpoint(spec: &ScenarioSpec) -> SimTime {
    SimTime::from_hours(spec.run.hours / 2)
}

/// BF sizing by the monitor, BF-OB, BF-ML and (optionally) BF-True.
fn fig4_arms(spec: &ScenarioSpec, _: &Scenario) -> Vec<SpecArm> {
    let mut oracles = vec![OracleKind::Monitor, OracleKind::Overbooked, OracleKind::Ml];
    if exp(spec).true_arm {
        oracles.push(OracleKind::True);
    }
    oracles
        .into_iter()
        .map(|o| arm("", spec, PolicyKind::BestFit, o))
        .collect()
}

/// The `(load scale, hosts per DC)` grid, load-major; an empty axis
/// keeps the spec's own value.
fn fig8_grid(spec: &ScenarioSpec) -> Vec<(f64, usize)> {
    let e = exp(spec);
    let loads = if e.load_scales.is_empty() {
        vec![spec.workload.load_scale]
    } else {
        e.load_scales.clone()
    };
    let pms = if e.pms_levels.is_empty() {
        vec![spec.topology.pms_per_dc]
    } else {
        e.pms_levels.clone()
    };
    loads
        .iter()
        .flat_map(|&l| pms.iter().map(move |&p| (l, p)))
        .collect()
}

fn fig8_arms(spec: &ScenarioSpec, _: &Scenario) -> Vec<SpecArm> {
    fig8_grid(spec)
        .into_iter()
        .map(|(load_scale, pms_per_dc)| {
            let mut s = spec.clone();
            s.workload.load_scale = load_scale;
            s.topology.pms_per_dc = pms_per_dc;
            arm("", &s, PolicyKind::Hierarchical, OracleKind::True)
        })
        .collect()
}

/// The same hierarchical scheduler seeing live prices, then only the
/// posted ones.
fn aware_and_blind(spec: &ScenarioSpec, labels: [&str; 2]) -> Vec<SpecArm> {
    let mut blind = spec.clone();
    blind.energy.price_blind = true;
    vec![
        arm(labels[0], spec, PolicyKind::Hierarchical, OracleKind::True),
        arm(
            labels[1],
            &blind,
            PolicyKind::Hierarchical,
            OracleKind::True,
        ),
    ]
}

/// Pinned static placement, then the de-locating hierarchical scheduler.
fn static_and_dynamic(spec: &ScenarioSpec, labels: [&str; 2], oracle: OracleKind) -> Vec<SpecArm> {
    vec![
        arm(labels[0], spec, PolicyKind::Static, OracleKind::True),
        arm(labels[1], spec, PolicyKind::Hierarchical, oracle),
    ]
}

/// The tariff-spread axis (empty = the paper's prices only).
fn spreads(spec: &ScenarioSpec) -> Vec<f64> {
    match exp(spec).spreads.as_slice() {
        [] => vec![1.0],
        s => s.to_vec(),
    }
}

fn heterogeneity_arms(spec: &ScenarioSpec, _: &Scenario) -> Vec<SpecArm> {
    spreads(spec)
        .into_iter()
        .flat_map(|spread| {
            let mut s = spec.clone();
            for (dc, &price) in heterogeneity::stretched_prices(spread).iter().enumerate() {
                s.energy.tariffs.push(TariffSpec {
                    dc,
                    eur_per_kwh: price,
                    step_at_hour: None,
                    step_eur_per_kwh: None,
                });
            }
            let labels = [format!("x{spread}_static"), format!("x{spread}_dynamic")];
            static_and_dynamic(&s, [&labels[0], &labels[1]], OracleKind::True)
        })
        .collect()
}

fn price_adaptation_arms(spec: &ScenarioSpec, _: &Scenario) -> Vec<SpecArm> {
    let dc = price_adaptation::BOSTON;
    let base = pamdc_econ::prices::paper_prices()[dc].eur_per_kwh;
    let mut s = spec.clone();
    s.energy.tariffs.push(TariffSpec {
        dc,
        eur_per_kwh: base,
        step_at_hour: Some(spec.run.hours / 2),
        step_eur_per_kwh: Some(base * exp(spec).spike_factor),
    });
    aware_and_blind(&s, ["adaptive", "posted"])
}

/// One static, never-planning collection run whose fleet-wide update
/// lands at the midpoint as `[[profile_changes]]` rows.
fn online_drift_arms(spec: &ScenarioSpec, world: &Scenario) -> Vec<SpecArm> {
    let mut s = spec.clone();
    let at_min = midpoint(spec).as_mins();
    for (vm, &profile) in world.perf_profiles.iter().enumerate() {
        let p = online_drift::bloated(profile);
        s.profile_changes.push(ProfileChangeSpec {
            vm,
            at_min,
            base_mem_mb: p.base_mem_mb,
            mem_mb_per_inflight: p.mem_mb_per_inflight,
            io_wait_factor: p.io_wait_factor,
            idle_cpu_pct: p.idle_cpu_pct,
        });
    }
    s.run.keep_series = false;
    s.run.round_every_ticks = 0;
    let mut collection = arm("", &s, PolicyKind::Static, OracleKind::True);
    collection.collect = true;
    vec![collection]
}

/// The spec without an `[experiment]` table: one arm, its own policy.
pub const GENERIC: KindEntry = KindEntry {
    kind: "",
    deterministic: true,
    quick: &[("run.hours", "3")],
    plan: Plan::Arms {
        arms: |spec, _| vec![arm("", spec, spec.policy.kind, spec.policy.oracle)],
        report: |_, run| {
            let outcome = &run.outcomes[0].1;
            ExperimentReport {
                text: render_outcome(outcome),
                metrics: outcome_metrics("", outcome),
            }
        },
    },
};

/// Every registered experiment kind, in paper order.
pub const KINDS: &[KindEntry] = &[
    KindEntry {
        kind: "fig4",
        deterministic: true,
        quick: &[("run.hours", "14"), ("experiment.true_arm", "false")],
        plan: Plan::Arms {
            arms: fig4_arms,
            report: |_, run| fig4::report(run),
        },
    },
    KindEntry {
        kind: "fig5",
        deterministic: true,
        quick: &[("run.hours", "24")],
        plan: Plan::Arms {
            arms: |spec, _| vec![arm("", spec, PolicyKind::FollowLoad, OracleKind::True)],
            report: |_, run| fig5::report(run),
        },
    },
    KindEntry {
        kind: "fig6",
        deterministic: true,
        quick: &[("run.hours", "3"), ("workload.vms", "4")],
        plan: Plan::Arms {
            arms: |spec, _| vec![arm("", spec, PolicyKind::Hierarchical, spec.policy.oracle)],
            report: |_, run| fig6::report(run),
        },
    },
    KindEntry {
        kind: "fig7-table3",
        deterministic: true,
        quick: &[("run.hours", "4"), ("workload.load_scale", "1.0")],
        plan: Plan::Arms {
            arms: |spec, _| static_and_dynamic(spec, ["static", "dynamic"], spec.policy.oracle),
            report: |_, run| fig7_table3::report(run),
        },
    },
    KindEntry {
        kind: "fig8",
        deterministic: true,
        quick: &[
            ("experiment.load_scales", "[0.6, 1.8]"),
            ("experiment.pms_levels", "[1, 2]"),
            ("run.hours", "2"),
            ("workload.vms", "4"),
        ],
        plan: Plan::Arms {
            arms: fig8_arms,
            report: |spec, run| fig8::report(run, &fig8_grid(spec)),
        },
    },
    KindEntry {
        kind: "table1",
        deterministic: true,
        quick: &[],
        plan: Plan::Analysis(|spec, _| {
            table1::report(&table1::run(&build::training(&spec.training)))
        }),
    },
    KindEntry {
        kind: "table2",
        deterministic: true,
        quick: &[],
        plan: Plan::Analysis(|_, _| table2::report()),
    },
    KindEntry {
        kind: "green",
        deterministic: true,
        quick: &[("run.hours", "24"), ("workload.vms", "3")],
        plan: Plan::Arms {
            arms: |spec, _| aware_and_blind(spec, ["sun_aware", "price_blind"]),
            report: |_, run| green::report(run),
        },
    },
    KindEntry {
        kind: "deloc",
        deterministic: true,
        quick: &[("run.hours", "5"), ("workload.vms", "4")],
        plan: Plan::Arms {
            arms: |spec, _| static_and_dynamic(spec, ["fixed", "delocating"], OracleKind::True),
            report: |spec, run| deloc::report(run, spec.workload.vms),
        },
    },
    // The `[training]` section shapes the collection runs; the master
    // `seed` drives them (so `--param seed=...` sweeps vary the study).
    KindEntry {
        kind: "ablations",
        deterministic: true,
        quick: &[("training.scales", "[0.6, 1.2]")],
        plan: Plan::Analysis(|spec, _| {
            ablations::report(&table1::Table1Config {
                seed: spec.seed,
                ..build::training(&spec.training)
            })
        }),
    },
    KindEntry {
        kind: "heterogeneity",
        deterministic: true,
        quick: &[
            ("experiment.spreads", "[1.0, 6.0]"),
            ("run.hours", "8"),
            ("workload.vms", "3"),
        ],
        plan: Plan::Arms {
            arms: heterogeneity_arms,
            report: |spec, run| heterogeneity::report(run, &spreads(spec)),
        },
    },
    KindEntry {
        kind: "online-drift",
        deterministic: true,
        quick: &[("run.hours", "8"), ("workload.vms", "4")],
        plan: Plan::Arms {
            arms: online_drift_arms,
            report: |spec, run| online_drift::report(run, spec.workload.vms, midpoint(spec)),
        },
    },
    KindEntry {
        kind: "price-adaptation",
        deterministic: true,
        quick: &[("run.hours", "12"), ("workload.vms", "3")],
        plan: Plan::Arms {
            arms: price_adaptation_arms,
            report: |spec, run| price_adaptation::report(run, spec.workload.vms, midpoint(spec)),
        },
    },
    // Timing studies over synthetic single rounds: `workload.peak_rps`
    // sets the per-VM offered load; the instance-size ladder and
    // repetition counts stay the study's (the builtins pin `peak_rps`
    // to the study defaults).
    KindEntry {
        kind: "scaling",
        deterministic: false,
        quick: &[],
        plan: Plan::Analysis(|spec, quick| {
            let base = if quick {
                scaling::ScalingConfig::quick()
            } else {
                scaling::ScalingConfig::default()
            };
            scaling::report(&scaling::ScalingConfig {
                rps: spec.workload.peak_rps,
                ..base
            })
        }),
    },
    KindEntry {
        kind: "solver-scaling",
        deterministic: false,
        quick: &[],
        plan: Plan::Analysis(|spec, quick| {
            let base = if quick {
                solver_scaling::ScalingConfig::quick()
            } else {
                solver_scaling::ScalingConfig::default()
            };
            solver_scaling::report(&solver_scaling::ScalingConfig {
                rps: spec.workload.peak_rps,
                ..base
            })
        }),
    },
];

/// Looks a kind up by its `[experiment] kind` string.
pub fn find(kind: &str) -> Option<&'static KindEntry> {
    KINDS.iter().find(|k| k.kind == kind)
}

/// All registered kind strings (spec validation and error hints).
pub fn kind_names() -> Vec<&'static str> {
    KINDS.iter().map(|k| k.kind).collect()
}

/// The entry a spec runs under: its `[experiment]` kind, or [`GENERIC`].
pub fn entry_for(spec: &ScenarioSpec) -> Result<&'static KindEntry, SpecError> {
    let Some(exp) = &spec.experiment else {
        return Ok(&GENERIC);
    };
    find(&exp.kind).ok_or_else(|| {
        SpecError(format!(
            "unknown experiment kind {:?} (expected one of {})",
            exp.kind,
            kind_names().join(" | ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let mut names = kind_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KINDS.len());
    }

    #[test]
    fn every_quick_row_applies_to_a_bound_spec() {
        for entry in KINDS.iter().chain([&GENERIC]) {
            let mut spec = ScenarioSpec::default();
            if !entry.kind.is_empty() {
                spec.experiment = Some(crate::spec::ExperimentSpec {
                    kind: entry.kind.into(),
                    ..crate::spec::ExperimentSpec::default()
                });
            }
            let quick = quick_spec(&spec, entry).unwrap_or_else(|e| panic!("{}: {e}", entry.kind));
            assert_eq!(quick.training.vms, 4, "{}", entry.kind);
        }
    }
}
