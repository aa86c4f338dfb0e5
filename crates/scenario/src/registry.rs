//! Built-in scenario specs: every paper experiment as data.
//!
//! Each entry mirrors the corresponding experiment driver's default
//! configuration (same seeds, same knobs), so `pamdc run <name>`
//! reproduces the driver's report numbers bit-for-bit. The specs also
//! carry full generic `[topology]`/`[workload]`/`[policy]` sections, so
//! `pamdc sweep` can vary them without the experiment binding.

use crate::spec::{
    ExperimentSpec, FaultSpec, HostClassSpec, MachineClass, OracleKind, PolicyKind, ScenarioSpec,
    ServiceSpecEntry, TopologyPreset, WorkloadPreset,
};

/// One named built-in scenario.
#[derive(Clone, Debug)]
pub struct BuiltinSpec {
    /// Registry name (`pamdc run <name>`).
    pub name: &'static str,
    /// One-line description for `pamdc list`.
    pub title: &'static str,
    /// The spec.
    pub spec: ScenarioSpec,
}

fn experiment(kind: &str) -> Option<ExperimentSpec> {
    Some(ExperimentSpec {
        kind: kind.into(),
        ..ExperimentSpec::default()
    })
}

/// All built-in specs, in paper order.
///
/// (The mutate-a-default style below is deliberate: each builtin
/// documents its deltas from the paper's default world, field by field.)
#[allow(clippy::field_reassign_with_default)]
pub fn builtins() -> Vec<BuiltinSpec> {
    let mut out = Vec::new();

    // Figure 4 — intra-DC scheduling comparatives (§V-B).
    let mut fig4 = ScenarioSpec::default();
    fig4.name = "fig4".into();
    fig4.description = "Intra-DC BF/BF-OB/BF-ML comparatives (paper §V-B, Figure 4)".into();
    fig4.seed = 4;
    fig4.topology.preset = TopologyPreset::IntraDc;
    fig4.topology.pms_per_dc = 4;
    fig4.workload.preset = WorkloadPreset::IntraDc;
    fig4.workload.peak_rps = 240.0;
    fig4.policy.kind = PolicyKind::BestFit;
    fig4.policy.oracle = OracleKind::Ml;
    fig4.experiment = experiment("fig4");
    out.push(BuiltinSpec {
        name: "fig4",
        title: "intra-DC scheduling comparatives (BF / BF-OB / BF-ML / BF-True)",
        spec: fig4,
    });

    // Figure 5 — a VM following its load around the planet.
    let mut fig5 = ScenarioSpec::default();
    fig5.name = "fig5".into();
    fig5.description = "One VM chasing the sun across four DCs (Figure 5)".into();
    fig5.seed = 5;
    fig5.workload.preset = WorkloadPreset::FollowTheSun;
    fig5.workload.vms = 1;
    fig5.policy.kind = PolicyKind::FollowLoad;
    fig5.run.hours = 48;
    fig5.experiment = experiment("fig5");
    out.push(BuiltinSpec {
        name: "fig5",
        title: "follow-the-load sanity check (VM circles the planet)",
        spec: fig5,
    });

    // Figure 6 — inter-DC scheduling with the flash crowd.
    let mut fig6 = ScenarioSpec::default();
    fig6.name = "fig6".into();
    fig6.description =
        "Inter-DC scheduling with the minute-70\u{2013}90 flash crowd (Figure 6)".into();
    fig6.seed = 7;
    fig6.workload.flash_crowd = Some(8.0);
    fig6.experiment = experiment("fig6");
    out.push(BuiltinSpec {
        name: "fig6",
        title: "inter-DC scheduling through a capacity-exceeding flash crowd",
        spec: fig6,
    });

    // Figure 7 / Table III — static vs dynamic multi-DC management.
    let mut fig7 = ScenarioSpec::default();
    fig7.name = "fig7-table3".into();
    fig7.description = "Static-Global vs Dynamic multi-DC management (Figure 7, Table III)".into();
    fig7.seed = 8;
    fig7.workload.load_scale = 1.15;
    fig7.experiment = experiment("fig7-table3");
    out.push(BuiltinSpec {
        name: "fig7-table3",
        title: "static vs dynamic multi-DC: the ~42% energy saving",
        spec: fig7,
    });

    // Figure 8 — the SLA vs energy vs load surface.
    let mut fig8 = ScenarioSpec::default();
    fig8.name = "fig8".into();
    fig8.description = "SLA vs energy vs load characteristic surface (Figure 8)".into();
    fig8.seed = 9;
    fig8.run.hours = 6;
    fig8.experiment = Some(ExperimentSpec {
        kind: "fig8".into(),
        load_scales: vec![0.5, 1.0, 1.5, 2.0],
        pms_levels: vec![1, 2, 3],
        ..ExperimentSpec::default()
    });
    out.push(BuiltinSpec {
        name: "fig8",
        title: "load × energy-budget sweep tracing the SLA surface",
        spec: fig8,
    });

    // Table I — the learning pipeline.
    let mut table1 = ScenarioSpec::default();
    table1.name = "table1".into();
    table1.description = "Learning details for each predicted element (Table I)".into();
    table1.seed = 2013;
    table1.topology.preset = TopologyPreset::IntraDc;
    table1.topology.pms_per_dc = 4;
    table1.workload.preset = WorkloadPreset::IntraDc;
    table1.workload.peak_rps = 240.0;
    table1.policy.kind = PolicyKind::Random;
    table1.experiment = experiment("table1");
    out.push(BuiltinSpec {
        name: "table1",
        title: "train + validate the seven predictors (M5P / LinReg / k-NN)",
        spec: table1,
    });

    // Table II — model inputs echoed and checked.
    let mut table2 = ScenarioSpec::default();
    table2.name = "table2".into();
    table2.description = "Prices and latencies used in the experiments (Table II)".into();
    table2.experiment = experiment("table2");
    out.push(BuiltinSpec {
        name: "table2",
        title: "echo + sanity-check the Table II prices and latencies",
        spec: table2,
    });

    // Green — the follow-the-sun future-work extension.
    let mut green = ScenarioSpec::default();
    green.name = "green".into();
    green.description = "Follow-the-sun solar extension (paper future-work §II)".into();
    green.seed = 11;
    green.topology.pms_per_dc = 2;
    green.workload.preset = WorkloadPreset::Uniform;
    green.workload.vms = 4;
    green.workload.load_scale = 0.7;
    green.energy.solar_dcs = vec![0, 2];
    green.energy.solar_per_pm_w = 150.0;
    green.energy.min_sky = 0.7;
    green.policy.plan_horizon_ticks = Some(60);
    green.run.hours = 48;
    green.experiment = experiment("green");
    out.push(BuiltinSpec {
        name: "green",
        title: "sun-aware vs price-blind scheduling with on-site solar",
        spec: green,
    });

    // De-location — §V-C "Benefit of De-locating Load".
    let mut deloc = ScenarioSpec::default();
    deloc.name = "deloc".into();
    deloc.description = "Benefit of de-locating load from an overloaded home DC (§V-C)".into();
    deloc.seed = 6;
    deloc.topology.pms_per_dc = 2;
    deloc.topology.deploy_all_in = Some(2);
    deloc.workload.load_scale = 0.9;
    deloc.experiment = experiment("deloc");
    out.push(BuiltinSpec {
        name: "deloc",
        title: "pinned vs de-locatable VMs under home-DC overload",
        spec: deloc,
    });

    // Ablations — SLA prediction path + monitor bias (§IV-B / §V-B).
    let mut ablations = ScenarioSpec::default();
    ablations.name = "ablations".into();
    ablations.description =
        "Design ablations: direct-SLA vs via-RT prediction, and the monitor bias (§IV-B, §V-B)"
            .into();
    ablations.seed = 2013;
    ablations.topology.preset = TopologyPreset::IntraDc;
    ablations.topology.pms_per_dc = 4;
    ablations.workload.preset = WorkloadPreset::IntraDc;
    ablations.workload.peak_rps = 240.0;
    ablations.policy.kind = PolicyKind::Random;
    ablations.experiment = experiment("ablations");
    out.push(BuiltinSpec {
        name: "ablations",
        title: "SLA-prediction-path & monitor-bias ablations over Table-I samples",
        spec: ablations,
    });

    // Heterogeneity — the §V-C price-spread prediction.
    let mut heterogeneity = ScenarioSpec::default();
    heterogeneity.name = "heterogeneity".into();
    heterogeneity.description =
        "Price-heterogeneity sweep: dynamic benefit grows with tariff spread (§V-C)".into();
    heterogeneity.seed = 29;
    heterogeneity.topology.pms_per_dc = 2;
    heterogeneity.workload.preset = WorkloadPreset::Uniform;
    heterogeneity.workload.vms = 4;
    heterogeneity.workload.peak_rps = 170.0;
    heterogeneity.workload.load_scale = 0.7;
    heterogeneity.policy.plan_horizon_ticks = Some(60);
    heterogeneity.run.hours = 12;
    heterogeneity.experiment = Some(ExperimentSpec {
        kind: "heterogeneity".into(),
        spreads: vec![1.0, 2.0, 4.0, 8.0],
        ..ExperimentSpec::default()
    });
    out.push(BuiltinSpec {
        name: "heterogeneity",
        title: "static vs dynamic benefit as tariff spreads widen (x1..x8)",
        spec: heterogeneity,
    });

    // On-line drift — future-work item 4 (concept drift).
    let mut drift = ScenarioSpec::default();
    drift.name = "online-drift".into();
    drift.description =
        "On-line learning through a fleet-wide software update (paper future-work 4)".into();
    drift.seed = 23;
    drift.topology.preset = TopologyPreset::IntraDc;
    drift.topology.pms_per_dc = 4;
    drift.workload.preset = WorkloadPreset::IntraDc;
    drift.workload.peak_rps = 240.0;
    drift.workload.load_scale = 0.8;
    drift.policy.kind = PolicyKind::Static;
    drift.run.hours = 16;
    drift.experiment = experiment("online-drift");
    out.push(BuiltinSpec {
        name: "online-drift",
        title: "frozen vs sliding-window vs drift-aware predictors under drift",
        spec: drift,
    });

    // Price adaptation — the §V-B unreported result.
    let mut price = ScenarioSpec::default();
    price.name = "price-adaptation".into();
    price.description =
        "Scheduler adapts to a 4x Boston tariff spike without retuning (§V-B)".into();
    price.seed = 17;
    price.topology.pms_per_dc = 2;
    price.topology.deploy_all_in = Some(3);
    price.workload.preset = WorkloadPreset::Uniform;
    price.workload.vms = 4;
    price.workload.peak_rps = 170.0;
    price.workload.load_scale = 0.7;
    price.policy.plan_horizon_ticks = Some(60);
    price.experiment = experiment("price-adaptation");
    out.push(BuiltinSpec {
        name: "price-adaptation",
        title: "adaptive vs posted-price scheduling through a tariff spike",
        spec: price,
    });

    // Scheduling-round scalability — future-work item 1.
    let mut scaling = ScenarioSpec::default();
    scaling.name = "scaling".into();
    scaling.description =
        "Flat vs hierarchical scheduling-round scalability (paper future-work 1)".into();
    scaling.workload.peak_rps = 60.0; // the driver's per-VM offered load
    scaling.experiment = experiment("scaling");
    out.push(BuiltinSpec {
        name: "scaling",
        title: "how many VMs/PMs per round: flat vs hierarchical wall time",
        spec: scaling,
    });

    // Solver scaling — §IV-C's motivation for the heuristic.
    let mut solver = ScenarioSpec::default();
    solver.name = "solver-scaling".into();
    solver.description = "Exact branch-and-bound vs Best-Fit scaling gap (§IV-C)".into();
    solver.workload.peak_rps = 250.0; // the driver's per-VM offered load
    solver.experiment = experiment("solver-scaling");
    out.push(BuiltinSpec {
        name: "solver-scaling",
        title: "exact solver blow-up vs instant Best-Fit (Algorithm 1's case)",
        spec: solver,
    });

    // Resilience — failure injection under a reactive policy (generic
    // path: no experiment binding, so it is also the sweep demo).
    let mut resilience = ScenarioSpec::default();
    resilience.name = "resilience".into();
    resilience.description =
        "Host crash at minute 30, repaired after 4 h, under reactive Best-Fit".into();
    resilience.seed = 5;
    resilience.topology.preset = TopologyPreset::IntraDc;
    resilience.topology.pms_per_dc = 4;
    resilience.workload.preset = WorkloadPreset::IntraDc;
    resilience.workload.peak_rps = 240.0;
    resilience.workload.vms = 3;
    resilience.policy.kind = PolicyKind::BestFit;
    resilience.run.hours = 3;
    resilience.faults = vec![FaultSpec {
        pm: 0,
        at_min: 30,
        repair_after_min: 240,
    }];
    out.push(BuiltinSpec {
        name: "resilience",
        title: "failure injection: evacuate a crashed host, survive, recover",
        spec: resilience,
    });

    // Heterogeneous fleet — `[[topology.classes]]` end to end (generic
    // path): each DC hosts one Atom beside one small 2-core box, so
    // consolidation must weigh unequal capacities and power curves.
    let mut fleet = ScenarioSpec::default();
    fleet.name = "hetero-fleet".into();
    fleet.description =
        "Mixed Atom + small-host fleet per DC under the hierarchical scheduler".into();
    fleet.seed = 31;
    fleet.topology.classes = vec![
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
    fleet.workload.vms = 6;
    fleet.workload.load_scale = 0.8;
    fleet.run.hours = 8;
    out.push(BuiltinSpec {
        name: "hetero-fleet",
        title: "heterogeneous host classes: Atom + 2-core boxes in every DC",
        spec: fleet,
    });

    // Memory pressure — `[[workload.services]]` end to end (generic
    // path): a mixed Atom + Xeon fleet hosting memory-heavy services
    // whose RAM footprints, not their CPU, bound consolidation. The
    // light CPU load would pack many VMs per host; the 1.5–3 GB memory
    // floors do not, so the scheduler must spread (fewer VMs per host
    // than the CPU-bound twin — see `tests/mem_pressure.rs`).
    let mut mem = ScenarioSpec::default();
    mem.name = "mem-pressure".into();
    mem.description =
        "Memory-bound consolidation: RAM, not CPU, limits packing on a mixed Atom+Xeon fleet"
            .into();
    mem.seed = 37;
    mem.topology.classes = vec![
        HostClassSpec {
            count: 1,
            machine: MachineClass::Atom,
        },
        HostClassSpec {
            count: 1,
            machine: MachineClass::Xeon,
        },
    ];
    mem.workload.vms = 8;
    mem.workload.load_scale = 0.5;
    mem.workload.services = vec![
        ServiceSpecEntry {
            count: 4,
            image_size_mb: 4096.0,
            base_mem_mb: 1536.0,
            mem_mb_per_inflight: Some(24.0),
            ..ServiceSpecEntry::default()
        },
        ServiceSpecEntry {
            count: 4,
            image_size_mb: 8192.0,
            base_mem_mb: 3072.0,
            mem_mb_per_inflight: Some(32.0),
            ..ServiceSpecEntry::default()
        },
    ];
    mem.run.hours = 8;
    out.push(BuiltinSpec {
        name: "mem-pressure",
        title: "memory-bound packing: big-RAM services on a mixed Atom+Xeon fleet",
        spec: mem,
    });

    // Near-equivalence index — `[policy] near_equivalence_top_k` end to
    // end (generic path): on this 16-host fleet the candidate index's
    // opt-in approximate mode scores only the top-3 hosts per coarse
    // group. Approximation relaxes the
    // bit-identity guarantee, so the policy name in every report this
    // spec produces carries the `+NEAR-EQUIV(top3)` marker — the golden
    // snapshot pins both the label and the shortlist-hit counters.
    let mut near = ScenarioSpec::default();
    near.name = "near-equiv".into();
    near.description =
        "Opt-in near-equivalence candidate index: approximate top-k shortlists, loudly labeled"
            .into();
    near.seed = 41;
    near.topology.pms_per_dc = 4;
    near.workload.preset = WorkloadPreset::Uniform;
    near.workload.vms = 8;
    near.workload.load_scale = 0.8;
    near.policy.kind = PolicyKind::BestFit;
    near.policy.near_equivalence_top_k = Some(3);
    near.run.hours = 8;
    out.push(BuiltinSpec {
        name: "near-equiv",
        title: "approximate near-equivalence shortlists (labeled, opt-in) on a 16-host fleet",
        spec: near,
    });

    out
}

/// Looks a built-in up by name.
pub fn find(name: &str) -> Option<BuiltinSpec> {
    builtins().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_eight_builtins() {
        assert!(builtins().len() >= 8, "{} builtins", builtins().len());
    }

    #[test]
    fn names_unique_and_match_spec_names() {
        let all = builtins();
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for b in &all {
            assert_eq!(b.name, b.spec.name, "registry key must equal spec name");
            assert!(!b.spec.description.is_empty());
        }
    }

    #[test]
    fn every_builtin_round_trips_and_validates() {
        for b in builtins() {
            b.spec.validate().expect(b.name);
            let emitted = b.spec.emit();
            let parsed = ScenarioSpec::parse(&emitted).expect(b.name);
            assert_eq!(parsed, b.spec, "{} round-trips", b.name);
        }
    }

    #[test]
    fn every_builtin_world_builds() {
        for b in builtins() {
            let s = crate::build::build_scenario(&b.spec, std::path::Path::new(".")).expect(b.name);
            s.cluster.check_invariants();
        }
    }
}
