//! Property tests: spec emission and parsing are exact inverses.
#![allow(clippy::field_reassign_with_default, clippy::manual_is_multiple_of)]

use pamdc_scenario::spec::{
    ExperimentSpec, FaultSpec, HostClassSpec, ImportSpec, MachineClass, OracleKind, PolicyKind,
    ProfileChangeSpec, ScenarioSpec, ServiceSpecEntry, TariffSpec, TopologyPreset, TraceReplaySpec,
    WorkloadPreset,
};
use proptest::prelude::*;

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::Static,
    PolicyKind::BestFit,
    PolicyKind::BestFitRaw,
    PolicyKind::Hierarchical,
    PolicyKind::FollowLoad,
    PolicyKind::CheapestEnergy,
    PolicyKind::Random,
];

const ORACLES: [OracleKind; 4] = [
    OracleKind::Monitor,
    OracleKind::Overbooked,
    OracleKind::Ml,
    OracleKind::True,
];

const EXPERIMENTS: [&str; 15] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7-table3",
    "fig8",
    "table1",
    "table2",
    "green",
    "deloc",
    "ablations",
    "heterogeneity",
    "online-drift",
    "price-adaptation",
    "scaling",
    "solver-scaling",
];

/// Builds a randomized—but always valid—spec from drawn primitives.
#[allow(clippy::too_many_arguments)]
fn assemble(
    name: String,
    description: String,
    seed: u64,
    intra: bool,
    pms_per_dc: usize,
    vms: usize,
    peak_rps: f64,
    load_scale: f64,
    knobs: (usize, usize, u64, bool, bool, bool, bool, f64),
) -> ScenarioSpec {
    let (policy_i, oracle_i, hours, flash, trace, faults, experiment, scalar) = knobs;
    let mut spec = ScenarioSpec::default();
    spec.name = name;
    spec.description = description;
    spec.seed = seed;
    if intra {
        spec.topology.preset = TopologyPreset::IntraDc;
        spec.workload.preset = WorkloadPreset::IntraDc;
    } else if vms % 3 == 0 {
        spec.workload.preset = WorkloadPreset::Uniform;
    }
    spec.topology.pms_per_dc = pms_per_dc;
    spec.workload.vms = vms;
    spec.workload.peak_rps = peak_rps;
    spec.workload.load_scale = load_scale;
    spec.policy.kind = POLICIES[policy_i % POLICIES.len()];
    spec.policy.oracle = ORACLES[oracle_i % ORACLES.len()];
    if hours % 2 == 0 {
        spec.policy.plan_horizon_ticks = Some(hours % 90);
    }
    if hours % 7 == 0 {
        spec.policy.near_equivalence_top_k = Some(1 + (oracle_i % 8));
    }
    spec.run.hours = 1 + hours % 72;
    spec.run.keep_series = hours % 3 != 0;
    // flash_crowd + trace is rejected by validate() (a replayed trace
    // already carries its demand), so only generate one of the two.
    if flash && !trace {
        spec.workload.flash_crowd = Some(1.0 + scalar * 10.0);
    }
    if trace && !experiment {
        // Alternate between the two file-backed demand sources (they
        // are mutually exclusive, and an [experiment] binding rejects
        // both): a recorded replay and a public-dataset import with
        // every knob exercised.
        if seed % 3 == 0 {
            spec.workload.import = Some(ImportSpec {
                path: format!("datasets/{seed}.csv"),
                format: if seed % 2 == 0 { "azure" } else { "alibaba" }.into(),
                tick_secs: (seed % 2 == 0).then_some(60 + seed % 600),
                regions: 1 + (seed as usize % 6),
                rate_scale: scalar.max(0.001),
                time_stretch: 0.25 + scalar,
                region_map: if seed % 5 == 0 {
                    let regions = 1 + (seed as usize % 6);
                    (0..regions).rev().collect()
                } else {
                    Vec::new()
                },
                max_services: (seed % 4 == 0).then_some(1 + vms),
                max_ticks: (seed % 7 == 0).then_some(1 + seed as usize % 500),
            });
        } else {
            spec.workload.trace = Some(TraceReplaySpec {
                path: format!("traces/{seed}.csv"),
                rate_scale: scalar.max(0.001),
                time_stretch: 0.25 + scalar,
                region_map: if seed % 2 == 0 {
                    vec![3, 2, 1, 0]
                } else {
                    Vec::new()
                },
            });
        }
    }
    if pms_per_dc % 2 == 0 && !experiment {
        // Exercise `[[topology.classes]]` (only kinds that honor the
        // table accept it, so keep it off experiment-bound specs):
        // both presets plus a custom class whose floats stress
        // shortest-repr emission.
        spec.topology.classes = vec![
            HostClassSpec {
                count: 1 + vms % 3,
                machine: MachineClass::Atom,
            },
            HostClassSpec {
                count: 1,
                machine: MachineClass::Xeon,
            },
            HostClassSpec {
                count: 1 + seed as usize % 2,
                machine: MachineClass::Custom {
                    cores: 1 + vms,
                    mem_mb: 512.0 + scalar * 32_768.0,
                    idle_watts: 5.0 + scalar * 100.0,
                    peak_watts: 105.0 + scalar * 300.0,
                },
            },
        ];
    }
    if seed % 4 == 1 && !experiment {
        // Exercise `[[workload.services]]` (experiment-bound specs
        // reject it): one partially-overridden entry plus a default
        // remainder so the counts sum to vms, with floats that stress
        // shortest-repr emission.
        let mut services = vec![ServiceSpecEntry {
            count: 1,
            image_size_mb: 512.0 + scalar * 16_000.0,
            base_mem_mb: 128.0 + scalar * 4096.0,
            // seed is odd inside this gate, so branch on mod 8 (1 vs 5)
            // to actually exercise both Some and None.
            mem_mb_per_inflight: (seed % 8 == 1).then_some(0.5 + scalar * 64.0),
            rt0_secs: 0.05 + scalar,
            alpha: 1.5 + scalar * 20.0,
            io_wait_factor: scalar,
            idle_cpu_pct: scalar * 5.0,
        }];
        if vms > 1 {
            services.push(ServiceSpecEntry {
                count: vms - 1,
                ..ServiceSpecEntry::default()
            });
        }
        spec.workload.services = services;
    }
    if faults {
        let pms = spec.topology.hosts_per_dc() * if intra { 1 } else { 4 };
        spec.faults.push(FaultSpec {
            pm: seed as usize % pms,
            at_min: hours % 300,
            repair_after_min: 1 + hours % 600,
        });
        spec.profile_changes.push(ProfileChangeSpec {
            vm: seed as usize % vms,
            at_min: hours % 200,
            base_mem_mb: 256.0 + scalar * 512.0,
            mem_mb_per_inflight: scalar * 4.0,
            io_wait_factor: scalar,
            idle_cpu_pct: scalar * 3.0,
        });
    }
    if !intra {
        spec.energy.price_blind = seed % 3 == 0;
        spec.energy.solar_dcs = vec![seed as usize % 4];
        spec.energy.solar_per_pm_w = scalar * 400.0;
        spec.energy.min_sky = scalar.clamp(0.0, 1.0);
        let step = seed % 2 == 0;
        spec.energy.tariffs.push(TariffSpec {
            dc: (seed as usize + 1) % 4,
            eur_per_kwh: 0.01 + scalar,
            step_at_hour: step.then_some(hours % 48),
            step_eur_per_kwh: step.then_some(scalar * 2.0),
        });
    }
    spec.billing.vm_eur_per_hour = 0.01 + scalar;
    spec.billing.sla_gamma = 0.5 + scalar * 2.0;
    spec.training.scales = vec![0.5, 0.5 + scalar];
    spec.training.hours_per_scale = 1 + hours % 8;
    if experiment {
        spec.experiment = Some(ExperimentSpec {
            kind: EXPERIMENTS[seed as usize % EXPERIMENTS.len()].into(),
            true_arm: seed % 2 == 0,
            load_scales: if seed % 3 == 0 {
                vec![0.5, scalar + 0.1]
            } else {
                Vec::new()
            },
            pms_levels: if seed % 5 == 0 {
                vec![1, 1 + vms]
            } else {
                Vec::new()
            },
            spreads: if seed % 7 == 0 {
                vec![1.0, 1.0 + scalar * 8.0]
            } else {
                Vec::new()
            },
            spike_factor: if seed % 2 == 0 {
                4.0
            } else {
                0.5 + scalar * 8.0
            },
        });
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emit_parse_is_identity(
        name in "[a-z0-9-]{1,16}",
        description in "[a-zA-Z0-9 .,#\"\\\\]{0,40}",
        seed in 0u64..1_000_000,
        intra in 0u8..2,
        pms_per_dc in 1usize..6,
        vms in 1usize..12,
        peak_rps in 1.0f64..500.0,
        load_scale in 0.0f64..4.0,
        policy_i in 0usize..32,
        oracle_i in 0usize..32,
        hours in 0u64..10_000,
        toggles in 0u8..16,
        scalar in 0.0f64..1.0,
    ) {
        let spec = assemble(
            name,
            description,
            seed,
            intra == 1,
            pms_per_dc,
            vms,
            peak_rps,
            load_scale,
            (
                policy_i,
                oracle_i,
                hours,
                toggles & 1 != 0,
                toggles & 2 != 0,
                toggles & 4 != 0,
                toggles & 8 != 0,
                scalar,
            ),
        );
        prop_assert!(spec.validate().is_ok(), "assembled specs are valid");
        let emitted = spec.emit();
        let parsed = ScenarioSpec::parse(&emitted)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{emitted}"));
        prop_assert_eq!(&parsed, &spec, "parse(emit(spec)) == spec");
        // Emission is a fixed point (canonical form).
        prop_assert_eq!(parsed.emit(), emitted);
    }

    #[test]
    fn float_fields_round_trip_bitwise(
        peak in 0.0001f64..1e5,
        scale in 0.0f64..1e5,
        gamma in 0.0001f64..100.0,
    ) {
        let mut spec = ScenarioSpec::default();
        // Exercise awkward shortest-repr floats (0.1-like, subnormal-ish
        // products, long mantissas).
        spec.workload.peak_rps = peak * 0.1;
        spec.workload.load_scale = scale * 1e-3;
        spec.billing.sla_gamma = gamma / 3.0;
        let parsed = ScenarioSpec::parse(&spec.emit()).expect("parse");
        prop_assert_eq!(
            parsed.workload.peak_rps.to_bits(),
            spec.workload.peak_rps.to_bits()
        );
        prop_assert_eq!(
            parsed.workload.load_scale.to_bits(),
            spec.workload.load_scale.to_bits()
        );
        prop_assert_eq!(parsed.billing.sla_gamma.to_bits(), spec.billing.sla_gamma.to_bits());
    }
}
