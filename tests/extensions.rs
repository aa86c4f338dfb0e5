//! Integration tests for the future-work extensions, driven through the
//! public facade: green energy, dynamic tariffs, priced networks and
//! failure injection composing with the paper's schedulers in one
//! world.

use pamdc::manager::energy::EnergyEnvironment;
use pamdc::prelude::*;
use pamdc_sched::oracle::TrueOracle;

/// A world exercising every extension at once: solar everywhere, a spot
/// tariff in Barcelona, a priced network and one host crash — the run
/// must stay deterministic and account consistently.
fn kitchen_sink(seed: u64) -> RunOutcome {
    let mut scenario = ScenarioBuilder::paper_multi_dc()
        .vms(5)
        .pms_per_dc(2)
        .seed(seed)
        .fault(2, SimTime::from_hours(3), SimDuration::from_hours(2))
        .build();
    let cluster = &scenario.cluster;
    let env = (0..cluster.dc_count()).fold(EnergyEnvironment::paper_default(cluster), |env, i| {
        let capacity = 100.0 * cluster.dcs()[i].pms().len() as f64;
        env.with_solar_at(cluster, i, capacity, 0.6, 2, seed)
    });
    scenario.energy = env.with_tariff(2, Tariff::spot(0.1513, 0.1, 0.2, 2, seed));
    scenario.cluster.net.eur_per_gb_interdc = 0.02;

    let policy = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
    Controller::new(scenario, policy)
        .run_for(SimDuration::from_hours(8))
        .0
}

#[test]
fn kitchen_sink_runs_and_accounts_consistently() {
    let o = kitchen_sink(13);
    // QoS sane despite the crash.
    assert!(o.mean_sla > 0.5 && o.mean_sla <= 1.0, "sla {}", o.mean_sla);
    // Energy ledger closes: green + brown == total metered energy.
    assert!(
        (o.energy.total_wh() - o.total_wh).abs() < 1e-6 * o.total_wh.max(1.0),
        "ledger {} vs meter {}",
        o.energy.total_wh(),
        o.total_wh
    );
    // Solar actually served some of it.
    assert!(o.energy.green_fraction() > 0.0);
    assert!(o.energy.green_fraction() < 1.0, "night exists");
    // Carbon intensity lies between pure-green and the dirtiest grid.
    let g = o.energy.intensity_g_per_kwh();
    assert!(g > 30.0 && g < 850.0, "intensity {g}");
    // The priced network billed the remote flows.
    assert!(o.profit.network_eur > 0.0);
    // Profit identity.
    let p = o.profit;
    assert!(
        (p.profit_eur() - (p.revenue_eur - p.energy_eur - p.migration_eur - p.network_eur)).abs()
            < 1e-12
    );
}

#[test]
fn kitchen_sink_is_deterministic() {
    let a = kitchen_sink(21);
    let b = kitchen_sink(21);
    assert_eq!(a.mean_sla.to_bits(), b.mean_sla.to_bits());
    assert_eq!(a.total_wh.to_bits(), b.total_wh.to_bits());
    assert_eq!(a.energy.co2_g.to_bits(), b.energy.co2_g.to_bits());
    assert_eq!(
        a.profit.network_eur.to_bits(),
        b.profit.network_eur.to_bits()
    );
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn green_quote_steers_hierarchical_scheduler() {
    // With enormous free solar in Brisbane only, a long-horizon
    // scheduler should host more VM-ticks there than the same scheduler
    // quoted flat prices. The day is 24 h: over the first 12 the two
    // arms tie.
    let run = |aware: bool| {
        let mut scenario = ScenarioBuilder::paper_multi_dc()
            .vms(4)
            .pms_per_dc(2)
            .load_scale(0.6)
            .seed(9)
            .build();
        let mut env = EnergyEnvironment::paper_default(&scenario.cluster);
        // Brisbane: a clear-sky solar farm covering any daytime draw,
        // nearly free.
        env = env.with_solar_at(&scenario.cluster, 0, 5000.0, 1.0, 2, 3);
        if !aware {
            env = env.price_blind();
        }
        scenario.energy = env;
        let cfg = RunConfig {
            plan_horizon_ticks: Some(60),
            ..RunConfig::default()
        };
        Controller::with(
            scenario,
            Box::new(HierarchicalPolicy::new(TrueOracle::new())),
            cfg,
            None,
        )
        .run_for(SimDuration::from_hours(24))
        .0
    };
    let aware = run(true);
    let blind = run(false);
    let brisbane_ticks = |o: &RunOutcome| {
        (0..4)
            .filter_map(|vm| o.series.get(&format!("vm{vm}_dc")))
            .flat_map(|s| s.values().iter())
            .filter(|&&dc| dc as usize == 0)
            .count()
    };
    assert!(
        brisbane_ticks(&aware) > brisbane_ticks(&blind),
        "green quotes must attract the fleet: aware {} vs blind {}",
        brisbane_ticks(&aware),
        brisbane_ticks(&blind)
    );
    assert!(aware.energy.green_fraction() > blind.energy.green_fraction());
}

#[test]
fn migration_storm_is_bandwidth_limited() {
    // Same-link storm: two VMs co-located in one DC, both leaving for
    // the same destination DC at the same instant — the second transfer
    // must run at half bandwidth and complete strictly later.
    let now = SimTime::from_mins(30);
    let mut s2 = ScenarioBuilder::paper_multi_dc()
        .vms(8)
        .pms_per_dc(2)
        .build();
    s2.cluster.tick(now);
    // VMs 0 and 4 both home in DC 0 (i % 4 == 0).
    let first = s2
        .cluster
        .migrate(pamdc_infra::ids::VmId(0), pamdc_infra::ids::PmId(7), now)
        .expect("first migration");
    let second = s2
        .cluster
        .migrate(pamdc_infra::ids::VmId(4), pamdc_infra::ids::PmId(6), now)
        .expect("second migration");
    assert!(
        second.duration() > first.duration(),
        "sharing the link must stretch the second transfer: {:?} vs {:?}",
        second.duration(),
        first.duration()
    );
}
