//! Property tests for the core layer: energy quoting stays bounded for
//! arbitrary environments, and the simulation's accounting identities
//! hold under randomized fault plans, tariffs and dropout.

use pamdc_core::energy::EnergyEnvironment;
use pamdc_core::engine::Controller;
use pamdc_core::policy::BestFitPolicy;
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_core::simulation::RunConfig;
use pamdc_green::solar::SolarFarm;
use pamdc_green::tariff::Tariff;
use pamdc_infra::cluster::Cluster;
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Solar at every DC through `with_solar_at`, sized `w_per_pm` × the
/// DC's host count.
fn solar_everywhere(
    cluster: &Cluster,
    w_per_pm: f64,
    min_sky: f64,
    days: u64,
    seed: u64,
) -> EnergyEnvironment {
    (0..cluster.dc_count()).fold(EnergyEnvironment::paper_default(cluster), |env, i| {
        let capacity = w_per_pm * cluster.dcs()[i].pms().len() as f64;
        env.with_solar_at(cluster, i, capacity, min_sky, days, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The quoted €/kWh never leaves the [green marginal, max grid]
    /// band, whatever the draw, hour or solar configuration.
    #[test]
    fn quoted_price_stays_in_band(
        solar_w in 0.0_f64..2000.0,
        min_sky in 0.0_f64..1.0,
        draw in 0.0_f64..1000.0,
        host_w in 1.0_f64..200.0,
        hour in 0_u64..96,
        dc in 0_usize..4,
        seed in 0_u64..100,
    ) {
        let scenario = ScenarioBuilder::paper_multi_dc().vms(1).seed(1).build();
        let env = solar_everywhere(&scenario.cluster, solar_w, min_sky, 4, seed);
        let q = env.quoted_price_eur_kwh(dc, SimTime::from_hours(hour), draw, host_w);
        let lo = env.sites[dc].green_marginal_eur_kwh;
        let hi = 0.1513_f64; // dearest Table II tariff
        prop_assert!(q >= lo - 1e-12 && q <= hi + 1e-12, "quote {q} outside [{lo}, {hi}]");
    }

    /// Short simulations under randomized fault plans, dropout and a
    /// stepped tariff keep every accounting identity intact.
    #[test]
    fn simulation_identities_hold_under_chaos(
        fault_pm in 0_usize..4,
        fault_at_min in 5_u64..100,
        repair_mins in 5_u64..180,
        dropout in 0.0_f64..0.4,
        spike in 1.0_f64..10.0,
        seed in 0_u64..50,
    ) {
        let mut scenario = ScenarioBuilder::paper_intra_dc()
            .vms(3)
            .seed(seed)
            .fault(fault_pm, SimTime::from_mins(fault_at_min), SimDuration::from_mins(repair_mins))
            .build();
        scenario.monitor.dropout_prob = dropout;
        scenario.energy = EnergyEnvironment::paper_default(&scenario.cluster)
            .with_tariff(0, Tariff::Step {
                initial_eur: 0.1513,
                steps: vec![(SimTime::from_mins(60), 0.1513 * spike)],
            });
        let (o, _) = Controller::with(scenario,
            Box::new(BestFitPolicy::new(TrueOracle::new())), RunConfig { keep_series: false, ..RunConfig::default() }, None).run_for(SimDuration::from_hours(2));

        prop_assert!((0.0..=1.0).contains(&o.mean_sla), "sla {}", o.mean_sla);
        // Meter vs ledger.
        prop_assert!(
            (o.energy.total_wh() - o.total_wh).abs() < 1e-6 * o.total_wh.max(1.0),
            "ledger {} vs meter {}", o.energy.total_wh(), o.total_wh
        );
        // No renewables here: everything brown.
        prop_assert!(o.energy.green_wh == 0.0);
        // Profit identity.
        let p = o.profit;
        prop_assert!(
            (p.profit_eur()
                - (p.revenue_eur - p.energy_eur - p.migration_eur - p.network_eur)).abs() < 1e-9
        );
        // Energy cost bounded by the spiked tariff.
        let max_cost = o.total_wh / 1000.0 * 0.1513 * spike;
        prop_assert!(p.energy_eur <= max_cost + 1e-9);
    }

    /// Solar production booked by a run never exceeds what the farms
    /// could physically produce over the horizon.
    #[test]
    fn green_energy_is_physically_bounded(
        solar_w in 10.0_f64..500.0,
        seed in 0_u64..50,
    ) {
        let mut scenario = ScenarioBuilder::paper_intra_dc().vms(2).seed(seed).build();
        scenario.energy = solar_everywhere(&scenario.cluster, solar_w, 1.0, 2, seed);
        let farm_capacity: f64 = scenario.cluster.dcs().len() as f64
            * solar_w
            * scenario.cluster.pms().len() as f64;
        let (o, _) = Controller::with(scenario,
            Box::new(BestFitPolicy::new(TrueOracle::new())), RunConfig { keep_series: false, ..RunConfig::default() }, None).run_for(SimDuration::from_hours(24));
        // 24 h at full nameplate is a generous upper bound (daylight is
        // 12 h and the bell is below 1 almost everywhere).
        prop_assert!(o.energy.green_wh <= farm_capacity * 24.0 + 1e-6);
        prop_assert!(o.energy.green_fraction() <= 1.0);
    }
}

/// Deterministic (non-proptest) regression: a solar farm with zero
/// capacity behaves exactly like no farm at all.
#[test]
fn zero_capacity_solar_is_identity() {
    let run = |with_farm: bool| {
        let mut scenario = ScenarioBuilder::paper_intra_dc().vms(2).seed(3).build();
        if with_farm {
            let mut env = EnergyEnvironment::paper_default(&scenario.cluster);
            env.sites[0] = scenario.energy.sites[0]
                .clone()
                .with_solar(SolarFarm::new(0.0, 1.0, 2, 0.5, 7));
            scenario.energy = env;
        }
        Controller::with(
            scenario,
            Box::new(BestFitPolicy::new(TrueOracle::new())),
            RunConfig {
                keep_series: false,
                ..RunConfig::default()
            },
            None,
        )
        .run_for(SimDuration::from_hours(2))
        .0
    };
    let bare = run(false);
    let farmed = run(true);
    assert_eq!(
        bare.profit.energy_eur.to_bits(),
        farmed.profit.energy_eur.to_bits()
    );
    assert_eq!(farmed.energy.green_wh, 0.0);
}
