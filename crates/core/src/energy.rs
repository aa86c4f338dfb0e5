//! The per-run energy environment: one [`SiteEnergy`] per datacenter.
//!
//! The default environment reproduces the paper exactly — each DC pays
//! its flat Table II tariff, no on-site renewables — so every headline
//! experiment is bit-identical with or without this layer. The green
//! extensions (follow-the-sun, price shocks, spot markets) swap in
//! richer [`SiteEnergy`] values per DC without touching the scheduler:
//! they only change the €/kWh the profit function sees, exactly as §II
//! of the paper predicts ("a follow the sun/wind policy could also be
//! introduced easily into the energy cost computation").

use pamdc_green::carbon::grid_carbon_g_per_kwh;
use pamdc_green::site::SiteEnergy;
use pamdc_green::solar::SolarFarm;
use pamdc_green::tariff::Tariff;
use pamdc_infra::cluster::Cluster;
use pamdc_infra::network::City;
use pamdc_simcore::time::SimTime;

/// Per-DC energy supply for one scenario.
#[derive(Clone, Debug)]
pub struct EnergyEnvironment {
    /// One site per datacenter, indexed by `DcId`.
    pub sites: Vec<SiteEnergy>,
    /// When true (default), the scheduling problem carries each host's
    /// *current marginal* €/kWh — time-varying tariffs and green
    /// headroom included — so the profit function chases cheap energy.
    /// When false it carries only the nominal posted price, modelling a
    /// price-blind scheduler (the control arm of the green experiments).
    pub scheduler_sees_dynamic_prices: bool,
}

impl EnergyEnvironment {
    /// The paper's environment for an already-built cluster: every DC on
    /// its flat tariff (taken from the cluster's posted prices) with the
    /// location's grid carbon intensity.
    pub fn paper_default(cluster: &Cluster) -> Self {
        let sites = cluster
            .dcs()
            .iter()
            .map(|dc| {
                let carbon = City::ALL
                    .iter()
                    .find(|c| c.location() == dc.location)
                    .map(|&c| grid_carbon_g_per_kwh(c))
                    .unwrap_or(450.0);
                SiteEnergy::flat(dc.energy_price_eur_kwh, carbon)
            })
            .collect();
        EnergyEnvironment {
            sites,
            scheduler_sees_dynamic_prices: true,
        }
    }

    /// Installs solar at one DC, phased to its local noon.
    pub fn with_solar_at(
        mut self,
        cluster: &Cluster,
        dc_idx: usize,
        capacity_w: f64,
        min_sky: f64,
        days: u64,
        seed: u64,
    ) -> Self {
        let dc = &cluster.dcs()[dc_idx];
        let offset = City::ALL
            .iter()
            .find(|c| c.location() == dc.location)
            .map(|c| c.utc_offset_hours())
            .unwrap_or(0.0);
        let farm = SolarFarm::new(
            capacity_w,
            offset,
            days,
            min_sky,
            seed ^ ((dc_idx as u64) << 8),
        );
        self.sites[dc_idx] = self.sites[dc_idx].clone().with_solar(farm);
        self
    }

    /// Replaces one DC's grid tariff.
    pub fn with_tariff(mut self, dc_idx: usize, tariff: Tariff) -> Self {
        self.sites[dc_idx] = self.sites[dc_idx].clone().with_tariff(tariff);
        self
    }

    /// Hides dynamic prices from the scheduler (control arm).
    pub fn price_blind(mut self) -> Self {
        self.scheduler_sees_dynamic_prices = false;
        self
    }

    /// The €/kWh a scheduling round should quote for a host in `dc_idx`
    /// whose DC currently draws `dc_draw_w` and whose own expected draw
    /// is `host_w`: the marginal price when dynamic prices are visible,
    /// the nominal posted price otherwise.
    pub fn quoted_price_eur_kwh(
        &self,
        dc_idx: usize,
        at: SimTime,
        dc_draw_w: f64,
        host_w: f64,
    ) -> f64 {
        let site = &self.sites[dc_idx];
        if self.scheduler_sees_dynamic_prices {
            site.marginal_price_eur_kwh(at, dc_draw_w, host_w)
        } else {
            site.grid.nominal_eur_kwh()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_infra::network::NetworkModel;
    use pamdc_infra::pm::MachineSpec;

    fn four_city_cluster() -> Cluster {
        let mut c = Cluster::new(NetworkModel::paper());
        for city in City::ALL {
            let dc = c.add_datacenter(
                city.code(),
                city.location(),
                pamdc_econ::prices::paper_energy_price(city),
            );
            c.add_pm(dc, MachineSpec::atom());
        }
        c
    }

    /// 200 W of solar at each one-host DC, one `with_solar_at` per DC.
    fn solar_everywhere(cluster: &Cluster) -> EnergyEnvironment {
        (0..cluster.dc_count()).fold(EnergyEnvironment::paper_default(cluster), |env, i| {
            env.with_solar_at(cluster, i, 200.0, 1.0, 7, 5)
        })
    }

    #[test]
    fn paper_default_matches_table2() {
        let cluster = four_city_cluster();
        let env = EnergyEnvironment::paper_default(&cluster);
        assert_eq!(env.sites.len(), 4);
        for (i, city) in City::ALL.iter().enumerate() {
            let p = env.sites[i].grid.price_eur_kwh(SimTime::from_hours(7));
            assert_eq!(p, pamdc_econ::prices::paper_energy_price(*city));
            assert_eq!(env.sites[i].green_watts(SimTime::from_hours(12)), 0.0);
        }
        assert!(env.scheduler_sees_dynamic_prices);
    }

    #[test]
    fn quoted_price_flat_env_is_posted_price() {
        let cluster = four_city_cluster();
        let env = EnergyEnvironment::paper_default(&cluster);
        // Flat tariff, no green: marginal == nominal at any draw.
        let q = env.quoted_price_eur_kwh(2, SimTime::from_hours(9), 120.0, 45.0);
        assert!((q - 0.1513).abs() < 1e-9);
    }

    #[test]
    fn solar_everywhere_discounts_local_noon() {
        let cluster = four_city_cluster();
        let env = solar_everywhere(&cluster);
        // 02:00 UTC = Brisbane noon: its quoted price collapses to the
        // green marginal while Barcelona (03:00 local) stays brown.
        let t = SimTime::from_hours(2);
        let brs = env.quoted_price_eur_kwh(0, t, 0.0, 50.0);
        let bcn = env.quoted_price_eur_kwh(2, t, 0.0, 50.0);
        assert!(brs < 0.02, "Brisbane noon is green: {brs}");
        assert!(
            (bcn - 0.1513).abs() < 1e-9,
            "Barcelona night is brown: {bcn}"
        );
    }

    #[test]
    fn price_blind_hides_the_discount() {
        let cluster = four_city_cluster();
        let env = solar_everywhere(&cluster).price_blind();
        let t = SimTime::from_hours(2);
        let brs = env.quoted_price_eur_kwh(0, t, 0.0, 50.0);
        assert!(
            (brs - 0.1314).abs() < 1e-9,
            "blind scheduler sees posted price: {brs}"
        );
    }

    #[test]
    fn with_tariff_overrides_one_site() {
        let cluster = four_city_cluster();
        let env = EnergyEnvironment::paper_default(&cluster).with_tariff(
            3,
            Tariff::Step {
                initial_eur: 0.1120,
                steps: vec![(SimTime::from_hours(12), 0.448)],
            },
        );
        let before = env.quoted_price_eur_kwh(3, SimTime::from_hours(11), 0.0, 50.0);
        let after = env.quoted_price_eur_kwh(3, SimTime::from_hours(13), 0.0, 50.0);
        assert!((before - 0.1120).abs() < 1e-9);
        assert!((after - 0.448).abs() < 1e-9);
        // Other sites untouched.
        let bcn = env.quoted_price_eur_kwh(2, SimTime::from_hours(13), 0.0, 50.0);
        assert!((bcn - 0.1513).abs() < 1e-9);
    }
}
