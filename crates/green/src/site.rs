//! One datacenter's complete energy picture.
//!
//! A [`SiteEnergy`] combines the grid tariff with optional on-site
//! solar. Given a demand in watts at an instant it splits the demand
//! into green watts (covered by on-site production, priced at the
//! marginal green cost — "very low cost once the production
//! infrastructure is in place", §V-C) and brown watts (grid tariff,
//! grid carbon intensity). The blended €/kWh it exposes is exactly the
//! `fenergycost` term of the paper's objective — which is how
//! "follow the sun/wind" drops out of the same profit maximization with
//! no new scheduler machinery.

use crate::carbon::{EnergyBreakdown, GREEN_LIFECYCLE_G_PER_KWH};
use crate::solar::SolarFarm;
use crate::tariff::Tariff;
use pamdc_simcore::time::{SimDuration, SimTime};

/// A demand split into green and brown watts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergySplit {
    /// Watts covered by on-site renewables.
    pub green_w: f64,
    /// Watts drawn from the grid.
    pub brown_w: f64,
}

/// The energy environment of one datacenter.
#[derive(Clone, Debug)]
pub struct SiteEnergy {
    /// Grid tariff.
    pub grid: Tariff,
    /// Marginal price of on-site renewable energy, €/kWh.
    pub green_marginal_eur_kwh: f64,
    /// On-site solar, if installed.
    pub solar: Option<SolarFarm>,
    /// Grid carbon intensity, gCO₂e/kWh.
    pub grid_carbon_g_per_kwh: f64,
}

impl SiteEnergy {
    /// A grid-only site at a flat price — the paper's Table II regime.
    /// Carbon intensity still applies (the ledger reports it even when no
    /// renewables exist to trade against).
    pub fn flat(eur_per_kwh: f64, grid_carbon_g_per_kwh: f64) -> Self {
        SiteEnergy {
            grid: Tariff::Flat(eur_per_kwh),
            green_marginal_eur_kwh: 0.01,
            solar: None,
            grid_carbon_g_per_kwh,
        }
    }

    /// Installs solar.
    pub fn with_solar(mut self, farm: SolarFarm) -> Self {
        self.solar = Some(farm);
        self
    }

    /// Replaces the grid tariff.
    pub fn with_tariff(mut self, tariff: Tariff) -> Self {
        self.grid = tariff;
        self
    }

    /// On-site solar production at `at`, watts.
    pub fn green_watts(&self, at: SimTime) -> f64 {
        self.solar.as_ref().map_or(0.0, |s| s.watts(at))
    }

    /// Splits `demand_w` into green and brown watts at `at`. On-site
    /// production covers demand first; any excess production is curtailed
    /// (no grid export — conservative, and keeps the accounting local).
    pub fn split(&self, at: SimTime, demand_w: f64) -> EnergySplit {
        debug_assert!(demand_w >= 0.0);
        let green = self.green_watts(at).min(demand_w);
        EnergySplit {
            green_w: green,
            brown_w: demand_w - green,
        }
    }

    /// The demand-weighted effective €/kWh at `at` for a site drawing
    /// `demand_w`. With zero demand this is the brown price (the marginal
    /// watt would come from the grid only if production is saturated;
    /// with no demand the first watt is green if any production exists).
    pub fn effective_price_eur_kwh(&self, at: SimTime, demand_w: f64) -> f64 {
        let brown_price = self.grid.price_eur_kwh(at);
        if demand_w <= 0.0 {
            // Price the *next* watt: green if production has headroom.
            return if self.green_watts(at) > 0.0 {
                self.green_marginal_eur_kwh
            } else {
                brown_price
            };
        }
        let split = self.split(at, demand_w);
        (split.green_w * self.green_marginal_eur_kwh + split.brown_w * brown_price) / demand_w
    }

    /// The marginal €/kWh of adding `extra_w` of draw on top of
    /// `base_demand_w` at `at` — what one more host would actually cost.
    /// This is the price a placement decision should see: when on-site
    /// production still has headroom the next host is green-cheap, but
    /// once production is saturated the next host pays the full grid
    /// price even though the *average* price still looks blended.
    pub fn marginal_price_eur_kwh(&self, at: SimTime, base_demand_w: f64, extra_w: f64) -> f64 {
        if extra_w <= 0.0 {
            return self.effective_price_eur_kwh(at, base_demand_w);
        }
        let hour = SimDuration::from_hours(1);
        let with = self.cost_eur(at, base_demand_w + extra_w, hour);
        let without = self.cost_eur(at, base_demand_w, hour);
        (with - without) / (extra_w / 1000.0)
    }

    /// Euros charged for drawing `demand_w` for `dt` starting at `at`.
    pub fn cost_eur(&self, at: SimTime, demand_w: f64, dt: SimDuration) -> f64 {
        let kwh = demand_w * dt.as_hours_f64() / 1000.0;
        kwh * self.effective_price_eur_kwh(at, demand_w)
    }

    /// Books `demand_w` for `dt` at `at` into a run ledger and returns
    /// the euros charged.
    pub fn book(
        &self,
        at: SimTime,
        demand_w: f64,
        dt: SimDuration,
        ledger: &mut EnergyBreakdown,
    ) -> f64 {
        let hours = dt.as_hours_f64();
        let split = self.split(at, demand_w);
        let green_wh = split.green_w * hours;
        let brown_wh = split.brown_w * hours;
        let co2 = green_wh / 1000.0 * GREEN_LIFECYCLE_G_PER_KWH
            + brown_wh / 1000.0 * self.grid_carbon_g_per_kwh;
        ledger.book(green_wh, brown_wh, co2);
        green_wh / 1000.0 * self.green_marginal_eur_kwh
            + brown_wh / 1000.0 * self.grid.price_eur_kwh(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solar_site() -> SiteEnergy {
        SiteEnergy::flat(0.15, 400.0).with_solar(SolarFarm::new(100.0, 0.0, 7, 1.0, 4))
    }

    #[test]
    fn flat_site_is_all_brown() {
        let s = SiteEnergy::flat(0.1120, 390.0);
        let split = s.split(SimTime::from_hours(12), 50.0);
        assert_eq!(split.green_w, 0.0);
        assert_eq!(split.brown_w, 50.0);
        assert!((s.effective_price_eur_kwh(SimTime::from_hours(12), 50.0) - 0.1120).abs() < 1e-12);
    }

    #[test]
    fn solar_covers_demand_at_noon() {
        let s = solar_site();
        let noon = SimTime::from_hours(12);
        let midnight = SimTime::ZERO;
        // min_sky = 1.0: clear-sky noon production = 100 W.
        let split = s.split(noon, 60.0);
        assert_eq!(split.green_w, 60.0, "production covers all demand");
        assert_eq!(split.brown_w, 0.0);
        assert!(
            s.effective_price_eur_kwh(noon, 60.0) < 0.02,
            "green price at noon"
        );
        assert_eq!(
            s.effective_price_eur_kwh(midnight, 60.0),
            0.15,
            "brown at night"
        );
    }

    #[test]
    fn excess_demand_blends_the_price() {
        let s = solar_site();
        let noon = SimTime::from_hours(12);
        let split = s.split(noon, 200.0);
        assert!(split.green_w <= 100.0 && split.green_w > 90.0);
        assert!((split.green_w + split.brown_w - 200.0).abs() < 1e-9);
        let p = s.effective_price_eur_kwh(noon, 200.0);
        assert!(p > 0.01 && p < 0.15, "blended: {p}");
    }

    #[test]
    fn zero_demand_prices_the_next_watt() {
        let s = solar_site();
        assert!(s.effective_price_eur_kwh(SimTime::from_hours(12), 0.0) < 0.02);
        assert_eq!(s.effective_price_eur_kwh(SimTime::ZERO, 0.0), 0.15);
    }

    #[test]
    fn booking_accumulates_green_and_carbon() {
        let s = solar_site();
        let mut ledger = EnergyBreakdown::new();
        let hour = SimDuration::from_hours(1);
        // 60 W for 1 h at noon: fully green.
        let cost_noon = s.book(SimTime::from_hours(12), 60.0, hour, &mut ledger);
        // 60 W for 1 h at midnight: fully brown.
        let cost_night = s.book(SimTime::ZERO, 60.0, hour, &mut ledger);
        assert!(cost_noon < cost_night);
        assert!((ledger.green_wh - 60.0).abs() < 1e-9);
        assert!((ledger.brown_wh - 60.0).abs() < 1e-9);
        // Carbon: 0.06 kWh * 30 + 0.06 kWh * 400.
        assert!((ledger.co2_g - (0.06 * 30.0 + 0.06 * 400.0)).abs() < 1e-9);
        assert!((ledger.green_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cost_matches_book() {
        let s = solar_site();
        let mut ledger = EnergyBreakdown::new();
        let t = SimTime::from_hours(9);
        let dt = SimDuration::from_mins(10);
        let via_cost = s.cost_eur(t, 150.0, dt);
        let via_book = s.book(t, 150.0, dt, &mut ledger);
        assert!((via_cost - via_book).abs() < 1e-12);
    }

    #[test]
    fn marginal_price_saturates_to_brown() {
        let s = solar_site(); // 100 W clear-sky noon production.
        let noon = SimTime::from_hours(12);
        // With 0 W base draw, the next 50 W are fully green.
        let fresh = s.marginal_price_eur_kwh(noon, 0.0, 50.0);
        assert!((fresh - s.green_marginal_eur_kwh).abs() < 1e-9, "{fresh}");
        // With 100 W base draw (production saturated), the next 50 W are
        // fully brown.
        let saturated = s.marginal_price_eur_kwh(noon, 100.0, 50.0);
        assert!((saturated - 0.15).abs() < 1e-9, "{saturated}");
        // Straddling the boundary blends.
        let straddle = s.marginal_price_eur_kwh(noon, 80.0, 40.0);
        assert!(straddle > fresh && straddle < saturated, "{straddle}");
        // Zero extra falls back to the average effective price.
        assert_eq!(
            s.marginal_price_eur_kwh(noon, 60.0, 0.0),
            s.effective_price_eur_kwh(noon, 60.0),
        );
    }
}
