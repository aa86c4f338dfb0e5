//! Green-energy substrate: dynamic electricity tariffs, on-site solar
//! production and carbon accounting.
//!
//! The paper's future-work list includes *"the green energy into the
//! scheme, not only to reduce energy costs but also environmental impact
//! of computation"*, and its related-work section notes that a
//! *"follow the sun/wind policy could also be introduced easily into the
//! energy cost computation"* (§II). This crate supplies exactly that
//! energy-cost computation:
//!
//! * [`tariff::Tariff`] — €/kWh as a function of simulated time: flat
//!   (the paper's Table II), time-of-use bands, step changes (for the
//!   price-adaptation experiment §V-B alludes to), and a mean-reverting
//!   spot market.
//! * [`solar::SolarFarm`] — deterministic, seeded production traces with
//!   a diurnal curve and seeded daily cloud cover.
//! * [`site::SiteEnergy`] — one DC's complete energy picture: grid tariff
//!   plus optional on-site solar; splits any demand into green and
//!   brown watts and prices / carbon-rates the blend.
//! * [`carbon::EnergyBreakdown`] — the run-level green/brown/CO₂ ledger.
//!
//! Everything is precomputed on hourly lattices from seeded
//! [`pamdc_simcore::rng::RngStream`]s, so traces are deterministic,
//! cheap to sample per-tick, and identical across threads.

#![warn(missing_docs)]

pub mod carbon;
pub mod site;
pub mod solar;
pub mod tariff;

/// One-stop imports.
pub mod prelude {
    pub use crate::carbon::{grid_carbon_g_per_kwh, EnergyBreakdown, GREEN_LIFECYCLE_G_PER_KWH};
    pub use crate::site::{EnergySplit, SiteEnergy};
    pub use crate::solar::SolarFarm;
    pub use crate::tariff::Tariff;
}
