//! Property tests for the green-energy substrate: prices, production and
//! carbon accounting must stay physical for any parameters.

use pamdc_green::prelude::*;
use pamdc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Any tariff returns a strictly positive price at any instant.
    #[test]
    fn tariff_prices_positive(
        mean in 0.01_f64..1.0,
        sigma in 0.0_f64..0.5,
        seed in 0_u64..1000,
        hour in 0_u64..2000,
    ) {
        let t = Tariff::spot(mean, sigma, 0.2, 7, seed);
        let p = t.price_eur_kwh(SimTime::from_hours(hour));
        prop_assert!(p > 0.0, "spot price {p}");
        prop_assert!(p >= 0.1 * mean - 1e-12, "floor violated: {p}");
    }

    /// Time-of-use returns exactly one of its two band prices.
    #[test]
    fn tou_returns_band_price(
        peak in 0.1_f64..1.0,
        off in 0.01_f64..0.1,
        start in 0.0_f64..24.0,
        len in 0.1_f64..23.9,
        offset in -12.0_f64..14.0,
        minute in 0_u64..(14 * 24 * 60),
    ) {
        let t = Tariff::TimeOfUse {
            peak_eur: peak,
            offpeak_eur: off,
            peak_start_h: start,
            peak_end_h: (start + len) % 24.0,
            utc_offset_h: offset,
        };
        let p = t.price_eur_kwh(SimTime::from_mins(minute));
        prop_assert!(p == peak || p == off);
        // Nominal average lies between the bands.
        let nominal = t.nominal_eur_kwh();
        prop_assert!(nominal >= off - 1e-12 && nominal <= peak + 1e-12);
    }

    /// Solar production is bounded by nameplate and zero at local
    /// midnight.
    #[test]
    fn solar_bounded(
        cap in 0.0_f64..10_000.0,
        offset in -12.0_f64..14.0,
        min_sky in 0.0_f64..1.0,
        seed in 0_u64..500,
        minute in 0_u64..(7 * 24 * 60),
    ) {
        let farm = SolarFarm::new(cap, offset, 7, min_sky, seed);
        let w = farm.watts(SimTime::from_mins(minute));
        prop_assert!(w >= 0.0 && w <= cap + 1e-9, "watts {w} vs cap {cap}");
    }

    /// Splits conserve demand and never go negative; effective price
    /// stays between the green marginal and the brown price.
    #[test]
    fn split_conserves_and_price_blends(
        demand in 0.0_f64..5000.0,
        solar_cap in 0.0_f64..2000.0,
        grid_price in 0.02_f64..1.0,
        hour in 0_u64..(7 * 24),
        seed in 0_u64..200,
    ) {
        let site = SiteEnergy::flat(grid_price, 400.0)
            .with_solar(SolarFarm::new(solar_cap, 0.0, 7, 0.5, seed));
        let at = SimTime::from_hours(hour);
        let split = site.split(at, demand);
        prop_assert!(split.green_w >= 0.0 && split.brown_w >= 0.0);
        prop_assert!((split.green_w + split.brown_w - demand).abs() < 1e-9);
        prop_assert!(split.green_w <= site.green_watts(at) + 1e-9);

        let p = site.effective_price_eur_kwh(at, demand);
        let lo = site.green_marginal_eur_kwh.min(grid_price);
        let hi = site.green_marginal_eur_kwh.max(grid_price);
        prop_assert!(p >= lo - 1e-12 && p <= hi + 1e-12, "price {p} outside [{lo}, {hi}]");
    }

    /// Ledger bookings match the site cost function and keep the green
    /// fraction in [0, 1].
    #[test]
    fn booking_is_consistent(
        demand in 0.0_f64..3000.0,
        minutes in 1_u64..120,
        hour in 0_u64..(7 * 24),
    ) {
        let site = SiteEnergy::flat(0.13, 500.0)
            .with_solar(SolarFarm::new(800.0, 2.0, 7, 0.4, 17));
        let at = SimTime::from_hours(hour);
        let dt = SimDuration::from_mins(minutes);
        let mut ledger = EnergyBreakdown::new();
        let booked = site.book(at, demand, dt, &mut ledger);
        let direct = site.cost_eur(at, demand, dt);
        prop_assert!((booked - direct).abs() < 1e-9, "book {booked} vs cost {direct}");
        prop_assert!((0.0..=1.0).contains(&ledger.green_fraction()));
        let expect_wh = demand * dt.as_hours_f64();
        prop_assert!((ledger.total_wh() - expect_wh).abs() < 1e-6);
    }
}
