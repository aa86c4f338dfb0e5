//! Property tests for revenue pricing: skipping `powf` at the linear
//! γ = 1 must not move a single bit of any revenue figure.

use pamdc_econ::billing::BillingPolicy;
use pamdc_simcore::time::SimDuration;
use proptest::prelude::*;
use std::hint::black_box;

/// An SLA drawn from the shapes a scheduler can hand `revenue`: the
/// ends of [0, 1] and their neighbours, subnormals, values that clamp
/// from outside [0, 1], NaN, arbitrary bit patterns, and plain
/// fractions.
fn sla(kind: u64, bits: u64, x: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => 1.0 - f64::EPSILON / 2.0, // the largest f64 below 1
        4 => f64::from_bits(bits % (1 << 52)), // subnormal (or 0)
        5 => f64::MIN_POSITIVE,
        6 => x * 4.0 - 2.0, // clamps from below or above when outside [0, 1]
        7 => f64::NAN,
        8 => f64::from_bits(bits),
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        _ => x,
    }
}

/// The revenue formula with the exponent applied. The exponent goes
/// through `black_box` so the compiler cannot fold `powf(s, 1.0)` into
/// `s`: the test compares against the real library call.
fn with_powf(p: &BillingPolicy, sla: f64, dt: SimDuration) -> f64 {
    p.vm_eur_per_hour * sla.clamp(0.0, 1.0).powf(black_box(p.sla_gamma)) * dt.as_hours_f64()
}

fn same(a: f64, b: f64) -> bool {
    // NaN payloads are not part of a float's value; NaN must stay NaN.
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// γ = 1 takes the product without `powf` and reads the bits
    /// `powf(sla, 1.0)` gives.
    #[test]
    fn linear_revenue_equals_the_powf_formula(
        kind in 0u64..14,
        bits in 0u64..u64::MAX,
        x in 0.0f64..1.0,
        rate in 0.0f64..10.0,
        secs in 0u64..(48 * 3600),
    ) {
        let p = BillingPolicy {
            vm_eur_per_hour: rate,
            ..BillingPolicy::default()
        };
        prop_assert_eq!(p.sla_gamma, 1.0);
        let s = sla(kind, bits, x);
        let dt = SimDuration::from_secs(secs);
        let got = p.revenue(s, dt);
        let want = with_powf(&p, s, dt);
        prop_assert!(same(got, want), "sla {s:e} ({:#x}): {got:e} vs {want:e}", s.to_bits());
    }

    /// Any other γ keeps the `powf` result.
    #[test]
    fn other_gammas_keep_powf(
        kind in 0u64..14,
        bits in 0u64..u64::MAX,
        x in 0.0f64..1.0,
        rate in 0.0f64..10.0,
        secs in 0u64..(48 * 3600),
    ) {
        let s = sla(kind, bits, x);
        let dt = SimDuration::from_secs(secs);
        for gamma in [0.0, 0.5, 2.0] {
            let p = BillingPolicy {
                vm_eur_per_hour: rate,
                sla_gamma: gamma,
                ..BillingPolicy::default()
            };
            let got = p.revenue(s, dt);
            let want = with_powf(&p, s, dt);
            prop_assert!(same(got, want), "γ {gamma}, sla {s:e}: {got:e} vs {want:e}");
        }
    }
}
