//! Elementary queueing formulas used by the response-time model.
//!
//! The web stack inside each VM is approximated as a processor-sharing
//! server: under load `λ` with capacity `μ`, the sojourn time of an
//! M/G/1-PS queue is `s / (1 − ρ)` — insensitive to the service
//! distribution, which is what makes it a good stand-in for an
//! Apache/PHP/MySQL stack without modelling its internals.

/// Offered utilisation `λ/μ`; returns +inf when capacity is zero and load
/// is positive.
pub fn utilization(lambda: f64, mu: f64) -> f64 {
    if mu <= 0.0 {
        if lambda > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (lambda / mu).max(0.0)
    }
}

/// M/G/1 processor-sharing sojourn time with base service time `s` and
/// utilisation `rho`, saturating at `max_rt` as `rho → 1` and beyond.
///
/// The saturation keeps the ground truth inside the paper's observed RT
/// range (`[0, 19.35] s` in its Table I) instead of diverging.
pub fn ps_sojourn_time(s: f64, rho: f64, max_rt: f64) -> f64 {
    debug_assert!(s >= 0.0 && max_rt > 0.0);
    if s <= 0.0 {
        return 0.0;
    }
    if !rho.is_finite() {
        return max_rt;
    }
    // s / (1-rho), with the denominator floored so the result tops out at
    // max_rt exactly when rho >= 1 - s/max_rt.
    let denom = (1.0 - rho).max(s / max_rt);
    (s / denom).min(max_rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_cases() {
        assert_eq!(utilization(50.0, 100.0), 0.5);
        assert_eq!(utilization(0.0, 0.0), 0.0);
        assert_eq!(utilization(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn ps_matches_theory_at_low_load() {
        let s = 0.01;
        let rt = ps_sojourn_time(s, 0.5, 20.0);
        assert!((rt - 0.02).abs() < 1e-12);
    }

    #[test]
    fn ps_saturates_at_max() {
        assert_eq!(ps_sojourn_time(0.01, 1.0, 20.0), 20.0);
        assert_eq!(ps_sojourn_time(0.01, 5.0, 20.0), 20.0);
        assert_eq!(ps_sojourn_time(0.01, f64::INFINITY, 20.0), 20.0);
    }

    #[test]
    fn ps_monotone_in_rho() {
        let mut last = 0.0;
        for i in 0..120 {
            let rt = ps_sojourn_time(0.005, i as f64 * 0.01, 20.0);
            assert!(rt >= last - 1e-12);
            last = rt;
        }
    }

    #[test]
    fn zero_service_time_is_instant() {
        assert_eq!(ps_sojourn_time(0.0, 0.9, 20.0), 0.0);
    }
}
