//! Property-based tests for the simulation substrate.

use pamdc_simcore::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Welford accumulation matches the naive two-pass formulas.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        s.extend(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Merging split accumulators equals accumulating the whole slice.
    #[test]
    fn merge_is_associative_with_split(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..300),
        cut in 0usize..300,
    ) {
        let cut = cut.min(xs.len());
        let mut whole = OnlineStats::new();
        whole.extend(&xs);
        let mut a = OnlineStats::new();
        a.extend(&xs[..cut]);
        let mut b = OnlineStats::new();
        b.extend(&xs[cut..]);
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance()));
    }

    /// Pearson is bounded and symmetric.
    #[test]
    fn pearson_bounded_and_symmetric(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let rxy = pearson(&xs, &ys);
        let ryx = pearson(&ys, &xs);
        prop_assert!((-1.0..=1.0).contains(&rxy));
        prop_assert!((rxy - ryx).abs() < 1e-9);
    }

    /// Percentile is monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo);
        let p_hi = percentile(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-12);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min - 1e-12 && p_hi <= max + 1e-12);
    }

    /// SimTime arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_sub_consistent(t in 0u64..1_000_000, d in 0u64..1_000_000) {
        let t0 = SimTime::from_millis(t);
        let dur = SimDuration::from_millis(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert!((t0 + dur).as_millis() >= t0.as_millis());
    }

    /// Derived RNG streams are deterministic functions of (seed, name).
    #[test]
    fn rng_streams_deterministic(seed in 0u64..u64::MAX, name in "[a-z]{1,12}") {
        let mut a = RngStream::root(seed).derive(&name);
        let mut b = RngStream::root(seed).derive(&name);
        for _ in 0..16 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    /// Distribution draws stay in their mathematical support.
    #[test]
    fn distributions_respect_support(seed in 0u64..u64::MAX) {
        let mut r = RngStream::root(seed);
        for _ in 0..100 {
            prop_assert!(r.exponential(1.3) >= 0.0);
            prop_assert!(r.pareto(5.0, 2.0) >= 5.0);
            prop_assert!(r.lognormal(0.0, 1.0) > 0.0);
        }
    }
}
