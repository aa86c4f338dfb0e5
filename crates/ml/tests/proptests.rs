//! Property-based tests for the learners.

use pamdc_ml::prelude::*;
use pamdc_simcore::rng::RngStream;
use proptest::prelude::*;

/// Builds a dataset y = a*x0 + b*x1 + c (+ noise) over random rows.
fn linear_dataset(a: f64, b: f64, c: f64, rows: &[(f64, f64)]) -> Dataset {
    let mut d = Dataset::with_features(&["x0", "x1"]);
    for &(x0, x1) in rows {
        d.push(&[x0, x1], a * x0 + b * x1 + c);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OLS recovers any noiseless linear function (given enough spread).
    #[test]
    fn linreg_recovers_random_linear_functions(
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        c in -10.0f64..10.0,
        seed in 0u64..1000,
    ) {
        let mut rng = RngStream::root(seed);
        let rows: Vec<(f64, f64)> = (0..80)
            .map(|_| (rng.uniform_range(-5.0, 5.0), rng.uniform_range(-5.0, 5.0)))
            .collect();
        let d = linear_dataset(a, b, c, &rows);
        let m = LinearRegression::fit(&d);
        for &(x0, x1) in rows.iter().take(10) {
            let want = a * x0 + b * x1 + c;
            prop_assert!((m.predict(&[x0, x1]) - want).abs() < 1e-5 * (1.0 + want.abs()));
        }
    }

    /// M5 trees never predict outside a generous envelope of the target
    /// range on in-distribution queries (smoothed piecewise-linear models
    /// interpolate).
    #[test]
    fn m5_interpolates_within_envelope(seed in 0u64..500) {
        let mut rng = RngStream::root(seed);
        let mut d = Dataset::with_features(&["x"]);
        for _ in 0..300 {
            let x = rng.uniform_range(0.0, 10.0);
            d.push(&[x], (x * 1.3).sin() * 5.0 + 10.0);
        }
        let t = M5Tree::fit(&d, M5Params::m4());
        let (lo, hi) = d.target_range();
        let margin = (hi - lo).max(1.0);
        for i in 0..50 {
            let x = i as f64 * 0.2;
            let p = t.predict(&[x]);
            prop_assert!(p > lo - margin && p < hi + margin, "p {p} outside envelope");
        }
    }

    /// k-NN with k=1 exactly recalls training points (no duplicate
    /// features).
    #[test]
    fn knn_k1_recalls_training_points(seed in 0u64..500) {
        let mut rng = RngStream::root(seed);
        let mut d = Dataset::with_features(&["x", "y"]);
        let mut used = std::collections::BTreeSet::new();
        for i in 0..100 {
            let x = i as f64; // distinct
            let y = rng.uniform_range(0.0, 1.0);
            used.insert(i);
            d.push(&[x, y], (i * 3) as f64);
        }
        let m = KnnRegressor::fit(&d, 1);
        for i in (0..100).step_by(7) {
            let (row, target) = d.row(i);
            prop_assert_eq!(m.predict(row), target);
        }
    }

    /// k-NN predictions are convex combinations of training targets:
    /// always inside [min, max].
    #[test]
    fn knn_stays_in_target_hull(seed in 0u64..500, k in 1usize..10) {
        let mut rng = RngStream::root(seed);
        let mut d = Dataset::with_features(&["x"]);
        for _ in 0..60 {
            d.push(&[rng.uniform_range(0.0, 1.0)], rng.uniform_range(-3.0, 7.0));
        }
        let (lo, hi) = d.target_range();
        let m = KnnRegressor::fit(&d, k);
        for i in 0..20 {
            let p = m.predict(&[i as f64 * 0.1 - 0.5]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    /// The 66/34 split conserves examples and never duplicates.
    #[test]
    fn split_conserves(n in 10usize..300, seed in 0u64..1000) {
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..n {
            d.push(&[i as f64], i as f64);
        }
        let (tr, te) = d.split(0.66, &mut RngStream::root(seed));
        prop_assert_eq!(tr.len() + te.len(), n);
        let mut all: Vec<f64> = tr.targets().iter().chain(te.targets()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(all, expect);
    }

    /// Gaussian elimination solves random well-conditioned systems.
    #[test]
    fn solver_solves_diagonally_dominant(seed in 0u64..1000) {
        let mut rng = RngStream::root(seed);
        let n = 6;
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = rng.uniform_range(-1.0, 1.0);
                if i == j {
                    *v += 10.0; // diagonal dominance -> well-conditioned
                }
            }
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.uniform_range(-5.0, 5.0)).collect();
        let b: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x_true).map(|(r, x)| r * x).sum())
            .collect();
        let x = pamdc_ml::linalg::solve(a, b).expect("well-conditioned");
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }
}
