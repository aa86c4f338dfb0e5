//! The k-NN predict path (flat point storage, a stack query buffer, partial
//! distances cut off at the k-th best) against the original
//! implementation, kept here as a test-only reference: predictions must
//! match bit for bit.

use pamdc_ml::prelude::*;
use pamdc_simcore::rng::RngStream;
use proptest::prelude::*;

/// The original k-NN predict: every training row scaled into its own
/// vector, full distances, a capped max-heap re-sorted on each insert.
fn reference_predict(data: &Dataset, k: usize, distance_weighted: bool, features: &[f64]) -> f64 {
    let scaler = Standardizer::fit(data);
    let scale = |row: &[f64]| {
        let mut out = vec![0.0; row.len()];
        scaler.transform_into(row, &mut out);
        out
    };
    let points: Vec<Vec<f64>> = data.rows().map(scale).collect();
    let targets = data.targets();
    let q = scale(features);
    let k = k.min(points.len());
    let mut heap: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    for (i, p) in points.iter().enumerate() {
        let d2: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
        if heap.len() < k {
            heap.push((d2, i));
            if heap.len() == k {
                heap.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
            }
        } else if d2 < heap[0].0 {
            heap[0] = (d2, i);
            heap.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
        }
    }
    if distance_weighted {
        let mut wsum = 0.0;
        let mut acc = 0.0;
        for &(d2, i) in &heap {
            let w = 1.0 / (d2.sqrt() + 1e-9);
            wsum += w;
            acc += w * targets[i];
        }
        if wsum > 0.0 {
            acc / wsum
        } else {
            0.0
        }
    } else {
        heap.iter().map(|&(_, i)| targets[i]).sum::<f64>() / heap.len() as f64
    }
}

/// A random dataset whose rows come from a small pool of values, so
/// duplicated rows and equal distances (ties) are common.
fn tied_dataset(rng: &mut RngStream, n: usize, dims: usize) -> Dataset {
    let names: Vec<String> = (0..dims).map(|j| format!("x{j}")).collect();
    let mut d = Dataset::new(names);
    let pool: Vec<f64> = (0..4).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
    let mut row = vec![0.0; dims];
    for _ in 0..n {
        if rng.uniform() < 0.7 {
            for v in row.iter_mut() {
                *v = if rng.uniform() < 0.5 {
                    pool[rng.index(pool.len())]
                } else {
                    rng.uniform_range(-3.0, 3.0)
                };
            }
        }
        d.push(&row, rng.uniform_range(-10.0, 10.0));
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random datasets of 1-8 dimensions with ties, K below, at and
    /// above the row count, distance weighting on and off.
    #[test]
    fn knn_matches_reference_bit_for_bit(
        seed in 0u64..1_000_000,
        dims in 1usize..9,
        n in 1usize..120,
        k in 1usize..24,
        weighted in 0u8..2,
    ) {
        let mut rng = RngStream::root(seed);
        let d = tied_dataset(&mut rng, n, dims);
        let weighted = weighted == 1;
        let m = KnnRegressor::fit_weighted(&d, k, weighted);
        let mut queries: Vec<Vec<f64>> = d.rows().step_by(3).map(<[f64]>::to_vec).collect();
        for _ in 0..20 {
            queries.push((0..dims).map(|_| rng.uniform_range(-4.0, 4.0)).collect());
        }
        for q in &queries {
            let want = reference_predict(&d, k, weighted, q);
            prop_assert_eq!(m.predict(q).to_bits(), want.to_bits(), "query {:?}", q);
        }
    }

    /// Every K at or above the row count averages the whole dataset.
    #[test]
    fn knn_k_at_least_n_matches_reference(seed in 0u64..1_000_000, n in 1usize..12) {
        let mut rng = RngStream::root(seed);
        let d = tied_dataset(&mut rng, n, 3);
        for k in [n, n + 1, 4 * n] {
            for weighted in [false, true] {
                let m = KnnRegressor::fit_weighted(&d, k, weighted);
                let q = [rng.uniform_range(-4.0, 4.0), 0.0, 1.0];
                let want = reference_predict(&d, k, weighted, &q);
                prop_assert_eq!(m.predict(&q).to_bits(), want.to_bits());
            }
        }
    }
}

/// A query wider than the stack buffer (more than 16 dimensions) takes
/// the heap fallback and still matches, for small and large K.
#[test]
fn knn_wide_and_large_k_match_reference() {
    let mut rng = RngStream::root(7);
    let d = tied_dataset(&mut rng, 200, 20);
    for k in [1, 4, 17, 40] {
        let m = KnnRegressor::fit(&d, k);
        for q in d.rows().step_by(11) {
            assert_eq!(
                m.predict(q).to_bits(),
                reference_predict(&d, k, false, q).to_bits()
            );
        }
    }
}
