//! k-nearest-neighbour regression — the paper's choice for predicting SLA
//! fulfillment directly (Table I row "Predict VM SLA", K = 4).
//!
//! The paper notes SLA is bounded in `[0, 1]`, so comparing "the current
//! situation with those seen before and choosing the most similar one(s)"
//! beats regressing RT and converting. Features are standardized before
//! the Euclidean distance; prediction is the (optionally
//! distance-weighted) mean of the K nearest targets.

use crate::dataset::{Dataset, Standardizer};
use crate::Regressor;

/// Query dimensions scaled into a stack buffer; wider queries use the
/// heap.
const STACK_DIMS: usize = 16;

/// A fitted k-NN regressor (stores its training set, as k-NN does).
#[derive(Clone, Debug)]
pub struct KnnRegressor {
    k: usize,
    distance_weighted: bool,
    scaler: Standardizer,
    dims: usize,
    /// Standardized training rows, row-major, `dims` values each.
    points: Vec<f64>,
    targets: Vec<f64>,
}

impl KnnRegressor {
    /// Fits (memorizes + scales) the training data. `k >= 1`.
    pub fn fit(data: &Dataset, k: usize) -> Self {
        Self::fit_weighted(data, k, false)
    }

    /// Like [`KnnRegressor::fit`], optionally weighting neighbours by
    /// inverse distance.
    pub fn fit_weighted(data: &Dataset, k: usize, distance_weighted: bool) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let scaler = Standardizer::fit(data);
        let dims = data.n_features();
        let mut points = vec![0.0; data.len() * dims];
        for (i, row) in data.rows().enumerate() {
            scaler.transform_into(row, &mut points[i * dims..(i + 1) * dims]);
        }
        KnnRegressor {
            k,
            distance_weighted,
            scaler,
            dims,
            points,
            targets: data.targets().to_vec(),
        }
    }

    /// The configured K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of memorized examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no examples are stored (cannot happen after `fit`).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

impl Regressor for KnnRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let dims = self.dims;
        let (mut q_stack, mut q_heap) = ([0.0; STACK_DIMS], Vec::new());
        let q: &mut [f64] = if dims <= STACK_DIMS {
            &mut q_stack[..dims]
        } else {
            q_heap.resize(dims, 0.0);
            &mut q_heap
        };
        self.scaler.transform_into(features, q);
        let q: &[f64] = q;

        // The k nearest so far as (distance², index), kept sorted by
        // descending distance once full, so `heap[0]` is the k-th best.
        let k = self.k.min(self.len());
        let mut heap: Vec<(f64, usize)> = Vec::with_capacity(k);
        'points: for i in 0..self.len() {
            let p = &self.points[i * dims..(i + 1) * dims];
            if heap.len() < k {
                heap.push((p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum(), i));
                if heap.len() == k {
                    heap.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
                }
                continue;
            }
            // Every term is >= 0, so partial sums never decrease: once one
            // reaches the k-th best, the full distance cannot beat it.
            let worst = heap[0].0;
            let mut d2 = 0.0;
            for (a, b) in p.iter().zip(q) {
                d2 += (a - b) * (a - b);
                if d2 >= worst {
                    continue 'points;
                }
            }
            // (Not below `worst` only when the distance is NaN.)
            if d2 < worst {
                // Sink the new k-th best past every strictly farther
                // neighbour: the order a stable re-sort would give.
                let mut j = 0;
                while j + 1 < k && heap[j + 1].0 > d2 {
                    heap[j] = heap[j + 1];
                    j += 1;
                }
                heap[j] = (d2, i);
            }
        }
        if self.distance_weighted {
            let mut wsum = 0.0;
            let mut acc = 0.0;
            for &(d2, i) in heap.iter() {
                let w = 1.0 / (d2.sqrt() + 1e-9);
                wsum += w;
                acc += w * self.targets[i];
            }
            if wsum > 0.0 {
                acc / wsum
            } else {
                0.0
            }
        } else {
            heap.iter().map(|&(_, i)| self.targets[i]).sum::<f64>() / heap.len() as f64
        }
    }

    fn name(&self) -> &'static str {
        "K-NN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_simcore::rng::RngStream;

    fn grid_dataset() -> Dataset {
        let mut d = Dataset::with_features(&["x", "y"]);
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64, j as f64);
                d.push(&[x, y], x + 10.0 * y);
            }
        }
        d
    }

    #[test]
    fn exact_neighbour_recall_with_k1() {
        let d = grid_dataset();
        let m = KnnRegressor::fit(&d, 1);
        assert_eq!(m.predict(&[3.0, 7.0]), 73.0);
        assert_eq!(m.predict(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn k4_averages_neighbourhood() {
        let d = grid_dataset();
        let m = KnnRegressor::fit(&d, 4);
        // Query exactly between 4 grid points: mean of their targets.
        let p = m.predict(&[3.5, 7.5]);
        let expect = (73.0 + 74.0 + 83.0 + 84.0) / 4.0;
        assert!((p - expect).abs() < 1e-9, "got {p}, want {expect}");
    }

    #[test]
    fn k_larger_than_dataset_uses_all() {
        let mut d = Dataset::with_features(&["x"]);
        d.push(&[0.0], 1.0);
        d.push(&[1.0], 3.0);
        let m = KnnRegressor::fit(&d, 10);
        assert!((m.predict(&[0.5]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn standardization_makes_scales_comparable() {
        // Feature "big" has 1000× the scale of "small"; without scaling
        // it would dominate the distance. The target depends only on
        // "small".
        let mut rng = RngStream::root(1);
        let mut d = Dataset::with_features(&["small", "big"]);
        for _ in 0..600 {
            let s = rng.uniform_range(0.0, 1.0);
            let b = rng.uniform_range(0.0, 1000.0);
            d.push(&[s, b], if s > 0.5 { 1.0 } else { 0.0 });
        }
        let m = KnnRegressor::fit(&d, 5);
        assert!(m.predict(&[0.9, 500.0]) > 0.7);
        assert!(m.predict(&[0.1, 500.0]) < 0.3);
    }

    #[test]
    fn distance_weighting_prefers_closer() {
        let mut d = Dataset::with_features(&["x"]);
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 100.0);
        let plain = KnnRegressor::fit_weighted(&d, 2, false);
        let weighted = KnnRegressor::fit_weighted(&d, 2, true);
        // Query near 0: plain averages to 50, weighted leans to 0.
        assert!((plain.predict(&[0.1]) - 50.0).abs() < 1e-9);
        assert!(weighted.predict(&[0.1]) < 25.0);
    }

    #[test]
    fn bounded_targets_stay_bounded() {
        let mut rng = RngStream::root(2);
        let mut d = Dataset::with_features(&["x"]);
        for _ in 0..200 {
            let x = rng.uniform_range(0.0, 1.0);
            d.push(&[x], x.clamp(0.0, 1.0));
        }
        let m = KnnRegressor::fit(&d, 4);
        for i in 0..50 {
            let p = m.predict(&[i as f64 * 0.02]);
            assert!(
                (0.0..=1.0).contains(&p),
                "k-NN cannot extrapolate out of range: {p}"
            );
        }
    }
}
