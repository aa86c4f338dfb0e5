//! Datasets: named feature matrices with targets, splits and scaling.
//!
//! Mirrors the slice of WEKA the paper relies on: tabular numeric data, a
//! shuffled 66/34 train/test split (the paper's Table I protocol), and
//! feature standardization for distance-based learners (k-NN).

use pamdc_simcore::rng::RngStream;
use pamdc_simcore::stats::OnlineStats;
use std::sync::Arc;

/// A tabular dataset: rows of features plus one numeric target each.
///
/// Features are stored row-major in one flat buffer, so a row is a
/// plain `&[f64]` slice and a dataset costs one allocation, not one per
/// row. Datasets that differ only in their targets share that buffer
/// ([`Dataset::with_targets`]); pushing to a shared one copies it first.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    values: Arc<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// An empty dataset over the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            values: Arc::default(),
            targets: Vec::new(),
        }
    }

    /// Convenience constructor from `&str` names.
    pub fn with_features(names: &[&str]) -> Self {
        Self::new(names.iter().map(|s| s.to_string()).collect())
    }

    /// Reserves room for `rows` more examples.
    pub fn reserve(&mut self, rows: usize) {
        let nf = self.n_features();
        Arc::make_mut(&mut self.values).reserve_exact(rows * nf);
        self.targets.reserve_exact(rows);
    }

    /// Adds one example. Panics on arity mismatch.
    pub fn push(&mut self, features: &[f64], target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature arity mismatch"
        );
        debug_assert!(
            features.iter().all(|v| v.is_finite()) && target.is_finite(),
            "non-finite training value"
        );
        Arc::make_mut(&mut self.values).extend_from_slice(features);
        self.targets.push(target);
    }

    /// The same feature rows with other targets, one per row. The
    /// features are shared, not copied.
    pub fn with_targets(&self, targets: Vec<f64>) -> Dataset {
        assert_eq!(targets.len(), self.len(), "one target per row");
        Dataset {
            feature_names: self.feature_names.clone(),
            values: Arc::clone(&self.values),
            targets,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no examples are present.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Feature rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone + '_ {
        (0..self.len()).map(move |i| self.features(i))
    }

    /// The features of row `i`.
    pub fn features(&self, i: usize) -> &[f64] {
        let nf = self.n_features();
        &self.values[i * nf..(i + 1) * nf]
    }

    /// Targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// One row.
    pub fn row(&self, i: usize) -> (&[f64], f64) {
        (self.features(i), self.targets[i])
    }

    /// `(min, max)` of the target column — the "Data Range" column of the
    /// paper's Table I. Returns `(0, 0)` when empty.
    pub fn target_range(&self) -> (f64, f64) {
        let mut s = OnlineStats::new();
        s.extend(&self.targets);
        if s.is_empty() {
            (0.0, 0.0)
        } else {
            (s.min(), s.max())
        }
    }

    /// Standard deviation of the target column.
    pub fn target_std_dev(&self) -> f64 {
        let mut s = OnlineStats::new();
        s.extend(&self.targets);
        s.std_dev()
    }

    /// The paper's shuffled 66/34 split as row indices: a permutation of
    /// `0..len` whose first `cut` entries are the training rows.
    pub fn split_indices(&self, train_frac: f64, rng: &mut RngStream) -> (Vec<usize>, usize) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac in [0,1]");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let cut = (self.len() as f64 * train_frac).round() as usize;
        (idx, cut)
    }

    /// Shuffled split into `(train, test)` with `train_frac` of the rows
    /// in the first part. The paper uses 66%/34%.
    pub fn split(&self, train_frac: f64, rng: &mut RngStream) -> (Dataset, Dataset) {
        let (idx, cut) = self.split_indices(train_frac, rng);
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Sub-dataset of the given row indices (used by tree induction).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut d = Dataset::new(self.feature_names.clone());
        d.reserve(indices.len());
        for &i in indices {
            d.push(self.features(i), self.targets[i]);
        }
        d
    }
}

/// Per-feature affine scaler to zero mean / unit variance.
#[derive(Clone, Debug)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits on a dataset's features.
    pub fn fit(data: &Dataset) -> Self {
        let nf = data.n_features();
        let mut stats = vec![OnlineStats::new(); nf];
        for row in data.rows() {
            for (j, &v) in row.iter().enumerate() {
                stats[j].push(v);
            }
        }
        Standardizer {
            means: stats.iter().map(|s| s.mean()).collect(),
            stds: stats
                .iter()
                .map(|s| {
                    let sd = s.std_dev();
                    if sd > 1e-12 {
                        sd
                    } else {
                        1.0 // constant feature: leave centred at 0
                    }
                })
                .collect(),
        }
    }

    /// Scales one row into `out` (same length): the allocation-free
    /// path k-NN prediction uses.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "feature arity mismatch");
        assert_eq!(out.len(), self.means.len(), "output arity mismatch");
        for (o, (&v, (&m, &s))) in out
            .iter_mut()
            .zip(row.iter().zip(self.means.iter().zip(&self.stds)))
        {
            *o = (v - m) / s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::with_features(&["a", "b"]);
        for i in 0..100 {
            let x = i as f64;
            d.push(&[x, 2.0 * x], 3.0 * x + 1.0);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 100);
        assert_eq!(d.n_features(), 2);
        let (row, y) = d.row(10);
        assert_eq!(row, &[10.0, 20.0]);
        assert_eq!(y, 31.0);
        assert_eq!(d.target_range(), (1.0, 298.0));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut d = Dataset::with_features(&["a"]);
        d.push(&[1.0, 2.0], 0.0);
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy();
        let mut rng = RngStream::root(1);
        let (train, test) = d.split(0.66, &mut rng);
        assert_eq!(train.len(), 66);
        assert_eq!(test.len(), 34);
        // Together they hold every target exactly once.
        let mut all: Vec<f64> = train
            .targets()
            .iter()
            .chain(test.targets())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect: Vec<f64> = d.targets().to_vec();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, expect);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = toy();
        let (t1, _) = d.split(0.5, &mut RngStream::root(42));
        let (t2, _) = d.split(0.5, &mut RngStream::root(42));
        assert_eq!(t1.targets(), t2.targets());
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[0, 5, 7]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.targets(), &[1.0, 16.0, 22.0]);
    }

    #[test]
    fn with_targets_shares_features_until_pushed() {
        let d = toy();
        let mut e = d.with_targets(d.targets().iter().map(|y| -y).collect());
        assert_eq!(e.row(3), (&[3.0, 6.0][..], -10.0));
        assert!(Arc::ptr_eq(&d.values, &e.values));
        // Copy on write: the original keeps its rows.
        e.push(&[1.0, 1.0], 0.0);
        assert_eq!((d.len(), e.len()), (100, 101));
        assert!(!Arc::ptr_eq(&d.values, &e.values));
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let d = toy();
        let sc = Standardizer::fit(&d);
        let mut s0 = OnlineStats::new();
        let mut r = [0.0; 2];
        for row in d.rows() {
            sc.transform_into(row, &mut r);
            s0.push(r[0]);
        }
        assert!(s0.mean().abs() < 1e-9);
        assert!((s0.std_dev() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standardizer_handles_constant_feature() {
        let mut d = Dataset::with_features(&["c"]);
        for _ in 0..10 {
            d.push(&[5.0], 1.0);
        }
        let sc = Standardizer::fit(&d);
        let mut r = [f64::NAN];
        sc.transform_into(&[5.0], &mut r);
        assert_eq!(r, [0.0]);
    }

    #[test]
    fn transform_into_writes_caller_buffer() {
        let d = toy();
        let sc = Standardizer::fit(&d);
        // The column means map to the origin; a larger value to a
        // positive score, into a caller-owned buffer.
        let mut buf = [f64::NAN; 2];
        sc.transform_into(&[49.5, 99.0], &mut buf);
        assert_eq!(buf, [0.0, 0.0]);
        sc.transform_into(&[60.0, 99.0], &mut buf);
        assert!(buf[0] > 0.0 && buf[1] == 0.0, "{buf:?}");
    }
}
