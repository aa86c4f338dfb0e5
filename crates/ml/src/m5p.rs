//! M5 model trees — the paper's workhorse learner ("M5P" in WEKA).
//!
//! A regression tree whose leaves hold **linear models** rather than
//! constants (Quinlan, *Learning with Continuous Classes*, 1992; Wang &
//! Witten's M5' is WEKA's M5P). The paper found resource usage and RT to
//! be "modeled reasonably well by piecewise linear functions", which is
//! precisely this hypothesis class. The implementation follows the
//! published algorithm:
//!
//! 1. **Growth** — split greedily on the feature/threshold maximising the
//!    *standard deviation reduction* `SDR = sd(S) − Σ |Sᵢ|/|S| · sd(Sᵢ)`,
//!    stopping when a node is small (the `M` minimum-instances parameter
//!    the paper tunes to 2 or 4) or nearly pure.
//! 2. **Leaf/interior models** — a ridge-backed linear model is fitted in
//!    every node (interior ones participate in smoothing).
//! 3. **Pruning** — bottom-up: a subtree collapses into a leaf when the
//!    leaf's complexity-penalised error `RMSE · (n+v)/(n−v)` is no worse
//!    than the subtree's.
//! 4. **Smoothing** — predictions filter up the root path:
//!    `p ← (n·p + k·p_node)/(n + k)` with the standard `k = 15`,
//!    which irons out discontinuities at split boundaries.

use crate::dataset::Dataset;
use crate::linreg::LinearRegression;
use crate::Regressor;
use pamdc_simcore::stats::OnlineStats;

/// Hyper-parameters of the tree learner.
#[derive(Clone, Debug)]
pub struct M5Params {
    /// Minimum training instances per leaf (WEKA's `-M`; the paper uses
    /// 2 and 4 depending on the target).
    pub min_instances: usize,
    /// Stop splitting when a node's target σ falls below this fraction of
    /// the root σ (M5 default 5%).
    pub sd_fraction: f64,
    /// Maximum tree depth (safety bound).
    pub max_depth: usize,
    /// Smoothing constant `k` (M5 default 15); 0 disables smoothing.
    pub smoothing_k: f64,
    /// Enable bottom-up pruning.
    pub prune: bool,
}

impl Default for M5Params {
    fn default() -> Self {
        M5Params {
            min_instances: 4,
            sd_fraction: 0.05,
            max_depth: 24,
            smoothing_k: 15.0,
            prune: true,
        }
    }
}

impl M5Params {
    /// The paper's `M = 4` configuration (CPU, PM-CPU, RT targets).
    pub fn m4() -> Self {
        M5Params {
            min_instances: 4,
            ..Default::default()
        }
    }

    /// The paper's `M = 2` configuration (network I/O targets).
    pub fn m2() -> Self {
        M5Params {
            min_instances: 2,
            ..Default::default()
        }
    }
}

/// A node: either a split or a leaf; both carry a linear model and their
/// training population (for smoothing and pruning).
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        model: LinearRegression,
        n: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        model: LinearRegression,
        n: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn n(&self) -> usize {
        match self {
            Node::Leaf { n, .. } | Node::Split { n, .. } => *n,
        }
    }

    fn count_leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.count_leaves() + right.count_leaves(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// A fitted M5 model tree.
#[derive(Clone, Debug)]
pub struct M5Tree {
    root: Node,
    params: M5Params,
}

impl M5Tree {
    /// Fits a tree on the dataset.
    pub fn fit(data: &Dataset, params: M5Params) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let indices: Vec<usize> = (0..data.len()).collect();
        let root_sd = data.target_std_dev();
        let mut root = build(data, &indices, &params, root_sd, 0);
        if params.prune {
            prune(&mut root, data, &indices);
        }
        M5Tree { root, params }
    }

    /// Number of leaves after pruning.
    pub fn leaf_count(&self) -> usize {
        self.root.count_leaves()
    }

    /// Tree depth (1 = a single leaf).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

impl Regressor for M5Tree {
    fn predict(&self, features: &[f64]) -> f64 {
        smoothed(&self.root, features, self.params.smoothing_k)
    }

    fn name(&self) -> &'static str {
        "M5P"
    }
}

/// The prediction of the subtree under `node`: the leaf model's,
/// smoothed on the way back up by every node on the path,
/// `p ← (n·p + k·p_node)/(n + k)` with `n` the population of the child
/// the path came from. `k = 0` skips smoothing.
fn smoothed(node: &Node, features: &[f64], k: f64) -> f64 {
    match node {
        Node::Leaf { model, .. } => model.predict(features),
        Node::Split {
            feature,
            threshold,
            model,
            left,
            right,
            ..
        } => {
            let child = if features[*feature] <= *threshold {
                left
            } else {
                right
            };
            let p = smoothed(child, features, k);
            if k > 0.0 {
                let n_below = child.n() as f64;
                (n_below * p + k * model.predict(features)) / (n_below + k)
            } else {
                p
            }
        }
    }
}

/// Standard deviation of the targets at `indices`.
fn sd_of(data: &Dataset, indices: &[usize]) -> f64 {
    let mut s = OnlineStats::new();
    for &i in indices {
        s.push(data.targets()[i]);
    }
    s.std_dev()
}

fn fit_node_model(data: &Dataset, indices: &[usize]) -> LinearRegression {
    LinearRegression::fit_rows(indices.iter().map(|&i| data.row(i)), data.n_features())
}

/// The best `(feature, threshold, sdr)` split, or `None` when no split
/// satisfies the minimum-instances constraint.
fn best_split(
    data: &Dataset,
    indices: &[usize],
    min_instances: usize,
) -> Option<(usize, f64, f64)> {
    let n = indices.len();
    if n < 2 * min_instances {
        return None;
    }
    let parent_sd = sd_of(data, indices);
    if parent_sd <= 1e-12 {
        return None;
    }
    let mut best: Option<(usize, f64, f64)> = None;

    // Reusable sort buffer: (feature value, target).
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for feature in 0..data.n_features() {
        pairs.clear();
        pairs.extend(
            indices
                .iter()
                .map(|&i| (data.features(i)[feature], data.targets()[i])),
        );
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

        // Running prefix sums make each candidate split O(1).
        let total_n = n as f64;
        let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
        let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
        let mut prefix_sum = 0.0;
        let mut prefix_sq = 0.0;
        for k in 1..n {
            let y = pairs[k - 1].1;
            prefix_sum += y;
            prefix_sq += y * y;
            if k < min_instances || n - k < min_instances {
                continue;
            }
            if pairs[k - 1].0 == pairs[k].0 {
                continue; // cannot separate equal feature values
            }
            let left_n = k as f64;
            let right_n = total_n - left_n;
            let l_var = (prefix_sq / left_n - (prefix_sum / left_n).powi(2)).max(0.0);
            let r_sum = total_sum - prefix_sum;
            let r_sq = total_sq - prefix_sq;
            let r_var = (r_sq / right_n - (r_sum / right_n).powi(2)).max(0.0);
            let sdr =
                parent_sd - (left_n / total_n) * l_var.sqrt() - (right_n / total_n) * r_var.sqrt();
            let threshold = {
                let mid = (pairs[k - 1].0 + pairs[k].0) / 2.0;
                // Adjacent floats can round the midpoint up onto the
                // right value, which would send every instance left
                // (comparison is `<=`); split on the left value instead.
                if mid >= pairs[k].0 {
                    pairs[k - 1].0
                } else {
                    mid
                }
            };
            if sdr > 1e-12 && best.as_ref().is_none_or(|&(_, _, b)| sdr > b) {
                best = Some((feature, threshold, sdr));
            }
        }
    }
    best
}

#[cfg(test)]
mod adjacent_float_tests {
    use super::*;
    use crate::dataset::Dataset;

    /// Regression test: a feature whose values include adjacent floats
    /// must not produce a non-separating split (the midpoint of two
    /// adjacent floats rounds onto the right one).
    #[test]
    fn adjacent_float_features_do_not_panic() {
        let a: f64 = 1.0;
        let b = f64::from_bits(a.to_bits() + 1); // next float up
        let mut d = Dataset::new(vec!["x".into()]);
        // Enough rows on each side of the adjacent pair to force the
        // splitter to consider the (a, b) boundary.
        for i in 0..8 {
            d.push(&[a], i as f64);
            d.push(&[b], 100.0 + i as f64);
        }
        let tree = M5Tree::fit(
            &d,
            M5Params {
                min_instances: 4,
                ..Default::default()
            },
        );
        // Predictions stay finite; the tree may or may not have split.
        assert!(tree.predict(&[a]).is_finite());
        assert!(tree.predict(&[b]).is_finite());
    }
}

fn build(data: &Dataset, indices: &[usize], params: &M5Params, root_sd: f64, depth: usize) -> Node {
    let n = indices.len();
    let model = fit_node_model(data, indices);
    let node_sd = sd_of(data, indices);
    let stop = n < 2 * params.min_instances
        || depth >= params.max_depth
        || node_sd < params.sd_fraction * root_sd;
    if stop {
        return Node::Leaf { model, n };
    }
    match best_split(data, indices, params.min_instances) {
        None => Node::Leaf { model, n },
        Some((feature, threshold, _)) => {
            let (mut li, mut ri) = (Vec::new(), Vec::new());
            for &i in indices {
                if data.features(i)[feature] <= threshold {
                    li.push(i);
                } else {
                    ri.push(i);
                }
            }
            if li.is_empty() || ri.is_empty() {
                // Degenerate split (can only happen through float
                // pathologies); treat the node as a leaf rather than
                // recurse forever.
                return Node::Leaf { model, n };
            }
            let left = build(data, &li, params, root_sd, depth + 1);
            let right = build(data, &ri, params, root_sd, depth + 1);
            Node::Split {
                feature,
                threshold,
                model,
                n,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }
}

/// M5's complexity-penalised error of a model over `indices`.
fn penalized_error(model: &LinearRegression, data: &Dataset, indices: &[usize]) -> f64 {
    let n = indices.len() as f64;
    let v = model.param_count() as f64;
    let mut sq = 0.0;
    for &i in indices {
        let (row, y) = data.row(i);
        let e = model.predict(row) - y;
        sq += e * e;
    }
    let rmse = (sq / n.max(1.0)).sqrt();
    let penalty = if n > v { (n + v) / (n - v) } else { 4.0 };
    rmse * penalty
}

/// Subtree error: leaf-population-weighted penalised error of its leaves.
fn subtree_error(node: &Node, data: &Dataset, indices: &[usize]) -> f64 {
    match node {
        Node::Leaf { model, .. } => penalized_error(model, data, indices),
        Node::Split {
            feature,
            threshold,
            left,
            right,
            ..
        } => {
            let (mut li, mut ri) = (Vec::new(), Vec::new());
            for &i in indices {
                if data.features(i)[*feature] <= *threshold {
                    li.push(i);
                } else {
                    ri.push(i);
                }
            }
            let n = indices.len() as f64;
            let le = if li.is_empty() {
                0.0
            } else {
                subtree_error(left, data, &li)
            };
            let re = if ri.is_empty() {
                0.0
            } else {
                subtree_error(right, data, &ri)
            };
            (li.len() as f64 / n) * le + (ri.len() as f64 / n) * re
        }
    }
}

/// Bottom-up pruning: collapse splits whose own (penalised) linear model
/// is at least as good as their subtree.
fn prune(node: &mut Node, data: &Dataset, indices: &[usize]) {
    let replacement = match node {
        Node::Leaf { .. } => None,
        Node::Split {
            feature,
            threshold,
            model,
            n,
            left,
            right,
        } => {
            let (mut li, mut ri) = (Vec::new(), Vec::new());
            for &i in indices {
                if data.features(i)[*feature] <= *threshold {
                    li.push(i);
                } else {
                    ri.push(i);
                }
            }
            prune(left, data, &li);
            prune(right, data, &ri);
            let leaf_err = penalized_error(model, data, indices);
            let n_tot = indices.len() as f64;
            let le = if li.is_empty() {
                0.0
            } else {
                subtree_error(left, data, &li)
            };
            let re = if ri.is_empty() {
                0.0
            } else {
                subtree_error(right, data, &ri)
            };
            let tree_err = (li.len() as f64 / n_tot) * le + (ri.len() as f64 / n_tot) * re;
            if leaf_err <= tree_err {
                Some(Node::Leaf {
                    model: model.clone(),
                    n: *n,
                })
            } else {
                None
            }
        }
    };
    if let Some(leaf) = replacement {
        *node = leaf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_simcore::rng::RngStream;
    use proptest::prelude::*;

    /// Test-only reference: the original predict, which records the
    /// root-to-leaf path in a vector and smooths back along it.
    fn path_reference(t: &M5Tree, features: &[f64]) -> f64 {
        let mut path: Vec<&Node> = Vec::with_capacity(t.root.depth());
        let mut node = &t.root;
        loop {
            path.push(node);
            match node {
                Node::Leaf { .. } => break,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
        let leaf = path.last().expect("path never empty");
        let mut p = match leaf {
            Node::Leaf { model, .. } => model.predict(features),
            Node::Split { .. } => unreachable!("descent ends at a leaf"),
        };
        if t.params.smoothing_k > 0.0 {
            let k = t.params.smoothing_k;
            let mut n_below = leaf.n() as f64;
            for node in path.iter().rev().skip(1) {
                let model = match node {
                    Node::Leaf { model, .. } | Node::Split { model, .. } => model,
                };
                p = (n_below * p + k * model.predict(features)) / (n_below + k);
                n_below = node.n() as f64;
            }
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The recursive predict matches the path reference bit for bit
        /// on random trees (duplicated rows, smoothing and pruning on and
        /// off) and queries inside and outside the training range.
        #[test]
        fn predict_matches_path_reference(
            seed in 0u64..100_000,
            dims in 1usize..5,
            n in 1usize..400,
            min_instances in 1usize..6,
            smooth in 0u8..2,
            prune in 0u8..2,
        ) {
            let mut rng = RngStream::root(seed);
            let names: Vec<String> = (0..dims).map(|j| format!("x{j}")).collect();
            let mut d = Dataset::new(names);
            let mut row = vec![0.0; dims];
            for i in 0..n {
                if i == 0 || rng.uniform() > 0.2 {
                    for v in row.iter_mut() {
                        *v = rng.uniform_range(-5.0, 5.0);
                    }
                }
                let y = if row[0] < 0.0 { 3.0 * row[0] } else { 10.0 - row[dims - 1] };
                d.push(&row, y + rng.normal(0.0, 0.5));
            }
            let t = M5Tree::fit(
                &d,
                M5Params {
                    min_instances,
                    smoothing_k: if smooth == 1 { 15.0 } else { 0.0 },
                    prune: prune == 1,
                    ..M5Params::default()
                },
            );
            for _ in 0..40 {
                let q: Vec<f64> = (0..dims).map(|_| rng.uniform_range(-8.0, 8.0)).collect();
                prop_assert_eq!(t.predict(&q).to_bits(), path_reference(&t, &q).to_bits());
            }
            for i in (0..n).step_by(7) {
                let (q, _) = d.row(i);
                prop_assert_eq!(t.predict(q).to_bits(), path_reference(&t, q).to_bits());
            }
        }
    }

    /// A piecewise-linear target: the exact hypothesis class of M5.
    fn piecewise_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = RngStream::root(seed);
        let mut d = Dataset::with_features(&["x", "z"]);
        for _ in 0..n {
            let x = rng.uniform_range(0.0, 10.0);
            let z = rng.uniform_range(0.0, 1.0);
            let y = if x < 5.0 { 2.0 * x + 1.0 } else { 20.0 - x } + noise * rng.normal_std();
            d.push(&[x, z], y);
        }
        d
    }

    #[test]
    fn learns_piecewise_linear_exactly() {
        let d = piecewise_dataset(800, 0.0, 1);
        let t = M5Tree::fit(&d, M5Params::m4());
        for &(x, want) in &[(1.0, 3.0), (4.0, 9.0), (6.0, 14.0), (9.0, 11.0)] {
            let got = t.predict(&[x, 0.5]);
            assert!((got - want).abs() < 0.35, "f({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn beats_plain_linear_regression_on_piecewise_data() {
        let d = piecewise_dataset(600, 0.2, 2);
        let (train, test) = d.split(0.66, &mut RngStream::root(3));
        let tree = M5Tree::fit(&train, M5Params::m4());
        let lin = LinearRegression::fit(&train);
        let mae = |m: &dyn Regressor| {
            test.rows()
                .zip(test.targets())
                .map(|(r, &y)| (m.predict(r) - y).abs())
                .sum::<f64>()
                / test.len() as f64
        };
        let tree_mae = mae(&tree);
        let lin_mae = mae(&lin);
        assert!(
            tree_mae < 0.5 * lin_mae,
            "tree {tree_mae} should beat linear {lin_mae} on piecewise data"
        );
    }

    #[test]
    fn pure_linear_data_prunes_to_small_tree() {
        let mut d = Dataset::with_features(&["x"]);
        let mut rng = RngStream::root(4);
        for _ in 0..400 {
            let x = rng.uniform_range(0.0, 10.0);
            d.push(&[x], 3.0 * x - 2.0);
        }
        let t = M5Tree::fit(&d, M5Params::m4());
        assert!(
            t.leaf_count() <= 3,
            "linear data should collapse, got {} leaves",
            t.leaf_count()
        );
        assert!((t.predict(&[5.0]) - 13.0).abs() < 0.1);
    }

    #[test]
    fn min_instances_bounds_leaf_count() {
        let d = piecewise_dataset(200, 0.5, 5);
        let small = M5Tree::fit(
            &d,
            M5Params {
                min_instances: 50,
                prune: false,
                ..M5Params::default()
            },
        );
        let large = M5Tree::fit(
            &d,
            M5Params {
                min_instances: 2,
                prune: false,
                ..M5Params::default()
            },
        );
        assert!(small.leaf_count() <= large.leaf_count());
        assert!(small.leaf_count() <= 200 / 50);
    }

    #[test]
    fn single_example_is_a_leaf() {
        let mut d = Dataset::with_features(&["x"]);
        d.push(&[1.0], 2.0);
        let t = M5Tree::fit(&d, M5Params::default());
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(&[7.0]), 2.0);
    }

    #[test]
    fn constant_target_is_a_leaf() {
        let mut d = Dataset::with_features(&["x"]);
        for i in 0..100 {
            d.push(&[i as f64], 5.0);
        }
        let t = M5Tree::fit(&d, M5Params::default());
        assert_eq!(t.leaf_count(), 1);
        assert!((t.predict(&[50.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_reduces_boundary_jumps() {
        let d = piecewise_dataset(500, 0.3, 6);
        let smooth = M5Tree::fit(
            &d,
            M5Params {
                smoothing_k: 15.0,
                ..M5Params::m4()
            },
        );
        let rough = M5Tree::fit(
            &d,
            M5Params {
                smoothing_k: 0.0,
                ..M5Params::m4()
            },
        );
        // Evaluate max jump across a fine grid near the split at x=5.
        let jump = |t: &M5Tree| {
            let mut m: f64 = 0.0;
            for i in 0..200 {
                let x0 = 4.5 + i as f64 * 0.005;
                let a = t.predict(&[x0, 0.5]);
                let b = t.predict(&[x0 + 0.005, 0.5]);
                m = m.max((a - b).abs());
            }
            m
        };
        assert!(jump(&smooth) <= jump(&rough) + 1e-9);
    }

    #[test]
    fn depth_is_bounded() {
        let d = piecewise_dataset(2000, 1.0, 7);
        let t = M5Tree::fit(
            &d,
            M5Params {
                max_depth: 4,
                min_instances: 2,
                prune: false,
                ..M5Params::default()
            },
        );
        assert!(t.depth() <= 5, "depth {}", t.depth());
    }
}
