//! Minimal dense linear algebra for the learners.
//!
//! The regression problems here are tiny (≤ ~16 unknowns), so a plain
//! Gaussian elimination with partial pivoting is both adequate and easy
//! to audit. No external linear-algebra crate is used.

// Index loops mirror the textbook elimination formulas; iterator
// rewrites obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

/// Solves `A x = b` for square `A` (row-major), in place, with partial
/// pivoting. Returns `None` when the matrix is (numerically) singular.
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    if n == 0 {
        return Some(Vec::new());
    }
    assert!(a.iter().all(|r| r.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");

    for col in 0..n {
        // Partial pivot: the largest |value| in this column at/below the
        // diagonal.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        let pivot = a[col][col];
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Builds the normal-equation system for ridge regression
/// (`XᵀX + λI`, `Xᵀy`) with an intercept column appended, and solves it.
/// `rows` yields each example's `p` features and its target. Returns
/// `(weights, intercept)`; the ridge term is not applied to the
/// intercept. `None` when there are no rows, or when the system is
/// singular even with the ridge term.
pub fn ridge_normal_equations<'a>(
    rows: impl IntoIterator<Item = (&'a [f64], f64)>,
    p: usize,
    lambda: f64,
) -> Option<(Vec<f64>, f64)> {
    let dim = p + 1; // + intercept

    // XᵀX and Xᵀy with the implicit trailing 1-column.
    let mut ata = vec![vec![0.0; dim]; dim];
    let mut aty = vec![0.0; dim];
    let mut n = 0usize;
    for (row, y) in rows {
        debug_assert_eq!(row.len(), p);
        n += 1;
        for i in 0..p {
            for j in i..p {
                ata[i][j] += row[i] * row[j];
            }
            ata[i][p] += row[i]; // × intercept column
            aty[i] += row[i] * y;
        }
        ata[p][p] += 1.0;
        aty[p] += y;
    }
    if n == 0 {
        return None;
    }
    // Mirror the upper triangle.
    for i in 0..dim {
        for j in 0..i {
            ata[i][j] = ata[j][i];
        }
    }
    // Ridge on the feature block only (not the intercept).
    for (i, row) in ata.iter_mut().enumerate().take(p) {
        row[i] += lambda;
    }

    let sol = solve(ata, aty)?;
    let (w, b) = sol.split_at(p);
    Some((w.to_vec(), b[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs<'a>(
        rows: &'a [Vec<f64>],
        targets: &'a [f64],
    ) -> impl Iterator<Item = (&'a [f64], f64)> {
        rows.iter().map(Vec::as_slice).zip(targets.iter().copied())
    }

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, -2.0]).unwrap();
        assert_eq!(x, vec![3.0, -2.0]);
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5 ; x - y = 1  -> x = 2, y = 1.
        let a = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let x = solve(a, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![7.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn empty_system() {
        assert_eq!(solve(Vec::new(), Vec::new()), Some(Vec::new()));
    }

    #[test]
    fn ridge_recovers_linear_function() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i) as f64 % 7.0])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 4.0).collect();
        let (w, b) = ridge_normal_equations(pairs(&rows, &targets), 2, 1e-9).unwrap();
        assert!((w[0] - 2.0).abs() < 1e-6);
        assert!((w[1] + 0.5).abs() < 1e-6);
        assert!((b - 4.0).abs() < 1e-6);
    }

    #[test]
    fn ridge_survives_collinear_features() {
        // Second feature is an exact copy: OLS is singular; ridge is not.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, i as f64]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let (w, b) = ridge_normal_equations(pairs(&rows, &targets), 2, 1e-4).unwrap();
        // Weights split the slope between the clones.
        assert!((w[0] + w[1] - 3.0).abs() < 1e-2, "w {w:?}");
        assert!((b - 1.0).abs() < 0.2);
    }

    #[test]
    fn ridge_empty_returns_none() {
        assert!(ridge_normal_equations(std::iter::empty(), 2, 1e-6).is_none());
    }
}
