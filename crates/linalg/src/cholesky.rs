//! Cholesky factorization of symmetric positive-definite matrices,
//! including a growing variant used by the LARS solver.

use crate::vec_ops::dot;
use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use rsm_linalg::{Matrix, cholesky::Cholesky};
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let ch = Cholesky::new(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `n × n` matrix whose lower triangle holds `L`.
    l: Matrix,
    n: usize,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `a` is not square;
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                // s -= Σ_k L[i,k]·L[j,k]
                let (li, lj) = (l.row(i), l.row(j));
                s -= dot(&li[..j], &lj[..j]);
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l, n })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {}", self.n),
                found: format!("length {}", b.len()),
            });
        }
        let mut y = b.to_vec();
        // L·y = b
        for i in 0..self.n {
            let li = self.l.row(i);
            let s = dot(&li[..i], &y[..i]);
            y[i] = (y[i] - s) / li[i];
        }
        // Lᵀ·x = y
        for i in (0..self.n).rev() {
            let mut s = y[i];
            for j in (i + 1)..self.n {
                s -= self.l[(j, i)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Log-determinant of `A` (`2·Σ log L[i,i]`), useful for Gaussian
    /// likelihoods.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// A Cholesky factorization of a Gram matrix that grows one row/column
/// at a time, as LARS adds predictors to its active set.
///
/// Maintains `L` for `G_p = X_pᵀ X_p` where `X_p` is the matrix of the
/// `p` active columns. Appending column `x_{p+1}` requires only the
/// cross products `X_pᵀ x_{p+1}` and `x_{p+1}ᵀ x_{p+1}` and costs
/// `O(p²)`.
#[derive(Debug, Clone, Default)]
pub struct GrowingCholesky {
    /// Row-packed lower-triangular factor: row `i` has `i+1` entries.
    rows: Vec<Vec<f64>>,
}

impl GrowingCholesky {
    /// Creates an empty factorization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current dimension `p`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Appends a predictor: `cross[i] = ⟨x_i, x_new⟩` against the `p`
    /// existing predictors, `diag = ⟨x_new, x_new⟩`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `cross.len() != p`;
    /// - [`LinalgError::NotPositiveDefinite`] if the Schur complement is
    ///   non-positive (new predictor numerically dependent on the active
    ///   set). The factorization is unchanged on error.
    pub fn push(&mut self, cross: &[f64], diag: f64) -> Result<()> {
        let p = self.rows.len();
        if cross.len() != p {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("cross-product vector of length {p}"),
                found: format!("length {}", cross.len()),
            });
        }
        // Solve L·w = cross. `split_at_mut(i)` hands the already-solved
        // prefix `w[..i]` to `dot` and the slot being written as
        // `rest[0]` — same arithmetic as the indexed form, without
        // re-proving the bounds per element.
        let mut w = vec![0.0; p + 1];
        for (i, (li, &ci)) in self.rows.iter().zip(cross).enumerate() {
            let (solved, rest) = w.split_at_mut(i);
            let s = dot(&li[..i], solved);
            rest[0] = (ci - s) / li[i];
        }
        let schur = diag - dot(&w[..p], &w[..p]);
        let scale_ref = diag.abs().max(1.0);
        if schur <= scale_ref * 1e-12 || !schur.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { index: p });
        }
        w[p] = schur.sqrt();
        self.rows.push(w);
        Ok(())
    }

    /// Removes the predictor at position `pos` by a Givens-based
    /// rank-1 downdate, in `O((p - pos)²)` — the factorization stays
    /// valid for the Gram matrix with row/column `pos` deleted, with
    /// no refactorization from scratch.
    ///
    /// Deleting row `pos` of `L` leaves the remaining rows lower
    /// Hessenberg: each row `i ≥ pos` carries one entry past its new
    /// diagonal. A plane rotation on column pair `(j, j+1)` chosen
    /// from the new diagonal row `j` zeroes that spill entry and, by
    /// orthogonality of the rotation, preserves `L·Lᵀ` restricted to
    /// the surviving rows — so after the sweep `L` is again the
    /// (unique, positive-diagonal) Cholesky factor of the shrunk Gram.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `pos >= p`;
    /// - [`LinalgError::NotPositiveDefinite`] if a rotated diagonal is
    ///   non-finite (only possible with a corrupted factor). The
    ///   factorization is unchanged on a shape error.
    pub fn drop_column(&mut self, pos: usize) -> Result<()> {
        let p = self.rows.len();
        if pos >= p {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("column index < {p}"),
                found: format!("index {pos}"),
            });
        }
        self.rows.remove(pos);
        // Restore triangular form column by column. After the removal,
        // new row `j` (for `j ≥ pos`) has `j + 2` entries; its diagonal
        // entry for the shrunk matrix must move to slot `j`.
        for j in pos..(p - 1) {
            let a = self.rows[j][j];
            let b = self.rows[j][j + 1];
            // b is the old diagonal `L[j+1, j+1] > 0`, so r > 0 and the
            // new diagonal stays positive without any sign fix-up.
            let r = a.hypot(b);
            if !r.is_finite() || r <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { index: j });
            }
            let (c, s) = (a / r, b / r);
            self.rows[j][j] = r;
            self.rows[j].truncate(j + 1);
            for row in self.rows.iter_mut().skip(j + 1) {
                // One range check per row; the rotated pair is then
                // addressed at constant offsets.
                let pair = &mut row[j..j + 2];
                let (x, y) = (pair[0], pair[1]);
                pair[0] = c * x + s * y;
                pair[1] = c * y - s * x;
            }
        }
        Ok(())
    }

    /// Solves `G·x = b` for the current active set.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != p`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let p = self.rows.len();
        if b.len() != p {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {p}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut y = b.to_vec();
        for i in 0..p {
            let li = &self.rows[i];
            let s = dot(&li[..i], &y[..i]);
            y[i] = (y[i] - s) / li[i];
        }
        for i in (0..p).rev() {
            let mut s = y[i];
            for (j, rowj) in self.rows.iter().enumerate().skip(i + 1) {
                s -= rowj[i] * y[j];
            }
            y[i] = s / self.rows[i][i];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = Matrix::from_fn(n + 2, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let mut g = b.gram();
        for i in 0..n {
            g[(i, i)] += 0.5; // well away from singular
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(6, 1);
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd(5, 2);
        let x_true: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn log_det_diag() {
        let a = Matrix::from_diag(&[2.0, 8.0]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 16.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn growing_matches_batch() {
        let a = spd(6, 9);
        // Treat `a` as a Gram matrix we reveal column by column.
        let mut g = GrowingCholesky::new();
        for p in 0..6 {
            let cross: Vec<f64> = (0..p).map(|i| a[(i, p)]).collect();
            g.push(&cross, a[(p, p)]).unwrap();
        }
        let b: Vec<f64> = (0..6).map(|i| (i as f64 + 1.0).sqrt()).collect();
        let x_inc = g.solve(&b).unwrap();
        let x_batch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        for (xi, bi) in x_inc.iter().zip(&x_batch) {
            assert!((xi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn growing_rejects_dependent_and_survives() {
        let mut g = GrowingCholesky::new();
        g.push(&[], 1.0).unwrap();
        // Column perfectly correlated with the first one: Schur = 0.
        assert!(g.push(&[1.0], 1.0).is_err());
        assert_eq!(g.dim(), 1);
        g.push(&[0.5], 1.0).unwrap();
        assert_eq!(g.dim(), 2);
    }

    /// Deletes row/column `pos` of a dense SPD matrix.
    fn shrink(a: &Matrix, pos: usize) -> Matrix {
        let n = a.rows();
        let keep: Vec<usize> = (0..n).filter(|&i| i != pos).collect();
        Matrix::from_fn(n - 1, n - 1, |i, j| a[(keep[i], keep[j])])
    }

    fn growing_from(a: &Matrix) -> GrowingCholesky {
        let mut g = GrowingCholesky::new();
        for p in 0..a.rows() {
            let cross: Vec<f64> = (0..p).map(|i| a[(i, p)]).collect();
            g.push(&cross, a[(p, p)]).unwrap();
        }
        g
    }

    #[test]
    fn drop_column_matches_refactorization() {
        let a = spd(7, 11);
        for pos in 0..7 {
            let mut g = growing_from(&a);
            g.drop_column(pos).unwrap();
            assert_eq!(g.dim(), 6);
            let shrunk = shrink(&a, pos);
            let b: Vec<f64> = (0..6).map(|i| ((i as f64) - 2.5).cos()).collect();
            let x_down = g.solve(&b).unwrap();
            let x_full = Cholesky::new(&shrunk).unwrap().solve(&b).unwrap();
            for (xd, xf) in x_down.iter().zip(&x_full) {
                assert!((xd - xf).abs() < 1e-9, "pos {pos}: {xd} vs {xf}");
            }
        }
    }

    #[test]
    fn drop_column_repeated_down_to_empty() {
        let a = spd(5, 3);
        let mut g = growing_from(&a);
        // Drop in a scrambled order; each intermediate solve must stay
        // consistent with a dense factorization of the surviving Gram.
        let mut dense = a.clone();
        for &pos in &[2usize, 0, 2, 1, 0] {
            g.drop_column(pos).unwrap();
            dense = shrink(&dense, pos);
            if g.dim() > 0 {
                let b: Vec<f64> = (0..g.dim()).map(|i| i as f64 + 1.0).collect();
                let x_down = g.solve(&b).unwrap();
                let x_full = Cholesky::new(&dense).unwrap().solve(&b).unwrap();
                for (xd, xf) in x_down.iter().zip(&x_full) {
                    assert!((xd - xf).abs() < 1e-9);
                }
            }
        }
        assert_eq!(g.dim(), 0);
    }

    #[test]
    fn drop_last_column_is_exactly_the_factor_grown_without_it() {
        // Dropping the last predictor rotates nothing: the factor is
        // bit-identical to one that never had it.
        let a = spd(4, 8);
        let mut g = growing_from(&a);
        g.drop_column(3).unwrap();
        let h = growing_from(&shrink(&a, 3));
        let b = [0.25, -1.0, 2.0];
        let xg = g.solve(&b).unwrap();
        let xh = h.solve(&b).unwrap();
        for (a, b) in xg.iter().zip(&xh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drop_column_exact_on_diagonal_gram() {
        // Orthogonal predictors: L is diagonal, the Givens sweep sees
        // a = 0 on every pivot, and power-of-two entries make every
        // operation exact — the downdate must be bit-identical to the
        // factorization of the shrunk Gram.
        let a = Matrix::from_diag(&[4.0, 16.0, 64.0, 256.0]);
        let mut g = growing_from(&a);
        g.drop_column(1).unwrap();
        let shrunk = shrink(&a, 1);
        let expect = Cholesky::new(&shrunk).unwrap();
        for row in 0..3 {
            let b: Vec<f64> = (0..3).map(|c| if c == row { 1.0 } else { 0.0 }).collect();
            let xd = g.solve(&b).unwrap();
            let xf = expect.solve(&b).unwrap();
            for (d, f) in xd.iter().zip(&xf) {
                assert_eq!(d.to_bits(), f.to_bits());
            }
        }
    }

    #[test]
    fn drop_column_out_of_range_leaves_factor_intact() {
        let a = spd(3, 5);
        let mut g = growing_from(&a);
        assert!(g.drop_column(3).is_err());
        assert_eq!(g.dim(), 3);
        let b = [1.0, 2.0, 3.0];
        let x = g.solve(&b).unwrap();
        let x_ref = growing_from(&a).solve(&b).unwrap();
        for (a, b) in x.iter().zip(&x_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drop_then_push_keeps_growing() {
        // LAR's lasso loop interleaves drops and pushes; make sure the
        // downdated factor accepts new predictors.
        let a = spd(5, 13);
        let mut g = growing_from(&a);
        g.drop_column(1).unwrap();
        let keep = [0usize, 2, 3, 4];
        // Re-append the dropped predictor at the end.
        let cross: Vec<f64> = keep.iter().map(|&i| a[(i, 1)]).collect();
        g.push(&cross, a[(1, 1)]).unwrap();
        assert_eq!(g.dim(), 5);
        let perm: Vec<usize> = keep.iter().copied().chain([1]).collect();
        let permuted = Matrix::from_fn(5, 5, |i, j| a[(perm[i], perm[j])]);
        let b: Vec<f64> = (0..5).map(|i| (i as f64 * 0.7).sin()).collect();
        let x_inc = g.solve(&b).unwrap();
        let x_ref = Cholesky::new(&permuted).unwrap().solve(&b).unwrap();
        for (x, y) in x_inc.iter().zip(&x_ref) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn growing_shape_errors() {
        let mut g = GrowingCholesky::new();
        g.push(&[], 2.0).unwrap();
        assert!(g.push(&[0.1, 0.2], 1.0).is_err());
        assert!(g.solve(&[1.0, 2.0]).is_err());
    }
}
