//! The growing Cholesky factorization of the LARS solver's active-set
//! Gram matrix.

use crate::vec_ops::dot;
use crate::{LinalgError, Result};

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
    use crate::Matrix;

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

    /// Asserts that `x` solves `A·x = b`: every entry of the residual
    /// `A·x − b` is below 1e-12 (the test systems have entries of order
    /// one and are well conditioned).
    fn assert_solves(a: &Matrix, x: &[f64], b: &[f64]) {
        let ax = a.matvec(x).unwrap();
        for (i, (axi, bi)) in ax.iter().zip(b).enumerate() {
            assert!((axi - bi).abs() < 1e-12, "row {i}: A·x = {axi}, b = {bi}");
        }
    }

    #[test]
    fn growing_factor_solves_the_gram_system() {
        let a = spd(6, 9);
        // Treat `a` as a Gram matrix we reveal column by column.
        let g = growing_from(&a);
        let b: Vec<f64> = (0..6).map(|i| (i as f64 + 1.0).sqrt()).collect();
        assert_solves(&a, &g.solve(&b).unwrap(), &b);
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
    fn drop_column_solves_the_shrunk_system() {
        let a = spd(7, 11);
        for pos in 0..7 {
            let mut g = growing_from(&a);
            g.drop_column(pos).unwrap();
            assert_eq!(g.dim(), 6);
            let b: Vec<f64> = (0..6).map(|i| ((i as f64) - 2.5).cos()).collect();
            assert_solves(&shrink(&a, pos), &g.solve(&b).unwrap(), &b);
        }
    }

    #[test]
    fn drop_column_repeated_down_to_empty() {
        let a = spd(5, 3);
        let mut g = growing_from(&a);
        // Drop in a scrambled order; each intermediate solve must stay
        // a solution of the surviving Gram system.
        let mut dense = a.clone();
        for &pos in &[2usize, 0, 2, 1, 0] {
            g.drop_column(pos).unwrap();
            dense = shrink(&dense, pos);
            if g.dim() > 0 {
                let b: Vec<f64> = (0..g.dim()).map(|i| i as f64 + 1.0).collect();
                assert_solves(&dense, &g.solve(&b).unwrap(), &b);
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
        // factor grown from the shrunk Gram, and solve it exactly.
        let a = Matrix::from_diag(&[4.0, 16.0, 64.0, 256.0]);
        let mut g = growing_from(&a);
        g.drop_column(1).unwrap();
        let shrunk = shrink(&a, 1);
        let expect = growing_from(&shrunk);
        for row in 0..3 {
            let b: Vec<f64> = (0..3).map(|c| if c == row { 1.0 } else { 0.0 }).collect();
            let xd = g.solve(&b).unwrap();
            let xf = expect.solve(&b).unwrap();
            for (d, f) in xd.iter().zip(&xf) {
                assert_eq!(d.to_bits(), f.to_bits());
            }
            assert_eq!(shrunk.matvec(&xd).unwrap(), b);
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
        assert_solves(&permuted, &g.solve(&b).unwrap(), &b);
    }

    #[test]
    fn growing_shape_errors() {
        let mut g = GrowingCholesky::new();
        g.push(&[], 2.0).unwrap();
        assert!(g.push(&[0.1, 0.2], 1.0).is_err());
        assert!(g.solve(&[1.0, 2.0]).is_err());
    }
}
