//! QR factorization: Householder (batch) and incremental Gram–Schmidt.
//!
//! The batch [`QrDecomposition`] is the workhorse behind the classical
//! least-squares baseline. The [`IncrementalQr`] is the kernel that
//! makes OMP cheap: each greedy iteration appends exactly one new
//! dictionary column, so re-factoring from scratch (`O(K·p²)` per step)
//! is replaced by a single orthogonalization pass (`O(K·p)` per step).

use crate::tol;
use crate::vec_ops::{axpy, dot, norm2};
use crate::{LinalgError, Matrix, Result};

/// Householder QR factorization `A = Q·R` of a `m × n` matrix with
/// `m ≥ n`, stored in compact form (Householder vectors + `R`).
///
/// # Example
///
/// ```
/// use rsm_linalg::{Matrix, qr::QrDecomposition};
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]).unwrap();
/// let qr = QrDecomposition::new(&a).unwrap();
/// let x = qr.solve_least_squares(&[2.0, 6.0, 5.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Packed factor: upper triangle holds `R`, the strict lower
    /// triangle (plus `vhead`) holds the Householder vectors.
    packed: Matrix,
    /// First component of each Householder vector (the part that would
    /// collide with `R`'s diagonal).
    vhead: Vec<f64>,
    /// Householder scalars `tau_j = 2 / (vᵀv)`.
    tau: Vec<f64>,
    m: usize,
    n: usize,
}

impl QrDecomposition {
    /// Factors `a`. Requires `a.rows() >= a.cols()` and a nonempty matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for wide matrices and
    /// [`LinalgError::InvalidArgument`] for empty ones. Rank deficiency
    /// is *not* an error at factorization time; it surfaces as a
    /// [`LinalgError::Singular`] from [`Self::solve_least_squares`].
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidArgument("empty matrix".into()));
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                expected: "rows >= cols (tall matrix)".into(),
                found: format!("{m}x{n}"),
            });
        }
        let mut packed = a.clone();
        let mut vhead = vec![0.0; n];
        let mut tau = vec![0.0; n];
        let mut v = vec![0.0; m];
        for j in 0..n {
            // Build the Householder vector for column j below the diagonal.
            let mut alpha = 0.0;
            for i in j..m {
                let x = packed[(i, j)];
                v[i] = x;
                alpha += x * x;
            }
            let alpha = alpha.sqrt();
            if tol::exactly_zero(alpha) {
                // Zero column tail: nothing to annihilate.
                tau[j] = 0.0;
                vhead[j] = 0.0;
                continue;
            }
            let beta = if v[j] >= 0.0 { -alpha } else { alpha };
            v[j] -= beta;
            let vnorm_sq = dot(&v[j..m], &v[j..m]);
            tau[j] = if tol::exactly_zero(vnorm_sq) {
                0.0
            } else {
                2.0 / vnorm_sq
            };
            // Apply H = I - tau v vᵀ to the remaining columns.
            for c in j..n {
                let mut s = 0.0;
                for i in j..m {
                    s += v[i] * packed[(i, c)];
                }
                let s = s * tau[j];
                for i in j..m {
                    packed[(i, c)] -= s * v[i];
                }
            }
            // R diagonal is now `beta` (the apply above produced it);
            // stash the Householder vector in the strict lower triangle.
            vhead[j] = v[j];
            for i in (j + 1)..m {
                packed[(i, j)] = v[i];
            }
            packed[(j, j)] = beta;
        }
        Ok(QrDecomposition {
            packed,
            vhead,
            tau,
            m,
            n,
        })
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> Matrix {
        let mut r = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in i..self.n {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// The thin orthogonal factor `Q` (`m × n`), materialized.
    pub fn q_thin(&self) -> Matrix {
        let mut q = Matrix::zeros(self.m, self.n);
        for j in 0..self.n {
            q[(j, j)] = 1.0;
        }
        // Q = H_0 H_1 … H_{n-1} · [I; 0]: apply reflectors in reverse.
        for j in (0..self.n).rev() {
            if tol::exactly_zero(self.tau[j]) {
                continue;
            }
            for c in 0..self.n {
                let mut s = self.vhead[j] * q[(j, c)];
                for i in (j + 1)..self.m {
                    s += self.packed[(i, j)] * q[(i, c)];
                }
                let s = s * self.tau[j];
                q[(j, c)] -= s * self.vhead[j];
                for i in (j + 1)..self.m {
                    q[(i, c)] -= s * self.packed[(i, j)];
                }
            }
        }
        q
    }

    /// Applies `Qᵀ` to a vector of length `m`, in place.
    fn apply_qt(&self, b: &mut [f64]) {
        for j in 0..self.n {
            if tol::exactly_zero(self.tau[j]) {
                continue;
            }
            let mut s = self.vhead[j] * b[j];
            for i in (j + 1)..self.m {
                s += self.packed[(i, j)] * b[i];
            }
            let s = s * self.tau[j];
            b[j] -= s * self.vhead[j];
            for i in (j + 1)..self.m {
                b[i] -= s * self.packed[(i, j)];
            }
        }
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != m`, or
    /// [`LinalgError::Singular`] if `R` has a (numerically) zero pivot,
    /// i.e. `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {}", self.m),
                found: format!("length {}", b.len()),
            });
        }
        let mut work = b.to_vec();
        self.apply_qt(&mut work);
        let mut x = vec![0.0; self.n];
        back_substitute(&self.packed, self.n, &work, &mut x)?;
        Ok(x)
    }
}

/// Solves `R·x = y` where the upper triangle of `packed` (first `n`
/// rows/cols) holds `R`.
fn back_substitute(packed: &Matrix, n: usize, y: &[f64], x: &mut [f64]) -> Result<()> {
    // Singularity threshold scaled to the largest diagonal entry.
    let mut dmax = 0.0f64;
    for i in 0..n {
        dmax = dmax.max(packed[(i, i)].abs());
    }
    let tol = dmax * 1e-13;
    for i in (0..n).rev() {
        let d = packed[(i, i)];
        if d.abs() <= tol {
            return Err(LinalgError::Singular { index: i });
        }
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= packed[(i, j)] * x[j];
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Incrementally-grown thin QR used by the OMP solver.
///
/// Maintains `Q ∈ R^{m×p}` with orthonormal columns and upper-triangular
/// `R ∈ R^{p×p}` such that the columns appended so far satisfy
/// `A_p = Q·R`. Appending a column costs `O(m·p)` (one modified
/// Gram–Schmidt pass with a single re-orthogonalization sweep for
/// numerical robustness); solving for the current coefficients costs
/// `O(m·p + p²)`.
///
/// # Example
///
/// ```
/// use rsm_linalg::qr::IncrementalQr;
/// let mut qr = IncrementalQr::new(3);
/// qr.push_column(&[1.0, 0.0, 0.0]).unwrap();
/// qr.push_column(&[1.0, 1.0, 0.0]).unwrap();
/// let x = qr.solve_least_squares(&[3.0, 2.0, 0.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalQr {
    m: usize,
    /// Orthonormal columns, stored column-major (each column contiguous).
    q_cols: Vec<Vec<f64>>,
    /// Upper-triangular `R`, stored as columns: `r_cols[j]` has length `j+1`.
    r_cols: Vec<Vec<f64>>,
}

impl IncrementalQr {
    /// Creates an empty factorization for columns of length `m`.
    pub fn new(m: usize) -> Self {
        IncrementalQr {
            m,
            q_cols: Vec::new(),
            r_cols: Vec::new(),
        }
    }

    /// Number of columns appended so far.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.q_cols.len()
    }

    /// Appends a column, orthogonalizing it against the current basis.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `col.len() != m`;
    /// - [`LinalgError::Singular`] if the column is (numerically) in the
    ///   span of the existing columns — the caller should skip this
    ///   dictionary atom. The factorization is unchanged on error.
    pub fn push_column(&mut self, col: &[f64]) -> Result<()> {
        if col.len() != self.m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("column of length {}", self.m),
                found: format!("length {}", col.len()),
            });
        }
        if self.q_cols.len() >= self.m {
            return Err(LinalgError::Singular {
                index: self.q_cols.len(),
            });
        }
        let norm_orig = norm2(col);
        let mut v = col.to_vec();
        let p = self.q_cols.len();
        let mut r = vec![0.0; p + 1];
        // Modified Gram–Schmidt.
        for (j, qj) in self.q_cols.iter().enumerate() {
            let c = dot(qj, &v);
            r[j] = c;
            axpy(-c, qj, &mut v);
        }
        // One re-orthogonalization sweep ("twice is enough", Kahan).
        for (j, qj) in self.q_cols.iter().enumerate() {
            let c = dot(qj, &v);
            r[j] += c;
            axpy(-c, qj, &mut v);
        }
        let nv = norm2(&v);
        // Rank test relative to the incoming column's own norm.
        if nv <= norm_orig * 1e-10 || tol::exactly_zero(nv) {
            return Err(LinalgError::Singular { index: p });
        }
        let inv = 1.0 / nv;
        for x in &mut v {
            *x *= inv;
        }
        r[p] = nv;
        self.q_cols.push(v);
        self.r_cols.push(r);
        Ok(())
    }

    /// `Qᵀ·b` for the current basis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != m`.
    pub fn qt_apply(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.m),
                found: format!("length {}", b.len()),
            });
        }
        Ok(self.q_cols.iter().map(|q| dot(q, b)).collect())
    }

    /// Least-squares solution over the appended columns:
    /// `x = R⁻¹ Qᵀ b`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`Self::qt_apply`]; `R` is
    /// nonsingular by construction (singular columns are rejected at
    /// [`Self::push_column`]).
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.qt_apply(b)?;
        Ok(self.solve_r(&y))
    }

    /// Residual `b − A·x*` of the current least-squares fit, which
    /// equals `b − Q·Qᵀ·b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != m`.
    pub fn residual(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.qt_apply(b)?;
        let mut r = b.to_vec();
        // `qt_apply` returns one coefficient per stored Q column.
        debug_assert_eq!(self.q_cols.len(), y.len());
        for (qj, &c) in self.q_cols.iter().zip(&y) {
            axpy(-c, qj, &mut r);
        }
        Ok(r)
    }

    /// Solves `R·x = y` by back substitution (R stored column-wise).
    fn solve_r(&self, y: &[f64]) -> Vec<f64> {
        let p = y.len();
        debug_assert_eq!(p, self.r_cols.len());
        let mut x = y.to_vec();
        for j in (0..p).rev() {
            let rj = &self.r_cols[j];
            x[j] /= rj[j];
            let xj = x[j];
            for (i, xi) in x.iter_mut().enumerate().take(j) {
                *xi -= rj[i] * xj;
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the tests need no external RNG.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = rand_matrix(8, 5, 42);
        let qr = QrDecomposition::new(&a).unwrap();
        let rec = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = rand_matrix(10, 4, 7);
        let qr = QrDecomposition::new(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.gram();
        let eye = Matrix::identity(4);
        assert!(qtq.max_abs_diff(&eye).unwrap() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = rand_matrix(6, 6, 3);
        let qr = QrDecomposition::new(&a).unwrap();
        let r = qr.r();
        for i in 1..6 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = rand_matrix(20, 6, 11);
        let xs: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let b = a.matvec(&xs).unwrap();
        let x = QrDecomposition::new(&a)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        for (xi, ti) in x.iter().zip(&xs) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn least_squares_overdetermined_residual_orthogonal() {
        let a = rand_matrix(15, 4, 21);
        let b: Vec<f64> = (0..15).map(|i| (i as f64).cos()).collect();
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let res: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        // Normal equations: Aᵀ r = 0 at the optimum.
        let atr = a.matvec_t(&res).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 5);
        assert!(matches!(
            QrDecomposition::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_deficient_reported_on_solve() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = rand_matrix(5, 2, 9);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.solve_least_squares(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn incremental_matches_batch() {
        let a = rand_matrix(12, 5, 77);
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.3).sin()).collect();
        let batch = QrDecomposition::new(&a)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        let mut inc = IncrementalQr::new(12);
        for j in 0..5 {
            inc.push_column(&a.col(j)).unwrap();
        }
        let x = inc.solve_least_squares(&b).unwrap();
        for (xi, bi) in x.iter().zip(&batch) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn incremental_residual_orthogonal_to_basis() {
        let a = rand_matrix(10, 3, 5);
        let b: Vec<f64> = (0..10).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut inc = IncrementalQr::new(10);
        for j in 0..3 {
            inc.push_column(&a.col(j)).unwrap();
        }
        let r = inc.residual(&b).unwrap();
        for j in 0..3 {
            assert!(dot(&a.col(j), &r).abs() < 1e-10);
        }
    }

    #[test]
    fn dependent_column_rejected_and_state_unchanged() {
        let mut inc = IncrementalQr::new(4);
        inc.push_column(&[1.0, 1.0, 0.0, 0.0]).unwrap();
        inc.push_column(&[0.0, 1.0, 1.0, 0.0]).unwrap();
        let dep = [1.0, 2.0, 1.0, 0.0]; // sum of the two
        assert!(matches!(
            inc.push_column(&dep),
            Err(LinalgError::Singular { .. })
        ));
        assert_eq!(inc.ncols(), 2);
        // Factorization still usable after the rejection.
        inc.push_column(&[0.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(inc.ncols(), 3);
    }

    #[test]
    fn more_columns_than_rows_rejected() {
        let mut inc = IncrementalQr::new(2);
        inc.push_column(&[1.0, 0.0]).unwrap();
        inc.push_column(&[0.0, 1.0]).unwrap();
        assert!(inc.push_column(&[1.0, 1.0]).is_err());
    }
}
