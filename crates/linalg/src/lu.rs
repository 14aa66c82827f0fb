//! LU factorization with partial pivoting, the linear solver behind
//! the circuit simulator's DC and transient analyses.

use crate::tol;
use crate::{LinalgError, Matrix, Result};

/// LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use rsm_linalg::{Matrix, lu::LuDecomposition};
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]).unwrap();
/// let lu = LuDecomposition::new(&a).unwrap();
/// let x = lu.solve(&[4.0, 3.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed `L` (strict lower, unit diagonal implicit) and `U` (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    n: usize,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `a` is not square;
    /// - [`LinalgError::Singular`] if a pivot column is entirely
    ///   (numerically) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        // Scale factors for scaled partial pivoting.
        let mut scale = vec![0.0f64; n];
        for i in 0..n {
            let m = lu.row(i).iter().fold(0.0f64, |m, v| m.max(v.abs()));
            scale[i] = if m > 0.0 { 1.0 / m } else { 1.0 };
        }
        for k in 0..n {
            // Pivot search.
            let mut pmax = 0.0;
            let mut prow = k;
            for i in k..n {
                let v = lu[(i, k)].abs() * scale[i];
                if v > pmax {
                    pmax = v;
                    prow = i;
                }
            }
            if lu[(prow, k)].abs() < f64::MIN_POSITIVE * 1e4 {
                return Err(LinalgError::Singular { index: k });
            }
            if prow != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(prow, c)];
                    lu[(prow, c)] = tmp;
                }
                perm.swap(k, prow);
                scale.swap(k, prow);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                if !tol::exactly_zero(f) {
                    for c in (k + 1)..n {
                        let u = lu[(k, c)];
                        lu[(i, c)] -= f * u;
                    }
                }
            }
        }
        Ok(LuDecomposition { lu, perm, n })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b`.
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
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward: L·y = P·b  (unit diagonal).
        for i in 1..self.n {
            let row = self.lu.row(i);
            let mut s = x[i];
            for j in 0..i {
                s -= row[j] * x[j];
            }
            x[i] = s;
        }
        // Backward: U·x = y.
        for i in (0..self.n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for j in (i + 1)..self.n {
                s -= row[j] * x[j];
            }
            x[i] = s / row[i];
        }
        Ok(x)
    }
}

/// One-shot convenience: solves `A·x = b`.
///
/// # Errors
///
/// Propagates [`LuDecomposition::new`] / [`LuDecomposition::solve`] errors.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    LuDecomposition::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut m = Matrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        for i in 0..n {
            m[(i, i)] += 2.0; // diagonally dominant → well conditioned
        }
        m
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_random_roundtrip() {
        let a = rand_matrix(12, 3);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        assert!(LuDecomposition::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = rand_matrix(3, 1);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }
}
