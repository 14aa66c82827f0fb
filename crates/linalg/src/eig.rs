//! Symmetric eigendecomposition by the cyclic Jacobi method — the
//! kernel behind the Golub–Welsch Gauss–Hermite rule in
//! `rsm_basis::hermite`.

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are returned in **descending** order (PCA convention:
/// the first principal component carries the most variance), with the
/// columns of `V` ordered to match.
///
/// # Example
///
/// ```
/// use rsm_linalg::{Matrix, eig::SymmetricEigen};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
/// let eig = SymmetricEigen::new(&a).unwrap();
/// assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Columns are eigenvectors, ordered to match `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Maximum number of full Jacobi sweeps before giving up.
    pub const MAX_SWEEPS: usize = 64;

    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// Only the upper triangle of `a` is trusted; the lower triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `a` is not square;
    /// - [`LinalgError::NoConvergence`] if the off-diagonal mass fails
    ///   to vanish in [`Self::MAX_SWEEPS`] sweeps (does not occur for
    ///   finite symmetric input in practice).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::InvalidArgument("empty matrix".into()));
        }
        let mut m = a.clone();
        // Symmetrize from the upper triangle so tiny asymmetries in the
        // input cannot stall convergence.
        for i in 0..n {
            for j in 0..i {
                m[(i, j)] = m[(j, i)];
            }
        }
        let mut v = Matrix::identity(n);
        let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = frob * 1e-14;

        let mut converged = false;
        for _sweep in 0..Self::MAX_SWEEPS {
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Update rows/cols p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into V.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if !converged {
            // One last check: the final sweep may have converged.
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() > tol {
                return Err(LinalgError::NoConvergence {
                    iterations: Self::MAX_SWEEPS,
                });
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[j].total_cmp(&diag[i]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let eigenvectors = v.select_cols(&order);
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector matrix: column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
                let v = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues().len(), 3);
        assert!((e.eigenvalues()[0] - 5.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = rand_symmetric(8, 5);
        let e = SymmetricEigen::new(&a).unwrap();
        let v = e.eigenvectors();
        let lam = Matrix::from_diag(e.eigenvalues());
        let rec = v.matmul(&lam).unwrap().matmul(&v.transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = rand_symmetric(7, 9);
        let e = SymmetricEigen::new(&a).unwrap();
        let vtv = e.eigenvectors().gram();
        assert!(vtv.max_abs_diff(&Matrix::identity(7)).unwrap() < 1e-10);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = rand_symmetric(10, 2);
        let e = SymmetricEigen::new(&a).unwrap();
        let tr: f64 = (0..10).map(|i| a[(i, i)]).sum();
        let s: f64 = e.eigenvalues().iter().sum();
        assert!((tr - s).abs() < 1e-10);
    }

    #[test]
    fn av_equals_lambda_v() {
        let a = rand_symmetric(6, 17);
        let e = SymmetricEigen::new(&a).unwrap();
        for k in 0..6 {
            let v = e.eigenvectors().col(k);
            let av = a.matvec(&v).unwrap();
            for i in 0..6 {
                assert!((av[i] - e.eigenvalues()[k] * v[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_diag(&[4.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues()[0] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn non_square_rejected() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
    }
}
