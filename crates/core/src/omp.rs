//! Orthogonal matching pursuit — Algorithm 1 of the paper.
//!
//! Each iteration:
//!
//! 1. computes the inner products `ξ_m = G_mᵀ·Res / K` between the
//!    residual and every basis vector (Eq. (18));
//! 2. selects the basis with the largest `|ξ|` (Step 4);
//! 3. re-solves the least-squares problem over *all* selected bases
//!    (Step 6 — the re-fit that distinguishes OMP from STAR);
//! 4. updates the residual (Step 7).
//!
//! The re-fit is implemented with an incrementally-updated QR
//! factorization ([`rsm_linalg::qr::IncrementalQr`]), so step `p`
//! costs `O(K·M)` for the correlations plus `O(K·p)` for the update —
//! not the `O(K·p²)` of re-factoring from scratch.
//!
//! [`OmpConfig::fit`] is the whole algorithm: one loop, one selection
//! per iteration, with the selection state as locals.

use crate::model::SparseModel;
use crate::path::{traced_path, SparsePath};
use crate::source::AtomSource;
use crate::{check_response, non_finite_sq_norm, select_max_abs, CoreError, Result, PATH_REL_TOL};
use rsm_linalg::qr::IncrementalQr;
use rsm_linalg::tol;
use rsm_linalg::vec_ops::{dot, norm2};
use rsm_linalg::Matrix;

/// OMP configuration.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Number of basis functions to select (`λ` in the paper).
    pub lambda: usize,
    /// Normalize atoms by their empirical column norm during selection
    /// (classical OMP). The paper's Algorithm 1 uses the plain inner
    /// product because its basis functions are stochastically
    /// normalized; `false` (the default) reproduces that choice.
    pub normalize_atoms: bool,
}

impl OmpConfig {
    /// Paper-faithful configuration selecting `lambda` bases.
    pub fn new(lambda: usize) -> Self {
        OmpConfig {
            lambda,
            normalize_atoms: false,
        }
    }

    /// Enables column-norm-normalized selection (classical OMP).
    pub fn with_normalized_atoms(mut self) -> Self {
        self.normalize_atoms = true;
        self
    }

    /// Runs OMP on the underdetermined system `G·α = F`.
    ///
    /// `g` is any [`AtomSource`] — in particular an implicit dictionary
    /// ([`crate::source::DictionarySource`]) for problems whose design
    /// matrix is too large to materialize (`M ~ 10⁶`, the upper end of
    /// the paper's target range). Returns the full selection path
    /// (model snapshots after each step), which cross-validation
    /// consumes. The path ends early once the residual L2 norm falls to
    /// `1e-12 · ‖F‖₂`. A zero response is fitted exactly by the zero
    /// model, a one-step path.
    ///
    /// # Errors
    ///
    /// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
    /// - [`CoreError::BadConfig`] if `lambda == 0` or `f` is non-finite,
    ///   or, naming the first such atom, if a correlation with the
    ///   residual is not finite or, under normalized selection, a
    ///   squared column norm is not finite;
    /// - [`CoreError::Unsolvable`] if no informative column exists at
    ///   the very first step;
    /// - [`CoreError::Numerical`] if the least-squares re-fit fails.
    pub fn fit<S: AtomSource + ?Sized>(&self, g: &S, f: &[f64]) -> Result<SparsePath> {
        if self.lambda == 0 {
            return Err(CoreError::BadConfig("lambda must be at least 1".into()));
        }
        check_response(g, f)?;
        let (k, m) = (g.num_rows(), g.num_atoms());
        let f_norm = norm2(f);
        if tol::exactly_zero(f_norm) {
            return Ok(SparsePath::new(m, vec![SparseModel::zero(m)], vec![0.0]));
        }
        // `max(‖G_j‖₂, NORM_FLOOR)` per atom (normalized selection only).
        let norms = if self.normalize_atoms {
            let mut norms = g.column_sq_norms();
            for (j, n) in norms.iter_mut().enumerate() {
                if !n.is_finite() {
                    return Err(non_finite_sq_norm(j, *n));
                }
                *n = n.sqrt().max(tol::NORM_FLOOR);
            }
            Some(norms)
        } else {
            None
        };
        let lambda_max = self.lambda.min(k).min(m);
        let mut qr = IncrementalQr::new(k);
        let mut selected: Vec<usize> = Vec::new();
        // Atoms no longer eligible: selected, or in the span of the
        // selection (selection would loop on those otherwise).
        let mut skip = vec![false; m];
        let mut res = f.to_vec();
        let mut snapshots = Vec::new();
        let mut residual_norms = Vec::new();
        let mut col = vec![0.0; k];

        'path: while selected.len() < lambda_max {
            // ξ = Gᵀ·Res (the 1/K factor does not change the argmax).
            // Under normalized selection the norms are divided into the
            // buffer once — |ξ_j/n_j| = |ξ_j|/n_j for n_j > 0, so the
            // selection is identical to scoring each candidate
            // separately.
            let mut xi = g.correlate(&res);
            if let Some(norms) = &norms {
                for (v, n) in xi.iter_mut().zip(norms) {
                    *v /= n;
                }
            }
            loop {
                let Some((s, score)) = select_max_abs(&xi, &skip)? else {
                    break 'path;
                };
                g.column_into(s, &mut col);
                // The plain score |x_sᵀr| carries the column's units, so
                // the threshold does too; the normalized score is
                // already |x_sᵀr|/‖x_s‖.
                let unit = if norms.is_some() { 1.0 } else { norm2(&col) };
                if score <= f_norm * unit * tol::STEP_REL_TOL {
                    // Residual orthogonal to every remaining atom.
                    break 'path;
                }
                skip[s] = true;
                if qr.push_column(&col).is_ok() {
                    selected.push(s);
                    break;
                }
            }
            // Full LS re-fit over the selected set.
            let coef = qr.solve_least_squares(f)?;
            res = qr.residual(f)?;
            let rn = norm2(&res);
            snapshots.push(SparseModel::new(
                m,
                selected.iter().copied().zip(coef.iter().copied()).collect(),
            ));
            residual_norms.push(rn);
            if rn <= PATH_REL_TOL * f_norm {
                break;
            }
        }
        traced_path(m, snapshots, residual_norms)
    }
}

/// Verifies the defining OMP invariant: after each step the residual is
/// orthogonal to every selected basis vector. Exposed for tests and
/// diagnostics.
pub fn residual_orthogonality(g: &Matrix, f: &[f64], model: &SparseModel) -> f64 {
    let pred = model.predict_matrix(g);
    let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
    let mut worst = 0.0f64;
    for &(j, _) in model.coefficients() {
        let col = g.col(j);
        let corr = dot(&col, &res) / (norm2(&col) * norm2(&res)).max(tol::NORM_FLOOR);
        worst = worst.max(corr.abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use rsm_stats::NormalSampler;

    /// Random K×M Gaussian dictionary and a P-sparse ground truth.
    fn sparse_problem(
        k: usize,
        m: usize,
        p: usize,
        noise: f64,
        seed: u64,
    ) -> (Matrix, Vec<f64>, Vec<(usize, f64)>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut truth = Vec::new();
        for i in 0..p {
            let idx = (i * m / p + 3) % m;
            let val = if i % 2 == 0 {
                2.0 + i as f64
            } else {
                -(1.5 + i as f64)
            };
            truth.push((idx, val));
        }
        let mut f = vec![0.0; k];
        for &(j, v) in &truth {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += noise * s.sample();
        }
        truth.sort_by_key(|&(j, _)| j);
        (g, f, truth)
    }

    #[test]
    fn exact_recovery_noiseless() {
        let (g, f, truth) = sparse_problem(60, 200, 5, 0.0, 1);
        let path = OmpConfig::new(5).fit(&g, &f).unwrap();
        let model = path.final_model();
        let support = model.support();
        let expected: Vec<usize> = truth.iter().map(|&(j, _)| j).collect();
        assert_eq!(support, expected);
        for (j, v) in truth {
            assert!((model.coefficient(j).unwrap() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn residual_orthogonal_to_selection() {
        let (g, f, _) = sparse_problem(50, 120, 4, 0.1, 2);
        let path = OmpConfig::new(8).fit(&g, &f).unwrap();
        for (_, model) in path.iter() {
            assert!(residual_orthogonality(&g, &f, model) < 1e-8);
        }
    }

    #[test]
    fn residual_norms_monotone_nonincreasing() {
        let (g, f, _) = sparse_problem(40, 100, 6, 0.2, 3);
        let path = OmpConfig::new(15).fit(&g, &f).unwrap();
        for w in path.residual_norms().windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{w:?}");
        }
    }

    #[test]
    fn early_stop_on_tiny_residual() {
        let (g, f, _) = sparse_problem(60, 150, 3, 0.0, 4);
        let path = OmpConfig::new(50).fit(&g, &f).unwrap();
        // Exactly-3-sparse noiseless target: path should stop around 3.
        assert!(path.len() <= 4, "path length {}", path.len());
    }

    #[test]
    fn lambda_capped_by_samples() {
        let (g, f, _) = sparse_problem(10, 50, 2, 0.01, 5);
        let path = OmpConfig::new(100).fit(&g, &f).unwrap();
        assert!(path.len() <= 10);
    }

    #[test]
    fn zero_response_gives_zero_model() {
        let (g, _, _) = sparse_problem(20, 40, 2, 0.0, 6);
        let f = vec![0.0; 20];
        let path = OmpConfig::new(5).fit(&g, &f).unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = Matrix::zeros(5, 3);
        assert!(matches!(
            OmpConfig::new(1).fit(&g, &[1.0, 2.0]),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zero_lambda_rejected() {
        let g = Matrix::identity(3);
        assert!(matches!(
            OmpConfig::new(0).fit(&g, &[1.0, 1.0, 1.0]),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn duplicate_columns_do_not_stall() {
        // Dictionary with an exact duplicate of the informative column.
        let mut s = NormalSampler::seed_from_u64(9);
        let base = Matrix::from_fn(30, 10, |_, _| s.sample());
        let mut g = Matrix::zeros(30, 11);
        for r in 0..30 {
            for c in 0..10 {
                g[(r, c)] = base[(r, c)];
            }
            g[(r, 10)] = base[(r, 3)]; // duplicate of column 3
        }
        let f: Vec<f64> = (0..30)
            .map(|r| 2.0 * base[(r, 3)] + 0.5 * base[(r, 7)])
            .collect();
        let path = OmpConfig::new(5).fit(&g, &f).unwrap();
        let model = path.final_model();
        // Either copy may be selected, but never both (the second is
        // excluded as dependent) and the fit is exact.
        let pred = model.predict_matrix(&g);
        let err: f64 = pred
            .iter()
            .zip(&f)
            .map(|(p, t)| (p - t).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9);
    }

    #[test]
    fn normalized_selection_recovers_with_scaled_columns() {
        // One informative column scaled tiny: plain selection can be
        // distracted, normalized selection must still recover exactly.
        let (mut g, mut f, truth) = sparse_problem(60, 100, 3, 0.0, 11);
        // Scale every column j by (1 + j mod 7).
        let m = g.cols();
        for r in 0..g.rows() {
            for c in 0..m {
                g[(r, c)] *= 1.0 + (c % 7) as f64;
            }
        }
        // Rebuild response in the scaled dictionary.
        f.iter_mut().for_each(|v| *v = 0.0);
        for &(j, v) in &truth {
            for r in 0..g.rows() {
                f[r] += v * g[(r, j)];
            }
        }
        let path = OmpConfig::new(3)
            .with_normalized_atoms()
            .fit(&g, &f)
            .unwrap();
        let support = path.final_model().support();
        let expected: Vec<usize> = truth.iter().map(|&(j, _)| j).collect();
        assert_eq!(support, expected);
    }
}
