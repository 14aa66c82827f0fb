//! Least angle regression (LARS) — the algorithm of the DAC 2009 paper,
//! after Efron, Hastie, Johnstone & Tibshirani (2004).
//!
//! LAR relaxes the L0 constraint of Eq. (11) to an L1 constraint and
//! follows the piecewise-linear solution path: at each breakpoint the
//! coefficient estimate moves along the *equiangular* direction of the
//! active set — the direction making equal angles with every active
//! basis vector — exactly until some inactive vector becomes equally
//! correlated with the residual, which then joins the active set.
//!
//! The optional **lasso modification** drops an active variable the
//! moment its coefficient crosses zero, and the next step moves along
//! the reduced active set without activating anything (§3.1 of Efron
//! et al.), making the path coincide with the L1-penalized regression
//! path.
//!
//! Predictors are normalized internally to unit column norm (the
//! algorithm's equal-angle geometry assumes it); reported coefficients
//! are rescaled back to the caller's dictionary.
//!
//! The path loop itself lives in [`crate::session::LarSession`]; the
//! entry points here are thin wrappers over it.

use crate::model::SparseModel;
use crate::path::SparsePath;
use crate::session::LarSession;
use crate::source::AtomSource;
use crate::Result;

/// LARS configuration.
#[derive(Debug, Clone)]
pub struct LarConfig {
    /// Maximum number of path steps (≈ the paper's `λ`: a step
    /// activates one basis function, except the step right after a
    /// lasso drop, which activates none).
    pub max_steps: usize,
    /// Enable the lasso modification (drop variables whose coefficient
    /// hits zero).
    pub lasso: bool,
    /// Stop when the maximal absolute correlation falls below
    /// `rel_tol · ‖F‖₂`.
    pub rel_tol: f64,
}

impl LarConfig {
    /// Plain LARS with at most `max_steps` activations.
    pub fn new(max_steps: usize) -> Self {
        LarConfig {
            max_steps,
            lasso: false,
            rel_tol: 1e-12,
        }
    }

    /// Enables the lasso variant.
    pub fn with_lasso(mut self) -> Self {
        self.lasso = true;
        self
    }

    /// Runs LARS on `G·α = F`, returning the solution path.
    ///
    /// `g` is any [`AtomSource`]: a dense [`rsm_linalg::Matrix`], a
    /// streaming [`crate::source::DictionarySource`], or an adapter
    /// stack. Per-step cost is one [`AtomSource::correlate`] stream plus
    /// `O(K)` work per active column; scratch is `O(K·|A| + M)`, never
    /// `O(K·M)`. This is a wrapper over [`LarSession`] that runs the
    /// path to completion.
    ///
    /// # Errors
    ///
    /// - [`CoreError::ShapeMismatch`](crate::CoreError::ShapeMismatch) if `f.len() != g.num_rows()`;
    /// - [`CoreError::BadConfig`](crate::CoreError::BadConfig) if `max_steps == 0`;
    /// - [`CoreError::Numerical`](crate::CoreError::Numerical) if the active-set Gram factorization
    ///   breaks down irrecoverably.
    pub fn fit<S: AtomSource + ?Sized>(&self, g: &S, f: &[f64]) -> Result<SparsePath> {
        let mut session = LarSession::new(self.clone(), g, f)?;
        session.run(g, f)?;
        session.into_path()
    }
}

/// Convenience: plain LARS returning the model after `lambda` steps.
///
/// # Errors
///
/// As [`LarConfig::fit`].
pub fn fit<S: AtomSource + ?Sized>(g: &S, f: &[f64], lambda: usize) -> Result<SparseModel> {
    Ok(LarConfig::new(lambda).fit(g, f)?.final_model().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_linalg::vec_ops::{dot, norm2};
    use rsm_linalg::Matrix;
    use rsm_stats::metrics::relative_error;
    use rsm_stats::NormalSampler;

    fn sparse_problem(
        k: usize,
        m: usize,
        truth: &[(usize, f64)],
        noise: f64,
        seed: u64,
    ) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for &(j, v) in truth {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += noise * s.sample();
        }
        (g, f)
    }

    #[test]
    fn recovers_sparse_truth() {
        let truth = [(3usize, 4.0), (20, -2.5), (55, 1.0)];
        let (g, f) = sparse_problem(80, 120, &truth, 0.0, 21);
        let path = LarConfig::new(10).fit(&g, &f).unwrap();
        let model = path.final_model();
        let pred = model.predict_matrix(&g);
        assert!(relative_error(&pred, &f) < 1e-6);
        // The true support must be inside the selected support.
        let support = model.support();
        for (j, _) in truth {
            assert!(support.contains(&j), "missing true atom {j}");
        }
    }

    #[test]
    fn correlations_tie_along_path() {
        // The defining LARS property: after each step, all active
        // variables share the same absolute correlation with the
        // residual, and it upper-bounds every inactive correlation.
        let truth = [(2usize, 3.0), (10, -1.5), (31, 2.0), (47, -1.0)];
        let (g, f) = sparse_problem(100, 60, &truth, 0.05, 22);
        let path = LarConfig::new(6).fit(&g, &f).unwrap();
        // Normalized columns.
        let mut norms = vec![0.0; 60];
        for j in 0..60 {
            norms[j] = norm2(&g.col(j));
        }
        for (lambda, model) in path.iter() {
            let pred = model.predict_matrix(&g);
            let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
            let corrs: Vec<f64> = (0..60)
                .map(|j| dot(&g.col(j), &res).abs() / norms[j])
                .collect();
            let support = model.support();
            if support.is_empty() {
                continue;
            }
            let active_corr: Vec<f64> = support.iter().map(|&j| corrs[j]).collect();
            let cmax = active_corr.iter().fold(0.0f64, |m, &v| m.max(v));
            let cmin = active_corr.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            assert!(
                cmax - cmin < 1e-8 * (1.0 + cmax),
                "step {lambda}: active correlations differ: {active_corr:?}"
            );
            for (j, &corr) in corrs.iter().enumerate() {
                if !support.contains(&j) {
                    assert!(
                        corr <= cmax + 1e-8 * (1.0 + cmax),
                        "step {lambda}: inactive {j} exceeds active level"
                    );
                }
            }
        }
    }

    #[test]
    fn residuals_decrease_along_path() {
        let truth = [(1usize, 2.0), (9, 1.0)];
        let (g, f) = sparse_problem(50, 30, &truth, 0.1, 23);
        let path = LarConfig::new(8).fit(&g, &f).unwrap();
        for w in path.residual_norms().windows(2) {
            assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn active_set_grows_by_one_per_step_without_lasso() {
        let truth = [(0usize, 1.0), (5, -2.0), (12, 0.5)];
        let (g, f) = sparse_problem(40, 20, &truth, 0.02, 24);
        let path = LarConfig::new(5).fit(&g, &f).unwrap();
        for (lambda, model) in path.iter() {
            assert!(model.num_nonzeros() <= lambda);
        }
    }

    #[test]
    fn lasso_variant_reaches_same_fit_on_easy_problem() {
        let truth = [(4usize, 3.0), (15, -2.0)];
        let (g, f) = sparse_problem(60, 25, &truth, 0.0, 25);
        let plain = LarConfig::new(10).fit(&g, &f).unwrap();
        let lasso = LarConfig::new(30).with_lasso().fit(&g, &f).unwrap();
        let ep = relative_error(&plain.final_model().predict_matrix(&g), &f);
        let el = relative_error(&lasso.final_model().predict_matrix(&g), &f);
        assert!(ep < 1e-6, "plain {ep}");
        assert!(el < 1e-6, "lasso {el}");
    }

    #[test]
    fn lasso_coefficients_never_cross_zero_sign() {
        // Along the lasso path, an active coefficient's sign matches its
        // correlation sign (a crossing forces a drop instead).
        let truth = [(2usize, 1.0), (7, -1.0), (11, 0.8), (17, -0.6)];
        let (g, f) = sparse_problem(35, 20, &truth, 0.3, 26);
        let path = LarConfig::new(40).with_lasso().fit(&g, &f).unwrap();
        for (_, model) in path.iter() {
            let pred = model.predict_matrix(&g);
            let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
            for &(j, coef) in model.coefficients() {
                let corr = dot(&g.col(j), &res);
                // Sign consistency (allowing the just-hit-zero moment).
                if coef.abs() > 1e-10 && corr.abs() > 1e-8 {
                    assert!(
                        coef.signum() == corr.signum(),
                        "coef {coef} vs corr {corr} at atom {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn underdetermined_system_is_fine() {
        // K = 30 samples, M = 200 unknowns — the paper's regime.
        let truth = [(10usize, 5.0), (100, -3.0), (150, 2.0)];
        let (g, f) = sparse_problem(30, 200, &truth, 0.0, 27);
        let path = LarConfig::new(6).fit(&g, &f).unwrap();
        let err = relative_error(&path.final_model().predict_matrix(&g), &f);
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn degenerate_inputs() {
        let g = Matrix::identity(4);
        assert!(LarConfig::new(0).fit(&g, &[1.0; 4]).is_err());
        assert!(LarConfig::new(2).fit(&g, &[1.0; 3]).is_err());
        let path = LarConfig::new(2).fit(&g, &[0.0; 4]).unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
    }

    #[test]
    fn zero_column_is_ignored() {
        let mut s = NormalSampler::seed_from_u64(31);
        let mut g = Matrix::from_fn(20, 10, |_, _| s.sample());
        for r in 0..20 {
            g[(r, 4)] = 0.0; // dead column
        }
        let f: Vec<f64> = (0..20).map(|r| 2.0 * g[(r, 7)]).collect();
        let path = LarConfig::new(3).fit(&g, &f).unwrap();
        assert!(!path.final_model().support().contains(&4));
    }
}
