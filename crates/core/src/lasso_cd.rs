//! Cyclic coordinate-descent lasso — an independent solver for the L1
//! relaxation that LAR traces.
//!
//! Solves `min_α ½‖G·α − F‖₂² + λ_pen·‖α‖₁` directly by soft-threshold
//! coordinate updates. This is *not* one of the paper's methods; it is
//! included as a numerical cross-check: at a matched penalty, the
//! lasso-modified LARS path and coordinate descent must agree — a
//! strong end-to-end test of the LARS implementation — and it lets
//! users trade LARS's exact path for warm-started penalty grids.

use crate::model::SparseModel;
use crate::session::LassoCdSession;
use crate::source::AtomSource;
use crate::{CoreError, Result};

/// Coordinate-descent lasso configuration.
#[derive(Debug, Clone)]
pub struct LassoCdConfig {
    /// L1 penalty weight `λ_pen` (in the ½-RSS convention above).
    pub penalty: f64,
    /// Convergence tolerance on the maximum coefficient change per
    /// sweep, relative to the largest coefficient magnitude.
    pub tol: f64,
    /// Maximum full coordinate sweeps.
    pub max_sweeps: usize,
}

impl LassoCdConfig {
    /// A solver for the given penalty with practical defaults.
    pub fn new(penalty: f64) -> Self {
        LassoCdConfig {
            penalty,
            tol: 1e-10,
            max_sweeps: 10_000,
        }
    }

    /// Runs coordinate descent from the zero vector on any
    /// [`AtomSource`]. Each sweep touches every atom's column once, so
    /// wrapping a streaming source in [`crate::source::CachedSource`]
    /// avoids re-evaluating columns on every sweep.
    ///
    /// # Errors
    ///
    /// - [`CoreError::ShapeMismatch`] on operand mismatch;
    /// - [`CoreError::BadConfig`] for a negative penalty or non-finite
    ///   response;
    /// - [`CoreError::Numerical`] if the sweep cap is exhausted before
    ///   convergence.
    pub fn fit<S: AtomSource + ?Sized>(&self, g: &S, f: &[f64]) -> Result<SparseModel> {
        self.fit_warm(g, f, None)
    }

    /// As [`Self::fit`], optionally starting from a previous solution
    /// (dense coefficient vector of length `M`) — the idiom for
    /// descending a penalty grid. This is a wrapper over
    /// [`LassoCdSession`] that sweeps to convergence.
    ///
    /// # Errors
    ///
    /// As [`Self::fit`].
    pub fn fit_warm<S: AtomSource + ?Sized>(
        &self,
        g: &S,
        f: &[f64],
        warm: Option<&[f64]>,
    ) -> Result<SparseModel> {
        let mut session = LassoCdSession::new(self.clone(), g, f, warm)?;
        session.run(g, f)?;
        Ok(session.model())
    }
}

/// The soft-threshold operator `S(x, t) = sign(x)·max(|x| − t, 0)`.
#[inline]
pub(crate) fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// The smallest penalty at which the lasso solution is exactly zero:
/// `λ_max = ‖Gᵀ·F‖_∞`.
///
/// # Errors
///
/// [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`.
pub fn penalty_max<S: AtomSource + ?Sized>(g: &S, f: &[f64]) -> Result<f64> {
    if f.len() != g.num_rows() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {}", g.num_rows()),
            found: format!("length {}", f.len()),
        });
    }
    let c = g.correlate(f);
    Ok(c.iter().fold(0.0f64, |a, &v| a.max(v.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lar::LarConfig;
    use rsm_linalg::vec_ops::norm2;
    use rsm_linalg::Matrix;
    use rsm_stats::NormalSampler;

    fn problem(k: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| rng.sample());
        let f: Vec<f64> = (0..k)
            .map(|r| 3.0 * g[(r, 2)] - 2.0 * g[(r, 7)] + 0.1 * rng.sample())
            .collect();
        (g, f)
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn penalty_max_zeroes_solution() {
        let (g, f) = problem(40, 12, 1);
        let lmax = penalty_max(&g, &f).unwrap();
        let model = LassoCdConfig::new(lmax * 1.0001).fit(&g, &f).unwrap();
        assert_eq!(model.num_nonzeros(), 0);
        // Just below λ_max, something activates.
        let model = LassoCdConfig::new(lmax * 0.95).fit(&g, &f).unwrap();
        assert!(model.num_nonzeros() >= 1);
    }

    #[test]
    fn kkt_conditions_hold_at_optimum() {
        let (g, f) = problem(60, 15, 2);
        let pen = penalty_max(&g, &f).unwrap() * 0.3;
        let model = LassoCdConfig::new(pen).fit(&g, &f).unwrap();
        let pred = model.predict_matrix(&g);
        let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let grad = g.matvec_t(&res).unwrap();
        for j in 0..15 {
            match model.coefficient(j) {
                Some(a) => {
                    // Active: G_jᵀr = λ·sign(α_j).
                    assert!(
                        (grad[j] - pen * a.signum()).abs() < 1e-6 * pen,
                        "KKT active violated at {j}: {} vs {}",
                        grad[j],
                        pen * a.signum()
                    );
                }
                None => {
                    // Inactive: |G_jᵀr| ≤ λ.
                    assert!(
                        grad[j].abs() <= pen * (1.0 + 1e-8),
                        "KKT inactive violated at {j}: |{}| > {pen}",
                        grad[j]
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_lasso_lars_at_matched_penalty() {
        // LARS normalizes predictors internally, so its lasso path is
        // the lasso of the column-normalized design; normalize G first
        // so a single penalty matches both solvers. Then at any path
        // point the active correlation level IS the penalty, and CD at
        // that penalty must reproduce the same coefficients.
        let (mut g, f) = problem(50, 10, 3);
        for j in 0..g.cols() {
            let n = norm2(&g.col(j));
            for r in 0..g.rows() {
                g[(r, j)] /= n;
            }
        }
        let path = LarConfig::new(6).with_lasso().fit(&g, &f).unwrap();
        let model_lars = path.model_at(4);
        // The penalty equals the residual correlation of any active atom.
        let pred = model_lars.predict_matrix(&g);
        let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let grad = g.matvec_t(&res).unwrap();
        let &(j0, _) = model_lars
            .coefficients()
            .first()
            .expect("nonempty LARS model");
        let pen = grad[j0].abs();
        let model_cd = LassoCdConfig::new(pen).fit(&g, &f).unwrap();
        // At a LARS breakpoint the next atom sits exactly on the KKT
        // boundary, so CD may include it with an ~0 coefficient — drop
        // such numerically-degenerate entries before comparing supports.
        let scale = model_lars.l2_norm();
        let cd_support: Vec<usize> = model_cd
            .coefficients()
            .iter()
            .filter(|&&(_, c)| c.abs() > 1e-6 * scale)
            .map(|&(j, _)| j)
            .collect();
        assert_eq!(cd_support, model_lars.support());
        for &(j, a) in model_lars.coefficients() {
            let b = model_cd.coefficient(j).unwrap();
            assert!(
                (a - b).abs() < 1e-5 * (1.0 + a.abs()),
                "atom {j}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn warm_start_descends_penalty_grid() {
        let (g, f) = problem(80, 20, 4);
        let lmax = penalty_max(&g, &f).unwrap();
        let mut warm: Option<Vec<f64>> = None;
        let mut prev_l1 = 0.0;
        for step in 1..=6 {
            let pen = lmax * 0.5f64.powi(step);
            let model = LassoCdConfig::new(pen)
                .fit_warm(&g, &f, warm.as_deref())
                .unwrap();
            // L1 norm grows as the penalty shrinks.
            assert!(model.l1_norm() >= prev_l1 - 1e-9);
            prev_l1 = model.l1_norm();
            warm = Some(model.to_dense());
        }
    }

    #[test]
    fn zero_penalty_matches_least_squares_when_overdetermined() {
        let (g, f) = problem(100, 8, 5);
        let cd = LassoCdConfig::new(0.0).fit(&g, &f).unwrap();
        let ls = crate::ls::fit(&g, &f).unwrap();
        for j in 0..8 {
            let a = cd.coefficient(j).unwrap_or(0.0);
            let b = ls.coefficient(j).unwrap_or(0.0);
            assert!((a - b).abs() < 1e-6, "coef {j}: CD {a} vs LS {b}");
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (g, f) = problem(20, 10, 6);
        assert!(LassoCdConfig::new(-1.0).fit(&g, &f).is_err());
        assert!(LassoCdConfig::new(f64::NAN).fit(&g, &f).is_err());
        let mut bad = f.clone();
        bad[0] = f64::INFINITY;
        assert!(LassoCdConfig::new(1.0).fit(&g, &bad).is_err());
        assert!(LassoCdConfig::new(1.0)
            .fit_warm(&g, &f, Some(&[0.0; 3]))
            .is_err());
    }
}
