//! STAR — statistical regression (Li & Liu, DAC 2008; reference \[1\] of
//! the paper).
//!
//! STAR shares OMP's selection criterion: at each iteration it picks
//! the basis vector most correlated with the residual. The difference
//! is Step 6: instead of re-solving a least-squares problem over the
//! whole selected set, STAR *directly assigns* the inner-product
//! estimate `ξ_s = G_sᵀ·Res / K` (Eq. (18)) as the coefficient of the
//! newly selected basis, then subtracts its contribution from the
//! residual. Because the basis vectors are not exactly orthogonal
//! under random sampling, this leaves correlated error in the
//! coefficients — the effect the paper measures as STAR's 1.5–5×
//! higher modeling error.

use crate::model::SparseModel;
use crate::path::{traced_path, SparsePath};
use crate::source::AtomSource;
use crate::{check_response, select_max_abs, CoreError, Result, PATH_REL_TOL};
use rsm_linalg::tol;
use rsm_linalg::vec_ops::{axpy, norm2};

/// STAR configuration.
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Number of basis functions to select.
    pub lambda: usize,
}

impl StarConfig {
    /// Selects `lambda` basis functions.
    pub fn new(lambda: usize) -> Self {
        StarConfig { lambda }
    }

    /// Runs STAR on `G·α = F` for any [`AtomSource`].
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::omp::OmpConfig::fit`], and
    /// [`CoreError::Numerical`] if a coefficient update leaves a
    /// non-finite residual, as on a design whose scale squared
    /// overflows. So no returned coefficient is non-finite.
    pub fn fit<S: AtomSource + ?Sized>(&self, g: &S, f: &[f64]) -> Result<SparsePath> {
        check_response(g, f)?;
        if self.lambda == 0 {
            return Err(CoreError::BadConfig("lambda must be at least 1".into()));
        }
        let (k, m) = (g.num_rows(), g.num_atoms());
        let f_norm = norm2(f);
        if tol::exactly_zero(f_norm) {
            return Ok(SparsePath::new(m, vec![SparseModel::zero(m)], vec![0.0]));
        }
        let lambda_max = self.lambda.min(m);
        let kf = k as f64;
        let mut res = f.to_vec();
        let mut in_model = vec![false; m];
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(lambda_max);
        let mut snapshots = Vec::with_capacity(lambda_max);
        let mut residual_norms = Vec::with_capacity(lambda_max);
        let mut col = vec![0.0; k];
        while coeffs.len() < lambda_max {
            let xi = g.correlate(&res);
            let Some((s, score)) = select_max_abs(&xi, &in_model)? else {
                break;
            };
            if score <= f_norm * tol::STEP_REL_TOL {
                break;
            }
            // The coefficient IS the inner-product estimate — no re-fit.
            // It is finite, since the scan rejects a non-finite score.
            let alpha = xi[s] / kf;
            in_model[s] = true;
            coeffs.push((s, alpha));
            g.column_into(s, &mut col);
            axpy(-alpha, &col, &mut res);
            let rn = norm2(&res);
            if !rn.is_finite() {
                return Err(CoreError::Numerical(format!(
                    "STAR residual is not finite after selecting atom {s} with coefficient \
                     {alpha}: the design's scale overflows the update"
                )));
            }
            snapshots.push(SparseModel::new(m, coeffs.clone()));
            residual_norms.push(rn);
            if rn <= PATH_REL_TOL * f_norm {
                break;
            }
        }
        traced_path(m, snapshots, residual_norms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omp::OmpConfig;
    use rsm_linalg::Matrix;
    use rsm_stats::metrics::relative_error;
    use rsm_stats::NormalSampler;

    fn sparse_problem(k: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<(usize, f64)>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let truth = vec![(4usize, 3.0), (17, -2.0), (40, 1.5)];
        let mut f = vec![0.0; k];
        for &(j, v) in &truth {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        (g, f, truth)
    }

    #[test]
    fn selects_true_support_when_well_separated() {
        let (g, f, truth) = sparse_problem(400, 80, 7);
        let path = StarConfig::new(3).fit(&g, &f).unwrap();
        let model = path.final_model();
        let mut support = model.support();
        support.sort_unstable();
        let mut expected: Vec<usize> = truth.iter().map(|&(j, _)| j).collect();
        expected.sort_unstable();
        assert_eq!(support, expected);
        // Coefficients approximate the truth (inner-product estimator).
        // The estimator's noise depends on the sampled G: with the
        // vendored rand's xoshiro stream this seed measures a worst
        // deviation of 0.61 (was < 0.5 on the upstream ChaCha stream),
        // so the bar is 0.8 — still far below the 1.5 gap between the
        // smallest true coefficient and zero.
        for (j, v) in truth {
            let c = model.coefficient(j).unwrap();
            assert!((c - v).abs() < 0.8, "coef {c} vs {v}");
        }
    }

    #[test]
    fn star_less_accurate_than_omp_at_small_k() {
        // The paper's central empirical claim (Fig. 4): at matched λ
        // and modest K, OMP's re-fit beats STAR's greedy assignment.
        let (g, f, _) = sparse_problem(60, 300, 8);
        let star = StarConfig::new(3).fit(&g, &f).unwrap();
        let omp = OmpConfig::new(3).fit(&g, &f).unwrap();
        let star_err = relative_error(&star.final_model().predict_matrix(&g), &f);
        let omp_err = relative_error(&omp.final_model().predict_matrix(&g), &f);
        assert!(
            omp_err < star_err,
            "OMP {omp_err} should beat STAR {star_err}"
        );
    }

    #[test]
    fn residual_norms_nonincreasing() {
        let (g, f, _) = sparse_problem(100, 50, 9);
        let path = StarConfig::new(10).fit(&g, &f).unwrap();
        for w in path.residual_norms().windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{w:?}");
        }
    }

    #[test]
    fn never_reselects_a_basis() {
        let (g, f, _) = sparse_problem(80, 50, 10);
        let path = StarConfig::new(20).fit(&g, &f).unwrap();
        let support = path.final_model().support();
        let mut dedup = support.clone();
        dedup.dedup();
        assert_eq!(support, dedup);
        assert_eq!(path.final_model().num_nonzeros(), path.len());
    }

    #[test]
    fn zero_response_and_bad_config() {
        let g = Matrix::identity(4);
        let path = StarConfig::new(2).fit(&g, &[0.0; 4]).unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
        assert!(StarConfig::new(0).fit(&g, &[1.0; 4]).is_err());
        assert!(StarConfig::new(1).fit(&g, &[1.0; 3]).is_err());
    }

    #[test]
    fn path_agrees_with_omp_when_columns_orthogonal() {
        // With an exactly orthogonal dictionary whose columns have
        // ‖G_m‖² = K, the inner-product estimate equals the LS re-fit,
        // so STAR and OMP coincide.
        let k = 16;
        let mut g = Matrix::zeros(k, k);
        for i in 0..k {
            g[(i, i)] = (k as f64).sqrt();
        }
        let f: Vec<f64> = (0..k)
            .map(|i| if i < 3 { (i + 1) as f64 } else { 0.0 })
            .collect();
        let star = StarConfig::new(3).fit(&g, &f).unwrap();
        let omp = OmpConfig::new(3).fit(&g, &f).unwrap();
        let sm = star.final_model();
        let om = omp.final_model();
        assert_eq!(sm.support(), om.support());
        for &(j, c) in sm.coefficients() {
            assert!((c - om.coefficient(j).unwrap()).abs() < 1e-10);
        }
    }
}
