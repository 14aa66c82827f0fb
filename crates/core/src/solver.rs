//! Unified solver front-end: pick a [`Method`] and a [`ModelOrder`]
//! policy, get a fitted [`SparseModel`] plus diagnostics.
//!
//! [`fit`] is the one solve path: it optionally cross-validates the
//! model order ([`crate::select::cross_validate`], one full path per
//! fold, folds in parallel), then runs [`fit_path`] on all samples to
//! the chosen `λ`.

use crate::lar::LarConfig;
use crate::ls;
use crate::model::SparseModel;
use crate::omp::OmpConfig;
use crate::select::{cross_validate, CvConfig, CvResult};
use crate::source::AtomSource;
use crate::star::StarConfig;
use crate::{CoreError, Result};
use std::time::Instant;

/// The four modeling techniques compared throughout the paper's
/// evaluation (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Least-squares fitting \[21\] — needs `K ≥ M`.
    Ls,
    /// Statistical regression, DAC 2008 \[1\].
    Star,
    /// Least angle regression, DAC 2009 \[2\] (this paper).
    Lar,
    /// Least angle regression with the lasso modification.
    LarLasso,
    /// Orthogonal matching pursuit (the journal version's proposal).
    Omp,
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ls => "LS",
            Method::Star => "STAR",
            Method::Lar => "LAR",
            Method::LarLasso => "LAR(lasso)",
            Method::Omp => "OMP",
        }
    }

    /// All methods, in the paper's column order.
    pub fn all() -> [Method; 4] {
        [Method::Ls, Method::Star, Method::Lar, Method::Omp]
    }
}

/// How the model order `λ` is chosen.
#[derive(Debug, Clone)]
pub enum ModelOrder {
    /// Use a fixed `λ` (ignored by LS, which fits all coefficients).
    Fixed(usize),
    /// Choose `λ` by Q-fold cross-validation (Section IV-C).
    CrossValidated(CvConfig),
}

/// A fitted model with selection diagnostics.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The fitted sparse model.
    pub model: SparseModel,
    /// The method used.
    pub method: Method,
    /// The `λ` actually used: the requested or cross-validated order,
    /// capped at the length of the path the solver traced (number of
    /// selection steps; `M` for LS).
    pub lambda: usize,
    /// The cross-validation curve, when [`ModelOrder::CrossValidated`]
    /// was requested.
    pub cv: Option<CvResult>,
    /// Wall-clock fitting time in seconds (the paper's "fitting cost").
    pub fit_seconds: f64,
}

/// Fits `G·α = F` with the chosen method and model-order policy.
///
/// `g` is any [`AtomSource`] — a dense [`rsm_linalg::Matrix`], a
/// streaming [`crate::source::DictionarySource`], or an adapter stack.
/// With a streaming source, nothing `K×M`-sized is materialized by any
/// sparse method (LS is the exception: it refuses underdetermined
/// problems first, so its dense gather is bounded by `K²`).
/// Cross-validation folds are [`crate::source::RowSubsetSource`] views
/// fit in parallel; with [`CvConfig::early_stop`] the error curve ends
/// where it flattens and `λ*` comes from that prefix.
///
/// # Errors
///
/// Propagates the underlying solver errors; see [`OmpConfig::fit`],
/// [`LarConfig::fit`], [`StarConfig::fit`], [`ls::fit`].
pub fn fit<S: AtomSource + ?Sized + Sync>(
    g: &S,
    f: &[f64],
    method: Method,
    order: &ModelOrder,
) -> Result<FitReport> {
    let t0 = Instant::now();
    let report = match method {
        Method::Ls => {
            let model = ls::fit(g, f)?;
            FitReport {
                lambda: model.num_bases(),
                model,
                method,
                cv: None,
                fit_seconds: 0.0,
            }
        }
        _ => {
            let (lambda, cv) = match order {
                ModelOrder::Fixed(l) => (*l, None),
                ModelOrder::CrossValidated(cfg) => {
                    let cv = cross_validate(g, f, method, cfg)?;
                    (cv.best_lambda, Some(cv))
                }
            };
            if lambda == 0 {
                return Err(CoreError::BadConfig("lambda must be at least 1".into()));
            }
            let path = fit_path(method, g, f, lambda)?;
            // A path that ends early stands for every larger λ
            // (`model_at` clamps): report the order that was used.
            FitReport {
                model: path.model_at(lambda),
                method,
                lambda: lambda.min(path.len()),
                cv,
                fit_seconds: 0.0,
            }
        }
    };
    Ok(FitReport {
        fit_seconds: t0.elapsed().as_secs_f64(),
        ..report
    })
}

/// Runs the path-producing form of a sparse method on any
/// [`AtomSource`].
///
/// # Errors
///
/// As the underlying solver; [`CoreError::BadConfig`] for [`Method::Ls`]
/// (which has no path).
pub fn fit_path<S: AtomSource + ?Sized>(
    method: Method,
    g: &S,
    f: &[f64],
    lambda_max: usize,
) -> Result<crate::path::SparsePath> {
    match method {
        Method::Ls => Err(CoreError::BadConfig(
            "LS does not produce a selection path".into(),
        )),
        Method::Star => StarConfig::new(lambda_max).fit(g, f),
        Method::Lar => LarConfig::new(lambda_max).fit(g, f),
        Method::LarLasso => LarConfig::new(lambda_max).with_lasso().fit(g, f),
        Method::Omp => OmpConfig::new(lambda_max).fit(g, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_linalg::Matrix;
    use rsm_stats::metrics::relative_error;
    use rsm_stats::NormalSampler;

    fn problem(k: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for &(j, v) in &[(2usize, 2.0), (7, -1.0), (11, 0.5)] {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += 0.05 * s.sample();
        }
        (g, f)
    }

    #[test]
    fn all_sparse_methods_fit_fixed_order() {
        let (g, f) = problem(60, 120, 1);
        for method in [Method::Star, Method::Lar, Method::LarLasso, Method::Omp] {
            let rep = fit(&g, &f, method, &ModelOrder::Fixed(5)).unwrap();
            assert!(rep.model.num_nonzeros() <= 5, "{method:?}");
            let err = relative_error(&rep.model.predict_matrix(&g), &f);
            // STAR's greedy coefficients are deliberately less accurate
            // (that is the paper's point), so the bound is loose.
            assert!(err < 0.5, "{method:?} err {err}");
            assert!(rep.fit_seconds >= 0.0);
            assert!(rep.cv.is_none());
        }
    }

    #[test]
    fn ls_fits_overdetermined_and_reports_full_lambda() {
        let (g, f) = problem(200, 20, 2);
        let rep = fit(&g, &f, Method::Ls, &ModelOrder::Fixed(999)).unwrap();
        assert_eq!(rep.lambda, 20);
        let err = relative_error(&rep.model.predict_matrix(&g), &f);
        assert!(err < 0.1, "LS err {err}");
    }

    #[test]
    fn cross_validated_order_is_reported() {
        let (g, f) = problem(100, 150, 3);
        let order = ModelOrder::CrossValidated(CvConfig::new(20));
        let rep = fit(&g, &f, Method::Omp, &order).unwrap();
        let cv = rep.cv.expect("cv result");
        assert_eq!(cv.best_lambda, rep.lambda);
        assert_eq!(rep.model.num_nonzeros(), rep.lambda);
        assert!(cv.errors.len() == 20);
    }

    #[test]
    fn fixed_order_past_the_path_reports_the_path_length() {
        // M = 12: no path has more than 12 steps, so λ = 1000 fits the
        // 12-step model and must say so.
        let (g, f) = problem(40, 12, 5);
        for method in [Method::Lar, Method::Omp, Method::Star] {
            let rep = fit(&g, &f, method, &ModelOrder::Fixed(1000)).unwrap();
            let path = fit_path(method, &g, &f, 1000).unwrap();
            assert_eq!(rep.lambda, path.len(), "{method:?}");
            assert_eq!(rep.lambda, 12, "{method:?}");
            assert_eq!(rep.model, path.model_at(12), "{method:?}");
        }
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::Ls.name(), "LS");
        assert_eq!(Method::Star.name(), "STAR");
        assert_eq!(Method::Lar.name(), "LAR");
        assert_eq!(Method::Omp.name(), "OMP");
        assert_eq!(Method::all().len(), 4);
    }

    #[test]
    fn ls_has_no_path() {
        let (g, f) = problem(30, 15, 4);
        assert!(fit_path(Method::Ls, &g, &f, 5).is_err());
    }

    #[test]
    fn cv_early_stop_shortens_the_curve_to_a_prefix() {
        let (g, f) = problem(80, 100, 17);
        let full = ModelOrder::CrossValidated(CvConfig::new(40));
        let stopped = ModelOrder::CrossValidated(CvConfig::new(40).with_early_stop());
        let base = fit(&g, &f, Method::Omp, &full).unwrap().cv.unwrap();
        let rep = fit(&g, &f, Method::Omp, &stopped).unwrap();
        let cv = rep.cv.clone().unwrap();
        // The 3-sparse truth overfits well before λ = 40.
        assert!(cv.errors.len() < 40, "explored {} of 40", cv.errors.len());
        // The stopped curve is the unstopped one cut short, bit for bit.
        for (a, b) in cv.errors.iter().zip(&base.errors) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert!(cv.best_lambda <= cv.errors.len());
        assert_eq!(rep.lambda, cv.best_lambda);
        assert!(rep.lambda >= 3 && rep.lambda <= 12, "λ* = {}", rep.lambda);
    }
}
