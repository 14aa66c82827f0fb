//! Q-fold cross-validated choice of the model order `λ`
//! (Section IV-C and Fig. 2 of the paper).
//!
//! For each fold `q`, a solver path is fit on the other `Q − 1` groups
//! and the modeling error `ε_q(λ)` is measured on group `q` for every
//! `λ` along the path. The averaged curve `ε(λ)` is minimized to pick
//! `λ*`, and the final model is re-fit on the full training set at
//! `λ*`.

use crate::path::SparsePath;
use crate::source::{AtomSource, RowSubsetSource};
use crate::{CoreError, Result};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;
use rsm_stats::{EarlyStopMonitor, EarlyStopRule, NormalSampler, QFold};

/// Cross-validation configuration.
#[derive(Debug, Clone)]
pub struct CvConfig {
    /// Number of folds `Q` (the paper's examples use 4).
    pub folds: usize,
    /// Largest model order to explore.
    pub lambda_max: usize,
    /// Shuffle the fold assignment with this seed (`None` =
    /// deterministic round-robin).
    pub shuffle_seed: Option<u64>,
    /// Apply the one-standard-error rule: instead of the exact
    /// minimizer, pick the *smallest* `λ` whose mean error is within
    /// one standard error of the minimum — a sparser model at
    /// statistically indistinguishable accuracy (Hastie et al., the
    /// paper's reference \[22\]).
    pub one_se_rule: bool,
    /// Cut the error curve where it flattens: `ε(λ)` is walked in
    /// increasing `λ` and kept only up to the first `λ` at which the
    /// rule says stop, so `λ*` is chosen from that prefix (`None` =
    /// the whole `1..=lambda_max` curve).
    pub early_stop: Option<EarlyStopRule>,
}

impl CvConfig {
    /// 4-fold cross-validation up to `lambda_max`, matching Fig. 2.
    pub fn new(lambda_max: usize) -> Self {
        CvConfig {
            folds: 4,
            lambda_max,
            shuffle_seed: None,
            one_se_rule: false,
            early_stop: None,
        }
    }

    /// Enables the one-standard-error selection rule.
    pub fn with_one_se_rule(mut self) -> Self {
        self.one_se_rule = true;
        self
    }

    /// Stops the error curve once it flattens under `rule`.
    pub fn with_early_stop(mut self, rule: EarlyStopRule) -> Self {
        self.early_stop = Some(rule);
        self
    }
}

/// Outcome of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// `ε(λ)` for `λ = 1..=lambda_explored` (index 0 ↦ λ = 1): up to
    /// `lambda_max` or the longest fold path, whichever is shorter
    /// (past it every fold is clamped to its final model, so `ε(λ)`
    /// would only repeat), or the prefix of that kept by
    /// [`CvConfig::early_stop`].
    pub errors: Vec<f64>,
    /// Standard error of `ε(λ)` across folds (same indexing).
    pub errors_se: Vec<f64>,
    /// The selected `λ*` (exact minimizer, or the one-SE choice when
    /// [`CvConfig::one_se_rule`] is set).
    pub best_lambda: usize,
    /// `ε(λ*)`.
    pub best_error: f64,
}

/// Cross-validates a path-producing solver against any [`AtomSource`].
///
/// Each fold's training and test sets are [`RowSubsetSource`] views of
/// `g` — nothing `K×M`-sized is ever copied or materialized. The
/// closure receives the training view as `&dyn AtomSource` (the trait
/// is object-safe) and the training response, and must return the
/// solver's path; the same closure is used for every fold, so its
/// configuration should allow at least `cfg.lambda_max` steps. Scoring
/// gathers only the path's support columns on the test view, and each
/// fold scores only the `λ` its path reaches, so the cost follows the
/// paths, not `cfg.lambda_max`.
///
/// The folds are fit in parallel (`Fn + Sync`, one task per fold via
/// [`rsm_runtime::par_map_indexed`]); each fold's work is independent
/// and its error curve lands at the fold's own index, so the result is
/// bit-identical to the sequential loop at every thread count.
///
/// `ε(λ)` is the mean of the finite fold errors at `λ` and its standard
/// error is `√(var / n)` over those `n` folds; a fold whose held-out
/// responses are constant scores `∞` and is left out, and a `λ` with no
/// finite fold scores `∞`.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
/// - [`CoreError::BadConfig`] for degenerate fold counts / `λ` ranges;
/// - any error from `fit_path` (the first failing fold in fold order).
pub fn cross_validate<S, F>(g: &S, f: &[f64], cfg: &CvConfig, fit_path: F) -> Result<CvResult>
where
    S: AtomSource + ?Sized + Sync,
    F: Fn(&dyn AtomSource, &[f64]) -> Result<SparsePath> + Sync,
{
    let k = g.num_rows();
    if f.len() != k {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {k}"),
            found: format!("length {}", f.len()),
        });
    }
    if cfg.lambda_max == 0 {
        return Err(CoreError::BadConfig("lambda_max must be at least 1".into()));
    }
    let folds = match cfg.shuffle_seed {
        Some(seed) => {
            let mut s = NormalSampler::seed_from_u64(seed);
            QFold::shuffled(k, cfg.folds, &mut s)
        }
        None => QFold::new(k, cfg.folds),
    }
    .ok_or_else(|| {
        CoreError::BadConfig(format!("cannot split {k} samples into {} folds", cfg.folds))
    })?;

    // Each fold scores λ = 1..=min(lambda_max, path length). A path
    // that stops early stands for every larger λ with its final model
    // (as `model_at` clamps), the way a practitioner would treat a
    // converged path, so the curve below reads the fold's last error.
    let splits: Vec<(Vec<usize>, Vec<usize>)> = folds.splits().collect();
    let fold_results: Vec<Result<Vec<f64>>> = rsm_runtime::par_map_indexed(splits.len(), |q| {
        let (train, test) = &splits[q];
        let train_view = RowSubsetSource::new(g, train);
        let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
        let test_view = RowSubsetSource::new(g, test);
        let f_test: Vec<f64> = test.iter().map(|&i| f[i]).collect();
        let path = fit_path(&train_view, &f_train)?;
        let scored = path.len().min(cfg.lambda_max);
        // Gather the union of the path's supports on the test rows
        // once; every λ is then scored from this |test|×|union| slab.
        // The union is bounded by the path length (plus lasso drops),
        // never by M.
        let mut union: Vec<usize> = Vec::new();
        for (_, model) in path.iter().take(scored) {
            for &(j, _) in model.coefficients() {
                if let Err(pos) = union.binary_search(&j) {
                    union.insert(pos, j);
                }
            }
        }
        let mut cols = Matrix::zeros(test.len(), union.len());
        test_view.columns_into(&union, &mut cols);
        let mut fold_errs = Vec::with_capacity(scored);
        let mut pred = vec![0.0; test.len()];
        // (slab column, coefficient) per term, in coefficient order.
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for (_, model) in path.iter().take(scored) {
            // The support and the union are both sorted, so one merge
            // walk finds every term's slab column.
            terms.clear();
            let mut col = 0;
            for &(j, c) in model.coefficients() {
                while union[col] < j {
                    col += 1;
                }
                debug_assert_eq!(union[col], j);
                terms.push((col, c));
            }
            for (r, p) in pred.iter_mut().enumerate() {
                // Same term order as `SparseModel::predict_row`
                // (coefficient order, from 0.0) so the fold errors are
                // bit-identical to dense scoring.
                let row = cols.row(r);
                *p = terms.iter().map(|&(col, c)| c * row[col]).sum();
            }
            fold_errs.push(relative_error(&pred, &f_test));
        }
        Ok(fold_errs)
    });
    let mut per_fold: Vec<Vec<f64>> = Vec::with_capacity(splits.len());
    for r in fold_results {
        per_fold.push(r?);
    }
    // Past the longest fold path every fold is clamped to its final
    // model, so ε(λ) would repeat its last value: the curve ends there.
    let explored = per_fold.iter().map(Vec::len).max().unwrap_or(0);
    let mut errors = Vec::with_capacity(explored);
    let mut errors_se = Vec::with_capacity(explored);
    let mut monitor = cfg.early_stop.map(EarlyStopMonitor::new);
    for l in 0..explored {
        let vals: Vec<f64> = per_fold
            .iter()
            .map(|fe| fe[l.min(fe.len() - 1)])
            .filter(|v| v.is_finite())
            .collect();
        let (mean, se) = if vals.is_empty() {
            (f64::INFINITY, f64::INFINITY)
        } else {
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            (mean, (var / n).sqrt())
        };
        errors.push(mean);
        errors_se.push(se);
        if monitor.as_mut().is_some_and(|m| m.observe(mean)) {
            break;
        }
    }
    let (best_idx, &best_error) = errors
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| CoreError::BadConfig("empty CV error curve".into()))?;
    let best_lambda = if cfg.one_se_rule {
        let threshold = best_error + errors_se[best_idx];
        errors
            .iter()
            .position(|&e| e <= threshold)
            .map(|i| i + 1)
            .unwrap_or(best_idx + 1)
    } else {
        best_idx + 1
    };
    Ok(CvResult {
        best_error: errors[best_lambda - 1],
        errors,
        errors_se,
        best_lambda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lar::LarConfig;
    use crate::omp::OmpConfig;
    use crate::source::DictionarySource;
    use rsm_basis::{Dictionary, DictionaryKind};
    use rsm_stats::NormalSampler;
    use std::collections::BTreeSet;

    /// P-sparse problem with noise, where over-fitting is possible.
    fn noisy_problem(k: usize, m: usize, p: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for i in 0..p {
            let j = (i * 13 + 5) % m;
            let v = 3.0 / (1.0 + i as f64);
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += 0.3 * s.sample();
        }
        (g, f)
    }

    #[test]
    fn picks_lambda_near_true_sparsity() {
        let p = 5;
        let (g, f) = noisy_problem(120, 300, p, 42);
        let cfg = CvConfig::new(30);
        let cv = cross_validate(&g, &f, &cfg, |gt, ft| OmpConfig::new(30).fit(gt, ft)).unwrap();
        assert!(
            cv.best_lambda >= p && cv.best_lambda <= p + 6,
            "best λ = {} for true sparsity {p}",
            cv.best_lambda
        );
    }

    #[test]
    fn error_curve_rises_after_optimum() {
        // Over-fitting: the CV error at λ_max must exceed the minimum.
        let (g, f) = noisy_problem(60, 200, 4, 7);
        let cfg = CvConfig::new(40);
        let cv = cross_validate(&g, &f, &cfg, |gt, ft| OmpConfig::new(40).fit(gt, ft)).unwrap();
        let last = *cv.errors.last().unwrap();
        assert!(
            last > cv.best_error * 1.05,
            "no overfitting detected: min {} vs last {last}",
            cv.best_error
        );
    }

    #[test]
    fn four_folds_by_default() {
        let cfg = CvConfig::new(10);
        assert_eq!(cfg.folds, 4);
        assert!(!cfg.one_se_rule);
    }

    #[test]
    fn one_se_rule_never_picks_larger_lambda() {
        let (g, f) = noisy_problem(100, 250, 5, 13);
        let plain = cross_validate(&g, &f, &CvConfig::new(30), |gt, ft| {
            OmpConfig::new(30).fit(gt, ft)
        })
        .unwrap();
        let one_se = cross_validate(&g, &f, &CvConfig::new(30).with_one_se_rule(), |gt, ft| {
            OmpConfig::new(30).fit(gt, ft)
        })
        .unwrap();
        assert!(one_se.best_lambda <= plain.best_lambda);
        // The one-SE error stays within a standard error of the minimum.
        let min_idx = plain.best_lambda - 1;
        assert!(one_se.best_error <= plain.errors[min_idx] + plain.errors_se[min_idx] + 1e-12);
    }

    #[test]
    fn standard_errors_are_finite_and_nonnegative() {
        let (g, f) = noisy_problem(80, 100, 3, 17);
        let cv = cross_validate(&g, &f, &CvConfig::new(15), |gt, ft| {
            OmpConfig::new(15).fit(gt, ft)
        })
        .unwrap();
        assert_eq!(cv.errors_se.len(), 15);
        assert!(cv.errors_se.iter().all(|&s| s >= 0.0 && s.is_finite()));
    }

    #[test]
    fn standard_error_counts_only_the_finite_folds() {
        // Round-robin fold 0 holds out the rows r % 4 == 0, whose
        // response is constant: that fold scores ∞ at every λ and drops
        // out, so ε(λ) and its SE come from the other three folds.
        let (g, mut f) = noisy_problem(40, 30, 3, 5);
        for r in (0..40).step_by(4) {
            f[r] = 1.0;
        }
        let fit = |gt: &dyn AtomSource, ft: &[f64]| OmpConfig::new(6).fit(gt, ft);
        let cv = cross_validate(&g, &f, &CvConfig::new(6), fit).unwrap();
        let folds = QFold::new(40, 4).unwrap();
        for lambda in 1..=6 {
            let errs: Vec<f64> = folds
                .splits()
                .map(|(train, test)| {
                    let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                    let path = fit(&RowSubsetSource::new(&g, &train), &f_train).unwrap();
                    let pred = path.model_at(lambda).predict_matrix(&g.select_rows(&test));
                    let f_test: Vec<f64> = test.iter().map(|&i| f[i]).collect();
                    relative_error(&pred, &f_test)
                })
                .collect();
            assert!(errs[0].is_infinite(), "fold 0 at λ = {lambda}: {}", errs[0]);
            let finite = &errs[1..];
            let mean = finite.iter().sum::<f64>() / 3.0;
            let var = finite.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / 3.0;
            let se = (var / 3.0).sqrt();
            let (got_mean, got_se) = (cv.errors[lambda - 1], cv.errors_se[lambda - 1]);
            assert_eq!(got_mean.to_bits(), mean.to_bits(), "λ = {lambda}");
            assert_eq!(
                got_se.to_bits(),
                se.to_bits(),
                "λ = {lambda}: SE {got_se}, hand-computed {se}"
            );
        }
    }

    #[test]
    fn lasso_fold_scores_match_dense_scoring_bit_for_bit() {
        // Input 2 is almost 0.7·(input 0 + input 1) and the response is
        // input 0 + input 1, so the lasso path activates the composite
        // first and drops it once the true atoms take over: a fold's
        // support union is then larger than any one of its supports.
        let (n, k, lambda_max) = (6, 48, 20);
        let mut s = NormalSampler::seed_from_u64(0);
        let mut samples = Matrix::from_fn(k, n, |_, _| s.sample());
        for r in 0..k {
            samples[(r, 2)] = 0.7 * (samples[(r, 0)] + samples[(r, 1)]) + 0.08 * s.sample();
        }
        let f: Vec<f64> = (0..k)
            .map(|r| samples[(r, 0)] + samples[(r, 1)] + 0.12 * s.sample())
            .collect();
        let dict = Dictionary::new(n, DictionaryKind::Quadratic);
        let src = DictionarySource::new(&dict, &samples);
        let dense = dict.design_matrix(&samples);
        let fit =
            |gt: &dyn AtomSource, ft: &[f64]| LarConfig::new(lambda_max).with_lasso().fit(gt, ft);
        let cv = cross_validate(&src, &f, &CvConfig::new(lambda_max), fit).unwrap();
        let mut dropped = false;
        let per_fold: Vec<Vec<f64>> = QFold::new(k, 4)
            .unwrap()
            .splits()
            .map(|(train, test)| {
                let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                let path = fit(&RowSubsetSource::new(&src, &train), &f_train).unwrap();
                let widest = path.iter().map(|(_, m)| m.num_nonzeros()).max();
                let union: BTreeSet<usize> = path.iter().flat_map(|(_, m)| m.support()).collect();
                dropped |= Some(union.len()) > widest;
                let g_test = dense.select_rows(&test);
                let f_test: Vec<f64> = test.iter().map(|&i| f[i]).collect();
                (1..=lambda_max)
                    .map(|l| relative_error(&path.model_at(l).predict_matrix(&g_test), &f_test))
                    .collect()
            })
            .collect();
        assert!(dropped, "no fold path dropped an atom");
        assert_eq!(cv.errors.len(), lambda_max);
        for l in 0..lambda_max {
            let errs: Vec<f64> = per_fold.iter().map(|fe| fe[l]).collect();
            let n = errs.len() as f64;
            let mean = errs.iter().sum::<f64>() / n;
            let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
            let se = (var / n).sqrt();
            assert_eq!(cv.errors[l].to_bits(), mean.to_bits(), "λ = {}", l + 1);
            assert_eq!(cv.errors_se[l].to_bits(), se.to_bits(), "λ = {}", l + 1);
        }
    }

    #[test]
    fn cost_follows_the_fold_paths_not_lambda_max() {
        // With M = 10 atoms no fold path is longer than 10 steps. A λ
        // range of 10¹² must cost what the paths reach and give the
        // bits of the range cut at the longest fold path.
        let (g, f) = noisy_problem(40, 10, 3, 11);
        let fit = |lambda_max: usize| {
            move |gt: &dyn AtomSource, ft: &[f64]| LarConfig::new(lambda_max).fit(gt, ft)
        };
        let longest = QFold::new(40, 4)
            .unwrap()
            .splits()
            .map(|(train, _)| {
                let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                fit(10)(&RowSubsetSource::new(&g, &train), &f_train)
                    .unwrap()
                    .len()
            })
            .max()
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for one_se_rule in [false, true] {
            let cfg = |lambda_max| CvConfig {
                one_se_rule,
                ..CvConfig::new(lambda_max)
            };
            let huge = 1_000_000_000_000;
            let wide = cross_validate(&g, &f, &cfg(huge), fit(huge)).unwrap();
            let cut = cross_validate(&g, &f, &cfg(longest), fit(longest)).unwrap();
            assert_eq!(wide.errors.len(), longest);
            assert_eq!(bits(&wide.errors), bits(&cut.errors));
            assert_eq!(bits(&wide.errors_se), bits(&cut.errors_se));
            assert_eq!(wide.best_lambda, cut.best_lambda);
            assert_eq!(wide.best_error.to_bits(), cut.best_error.to_bits());
        }
    }

    #[test]
    fn shuffled_cv_also_works() {
        let (g, f) = noisy_problem(80, 100, 3, 3);
        let cfg = CvConfig {
            folds: 5,
            shuffle_seed: Some(1),
            ..CvConfig::new(15)
        };
        let cv = cross_validate(&g, &f, &cfg, |gt, ft| OmpConfig::new(15).fit(gt, ft)).unwrap();
        assert!(cv.best_lambda >= 2 && cv.best_lambda <= 10);
    }

    #[test]
    fn bad_configs_rejected() {
        let (g, f) = noisy_problem(20, 10, 1, 9);
        let bad_folds = CvConfig {
            folds: 1,
            ..CvConfig::new(5)
        };
        assert!(cross_validate(&g, &f, &bad_folds, |gt, ft| {
            OmpConfig::new(5).fit(gt, ft)
        })
        .is_err());
        let zero_lambda = CvConfig {
            lambda_max: 0,
            ..CvConfig::new(5)
        };
        assert!(cross_validate(&g, &f, &zero_lambda, |gt, ft| {
            OmpConfig::new(5).fit(gt, ft)
        })
        .is_err());
    }
}
