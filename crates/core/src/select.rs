//! Q-fold cross-validated choice of the model order `λ`
//! (Section IV-C and Fig. 2 of the paper).
//!
//! For each fold `q`, a solver path is fit on the other `Q − 1` groups
//! and the modeling error `ε_q(λ)` is measured on group `q` for every
//! `λ` along the path. The averaged curve `ε(λ)` is minimized to pick
//! `λ*`, and the final model is re-fit on the full training set at
//! `λ*`.

use crate::solver::{fit_path, Method};
use crate::source::{AtomSource, RowSubsetSource};
use crate::{CoreError, Result};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;

/// Number of folds `Q`: the paper's examples use 4 (Fig. 2).
pub const FOLDS: usize = 4;

/// The `(train, test)` index lists of each of `q` folds over `0..k`.
/// Fold `q` holds out the samples `i` with `i % q == fold` (round
/// robin, so fold sizes differ by at most one); both lists are in
/// increasing order.
fn split(k: usize, q: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    (0..q)
        .map(|fold| (0..k).partition(|&i| i % q != fold))
        .collect()
}

/// Cross-validation configuration.
#[derive(Debug, Clone)]
pub struct CvConfig {
    /// Largest model order to explore.
    pub lambda_max: usize,
    /// Cut the error curve where it flattens: `ε(λ)` is walked in
    /// increasing `λ` and kept only up to the third consecutive `λ`
    /// that fails to improve on the best error so far by 0.1 %, so
    /// `λ*` is chosen from that prefix (`false` = the whole
    /// `1..=lambda_max` curve).
    pub early_stop: bool,
}

impl CvConfig {
    /// [`FOLDS`]-fold cross-validation up to `lambda_max`, matching
    /// Fig. 2.
    pub fn new(lambda_max: usize) -> Self {
        CvConfig {
            lambda_max,
            early_stop: false,
        }
    }

    /// Stops the error curve once it flattens.
    pub fn with_early_stop(mut self) -> Self {
        self.early_stop = true;
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
    /// The selected `λ*`, the minimizer of `errors`.
    pub best_lambda: usize,
    /// `ε(λ*)`.
    pub best_error: f64,
}

/// Length of the prefix of `ε(λ)` that [`CvConfig::early_stop`] keeps.
/// A non-finite error never counts as an improvement. The cut depends
/// only on the errors, never on timing or worker count.
fn flat_prefix_len(errors: &[f64]) -> usize {
    const PATIENCE: usize = 3;
    const MIN_REL_IMPROVEMENT: f64 = 1e-3;
    let mut best = f64::INFINITY;
    let mut flat = 0;
    for (i, &e) in errors.iter().enumerate() {
        // Any finite error beats an infinite `best`, so the first
        // finite error always resets the count.
        if e.is_finite() && e < best * (1.0 - MIN_REL_IMPROVEMENT) {
            best = e;
            flat = 0;
        } else {
            flat += 1;
            if flat == PATIENCE {
                return i + 1;
            }
        }
    }
    errors.len()
}

/// Cross-validates a path-producing `method` against any
/// [`AtomSource`].
///
/// Each fold's training and test sets are [`RowSubsetSource`] views of
/// `g` — nothing `K×M`-sized is ever copied or materialized. Every fold
/// runs [`fit_path`] to `cfg.lambda_max` on its training view. Scoring
/// gathers only the path's support columns on the test view, and each
/// fold scores only the `λ` its path reaches, so the cost follows the
/// paths, not `cfg.lambda_max`.
///
/// The folds are fit in parallel (one task per fold via
/// [`rsm_runtime::par_map_indexed`]); each fold's work is independent
/// and its error curve lands at the fold's own index, so the result is
/// bit-identical to the sequential loop at every thread count.
///
/// `ε(λ)` is the mean of the finite fold errors at `λ`; a fold whose
/// held-out responses are constant scores `∞` and is left out, and a
/// `λ` with no finite fold scores `∞`.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
/// - [`CoreError::BadConfig`] if `lambda_max == 0`, if there are fewer
///   than [`FOLDS`] samples, or for [`Method::Ls`] (which has no path);
/// - any error from [`fit_path`] (the first failing fold in fold order).
pub fn cross_validate<S: AtomSource + ?Sized + Sync>(
    g: &S,
    f: &[f64],
    method: Method,
    cfg: &CvConfig,
) -> Result<CvResult> {
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
    if k < FOLDS {
        return Err(CoreError::BadConfig(format!(
            "cannot split {k} samples into {FOLDS} folds"
        )));
    }

    // Each fold scores λ = 1..=min(lambda_max, path length). A path
    // that stops early stands for every larger λ with its final model
    // (as `model_at` clamps), the way a practitioner would treat a
    // converged path, so the curve below reads the fold's last error.
    let splits = split(k, FOLDS);
    let fold_results: Vec<Result<Vec<f64>>> = rsm_runtime::par_map_indexed(splits.len(), |q| {
        let (train, test) = &splits[q];
        let train_view = RowSubsetSource::new(g, train);
        let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
        let test_view = RowSubsetSource::new(g, test);
        let f_test: Vec<f64> = test.iter().map(|&i| f[i]).collect();
        let path = fit_path(method, &train_view, &f_train, cfg.lambda_max)?;
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
    let mut errors: Vec<f64> = (0..explored)
        .map(|l| {
            let vals: Vec<f64> = per_fold
                .iter()
                .map(|fe| fe[l.min(fe.len() - 1)])
                .filter(|v| v.is_finite())
                .collect();
            if vals.is_empty() {
                f64::INFINITY
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect();
    if cfg.early_stop {
        errors.truncate(flat_prefix_len(&errors));
    }
    let (best_idx, &best_error) = errors
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| CoreError::BadConfig("empty CV error curve".into()))?;
    Ok(CvResult {
        best_lambda: best_idx + 1,
        best_error,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cv = cross_validate(&g, &f, Method::Omp, &CvConfig::new(30)).unwrap();
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
        let cv = cross_validate(&g, &f, Method::Omp, &CvConfig::new(40)).unwrap();
        let last = *cv.errors.last().unwrap();
        assert!(
            last > cv.best_error * 1.05,
            "no overfitting detected: min {} vs last {last}",
            cv.best_error
        );
    }

    #[test]
    fn mean_counts_only_the_finite_folds() {
        // Round-robin fold 0 holds out the rows r % 4 == 0, whose
        // response is constant: that fold scores ∞ at every λ and drops
        // out, so ε(λ) comes from the other three folds.
        let (g, mut f) = noisy_problem(40, 30, 3, 5);
        for r in (0..40).step_by(4) {
            f[r] = 1.0;
        }
        let cv = cross_validate(&g, &f, Method::Omp, &CvConfig::new(6)).unwrap();
        for lambda in 1..=6 {
            let errs: Vec<f64> = split(40, FOLDS)
                .into_iter()
                .map(|(train, test)| {
                    let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                    let view = RowSubsetSource::new(&g, &train);
                    let path = fit_path(Method::Omp, &view, &f_train, 6).unwrap();
                    let pred = path.model_at(lambda).predict_matrix(&g.select_rows(&test));
                    let f_test: Vec<f64> = test.iter().map(|&i| f[i]).collect();
                    relative_error(&pred, &f_test)
                })
                .collect();
            assert!(errs[0].is_infinite(), "fold 0 at λ = {lambda}: {}", errs[0]);
            let mean = errs[1..].iter().sum::<f64>() / 3.0;
            assert_eq!(
                cv.errors[lambda - 1].to_bits(),
                mean.to_bits(),
                "λ = {lambda}"
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
        let lasso = Method::LarLasso;
        let cv = cross_validate(&src, &f, lasso, &CvConfig::new(lambda_max)).unwrap();
        let mut dropped = false;
        let per_fold: Vec<Vec<f64>> = split(k, FOLDS)
            .into_iter()
            .map(|(train, test)| {
                let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                let view = RowSubsetSource::new(&src, &train);
                let path = fit_path(lasso, &view, &f_train, lambda_max).unwrap();
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
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            assert_eq!(cv.errors[l].to_bits(), mean.to_bits(), "λ = {}", l + 1);
        }
    }

    #[test]
    fn cost_follows_the_fold_paths_not_lambda_max() {
        // With M = 10 atoms no fold path is longer than 10 steps. A λ
        // range of 10¹² must cost what the paths reach and give the
        // bits of the range cut at the longest fold path.
        let (g, f) = noisy_problem(40, 10, 3, 11);
        let longest = split(40, FOLDS)
            .into_iter()
            .map(|(train, _)| {
                let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
                let view = RowSubsetSource::new(&g, &train);
                fit_path(Method::Lar, &view, &f_train, 10).unwrap().len()
            })
            .max()
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let huge = 1_000_000_000_000;
        let wide = cross_validate(&g, &f, Method::Lar, &CvConfig::new(huge)).unwrap();
        let cut = cross_validate(&g, &f, Method::Lar, &CvConfig::new(longest)).unwrap();
        assert_eq!(wide.errors.len(), longest);
        assert_eq!(bits(&wide.errors), bits(&cut.errors));
        assert_eq!(wide.best_lambda, cut.best_lambda);
        assert_eq!(wide.best_error.to_bits(), cut.best_error.to_bits());
    }

    #[test]
    fn bad_configs_rejected() {
        let (g, f) = noisy_problem(3, 10, 1, 9);
        let err = cross_validate(&g, &f, Method::Omp, &CvConfig::new(5)).unwrap_err();
        assert_eq!(
            err,
            CoreError::BadConfig("cannot split 3 samples into 4 folds".into())
        );
        let (g, f) = noisy_problem(20, 10, 1, 9);
        assert!(cross_validate(&g, &f, Method::Omp, &CvConfig::new(0)).is_err());
        assert!(cross_validate(&g, &f, Method::Ls, &CvConfig::new(5)).is_err());
    }

    #[test]
    fn folds_are_a_balanced_partition() {
        for k in 4..120 {
            for q in 2..=k.min(8) {
                let folds = split(k, q);
                assert_eq!(folds.len(), q);
                let mut held_out = vec![0; k];
                for (train, test) in &folds {
                    // Fig. 2: each run trains on every group it does not
                    // hold out.
                    let mut all = [train.as_slice(), test.as_slice()].concat();
                    all.sort_unstable();
                    assert_eq!(all, (0..k).collect::<Vec<_>>(), "k = {k}, q = {q}");
                    for &i in test {
                        held_out[i] += 1;
                    }
                }
                assert!(held_out.iter().all(|&n| n == 1), "k = {k}, q = {q}");
                let sizes: Vec<usize> = folds.iter().map(|(_, test)| test.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "k = {k}, q = {q}: {sizes:?}");
            }
        }
    }

    #[test]
    fn flat_prefix_ends_after_three_flat_errors() {
        // Two flat errors after the best (0.5) keep the whole curve; a
        // third cuts it there, whatever follows.
        assert_eq!(flat_prefix_len(&[1.0, 0.5, 0.5001, 0.52]), 4);
        assert_eq!(flat_prefix_len(&[1.0, 0.5, 0.5001, 0.52, 0.5, 0.1]), 5);
    }

    #[test]
    fn flat_prefix_requires_relative_improvement() {
        // Improvements of less than 0.1 % on the best do not count.
        assert_eq!(flat_prefix_len(&[1.0, 0.9999, 0.9995, 0.9991, 0.5]), 4);
        assert_eq!(flat_prefix_len(&[1.0, 0.998, 0.996, 0.994, 0.992]), 5);
    }

    #[test]
    fn flat_prefix_ignores_non_finite_errors() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        // The first finite error is the first best.
        assert_eq!(flat_prefix_len(&[inf, nan, 0.7, 0.7, 0.7]), 5);
        assert_eq!(flat_prefix_len(&[inf, nan, 0.7, 0.7, 0.7, 0.7, 0.1]), 6);
        assert_eq!(flat_prefix_len(&[inf, nan, inf, 0.1]), 3);
    }

    #[test]
    fn flat_prefix_keeps_a_steadily_improving_curve() {
        let errors: Vec<f64> = (0..50).map(|i| 0.9f64.powi(i)).collect();
        assert_eq!(flat_prefix_len(&errors), 50);
    }
}
