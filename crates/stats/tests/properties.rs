//! Property-based tests of the statistics substrate.

use proptest::prelude::*;
use rsm_linalg::Matrix;
use rsm_stats::{describe, metrics, FactorModel, NormalSampler, Pca, QFold};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qfold_is_partition(n in 4usize..200, q in 2usize..8) {
        prop_assume!(q <= n);
        let folds = QFold::new(n, q).unwrap();
        let mut seen = BTreeSet::new();
        for (train, test) in folds.splits() {
            prop_assert_eq!(train.len() + test.len(), n);
            for i in test {
                prop_assert!(seen.insert(i), "index in two folds");
            }
        }
        prop_assert_eq!(seen.len(), n);
    }

    #[test]
    fn qfold_balanced(n in 8usize..300, q in 2usize..6) {
        prop_assume!(q <= n);
        let folds = QFold::new(n, q).unwrap();
        let sizes: Vec<usize> = (0..q).map(|f| folds.split(f).1.len()).collect();
        let mn = *sizes.iter().min().unwrap();
        let mx = *sizes.iter().max().unwrap();
        prop_assert!(mx - mn <= 1, "{sizes:?}");
    }

    #[test]
    fn relative_error_scale_invariant(
        pred in proptest::collection::vec(-5.0f64..5.0, 10),
        truth in proptest::collection::vec(-5.0f64..5.0, 10),
        scale in 0.1f64..100.0,
    ) {
        let e1 = metrics::relative_error(&pred, &truth);
        let pred_s: Vec<f64> = pred.iter().map(|v| v * scale).collect();
        let truth_s: Vec<f64> = truth.iter().map(|v| v * scale).collect();
        let e2 = metrics::relative_error(&pred_s, &truth_s);
        if e1.is_finite() {
            prop_assert!((e1 - e2).abs() < 1e-9 * (1.0 + e1));
        }
    }

    #[test]
    fn relative_error_shift_invariant_in_truth_mean(
        pred in proptest::collection::vec(-5.0f64..5.0, 10),
        truth in proptest::collection::vec(-5.0f64..5.0, 10),
        shift in -50.0f64..50.0,
    ) {
        // Shifting BOTH by a constant leaves the error unchanged
        // (numerator is a difference; denominator is mean-centered).
        let e1 = metrics::relative_error(&pred, &truth);
        let ps: Vec<f64> = pred.iter().map(|v| v + shift).collect();
        let ts: Vec<f64> = truth.iter().map(|v| v + shift).collect();
        let e2 = metrics::relative_error(&ps, &ts);
        if e1.is_finite() {
            prop_assert!((e1 - e2).abs() < 1e-7 * (1.0 + e1));
        }
    }

    #[test]
    fn r_squared_below_one(
        pred in proptest::collection::vec(-5.0f64..5.0, 12),
        truth in proptest::collection::vec(-5.0f64..5.0, 12),
    ) {
        prop_assert!(metrics::r_squared(&pred, &truth) <= 1.0 + 1e-12);
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(
        xs in proptest::collection::vec(-100.0f64..100.0, 3..50),
        shift in -1e3f64..1e3,
    ) {
        let v = describe::variance(&xs);
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((describe::variance(&shifted) - v).abs() < 1e-6 * (1.0 + v));
    }

    #[test]
    fn quantile_monotone(
        xs in proptest::collection::vec(-10.0f64..10.0, 2..40),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(describe::quantile(&xs, lo) <= describe::quantile(&xs, hi) + 1e-12);
    }

    #[test]
    fn factor_model_covariance_psd_diagonal_dominates(
        loadings in proptest::collection::vec(-1.0f64..1.0, 12),
        vars in proptest::collection::vec(0.01f64..2.0, 4),
    ) {
        let l = Matrix::from_vec(4, 3, loadings).unwrap();
        let m = FactorModel::new(l, vars).unwrap();
        // Marginal variance bounds |covariance| (Cauchy–Schwarz).
        for i in 0..4 {
            for j in 0..4 {
                let cij = m.covariance(i, j);
                let bound = (m.marginal_variance(i) * m.marginal_variance(j)).sqrt();
                prop_assert!(cij.abs() <= bound + 1e-12);
            }
        }
    }

    #[test]
    fn factor_model_color_is_linear(
        loadings in proptest::collection::vec(-1.0f64..1.0, 6),
        vars in proptest::collection::vec(0.01f64..2.0, 3),
        dy1 in proptest::collection::vec(-2.0f64..2.0, 5),
        dy2 in proptest::collection::vec(-2.0f64..2.0, 5),
    ) {
        let l = Matrix::from_vec(3, 2, loadings).unwrap();
        let m = FactorModel::new(l, vars).unwrap();
        let sum: Vec<f64> = dy1.iter().zip(&dy2).map(|(a, b)| a + b).collect();
        let lhs = m.color(&sum);
        let x1 = m.color(&dy1);
        let x2 = m.color(&dy2);
        for i in 0..3 {
            prop_assert!((lhs[i] - x1[i] - x2[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn sampler_reproducible(seed in 0u64..1_000_000) {
        let mut a = NormalSampler::seed_from_u64(seed);
        let mut b = NormalSampler::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }
}

#[test]
fn pca_whiten_color_roundtrip_on_factor_covariance() {
    // A FactorModel's dense covariance, whitened by PCA, must color
    // back to samples with matching covariance — ties the two
    // representations together.
    let l = Matrix::from_rows(&[&[0.5, 0.1], &[0.4, -0.2], &[0.0, 0.6]]).unwrap();
    let fm = FactorModel::new(l, vec![0.2, 0.3, 0.1]).unwrap();
    let cov = fm.dense_covariance();
    let pca = Pca::from_covariance(&cov, 0.0).unwrap();
    let mut rng = NormalSampler::seed_from_u64(5);
    let mut acc = Matrix::zeros(3, 3);
    let k = 60_000;
    for _ in 0..k {
        let x = pca.sample(&mut rng);
        for i in 0..3 {
            for j in 0..3 {
                acc[(i, j)] += x[i] * x[j];
            }
        }
    }
    acc.scale(1.0 / k as f64);
    assert!(acc.max_abs_diff(&cov).unwrap() < 0.02);
}
