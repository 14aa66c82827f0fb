//! Cross-crate integration: model-order selection and solver agreement
//! through the public API, as Section IV of the paper chains them.

use sparse_rsm::core::select::{cross_validate, CvConfig};
use sparse_rsm::core::{solver, Method, ModelOrder};
use sparse_rsm::linalg::Matrix;
use sparse_rsm::stats::NormalSampler;

#[test]
fn cross_validation_prevents_overfitting_under_noise() {
    // With heavy noise and many bases, CV must pick a λ far below the
    // interpolation limit and the chosen model must generalize better
    // than the most complex one.
    let mut rng = NormalSampler::seed_from_u64(10);
    let k = 90;
    let m = 300;
    let g = Matrix::from_fn(k, m, |_, _| rng.sample());
    let f: Vec<f64> = (0..k)
        .map(|r| 2.0 * g[(r, 4)] - g[(r, 77)] + 0.5 * rng.sample())
        .collect();
    let cv = cross_validate(&g, &f, Method::Omp, &CvConfig::new(40)).unwrap();
    assert!(
        cv.best_lambda <= 10,
        "CV chose λ = {} under heavy noise",
        cv.best_lambda
    );
    assert!(cv.errors[39] > cv.best_error, "no overfitting signal");
}

#[test]
fn solvers_consistent_on_overdetermined_problems() {
    // When K > M and the truth is dense-ish, OMP at λ = M reproduces LS.
    let mut rng = NormalSampler::seed_from_u64(12);
    let k = 120;
    let m = 15;
    let g = Matrix::from_fn(k, m, |_, _| rng.sample());
    let truth: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
    let f = {
        let mut f = g.matvec(&truth).unwrap();
        for v in &mut f {
            *v += 0.01 * rng.sample();
        }
        f
    };
    let ls = solver::fit(&g, &f, Method::Ls, &ModelOrder::Fixed(0)).unwrap();
    let omp = solver::fit(&g, &f, Method::Omp, &ModelOrder::Fixed(m)).unwrap();
    for j in 0..m {
        let a = ls.model.coefficient(j).unwrap_or(0.0);
        let b = omp.model.coefficient(j).unwrap_or(0.0);
        assert!((a - b).abs() < 1e-8, "coef {j}: LS {a} vs OMP {b}");
    }
}
