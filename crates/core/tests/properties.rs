//! Property-based tests of the sparse solvers: the invariants that
//! define each algorithm, checked over randomized problem instances.

use proptest::prelude::*;
use rsm_core::lar::LarConfig;
use rsm_core::omp::{residual_orthogonality, OmpConfig};
use rsm_core::star::StarConfig;
use rsm_core::{ls, CoreError, Method, SparsePath};
use rsm_linalg::vec_ops::{dot, norm2};
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;

/// A randomized sparse problem: Gaussian dictionary, `p`-sparse truth.
#[derive(Debug, Clone)]
struct Problem {
    g: Matrix,
    f: Vec<f64>,
    support: Vec<usize>,
}

fn problem(k: usize, m: usize, p: usize, noise: f64) -> impl Strategy<Value = Problem> {
    (0u64..1_000_000).prop_map(move |seed| {
        let mut rng = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| rng.sample());
        let mut support: Vec<usize> = (0..p)
            .map(|i| (i * m / p + seed as usize % 7) % m)
            .collect();
        support.sort_unstable();
        support.dedup();
        let mut f = vec![0.0; k];
        for (rank, &j) in support.iter().enumerate() {
            let c = 2.0 + rank as f64;
            for r in 0..k {
                f[r] += c * g[(r, j)];
            }
        }
        for v in &mut f {
            *v += noise * rng.sample();
        }
        Problem { g, f, support }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn omp_exact_recovery_noiseless(p in problem(60, 150, 4, 0.0)) {
        let path = OmpConfig::new(p.support.len()).fit(&p.g, &p.f).unwrap();
        let support = path.final_model().support();
        prop_assert_eq!(support, p.support.clone());
        let rn = *path.residual_norms().last().unwrap();
        prop_assert!(rn < 1e-8 * norm2(&p.f).max(1e-30));
    }

    #[test]
    fn omp_residual_orthogonality_invariant(p in problem(50, 100, 5, 0.2)) {
        let path = OmpConfig::new(10).fit(&p.g, &p.f).unwrap();
        for (_, model) in path.iter() {
            prop_assert!(residual_orthogonality(&p.g, &p.f, model) < 1e-7);
        }
    }

    #[test]
    fn omp_residuals_monotone(p in problem(40, 120, 6, 0.3)) {
        let path = OmpConfig::new(15).fit(&p.g, &p.f).unwrap();
        for w in path.residual_norms().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn omp_support_is_nested_along_path(p in problem(40, 90, 4, 0.1)) {
        let path = OmpConfig::new(8).fit(&p.g, &p.f).unwrap();
        let mut prev: Vec<usize> = Vec::new();
        for (_, model) in path.iter() {
            let cur = model.support();
            for j in &prev {
                prop_assert!(cur.contains(j), "support not nested");
            }
            prev = cur;
        }
    }

    #[test]
    fn star_selects_without_reselection(p in problem(60, 80, 5, 0.2)) {
        let path = StarConfig::new(20).fit(&p.g, &p.f).unwrap();
        let support = path.final_model().support();
        let mut dedup = support.clone();
        dedup.dedup();
        prop_assert_eq!(support, dedup);
    }

    #[test]
    fn omp_beats_or_ties_star_in_residual(p in problem(50, 200, 5, 0.3)) {
        // At equal λ, the LS re-fit can only lower the residual.
        let lambda = 5;
        let omp = OmpConfig::new(lambda).fit(&p.g, &p.f).unwrap();
        let star = StarConfig::new(lambda).fit(&p.g, &p.f).unwrap();
        let ro = *omp.residual_norms().last().unwrap();
        let rs = *star.residual_norms().last().unwrap();
        prop_assert!(ro <= rs * (1.0 + 1e-9), "OMP {ro} vs STAR {rs}");
    }

    #[test]
    fn lar_active_correlations_tie(p in problem(60, 60, 4, 0.1)) {
        let path = LarConfig::new(5).fit(&p.g, &p.f).unwrap();
        let m = p.g.cols();
        let norms: Vec<f64> = (0..m).map(|j| norm2(&p.g.col(j))).collect();
        for (_, model) in path.iter() {
            let pred = model.predict_matrix(&p.g);
            let res: Vec<f64> = p.f.iter().zip(&pred).map(|(a, b)| a - b).collect();
            let support = model.support();
            if support.len() < 2 {
                continue;
            }
            let corrs: Vec<f64> = support
                .iter()
                .map(|&j| dot(&p.g.col(j), &res).abs() / norms[j].max(1e-300))
                .collect();
            let cmax = corrs.iter().fold(0.0f64, |a, &b| a.max(b));
            let cmin = corrs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            prop_assert!(cmax - cmin <= 1e-7 * (1.0 + cmax), "{corrs:?}");
        }
    }

    #[test]
    fn lar_l1_norm_grows_along_path(p in problem(50, 70, 4, 0.2)) {
        // The L1 norm of the coefficients is non-decreasing along the
        // plain LARS path (it relaxes the constraint monotonically).
        let path = LarConfig::new(8).fit(&p.g, &p.f).unwrap();
        let mut prev = 0.0;
        for (_, model) in path.iter() {
            let l1 = model.l1_norm();
            prop_assert!(l1 >= prev - 1e-9, "L1 decreased: {l1} < {prev}");
            prev = l1;
        }
    }

    #[test]
    fn ls_residual_orthogonal_to_all_columns(p in problem(80, 20, 5, 0.5)) {
        let model = ls::fit(&p.g, &p.f).unwrap();
        let pred = model.predict_matrix(&p.g);
        let res: Vec<f64> = p.f.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let grad = p.g.matvec_t(&res).unwrap();
        for v in grad {
            prop_assert!(v.abs() < 1e-7);
        }
    }

    #[test]
    fn lar_dense_and_source_paths_agree(seed in 0u64..1_000_000) {
        // The dense Matrix backend and the streaming DictionarySource
        // backend accumulate dot products in different orders, but over
        // randomized dictionaries they must select the same atoms in
        // the same order with near-identical coefficients.
        use rsm_basis::{Dictionary, DictionaryKind};
        use rsm_core::source::DictionarySource;
        let mut rng = NormalSampler::seed_from_u64(seed);
        let dict = Dictionary::new(10, DictionaryKind::Quadratic);
        let samples = Matrix::from_fn(50, 10, |_, _| rng.sample());
        let g = dict.design_matrix(&samples);
        let f: Vec<f64> = (0..50)
            .map(|r| {
                1.5 * dict.eval_term(2, samples.row(r))
                    - 0.8 * dict.eval_term(30, samples.row(r))
                    + 0.01 * rng.sample()
            })
            .collect();
        let src = DictionarySource::new(&dict, &samples);
        let dense = LarConfig::new(6).fit(&g, &f).unwrap();
        let implicit = LarConfig::new(6).fit(&src, &f).unwrap();
        prop_assert_eq!(dense.len(), implicit.len());
        for lambda in 1..=dense.len() {
            let ma = dense.model_at(lambda);
            let mb = implicit.model_at(lambda);
            prop_assert_eq!(ma.support(), mb.support(), "support at λ = {}", lambda);
            for &(j, c) in ma.coefficients() {
                let cb = mb.coefficient(j).unwrap();
                prop_assert!(
                    rsm_linalg::tol::approx_eq(c, cb, 1e-9, 1e-12),
                    "coefficient {} at λ = {}: {} vs {}", j, lambda, c, cb
                );
            }
        }
    }

    #[test]
    fn all_methods_agree_on_orthogonal_dictionary(scale in 0.5f64..4.0) {
        // With orthogonal columns every method recovers the same model.
        let k = 12;
        let mut g = Matrix::zeros(k, k);
        for i in 0..k {
            g[(i, i)] = scale * (k as f64).sqrt();
        }
        let f: Vec<f64> = (0..k).map(|i| if i < 3 { (i + 1) as f64 } else { 0.0 }).collect();
        let lambda = 3;
        let omp = OmpConfig::new(lambda).fit(&g, &f).unwrap();
        let lar = LarConfig::new(lambda).fit(&g, &f).unwrap();
        let omp_m = omp.final_model();
        let lar_m = lar.final_model();
        prop_assert_eq!(omp_m.support(), lar_m.support());
        for &(j, c) in omp_m.coefficients() {
            // LAR's final step reaches the LS solution on orthogonal designs.
            prop_assert!((c - lar_m.coefficient(j).unwrap()).abs() < 1e-6);
        }
    }
}

#[test]
fn method_all_is_stable() {
    assert_eq!(Method::all().len(), 4);
}

/// The four path solvers through their `fit`, at `lambda` steps.
fn path_fits(
    lambda: usize,
    g: &Matrix,
    f: &[f64],
) -> [(&'static str, rsm_core::Result<SparsePath>); 4] {
    [
        ("LAR", LarConfig::new(lambda).fit(g, f)),
        ("LAR(lasso)", LarConfig::new(lambda).with_lasso().fit(g, f)),
        ("OMP", OmpConfig::new(lambda).fit(g, f)),
        ("STAR", StarConfig::new(lambda).fit(g, f)),
    ]
}

/// Failure injection: non-finite responses are rejected up front by
/// every solver instead of propagating NaNs into the factorizations.
#[test]
fn non_finite_responses_rejected_by_all_solvers() {
    let mut rng = NormalSampler::seed_from_u64(5);
    let g = Matrix::from_fn(10, 6, |_, _| rng.sample());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut f = vec![1.0; 10];
        f[4] = bad;
        for (name, fit) in path_fits(3, &g, &f) {
            assert!(
                matches!(fit, Err(CoreError::BadConfig(_))),
                "{name} answered {bad} with {fit:?}"
            );
        }
        assert!(
            matches!(ls::fit(&g, &f), Err(CoreError::BadConfig(_))),
            "LS accepted {bad}"
        );
    }
}

/// A zero step budget and a short response are answered with the
/// structured error that names them.
#[test]
fn bad_operands_rejected_with_structured_errors() {
    let mut rng = NormalSampler::seed_from_u64(6);
    let g = Matrix::from_fn(10, 6, |_, _| rng.sample());
    let f: Vec<f64> = (0..10).map(|_| rng.sample()).collect();
    for (name, fit) in path_fits(0, &g, &f) {
        assert!(
            matches!(fit, Err(CoreError::BadConfig(_))),
            "{name}: zero steps gave {fit:?}"
        );
    }
    for (name, fit) in path_fits(3, &g, &f[..7]) {
        assert!(
            matches!(fit, Err(CoreError::ShapeMismatch { .. })),
            "{name}: short response gave {fit:?}"
        );
    }
}

/// Streaming and materialized OMP must produce identical paths.
#[test]
fn streaming_omp_matches_materialized() {
    use rsm_basis::{Dictionary, DictionaryKind};
    use rsm_core::omp::OmpConfig;
    use rsm_core::source::DictionarySource;
    let mut rng = NormalSampler::seed_from_u64(77);
    let dict = Dictionary::new(12, DictionaryKind::Quadratic);
    let samples = Matrix::from_fn(60, 12, |_, _| rng.sample());
    let f: Vec<f64> = (0..60)
        .map(|r| {
            2.0 * dict.eval_term(3, samples.row(r)) - 1.5 * dict.eval_term(40, samples.row(r))
                + 0.1 * ((r * 37 % 11) as f64 - 5.0) / 5.0
        })
        .collect();
    let g = dict.design_matrix(&samples);
    let materialized = OmpConfig::new(8).fit(&g, &f).unwrap();
    let src = DictionarySource::new(&dict, &samples);
    let streaming = OmpConfig::new(8).fit(&src, &f).unwrap();
    assert_eq!(materialized.len(), streaming.len());
    for ((_, a), (_, b)) in materialized.iter().zip(streaming.iter()) {
        assert_eq!(a.support(), b.support());
        for &(j, c) in a.coefficients() {
            assert!((c - b.coefficient(j).unwrap()).abs() < 1e-10);
        }
    }
}
