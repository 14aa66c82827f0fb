//! Degenerate but finite inputs through every path method: OMP,
//! normalized OMP, STAR, LAR and LAR(lasso). Unless noted, a case is a
//! 20 × 30 Gaussian design with `f = 2·g₇ − g₃ + 0.1·noise`, fitted at
//! `λ = 5`.
//!
//! Each fit must return `Ok` with finite coefficients in every
//! snapshot. LAR and LAR(lasso) must also pass the equiangular and
//! lasso sign checks, and both OMPs the residual orthogonality check,
//! at `tests/lasso_drop.rs`'s tolerance of 1e-9·‖F‖₂. A design with no
//! non-zero column leaves nothing to select, and every method answers
//! `Unsolvable`.

use rsm_core::lar::LarConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::star::StarConfig;
use rsm_core::{CoreError, SparseModel, SparsePath};
use rsm_linalg::{vec_ops::norm2, Matrix};
use rsm_stats::NormalSampler;

const K: usize = 20;
const M: usize = 30;
const LAMBDA: usize = 5;

/// Tolerance of the certificates, relative to `‖F‖₂`.
const CERT_TOL: f64 = 1e-9;

/// A `k × m` Gaussian design and its response `2·g₇ − g₃ + 0.1·noise`.
fn design(k: usize, m: usize) -> (Matrix, Vec<f64>) {
    let mut s = NormalSampler::seed_from_u64(25);
    let g = Matrix::from_fn(k, m, |_, _| s.sample());
    let f = (0..k)
        .map(|r| 2.0 * g[(r, 7)] - g[(r, 3)] + 0.1 * s.sample())
        .collect();
    (g, f)
}

/// Every path method at `lambda`, by name.
fn fits(g: &Matrix, f: &[f64], lambda: usize) -> Vec<(&'static str, rsm_core::Result<SparsePath>)> {
    vec![
        ("OMP", OmpConfig::new(lambda).fit(g, f)),
        (
            "normalized OMP",
            OmpConfig::new(lambda).with_normalized_atoms().fit(g, f),
        ),
        ("STAR", StarConfig::new(lambda).fit(g, f)),
        ("LAR", LarConfig::new(lambda).fit(g, f)),
        ("LAR(lasso)", LarConfig::new(lambda).with_lasso().fit(g, f)),
    ]
}

/// `F − G·α` for one snapshot.
fn residual(g: &Matrix, f: &[f64], model: &SparseModel) -> Vec<f64> {
    let pred = model.predict_matrix(g);
    f.iter().zip(&pred).map(|(a, b)| a - b).collect()
}

/// Worst deviation from the LARS conditions over every snapshot,
/// relative to `‖F‖₂`, and the `(snapshot, atom)` pairs whose `c_j`
/// and `α_j` differ in sign. With `r` the snapshot's residual,
/// `c_j = G_jᵀr / ‖G_j‖₂` and `C` the largest active `|c_j|`: every
/// active `|c_j|` equals `C` and every other one is at most `C`. A sign
/// is read only where `|c_j|` exceeds the tolerance, since a path that
/// reaches the least-squares fit ends with every `c_j` at rounding
/// level.
fn lar_certificate(g: &Matrix, f: &[f64], path: &SparsePath) -> (f64, Vec<(usize, usize)>) {
    let norms: Vec<f64> = (0..g.cols()).map(|j| norm2(&g.col(j))).collect();
    let f_norm = norm2(f);
    let mut worst = 0.0f64;
    let mut signs = Vec::new();
    for (l, model) in path.iter() {
        let xi = g.matvec_t(&residual(g, f, model)).unwrap();
        let c: Vec<f64> = xi.iter().zip(&norms).map(|(x, n)| x / n).collect();
        let level = model
            .coefficients()
            .iter()
            .map(|&(j, _)| c[j].abs())
            .fold(0.0, f64::max);
        for (j, &cj) in c.iter().enumerate() {
            let deviation = match model.coefficient(j) {
                Some(a) => {
                    if a * cj < 0.0 && cj.abs() > CERT_TOL * f_norm {
                        signs.push((l, j));
                    }
                    (cj.abs() - level).abs()
                }
                None => cj.abs() - level,
            };
            worst = worst.max(deviation / f_norm);
        }
    }
    (worst, signs)
}

/// Worst `|G_jᵀr| / (‖G_j‖₂·‖F‖₂)` over the support of every snapshot.
fn omp_orthogonality(g: &Matrix, f: &[f64], path: &SparsePath) -> f64 {
    let f_norm = norm2(f);
    let mut worst = 0.0f64;
    for (_, model) in path.iter() {
        let xi = g.matvec_t(&residual(g, f, model)).unwrap();
        for j in model.support() {
            worst = worst.max(xi[j].abs() / (norm2(&g.col(j)) * f_norm));
        }
    }
    worst
}

/// Fits every method and checks each path as the module docs say.
fn assert_fits(what: &str, g: &Matrix, f: &[f64], lambda: usize) {
    let f_norm = norm2(f);
    assert!(
        f_norm.is_finite() && f_norm > 0.0,
        "{what}: ‖F‖ = {f_norm:e} cannot scale a certificate"
    );
    for (method, result) in fits(g, f, lambda) {
        let at = format!("{what}, {method} at λ = {lambda}");
        let path = result.unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(!path.is_empty(), "{at}: empty path");
        for (l, model) in path.iter() {
            assert!(
                model.coefficients().iter().all(|(_, c)| c.is_finite()),
                "{at}, snapshot {l}: {model:?}"
            );
        }
        match method {
            "LAR" | "LAR(lasso)" => {
                let (worst, signs) = lar_certificate(g, f, &path);
                assert!(worst <= CERT_TOL, "{at}: equiangular deviation {worst:e}");
                if method == "LAR(lasso)" {
                    assert!(signs.is_empty(), "{at}: sign violations {signs:?}");
                }
            }
            "OMP" | "normalized OMP" => {
                let worst = omp_orthogonality(g, f, &path);
                assert!(worst <= CERT_TOL, "{at}: orthogonality {worst:e}");
            }
            _ => {}
        }
    }
}

#[test]
fn one_two_and_more_samples_than_atoms() {
    for k in [1, 2] {
        let (g, f) = design(k, M);
        assert_fits(&format!("K = {k}"), &g, &f, LAMBDA);
    }
    let (g, f) = design(40, 10);
    for lambda in [10, 15] {
        assert_fits("40 × 10", &g, &f, lambda);
    }
}

#[test]
fn a_constant_response_with_and_without_a_constant_column() {
    let (mut g, _) = design(K, M);
    let f = vec![1.5; K];
    assert_fits("constant F", &g, &f, LAMBDA);
    for r in 0..K {
        g[(r, 0)] = 1.0;
    }
    assert_fits("constant F and column", &g, &f, LAMBDA);
}

#[test]
fn a_duplicated_planted_column_and_a_response_equal_to_one_column() {
    let (mut g, f) = design(K, M);
    for r in 0..K {
        g[(r, 12)] = g[(r, 7)];
    }
    assert_fits("column 12 = column 7", &g, &f, LAMBDA);
    let (g, _) = design(K, M);
    let f = g.col(7);
    assert_fits("F = column 7", &g, &f, LAMBDA);
}

#[test]
fn huge_tiny_and_subnormal_responses() {
    let (g, f) = design(K, M);
    for (what, scale) in [
        ("F × 1e300", 1e300),
        ("F × 1e-300", 1e-300),
        ("F × 1e-310", 1e-310),
    ] {
        let scaled: Vec<f64> = f.iter().map(|v| v * scale).collect();
        if scale < f64::MIN_POSITIVE {
            assert!(scaled.iter().all(|v| v.is_subnormal()), "{what}");
        }
        assert_fits(what, &g, &scaled, LAMBDA);
    }
}

#[test]
fn an_all_zero_design_is_unsolvable() {
    let (_, f) = design(K, M);
    let g = Matrix::zeros(K, M);
    for (method, result) in fits(&g, &f, LAMBDA) {
        assert!(
            matches!(result, Err(CoreError::Unsolvable(_))),
            "{method}: {result:?}"
        );
    }
}
