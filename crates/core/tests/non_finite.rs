//! Designs with a non-finite entry, or whose squares overflow, fit on a
//! 20 × 30 Gaussian `Matrix` with `f = 2·g₇ − g₃ + 0.1·noise` and
//! `λ = 4`. A sparse method either rejects such a design with a
//! structured error or fits it with finite coefficients; it never
//! returns `Ok` with a model of some other design. LS, which needs
//! K ≥ M, fits a 40 × 10 design planted the same way.
//!
//! Without the checks a `NaN` would pass silently: a selection scan
//! that keeps the best score with `score <= best` restarts at the atom
//! after a `NaN` whatever its score, and a `NaN` or infinite column
//! norm turns the normalized correlations into other numbers.

use rsm_core::lar::LarConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::solver::{self, Method, ModelOrder};
use rsm_core::star::StarConfig;
use rsm_core::{CoreError, SparsePath};
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;

const K: usize = 20;
const M: usize = 30;
const LAMBDA: usize = 4;

/// The clean design and its response, planted on atoms 7 and 3.
fn design() -> (Matrix, Vec<f64>) {
    let mut s = NormalSampler::seed_from_u64(20);
    let g = Matrix::from_fn(K, M, |_, _| s.sample());
    let f = (0..K)
        .map(|r| 2.0 * g[(r, 7)] - g[(r, 3)] + 0.1 * s.sample())
        .collect();
    (g, f)
}

/// The design with entry `(row, atom)` replaced by `v`; the response
/// stays the clean one.
fn with_entry(row: usize, atom: usize, v: f64) -> (Matrix, Vec<f64>) {
    let (mut g, f) = design();
    g[(row, atom)] = v;
    (g, f)
}

/// The clean design scaled by 1e300: every entry is finite, but every
/// squared column norm overflows.
fn huge_design() -> (Matrix, Vec<f64>) {
    let (mut g, f) = design();
    for r in 0..K {
        for j in 0..M {
            g[(r, j)] *= 1e300;
        }
    }
    (g, f)
}

/// Every sparse method, by name.
fn fits(g: &Matrix, f: &[f64]) -> Vec<(&'static str, rsm_core::Result<SparsePath>)> {
    vec![
        ("LAR", LarConfig::new(LAMBDA).fit(g, f)),
        ("LAR(lasso)", LarConfig::new(LAMBDA).with_lasso().fit(g, f)),
        ("OMP", OmpConfig::new(LAMBDA).fit(g, f)),
        (
            "normalized OMP",
            OmpConfig::new(LAMBDA).with_normalized_atoms().fit(g, f),
        ),
        ("STAR", StarConfig::new(LAMBDA).fit(g, f)),
    ]
}

/// Asserts `result` is a `BadConfig` whose message names `atom`.
fn assert_bad_config_naming(what: &str, result: &rsm_core::Result<SparsePath>, atom: usize) {
    match result {
        Err(CoreError::BadConfig(msg)) => assert!(
            msg.contains(&format!("atom {atom}")),
            "{what}: the message does not name atom {atom}: {msg}"
        ),
        other => panic!("{what}: expected BadConfig, got {other:?}"),
    }
}

#[test]
fn nan_in_an_unplanted_atom_is_rejected_by_every_method() {
    let (g, f) = with_entry(4, 12, f64::NAN);
    for (what, result) in fits(&g, &f) {
        assert_bad_config_naming(what, &result, 12);
    }
}

#[test]
fn nan_in_a_planted_atom_is_rejected_by_every_method() {
    let (g, f) = with_entry(4, 7, f64::NAN);
    for (what, result) in fits(&g, &f) {
        assert_bad_config_naming(what, &result, 7);
    }
}

#[test]
fn overflowing_squares_are_rejected_by_the_normalizing_methods() {
    let (g, f) = huge_design();
    for (what, result) in fits(&g, &f) {
        match what {
            "LAR" | "LAR(lasso)" | "normalized OMP" => {
                assert_bad_config_naming(what, &result, 0);
                let msg = result.unwrap_err().to_string();
                assert!(msg.contains("overflow"), "{what}: {msg}");
            }
            // The plain inner product stays finite, so OMP fits it.
            "OMP" => {
                let path = result.unwrap();
                let model = path.final_model();
                assert!(model.coefficient(7).is_some(), "{what}: {model:?}");
                assert!(model.coefficients().iter().all(|(_, c)| c.is_finite()));
            }
            // STAR's coefficient update squares the scale.
            "STAR" => assert!(
                matches!(result, Err(CoreError::Numerical(_))),
                "{what}: {result:?}"
            ),
            _ => unreachable!(),
        }
    }
}

#[test]
fn star_never_returns_a_non_finite_coefficient() {
    // An infinite entry makes atom 7's correlation infinite: the scan
    // rejects it.
    let (g, f) = with_entry(4, 7, f64::INFINITY);
    let inf = StarConfig::new(LAMBDA).fit(&g, &f);
    assert_bad_config_naming("STAR, inf at (4, 7)", &inf, 7);
    // Scaled by 1e300, the first coefficient is finite but the residual
    // it leaves is not.
    let (g, f) = huge_design();
    match StarConfig::new(LAMBDA).fit(&g, &f) {
        Err(CoreError::Numerical(_)) => {}
        other => panic!("STAR on the ×1e300 design: expected Numerical, got {other:?}"),
    }
}

/// LS on a 40 × 10 design planted like [`design`], with `v` at (4, 7).
fn least_squares_with_entry(v: f64) -> rsm_core::Result<solver::FitReport> {
    let mut s = NormalSampler::seed_from_u64(40);
    let mut g = Matrix::from_fn(40, 10, |_, _| s.sample());
    let f: Vec<f64> = (0..40)
        .map(|r| 2.0 * g[(r, 7)] - g[(r, 3)] + 0.1 * s.sample())
        .collect();
    g[(4, 7)] = v;
    solver::fit(&g, &f, Method::Ls, &ModelOrder::Fixed(10))
}

/// Asserts that LS answers `BadConfig` naming atom 7.
fn assert_ls_rejects_atom_7(v: f64) {
    match least_squares_with_entry(v) {
        Err(CoreError::BadConfig(msg)) => assert!(msg.contains("atom 7"), "{msg}"),
        other => panic!("LS with {v} at (4, 7): expected BadConfig, got {other:?}"),
    }
}

#[test]
fn least_squares_rejects_a_nan_entry() {
    assert_ls_rejects_atom_7(f64::NAN);
}

#[test]
fn least_squares_rejects_an_infinite_entry() {
    assert_ls_rejects_atom_7(f64::INFINITY);
}
