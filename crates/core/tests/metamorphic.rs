//! Metamorphic oracles: rewriting a problem in a way that changes no
//! information must change every path step in the predicted way, bit
//! for bit.
//!
//! Each of the five path methods fits 60 × 200 Gaussian designs with a
//! Gaussian response to λ = 15, for seeds 1–5, and is checked against
//! these rewrites:
//!
//! - negating F negates every coefficient;
//! - scaling F by 2^e scales every coefficient and residual norm by 2^e;
//! - permuting the columns permutes the support;
//! - negating a column negates that column's coefficient;
//! - scaling every column, or one, by 2^e scales the coefficients of
//!   the scaled columns by 2^−e (all methods but STAR);
//! - inserting a zero column at index 0 shifts every index by one;
//! - appending a copy of a selected column changes no step (all
//!   methods but STAR).
//!
//! None of these rounds anything, so each step must make the same
//! choices and reach the same numbers. The residual norms must not
//! move, or must move by exactly the response's factor.

use rsm_core::lar::LarConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::star::StarConfig;
use rsm_core::SparsePath;
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;

const K: usize = 60;
const M: usize = 200;
const LAMBDA: usize = 15;
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// A fit of one design and response.
type Fit = fn(&Matrix, &[f64]) -> SparsePath;

/// The five path methods, by name.
const METHODS: [(&str, Fit); 5] = [
    ("OMP", |g, f| OmpConfig::new(LAMBDA).fit(g, f).unwrap()),
    ("normalized OMP", |g, f| {
        OmpConfig::new(LAMBDA)
            .with_normalized_atoms()
            .fit(g, f)
            .unwrap()
    }),
    ("STAR", |g, f| StarConfig::new(LAMBDA).fit(g, f).unwrap()),
    ("LAR", |g, f| LarConfig::new(LAMBDA).fit(g, f).unwrap()),
    ("LAR(lasso)", |g, f| {
        LarConfig::new(LAMBDA).with_lasso().fit(g, f).unwrap()
    }),
];

/// Every method but STAR. STAR's coefficient `ξ_s/K` assumes
/// unit-variance atoms, so by design it does not scale with the columns
/// (×2^±1 already changes its path), and its step leaves
/// `(1 − ‖x_s‖²/K)·x_sᵀr` of a selected atom's correlation in the
/// residual, so nothing keeps it from later picking a copy of that atom.
fn all_but_star() -> impl Iterator<Item = (&'static str, Fit)> {
    METHODS.into_iter().filter(|&(method, _)| method != "STAR")
}

/// `2^e`, exactly.
fn pow2(e: i32) -> f64 {
    2f64.powi(e)
}

/// A Gaussian design and a Gaussian response.
fn problem(seed: u64) -> (Matrix, Vec<f64>) {
    let mut s = NormalSampler::seed_from_u64(seed);
    let g = Matrix::from_fn(K, M, |_, _| s.sample());
    let f = s.sample_vec(K);
    (g, f)
}

/// One path step: its `(atom, coefficient bits)` pairs, sorted, and
/// the bits of its residual norm.
type Step = (Vec<(usize, u64)>, u64);

/// Every step of `path`, with each coefficient sent through `map` and
/// each residual norm multiplied by `res_scale`.
fn steps(path: &SparsePath, map: impl Fn(usize, f64) -> (usize, f64), res_scale: f64) -> Vec<Step> {
    path.iter()
        .zip(path.residual_norms())
        .map(|((_, model), r)| {
            let mut coeffs: Vec<(usize, u64)> = model
                .coefficients()
                .iter()
                .map(|&(j, c)| {
                    let (j, c) = map(j, c);
                    (j, c.to_bits())
                })
                .collect();
            coeffs.sort_unstable();
            (coeffs, (r * res_scale).to_bits())
        })
        .collect()
}

/// Asserts that `got`, the path of the rewritten problem, is `base`
/// sent through `map`, with its residual norms times `res_scale`.
fn assert_maps(
    what: &str,
    base: &SparsePath,
    got: &SparsePath,
    map: impl Fn(usize, f64) -> (usize, f64),
    res_scale: f64,
) {
    assert_eq!(base.len(), LAMBDA, "{what}");
    assert_eq!(
        steps(got, |j, c| (j, c), 1.0),
        steps(base, map, res_scale),
        "{what}"
    );
}

/// Fits the problem of `seed` and its rewrite with every method and
/// asserts that each rewritten path is the base path sent through
/// `map`, with unchanged residual norms.
fn check(
    property: &str,
    seed: u64,
    rewritten: (&Matrix, &[f64]),
    map: impl Fn(usize, f64) -> (usize, f64),
) {
    let (g, f) = problem(seed);
    for (method, fit) in METHODS {
        let what = format!("{method}, seed {seed}: {property}");
        assert_maps(
            &what,
            &fit(&g, &f),
            &fit(rewritten.0, rewritten.1),
            &map,
            1.0,
        );
    }
}

#[test]
fn negating_the_response_negates_every_coefficient() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        let neg: Vec<f64> = f.iter().map(|v| -v).collect();
        check("F negated", seed, (&g, &neg), |j, c| (j, -c));
    }
}

#[test]
fn scaling_the_response_scales_every_coefficient_and_residual() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        for (method, fit) in METHODS {
            let base = fit(&g, &f);
            for e in [-1000, -500, -60, -1, 1, 60, 500, 1000] {
                let scaled: Vec<f64> = f.iter().map(|v| v * pow2(e)).collect();
                let what = format!("{method}, seed {seed}: F × 2^{e}");
                let map = |j, c| (j, c * pow2(e));
                assert_maps(&what, &base, &fit(&g, &scaled), map, pow2(e));
            }
        }
    }
}

#[test]
fn permuting_the_columns_permutes_the_support() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        // Column j of the design becomes column perm[j].
        let mut perm: Vec<usize> = (0..M).collect();
        NormalSampler::seed_from_u64(100 + seed).shuffle(&mut perm);
        let mut permuted = Matrix::zeros(K, M);
        for r in 0..K {
            for (j, &p) in perm.iter().enumerate() {
                permuted[(r, p)] = g[(r, j)];
            }
        }
        check("columns permuted", seed, (&permuted, &f), |j, c| {
            (perm[j], c)
        });
    }
}

#[test]
fn negating_a_column_negates_its_coefficient() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        for (method, fit) in METHODS {
            let base = fit(&g, &f);
            // The method's first atom: every step that holds it must
            // flip its coefficient's sign.
            let a = base.model_at(1).support()[0];
            let mut negated = g.clone();
            for r in 0..K {
                negated[(r, a)] = -g[(r, a)];
            }
            let what = format!("{method}, seed {seed}: column {a} negated");
            let map = |j, c: f64| (j, if j == a { -c } else { c });
            assert_maps(&what, &base, &fit(&negated, &f), map, 1.0);
        }
    }
}

#[test]
fn scaling_every_column_scales_the_coefficients_inversely() {
    // From 2^−300 down, every score |x_jᵀr| falls below a stop
    // threshold that carries F's units but not the columns'.
    for seed in SEEDS {
        let (g, f) = problem(seed);
        for (method, fit) in all_but_star() {
            let base = fit(&g, &f);
            for e in [-500, -300, -20, -1, 1, 20, 300, 500] {
                let scaled = Matrix::from_fn(K, M, |r, j| g[(r, j)] * pow2(e));
                let what = format!("{method}, seed {seed}: columns × 2^{e}");
                let map = |j, c| (j, c * pow2(-e));
                assert_maps(&what, &base, &fit(&scaled, &f), map, 1.0);
            }
        }
    }
}

#[test]
fn scaling_one_column_scales_its_coefficient_inversely() {
    // Plain OMP scores by the unnormalized |x_jᵀr|, so rescaling one
    // column reorders its selection, as in the paper's Algorithm 1.
    for seed in SEEDS {
        let (g, f) = problem(seed);
        for (method, fit) in all_but_star().filter(|&(method, _)| method != "OMP") {
            let base = fit(&g, &f);
            let a = base.model_at(1).support()[0];
            for e in [-300, -20, 20, 300] {
                let mut scaled = g.clone();
                for r in 0..K {
                    scaled[(r, a)] = g[(r, a)] * pow2(e);
                }
                let what = format!("{method}, seed {seed}: column {a} × 2^{e}");
                let map = |j, c| (j, if j == a { c * pow2(-e) } else { c });
                assert_maps(&what, &base, &fit(&scaled, &f), map, 1.0);
            }
        }
    }
}

#[test]
fn a_leading_zero_column_shifts_every_index() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        let shifted = Matrix::from_fn(K, M + 1, |r, j| if j == 0 { 0.0 } else { g[(r, j - 1)] });
        check("zero column inserted at 0", seed, (&shifted, &f), |j, c| {
            (j + 1, c)
        });
    }
}

#[test]
fn a_copy_of_a_selected_column_changes_no_step() {
    for seed in SEEDS {
        let (g, f) = problem(seed);
        for (method, fit) in all_but_star() {
            let base = fit(&g, &f);
            // The method's first atom, appended again as column M: a
            // tie that the lower index wins, and then in the span of
            // the selection.
            let a = base.model_at(1).support()[0];
            let copied = Matrix::from_fn(K, M + 1, |r, j| g[(r, if j == M { a } else { j })]);
            let what = format!("{method}, seed {seed}: column {a} copied to {M}");
            assert_maps(&what, &base, &fit(&copied, &f), |j, c| (j, c), 1.0);
        }
    }
}
