//! Metamorphic oracles: rewriting a problem in a way that changes no
//! information must change every path step in the predicted way, bit
//! for bit.
//!
//! Each of the five path methods fits 60 × 200 Gaussian designs with a
//! Gaussian response to λ = 15, for seeds 1–5, and is checked against
//! four rewrites:
//!
//! - negating F negates every coefficient;
//! - permuting the columns permutes the support;
//! - negating a column negates that column's coefficient;
//! - inserting a zero column at index 0 shifts every index by one.
//!
//! None of these rounds anything, so each step must make the same
//! choices and reach the same numbers. The residual norms must not
//! move either.

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

/// Every step of `path`, with each coefficient sent through `map`.
fn steps(path: &SparsePath, map: impl Fn(usize, f64) -> (usize, f64)) -> Vec<Step> {
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
            (coeffs, r.to_bits())
        })
        .collect()
}

/// Asserts that `got`, the path of the rewritten problem, is `base`
/// sent through `map`.
fn assert_maps(
    what: &str,
    base: &SparsePath,
    got: &SparsePath,
    map: impl Fn(usize, f64) -> (usize, f64),
) {
    assert_eq!(base.len(), LAMBDA, "{what}");
    assert_eq!(steps(got, |j, c| (j, c)), steps(base, map), "{what}");
}

/// Fits the problem of `seed` and its rewrite with every method and
/// asserts that each rewritten path is the base path sent through
/// `map`.
fn check(
    property: &str,
    seed: u64,
    rewritten: (&Matrix, &[f64]),
    map: impl Fn(usize, f64) -> (usize, f64),
) {
    let (g, f) = problem(seed);
    for (method, fit) in METHODS {
        let what = format!("{method}, seed {seed}: {property}");
        assert_maps(&what, &fit(&g, &f), &fit(rewritten.0, rewritten.1), &map);
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
            assert_maps(&what, &base, &fit(&negated, &f), |j, c| {
                (j, if j == a { -c } else { c })
            });
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
