//! Directed coverage of the lasso drop path and its Cholesky downdate,
//! and the path certificates that check LAR, LAR(lasso) and OMP from
//! the mathematics rather than against stored bits.
//!
//! A lasso drop downdates the active-set Cholesky factor with Givens
//! rotations (`GrowingCholesky::drop_column`, `O(p²)`) instead of
//! refactorizing it, and the step after a drop moves along the reduced
//! active set without activating an atom (Efron et al. 2004, §3.1).
//! This file pins that path:
//!
//! - a fixture that **provably** takes the drop branch (atoms leave the
//!   support between consecutive snapshots — impossible without the
//!   lasso drop);
//! - golden bit patterns for the whole path, captured at one worker
//!   thread, and the same for OMP on the same fixture;
//! - the lasso KKT certificate at every snapshot, showing the
//!   downdated factor still solves the right equations;
//! - `excluded` bookkeeping surviving drops: a dropped atom stays
//!   eligible and is in fact re-selected later on this fixture.
//!
//! The certificates also run on a Gaussian design and on a streamed
//! quadratic dictionary.
//!
//! The fixture is a masked-predictor construction: column 2 is (almost)
//! a scaled sum of columns 0 and 1, and the response is their sum — so
//! the composite atom enters the path first, then its coefficient
//! crosses zero once the true atoms take over.

use sparse_rsm::basis::{Dictionary, DictionaryKind};
use sparse_rsm::core::lar::LarConfig;
use sparse_rsm::core::omp::OmpConfig;
use sparse_rsm::core::source::{AtomSource, DictionarySource};
use sparse_rsm::core::{SparseModel, SparsePath};
use sparse_rsm::linalg::{vec_ops::norm2, Matrix};
use sparse_rsm::runtime;
use sparse_rsm::stats::NormalSampler;

/// 40×25 Gaussian design, seed 0, with the masked composite atom 2 and
/// response `x₀ + x₁ + noise`.
fn drop_fixture() -> (Matrix, Vec<f64>) {
    let (k, m) = (40, 25);
    let mut s = NormalSampler::seed_from_u64(0);
    let mut g = Matrix::from_fn(k, m, |_, _| s.sample());
    for r in 0..k {
        g[(r, 2)] = 0.70 * (g[(r, 0)] + g[(r, 1)]) + 0.08 * s.sample();
    }
    let f: Vec<f64> = (0..k)
        .map(|r| g[(r, 0)] + g[(r, 1)] + 0.12 * s.sample())
        .collect();
    (g, f)
}

/// Every `(step, atom)` pair where `atom` is in the support at `step`
/// but gone at `step + 1` — each one is a taken lasso-drop branch.
fn drop_events(path: &SparsePath) -> Vec<(usize, usize)> {
    let mut events = Vec::new();
    for l in 1..path.len() {
        let before = path.model_at(l);
        let after = path.model_at(l + 1);
        for j in before.support() {
            if after.coefficient(j).is_none() {
                events.push((l, j));
            }
        }
    }
    events
}

#[test]
fn lasso_path_provably_takes_the_drop_branch() {
    let (g, f) = drop_fixture();
    let path = LarConfig::new(25).with_lasso().fit(&g, &f).unwrap();
    let events = drop_events(&path);
    assert!(
        !events.is_empty(),
        "fixture no longer triggers the lasso drop branch"
    );
    // Pin the first event so the fixture cannot silently degrade into a
    // single late-path drop.
    assert!(
        events[0].0 <= 16,
        "first drop moved late in the path: {events:?}"
    );
    // Without the drop branch the snapshot count equals the activation
    // count; with drops the path keeps advancing past them.
    assert_eq!(path.len(), 25);

    // The same branch must fire identically without the lasso flag —
    // i.e. not at all: plain LAR supports only grow.
    let plain = LarConfig::new(25).fit(&g, &f).unwrap();
    assert!(drop_events(&plain).is_empty());
}

#[test]
fn dropped_atoms_stay_eligible_and_are_reselected() {
    // `excluded` must survive the drop untouched: a dropped atom is
    // *inactive*, not *excluded*, so later steps can re-activate it.
    // On this fixture atom 8 leaves the support and comes back within
    // the 25 steps.
    let (g, f) = drop_fixture();
    let path = LarConfig::new(25).with_lasso().fit(&g, &f).unwrap();
    let events = drop_events(&path);
    let &(step, _) = events
        .iter()
        .find(|&&(_, j)| j == 8)
        .unwrap_or_else(|| panic!("atom 8 is no longer dropped: {events:?}"));
    let reselected = (step + 2..=path.len()).any(|l| path.model_at(l).coefficient(8).is_some());
    assert!(
        reselected,
        "atom 8 dropped at step {step} was never re-selected \
         (drop path may be poisoning the excluded set)"
    );
}

/// Residual ℓ₂ norms of the 25-step lasso path, captured at one worker
/// thread. The certificate below checks the snapshots they pin.
const GOLDEN_RESIDUAL_BITS: [u64; 25] = [
    0x3ff14b44e2c37c06,
    0x3feff01e6a7a74b3,
    0x3fef3bd5079c1cdb,
    0x3feedcafa2c4663d,
    0x3feeb6e92612abfc,
    0x3fecac3d9ad3e38a,
    0x3fea0c9a0fd92ea3,
    0x3fe8064acd87dd64,
    0x3fe7c22efae1fe75,
    0x3fe6b5bd172ae9b6,
    0x3fe6893e84c1173c,
    0x3fe672c63fd52c18,
    0x3fe6108a74efb598,
    0x3fe5c816c2ba7759,
    0x3fe5ac36ad65a1d6,
    0x3fe469acc548a9ac,
    0x3fe3b95eeb5b3938,
    0x3fe344f2fed05bf0,
    0x3fe2addeca17cd0e,
    0x3fe2992de18c17af,
    0x3fe2889effed8d91,
    0x3fe229bf717322d9,
    0x3fdff2b4b2da72f6,
    0x3fdf881df7be452f,
    0x3fded51f9fe683b2,
];

/// Final model (atom index, coefficient bits), same capture.
const GOLDEN_FINAL_COEFFS: [(usize, u64); 19] = [
    (0, 0x3fed9a4fbd470824),
    (1, 0x3fef5bc3ea47b103),
    (2, 0x3fb40b4349b31b12),
    (5, 0x3f771a7ab0932563),
    (6, 0x3fa2f6aacedb17a1),
    (7, 0x3f8abf97241cc51a),
    (8, 0xbf6987e9e955d9e4),
    (9, 0x3f93171db1d3a8c2),
    (10, 0xbfa3b10a1d1790a8),
    (11, 0xbf9ed5caf9a7492f),
    (12, 0x3fa4d46970324a44),
    (13, 0x3f7db20477a253b5),
    (14, 0xbf9b344137d4fabe),
    (15, 0x3fa416573716d4ca),
    (16, 0x3fa1e73c3f2cbe09),
    (17, 0x3f60d40040be07ba),
    (18, 0xbf88afa2e0fe21fd),
    (22, 0x3f7715656378cd7d),
    (23, 0x3f9026bba882e3ae),
];

#[test]
fn post_drop_path_matches_golden_bits() {
    runtime::set_threads(1);
    let (g, f) = drop_fixture();
    let path = LarConfig::new(25).with_lasso().fit(&g, &f).unwrap();
    runtime::set_threads(0);
    assert_eq!(path.len(), GOLDEN_RESIDUAL_BITS.len());
    for (i, (r, gold)) in path
        .residual_norms()
        .iter()
        .zip(&GOLDEN_RESIDUAL_BITS)
        .enumerate()
    {
        assert_eq!(
            r.to_bits(),
            *gold,
            "residual norm {i} drifted: {r} vs {}",
            f64::from_bits(*gold)
        );
    }
    let fm = path.final_model();
    assert_eq!(fm.coefficients().len(), GOLDEN_FINAL_COEFFS.len());
    for (&(j, c), &(gj, gc)) in fm.coefficients().iter().zip(&GOLDEN_FINAL_COEFFS) {
        assert_eq!(j, gj, "support drifted at atom {j}");
        assert_eq!(
            c.to_bits(),
            gc,
            "coefficient {j} drifted: {c} vs {}",
            f64::from_bits(gc)
        );
    }
}

/// Residual ℓ₂ norms of the 25-step OMP path on the same fixture,
/// captured at one worker thread. OMP selects every atom (`K ≥ M`), so
/// its final model is the least-squares fit.
const OMP_GOLDEN_RESIDUAL_BITS: [u64; 25] = [
    0x3feff3e5ccf7dbd9,
    0x3fee3bb8de041b69,
    0x3fed93f205bb8f5a,
    0x3fecfe47d50ff239,
    0x3fec13e466fb296b,
    0x3feb98b06c58bc8e,
    0x3feaacda0d6cbb53,
    0x3fea01e2bebe9a3f,
    0x3fe98d72985ecef1,
    0x3fe8e126e1af4ffc,
    0x3fe841f53100c738,
    0x3fe7df907179c032,
    0x3fe78171e900f118,
    0x3fe757d497a36f8e,
    0x3fe69f0f4fe3ce61,
    0x3fe60a7002334ed0,
    0x3fe5f1a10956e0a6,
    0x3fe5ca2c418f5424,
    0x3fe5ad68dd50cc32,
    0x3fdf55bbdb08df51,
    0x3fdd0eb11ad0ebb8,
    0x3fdce736dab5cad1,
    0x3fdcafdbc37b34c5,
    0x3fdc8d26743744ad,
    0x3fdc8b167ded7d02,
];

/// Final OMP coefficient bits, atom `j` at index `j`, same capture.
const OMP_GOLDEN_FINAL_BITS: [u64; 25] = [
    0x3ff0de8cd270adf9,
    0x3ff2728f81bd330c,
    0xbfbae11a780a3aab,
    0xbf8881221d3d6bd0,
    0x3f9a276b83ab9bfa,
    0x3f91a885ec660784,
    0x3fb153eea159b039,
    0x3fa5d947406bc2be,
    0xbf3a7efd4a8428c6,
    0x3f9c24f2f65a3603,
    0xbfa015acdfd387ac,
    0xbfb0bd7d12770613,
    0x3fb3f0987e785d5f,
    0xbf6a216c6a05e753,
    0xbfa296fbaff1d710,
    0x3fb0a8d51bf226d1,
    0x3fac8965a578389e,
    0x3f9ce78aa5e6f246,
    0xbf8410406d4d1cfe,
    0xbf9472be0ff7f696,
    0x3fa21ec4dc432244,
    0x3fa4628a325c77d2,
    0x3f9ad927b2f2c445,
    0x3f8e6bba0e5a5e03,
    0xbfa1e40a370dbaa5,
];

#[test]
fn omp_path_matches_golden_bits() {
    runtime::set_threads(1);
    let (g, f) = drop_fixture();
    let path = OmpConfig::new(25).fit(&g, &f).unwrap();
    runtime::set_threads(0);
    let residual_bits: Vec<u64> = path.residual_norms().iter().map(|r| r.to_bits()).collect();
    assert_eq!(residual_bits, OMP_GOLDEN_RESIDUAL_BITS);
    let fm = path.final_model();
    let support: Vec<usize> = (0..25).collect();
    assert_eq!(fm.support(), support);
    let coeff_bits: Vec<u64> = fm
        .coefficients()
        .iter()
        .map(|&(_, c)| c.to_bits())
        .collect();
    assert_eq!(coeff_bits, OMP_GOLDEN_FINAL_BITS);
}

/// Tolerance of the path certificates, relative to `‖F‖₂`. The worst
/// deviation measured on these inputs is below 1e-15.
const CERT_TOL: f64 = 1e-9;

/// `F − G·α` for one snapshot.
fn residual(g: &Matrix, f: &[f64], model: &SparseModel) -> Vec<f64> {
    let pred = model.predict_matrix(g);
    f.iter().zip(&pred).map(|(a, b)| a - b).collect()
}

/// What [`lar_certificate`] found over a whole path.
#[derive(Debug)]
struct LarCertificate {
    /// Worst deviation from the equiangular conditions, relative to
    /// `‖F‖₂`.
    worst: f64,
    /// `(snapshot, atom)` pairs on the support where `c_j` and `α_j`
    /// have opposite signs.
    sign_violations: Vec<(usize, usize)>,
}

/// Checks the LARS conditions of Efron et al. (2004) at every snapshot
/// of `path`. With `r` the snapshot's residual, `c_j = G_jᵀr / ‖G_j‖₂`
/// and `C = max |c_j|` over the support: every active `|c_j|` equals
/// `C`, and every inactive `|c_j|` is at most `C`. Under the lasso,
/// `c_j` and `α_j` also have the same sign on the support. Together
/// these are the lasso KKT conditions at penalty `C` for the
/// column-normalized design. A sign is only read where `|c_j|` exceeds
/// the tolerance: a path that runs to `min(K, M)` atoms ends at the
/// least-squares fit, where `C = 0` and every `c_j` is rounding noise.
fn lar_certificate(g: &Matrix, f: &[f64], path: &SparsePath) -> LarCertificate {
    let norms: Vec<f64> = (0..g.cols()).map(|j| norm2(&g.col(j))).collect();
    let f_norm = norm2(f);
    let mut worst = 0.0f64;
    let mut sign_violations = Vec::new();
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
                        sign_violations.push((l, j));
                    }
                    (cj.abs() - level).abs()
                }
                None => cj.abs() - level,
            };
            worst = worst.max(deviation / f_norm);
        }
    }
    LarCertificate {
        worst,
        sign_violations,
    }
}

/// Worst `|G_jᵀr| / (‖G_j‖₂·‖F‖₂)` over the support of every snapshot:
/// the OMP residual is orthogonal to the selected atoms. It is scaled
/// by `‖F‖₂`, not `‖r‖₂`, which is tiny once the support nears `K`.
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

/// Fits LAR, LAR(lasso) and OMP to `lambda` steps on `src` and checks
/// every snapshot of each path against the dense design `g`.
fn assert_certificates<S: AtomSource + ?Sized>(
    src: &S,
    g: &Matrix,
    f: &[f64],
    lambda: usize,
    what: &str,
) {
    let lar = LarConfig::new(lambda).fit(src, f).unwrap();
    let cert = lar_certificate(g, f, &lar);
    assert!(cert.worst <= CERT_TOL, "{what}: LAR λ = {lambda}: {cert:?}");
    let lasso = LarConfig::new(lambda).with_lasso().fit(src, f).unwrap();
    let cert = lar_certificate(g, f, &lasso);
    assert!(
        cert.worst <= CERT_TOL && cert.sign_violations.is_empty(),
        "{what}: LAR(lasso) λ = {lambda}: {cert:?}"
    );
    let omp = OmpConfig::new(lambda).fit(src, f).unwrap();
    let worst = omp_orthogonality(g, f, &omp);
    assert!(worst <= CERT_TOL, "{what}: OMP λ = {lambda}: {worst:e}");
}

#[test]
fn post_drop_path_satisfies_the_lasso_certificate() {
    // This path drops (`lasso_path_provably_takes_the_drop_branch`), so
    // every later snapshot rests on a downdated factor: the certificate
    // checks that it still solves the right equations.
    let (g, f) = drop_fixture();
    assert_certificates(&g, &g, &f, 25, "drop fixture");
}

#[test]
fn certificates_hold_beyond_the_drop_fixture() {
    // A 50×10 Gaussian design with response 3·G₂ − 2·G₇ plus noise,
    // run to the least-squares fit.
    let mut s = NormalSampler::seed_from_u64(3);
    let g = Matrix::from_fn(50, 10, |_, _| s.sample());
    let f: Vec<f64> = (0..50)
        .map(|r| 3.0 * g[(r, 2)] - 2.0 * g[(r, 7)] + 0.1 * s.sample())
        .collect();
    assert_certificates(&g, &g, &f, 10, "50×10 Gaussian");

    // A quadratic Hermite dictionary over 30 variables (M = 496) at 80
    // points, fitted through the streaming source up to K − 1 steps
    // and checked against the materialized design matrix.
    let dict = Dictionary::new(30, DictionaryKind::Quadratic);
    let mut s = NormalSampler::seed_from_u64(7);
    let samples = Matrix::from_fn(80, 30, |_, _| s.sample());
    let g = dict.design_matrix(&samples);
    let mut f = vec![0.0; 80];
    for &(j, v) in &[(5usize, 1.5), (70, -0.8), (200, 0.4)] {
        for r in 0..80 {
            f[r] += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.02 * s.sample();
    }
    let src = DictionarySource::new(&dict, &samples);
    for lambda in [10, 40, 79] {
        assert_certificates(&src, &g, &f, lambda, "quadratic dictionary");
    }
}
