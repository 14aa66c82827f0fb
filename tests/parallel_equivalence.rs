//! Thread-count invariance of the whole solver stack.
//!
//! The parallel runtime (`rsm-runtime`) promises that the worker
//! thread count only changes wall-clock time, never results: chunk
//! boundaries are derived from the problem size alone and partials are
//! folded in a fixed order, so every floating-point operation happens
//! in the same order at every thread count. These tests pin that
//! promise down end to end — OMP, LAR and STAR fits must produce
//! **bit-identical** supports, coefficients and residual norms at
//! `threads ∈ {1, 2, 4, 7}`, for both the materialized
//! [`Matrix`](sparse_rsm::linalg::Matrix) backend and the implicit
//! [`DictionarySource`](sparse_rsm::core::source::DictionarySource)
//! backend, and cross-validation (parallel over folds) must select the
//! same model.
//!
//! Problem sizes are chosen to sit *above* the parallel thresholds in
//! `rsm-linalg` and `rsm-core` (`K·M ≥ 32 768`), so the parallel code
//! paths are genuinely exercised rather than falling back to the
//! serial loops.

use sparse_rsm::basis::{Dictionary, DictionaryKind};
use sparse_rsm::core::lar::LarConfig;
use sparse_rsm::core::select::{cross_validate, CvConfig};
use sparse_rsm::core::solver::fit_path;
use sparse_rsm::core::source::{AtomSource, DictionarySource, RowSubsetSource};
use sparse_rsm::core::{Method, SparsePath};
use sparse_rsm::linalg::{tol, Matrix};
use sparse_rsm::runtime;
use sparse_rsm::stats::NormalSampler;
use std::sync::Mutex;

/// Thread counts the suite sweeps (the first is the serial baseline).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The thread override is process-global, so tests that sweep it must
/// not interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// A K×M sensing matrix with a P-sparse response plus noise, sized
/// above the `K·M ≥ 32 768` parallel threshold.
fn matrix_problem() -> (Matrix, Vec<f64>) {
    let (k, m) = (120, 400); // K·M = 48 000
    let mut s = NormalSampler::seed_from_u64(99);
    let g = Matrix::from_fn(k, m, |_, _| s.sample());
    let mut f = vec![0.0; k];
    for &(j, v) in &[(3usize, 2.0), (41, -1.25), (160, 0.75), (399, 0.5)] {
        for r in 0..k {
            f[r] += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.02 * s.sample();
    }
    (g, f)
}

/// A quadratic Hermite dictionary over 30 variables (M = 496 atoms)
/// observed at 80 points: K·M = 39 680, above the streaming-correlate
/// threshold.
fn dictionary_problem() -> (Dictionary, Matrix, Vec<f64>) {
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
    (dict, samples, f)
}

/// Asserts two solution paths are equal down to the last bit: same
/// residual norms, and at every step the same support with bitwise
/// equal coefficients.
fn assert_paths_bit_identical(base: &SparsePath, other: &SparsePath, what: &str) {
    assert_eq!(base.len(), other.len(), "{what}: path lengths differ");
    for (a, b) in base.residual_norms().iter().zip(other.residual_norms()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: residual norms differ ({a} vs {b})"
        );
    }
    for lambda in 1..=base.len() {
        let ma = base.model_at(lambda);
        let mb = other.model_at(lambda);
        assert_eq!(
            ma.support(),
            mb.support(),
            "{what}: support differs at λ = {lambda}"
        );
        for ((ia, ca), (ib, cb)) in ma.coefficients().iter().zip(mb.coefficients()) {
            assert_eq!(ia, ib, "{what}: atom order differs at λ = {lambda}");
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{what}: coefficient {ia} differs at λ = {lambda} ({ca} vs {cb})"
            );
        }
    }
}

/// Runs `fit` once per thread count and asserts every path matches the
/// single-threaded baseline bit for bit.
fn sweep_threads(what: &str, fit: impl Fn() -> SparsePath) {
    runtime::set_threads(THREAD_COUNTS[0]);
    let baseline = fit();
    for &n in &THREAD_COUNTS[1..] {
        runtime::set_threads(n);
        let path = fit();
        assert_paths_bit_identical(&baseline, &path, &format!("{what} @ {n} threads"));
    }
    runtime::set_threads(0);
}

#[test]
fn matrix_backend_paths_are_thread_count_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (g, f) = matrix_problem();
    for method in [Method::Omp, Method::Lar, Method::Star] {
        sweep_threads(&format!("{method:?} on Matrix"), || {
            fit_path(method, &g, &f, 12).unwrap()
        });
    }
    runtime::set_threads(0);
}

#[test]
fn dictionary_backend_paths_are_thread_count_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (dict, samples, f) = dictionary_problem();
    use sparse_rsm::core::omp::OmpConfig;
    use sparse_rsm::core::star::StarConfig;
    let src = DictionarySource::new(&dict, &samples);
    sweep_threads("OMP on DictionarySource", || {
        OmpConfig::new(10).fit(&src, &f).unwrap()
    });
    sweep_threads("STAR on DictionarySource", || {
        StarConfig::new(10).fit(&src, &f).unwrap()
    });
    runtime::set_threads(0);
}

#[test]
fn dictionary_backend_matches_materialized_matrix_exactly_per_thread_count() {
    // The implicit and materialized backends run different accumulation
    // orders, so they are only close, not bit-equal — but each backend
    // must agree with *itself* across thread counts, and the supports
    // they select must coincide.
    let _guard = THREADS_LOCK.lock().unwrap();
    let (dict, samples, f) = dictionary_problem();
    use sparse_rsm::core::omp::OmpConfig;
    let g = dict.design_matrix(&samples);
    let src = DictionarySource::new(&dict, &samples);
    for &n in &THREAD_COUNTS {
        runtime::set_threads(n);
        let via_matrix = OmpConfig::new(8).fit(&g, &f).unwrap();
        let via_source = OmpConfig::new(8).fit(&src, &f).unwrap();
        assert_eq!(
            via_matrix.final_model().support(),
            via_source.final_model().support(),
            "backends disagree on the support at {n} threads"
        );
    }
    runtime::set_threads(0);
}

#[test]
fn cross_validation_is_thread_count_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (g, f) = matrix_problem();
    let cfg = CvConfig::new(12);
    for method in [Method::Omp, Method::Star] {
        let run = || cross_validate(&g, &f, method, &cfg).unwrap();
        runtime::set_threads(1);
        let base = run();
        for &n in &THREAD_COUNTS[1..] {
            runtime::set_threads(n);
            let cv = run();
            assert_eq!(
                cv.best_lambda, base.best_lambda,
                "{method:?}: λ* differs at {n} threads"
            );
            for (a, b) in base.errors.iter().zip(&cv.errors) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{method:?}: CV error curve differs at {n} threads ({a} vs {b})"
                );
            }
        }
    }
    runtime::set_threads(0);
}

/// Asserts two paths select the same atoms in the same order at every
/// model size, with coefficients equal within `tol::approx_eq`. Used
/// for dense-vs-streaming comparisons, where the two backends
/// accumulate dot products in different orders so last-bit equality is
/// not guaranteed, but the *selected sets* must coincide.
fn assert_paths_same_support_close_coeffs(dense: &SparsePath, src: &SparsePath, what: &str) {
    assert_eq!(dense.len(), src.len(), "{what}: path lengths differ");
    for lambda in 1..=dense.len() {
        let ma = dense.model_at(lambda);
        let mb = src.model_at(lambda);
        assert_eq!(
            ma.support(),
            mb.support(),
            "{what}: support differs at λ = {lambda}"
        );
        for ((ia, ca), (ib, cb)) in ma.coefficients().iter().zip(mb.coefficients()) {
            assert_eq!(ia, ib, "{what}: atom order differs at λ = {lambda}");
            assert!(
                tol::approx_eq(*ca, *cb, 1e-9, 1e-12),
                "{what}: coefficient {ia} differs at λ = {lambda} ({ca} vs {cb})"
            );
        }
    }
}

#[test]
fn lar_dense_and_source_backends_agree_per_thread_count() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (dict, samples, f) = dictionary_problem();
    let g = dict.design_matrix(&samples);
    let src = DictionarySource::new(&dict, &samples);
    for &n in &[1usize, 4] {
        runtime::set_threads(n);
        let dense = LarConfig::new(10).fit(&g, &f).unwrap();
        let implicit = LarConfig::new(10).fit(&src, &f).unwrap();
        assert_paths_same_support_close_coeffs(
            &dense,
            &implicit,
            &format!("LAR dense vs source @ {n} threads"),
        );
    }
    runtime::set_threads(0);
}

#[test]
fn cv_dense_and_source_backends_pick_the_same_model() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (dict, samples, f) = dictionary_problem();
    let g = dict.design_matrix(&samples);
    let src = DictionarySource::new(&dict, &samples);
    let cfg = CvConfig::new(8);
    for &n in &[1usize, 4] {
        runtime::set_threads(n);
        let dense = cross_validate(&g, &f, Method::Lar, &cfg).unwrap();
        let implicit = cross_validate(&src, &f, Method::Lar, &cfg).unwrap();
        assert_eq!(
            dense.best_lambda, implicit.best_lambda,
            "CV backends disagree on λ* at {n} threads"
        );
        for (a, b) in dense.errors.iter().zip(&implicit.errors) {
            assert!(
                tol::approx_eq(*a, *b, 1e-9, 1e-12),
                "CV error curves diverge at {n} threads ({a} vs {b})"
            );
        }
    }
    runtime::set_threads(0);
}

#[test]
fn row_subset_views_match_dense_row_selection() {
    // Fitting on a RowSubsetSource view must select the same model as
    // fitting on the materialized `select_rows` sub-matrix.
    let _guard = THREADS_LOCK.lock().unwrap();
    runtime::set_threads(1);
    let (g, f) = matrix_problem();
    let rows: Vec<usize> = (0..g.rows()).filter(|r| r % 3 != 0).collect();
    let f_sub: Vec<f64> = rows.iter().map(|&r| f[r]).collect();
    let view = RowSubsetSource::new(&g, &rows);
    let dense_sub = g.select_rows(&rows);
    let via_view = fit_path(Method::Lar, &view, &f_sub, 8).unwrap();
    let via_dense = fit_path(Method::Lar, &dense_sub, &f_sub, 8).unwrap();
    assert_paths_same_support_close_coeffs(&via_dense, &via_view, "LAR on row-subset view");
    runtime::set_threads(0);
}

/// Serial reference for the sanctioned reduction pattern: fold the
/// same fixed chunk grid in ascending order on one thread, no runtime
/// involved. This is the op sequence `par_chunks_reduce` promises to
/// reproduce at every thread count.
fn serial_chunk_sum(xs: &[f64], chunk_len: usize) -> f64 {
    let mut total = 0.0;
    let mut start = 0;
    while start < xs.len() {
        let end = xs.len().min(start + chunk_len);
        total += xs[start..end].iter().sum::<f64>();
        start = end;
    }
    total
}

/// The sanctioned chunked reduction, the only shape the runtime's
/// `Fn + Sync` worker bound admits: closure-local partials, combined
/// through the in-order fold.
fn sanctioned_chunk_sum(xs: &[f64], chunk_len: usize) -> f64 {
    let mut total = 0.0;
    runtime::par_chunks_reduce(
        xs.len(),
        chunk_len,
        |r| xs[r].iter().sum::<f64>(),
        |partial: f64| total += partial,
    );
    total
}

/// Decodes raw generator bits into a float spanning the full dynamic
/// range: sign × mantissa in [1, 2) × 10^e with e ∈ [-321, 300], so
/// the stream mixes subnormals (10⁻³²¹ < 2.2·10⁻³⁰⁸), huge values
/// (±10³⁰⁰), and everything between — exactly the spreads where
/// floating-point addition is least associative.
fn adversarial_value(raw: u64) -> f64 {
    let sign = if raw & 1 == 0 { 1.0 } else { -1.0 };
    let exp = ((raw >> 1) % 622) as i32 - 321;
    let mantissa = 1.0 + ((raw >> 11) % (1 << 20)) as f64 / f64::from(1 << 20);
    sign * mantissa * 10f64.powi(exp)
}

#[test]
fn denormal_and_huge_magnitude_reduction_is_thread_count_invariant() {
    // Directed adversarial spread: the smallest subnormal, the normal /
    // subnormal boundary, ±1e±300, exact cancellations, and ordinary
    // magnitudes, tiled across many chunks.
    let _guard = THREADS_LOCK.lock().unwrap();
    let pattern = [
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        1.0,
        -0.125,
        3.5e15,
    ];
    let xs: Vec<f64> = pattern.iter().cycle().take(730).copied().collect();
    for chunk_len in [1usize, 3, 7, 64, 1024] {
        let reference = serial_chunk_sum(&xs, chunk_len);
        for &n in &THREAD_COUNTS {
            runtime::set_threads(n);
            let got = sanctioned_chunk_sum(&xs, chunk_len);
            assert_eq!(
                reference.to_bits(),
                got.to_bits(),
                "chunk_len {chunk_len} @ {n} threads: {reference} vs {got}"
            );
        }
    }
    runtime::set_threads(0);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    #[test]
    fn sanctioned_reduction_matches_serial_fold_on_adversarial_spreads(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..300),
        chunk_len in 1usize..48,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let xs: Vec<f64> = raw.iter().copied().map(adversarial_value).collect();
        let reference = serial_chunk_sum(&xs, chunk_len);
        for t in [1usize, 4] {
            runtime::set_threads(t);
            let got = sanctioned_chunk_sum(&xs, chunk_len);
            runtime::set_threads(0);
            proptest::prop_assert_eq!(
                reference.to_bits(),
                got.to_bits(),
                "threads = {}: {} vs {}",
                t,
                reference,
                got
            );
        }
    }
}

#[test]
fn rsm_threads_env_knob_is_honored_unless_overridden() {
    let _guard = THREADS_LOCK.lock().unwrap();
    // The programmatic override wins over the environment; with the
    // override cleared, the env knob decides. (The env var is set for
    // this one process-global check only.)
    std::env::set_var("RSM_THREADS", "5");
    runtime::set_threads(0);
    assert_eq!(runtime::threads(), 5);
    runtime::set_threads(2);
    assert_eq!(runtime::threads(), 2);
    std::env::remove_var("RSM_THREADS");
    runtime::set_threads(0);
    assert!(runtime::threads() >= 1);
}

// ---------------------------------------------------------------------------
// Dictionary sweeps against the row-at-a-time reference
// ---------------------------------------------------------------------------

/// The row-at-a-time dictionary sweep, written out as the reference for
/// `DictionarySource::{correlate, column_sq_norms}`: each sample row is
/// evaluated whole by `eval_point_into` and added in by an axpy (`w·g`,
/// or `g·g` when `weights` is `None`). At `K > 1` and `K·M ≥ 32 768`
/// the rows go into per-chunk partials on the 16-chunk row grid, which
/// are folded into the result in ascending order; below that they
/// accumulate straight into the result.
fn reference_sweep(dict: &Dictionary, samples: &Matrix, weights: Option<&[f64]>) -> Vec<f64> {
    let (k_rows, m) = (samples.rows(), dict.len());
    let mut row = vec![0.0; m];
    let mut add_rows = |rows: std::ops::Range<usize>, acc: &mut [f64]| {
        for k in rows {
            if weights.is_some_and(|w| tol::exactly_zero(w[k])) {
                continue;
            }
            dict.eval_point_into(samples.row(k), &mut row);
            for (a, &g) in acc.iter_mut().zip(&row) {
                *a += match weights {
                    Some(w) => w[k] * g,
                    None => g * g,
                };
            }
        }
    };
    let mut out = vec![0.0; m];
    if k_rows > 1 && k_rows * m >= 32_768 {
        let chunk = k_rows.div_ceil(16);
        for lo in (0..k_rows).step_by(chunk) {
            let mut part = vec![0.0; m];
            add_rows(lo..(lo + chunk).min(k_rows), &mut part);
            for (o, &p) in out.iter_mut().zip(&part) {
                *o += p;
            }
        }
    } else {
        add_rows(0..k_rows, &mut out);
    }
    out
}

/// Bit patterns with every NaN mapped to one value. Which operand's NaN
/// payload an addition propagates is up to the compiler, so only
/// NaN-ness is part of the contract; every other value, ±0 and ±inf
/// included, must match exactly.
fn sweep_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|&x| if x.is_nan() { f64::NAN } else { x })
        .map(f64::to_bits)
        .collect()
}

/// The dictionaries the sweep references run over: both kinds, from one
/// variable up to quadratic N = 200, whose 20 301 atoms span two atom
/// tiles.
fn sweep_dictionaries() -> [Dictionary; 5] {
    [
        Dictionary::new(500, DictionaryKind::Linear),
        Dictionary::new(1, DictionaryKind::Quadratic),
        Dictionary::new(2, DictionaryKind::Quadratic),
        Dictionary::new(30, DictionaryKind::Quadratic),
        Dictionary::new(200, DictionaryKind::Quadratic),
    ]
}

#[test]
fn dictionary_sweeps_match_the_row_at_a_time_reference() {
    // Quadratic N = 200 has 20 301 atoms, so its cross block spans two
    // atom tiles; K = 1 and 17 stay below the parallel gate for small
    // dictionaries, and K = 80 is above it for all but the smallest.
    // K = 304 gives each of the 16 row chunks 19 rows: two full 8-row
    // blocks of `Dictionary::accumulate` and a remainder.
    let _guard = THREADS_LOCK.lock().unwrap();
    let dicts = sweep_dictionaries();
    let specials: [&[f64]; 4] = [
        &[0.0, -0.0],
        &[1e300, -1e-300, 0.0],
        &[f64::INFINITY, -0.0, f64::NEG_INFINITY],
        &[f64::NAN, 0.0],
    ];
    let mut s = NormalSampler::seed_from_u64(13);
    for dict in &dicts {
        for k in [1usize, 17, 80, 304] {
            let samples = Matrix::from_fn(k, dict.num_vars(), |_, _| s.sample());
            let base: Vec<f64> = (0..k).map(|_| s.sample()).collect();
            // The plain residual, then one with every fourth row
            // replaced from each special-value set.
            let mut residuals = vec![base.clone()];
            for sp in specials {
                let res = base.iter().enumerate();
                residuals.push(
                    res.map(|(i, &v)| {
                        if i % 4 == 0 {
                            sp[(i / 4) % sp.len()]
                        } else {
                            v
                        }
                    })
                    .collect(),
                );
            }
            let want_sq = reference_sweep(dict, &samples, None);
            let want_xi: Vec<Vec<f64>> = residuals
                .iter()
                .map(|r| reference_sweep(dict, &samples, Some(r)))
                .collect();
            let src = DictionarySource::new(dict, &samples);
            for t in [1usize, 2, 4] {
                runtime::set_threads(t);
                let what = format!(
                    "{:?} N={} K={k} @ {t} threads",
                    dict.kind(),
                    dict.num_vars()
                );
                assert_eq!(
                    sweep_bits(&src.column_sq_norms()),
                    sweep_bits(&want_sq),
                    "column_sq_norms, {what}"
                );
                for (i, (res, want)) in residuals.iter().zip(&want_xi).enumerate() {
                    assert_eq!(
                        sweep_bits(&src.correlate(res)),
                        sweep_bits(want),
                        "correlate, residual {i}, {what}"
                    );
                }
            }
        }
    }
    runtime::set_threads(0);
}

/// The listed-row reference for a fold view's column norms: each listed
/// row evaluated whole by `eval_point_into`, and its squares added in,
/// in list order, into one sum per atom from `+0.0`.
fn reference_listed_sq_norms(dict: &Dictionary, samples: &Matrix, rows: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; dict.len()];
    let mut row = vec![0.0; dict.len()];
    for &k in rows {
        dict.eval_point_into(samples.row(k), &mut row);
        for (o, &g) in out.iter_mut().zip(&row) {
            *o += g * g;
        }
    }
    out
}

#[test]
fn fold_view_norms_match_the_listed_row_reference() {
    // A fold view's norms run `DictionarySource`'s tile-parallel sweep
    // of the listed rows. They must be the one list-order sum of the
    // reference at every thread count, directly and through `&S`, on
    // the cross-validation training lists, a single row and no rows.
    // Every unlisted row holds NaN, ±inf or 1e300, which must not
    // reach the result.
    use sparse_rsm::core::select::FOLDS;
    let _guard = THREADS_LOCK.lock().unwrap();
    let dicts = sweep_dictionaries();
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
    let mut s = NormalSampler::seed_from_u64(17);
    for dict in &dicts {
        for k in [17usize, 80] {
            let clean = Matrix::from_fn(k, dict.num_vars(), |_, _| s.sample());
            let mut lists: Vec<Vec<usize>> = (0..FOLDS)
                .map(|fold| (0..k).filter(|r| r % FOLDS != fold).collect())
                .collect();
            lists.push(vec![k / 2]);
            lists.push(Vec::new());
            for rows in &lists {
                let want = reference_listed_sq_norms(dict, &clean, rows);
                let mut samples = clean.clone();
                for r in (0..k).filter(|r| rows.binary_search(r).is_err()) {
                    for (c, v) in samples.row_mut(r).iter_mut().enumerate() {
                        *v = specials[(r + c) % specials.len()];
                    }
                }
                let src = DictionarySource::new(dict, &samples);
                let by_ref = &src;
                for t in [1usize, 2, 4] {
                    runtime::set_threads(t);
                    let what = format!(
                        "{:?} N={} K={k}, {} listed rows @ {t} threads",
                        dict.kind(),
                        dict.num_vars(),
                        rows.len()
                    );
                    let direct = RowSubsetSource::new(&src, rows).column_sq_norms();
                    assert_eq!(sweep_bits(&direct), sweep_bits(&want), "{what}");
                    let forwarded = RowSubsetSource::new(&by_ref, rows).column_sq_norms();
                    assert_eq!(sweep_bits(&forwarded), sweep_bits(&want), "&S, {what}");
                }
            }
        }
    }
    runtime::set_threads(0);
}

// ---------------------------------------------------------------------------
// Early-stopped cross-validation
// ---------------------------------------------------------------------------

#[test]
fn cv_with_early_stop_is_thread_count_invariant() {
    // Early stopping depends only on the fold-mean error curve, and
    // every fold's errors land at the fold's own index — so the stop
    // point, the kept curve, and the selected λ* are thread-count
    // invariant, and the kept curve is a prefix of the unstopped one.
    use sparse_rsm::core::solver::{fit, ModelOrder};
    let _guard = THREADS_LOCK.lock().unwrap();
    let (g, f) = matrix_problem();
    let full = ModelOrder::CrossValidated(CvConfig::new(12));
    let stopped = ModelOrder::CrossValidated(CvConfig::new(12).with_early_stop());
    runtime::set_threads(THREAD_COUNTS[0]);
    let unstopped = fit(&g, &f, Method::Omp, &full).unwrap().cv.unwrap();
    let base = fit(&g, &f, Method::Omp, &stopped).unwrap();
    let base_cv = base.cv.clone().unwrap();
    assert!(
        base_cv.errors.len() < unstopped.errors.len(),
        "early stop kept all {} λ",
        base_cv.errors.len()
    );
    for (a, b) in base_cv.errors.iter().zip(&unstopped.errors) {
        assert_eq!(a.to_bits(), b.to_bits(), "stopped curve is not a prefix");
    }
    for &n in &THREAD_COUNTS[1..] {
        runtime::set_threads(n);
        let rep = fit(&g, &f, Method::Omp, &stopped).unwrap();
        let cv = rep.cv.unwrap();
        assert_eq!(
            cv.errors.len(),
            base_cv.errors.len(),
            "early-stop point differs at {n} threads"
        );
        assert_eq!(
            cv.best_lambda, base_cv.best_lambda,
            "λ* differs at {n} threads"
        );
        for (a, b) in cv.errors.iter().zip(&base_cv.errors) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "early-stopped CV error curve differs at {n} threads"
            );
        }
        assert_eq!(
            rep.model.support(),
            base.model.support(),
            "final model differs at {n} threads"
        );
    }
    runtime::set_threads(0);
}

/// A 60 × 40 000 Gaussian design, wider than two of LAR's 16 Ki-atom
/// bookkeeping tiles, and its response. Three planted atoms sit in
/// three different tiles, and the last column is an exact copy of the
/// strongest one, atom 1 234, so the copy's correlations equal the
/// original's bit for bit at every step.
fn multi_tile_problem() -> (Matrix, Vec<f64>) {
    let (k, m) = (60, 40_000);
    let mut s = NormalSampler::seed_from_u64(40_001);
    let mut g = Matrix::from_fn(k, m, |_, _| s.sample());
    for r in 0..k {
        g[(r, m - 1)] = g[(r, MULTI_TILE_COPIED)];
    }
    let mut f = vec![0.0; k];
    for &(j, v) in &[(MULTI_TILE_COPIED, 3.0), (20_000, -2.0), (35_000, 1.5)] {
        for r in 0..k {
            f[r] += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.3 * s.sample();
    }
    (g, f)
}

/// The atom whose exact copy is the last column of [`multi_tile_problem`].
const MULTI_TILE_COPIED: usize = 1_234;

/// FNV-1a over every snapshot's support and coefficient bits and every
/// residual norm's bits.
fn path_digest(path: &SparsePath) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (lambda, model) in path.iter() {
        eat(lambda as u64);
        for &(j, c) in model.coefficients() {
            eat(j as u64);
            eat(c.to_bits());
        }
    }
    for r in path.residual_norms() {
        eat(r.to_bits());
    }
    h
}

#[test]
fn multi_tile_lar_paths_match_golden_bits_at_every_thread_count() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (g, f) = multi_tile_problem();
    let copy = g.cols() - 1;
    // (config, final support size, digest), captured at one worker
    // thread before LAR's per-step bookkeeping was tiled. Both paths
    // run all 50 steps, and the lasso path drops atoms on the way.
    let golden = [
        (LarConfig::new(50), 50, 0x0d12_f35c_bb82_6b09),
        (LarConfig::new(50).with_lasso(), 46, 0x0760_4156_cdf7_5ce7),
    ];
    for (cfg, nonzeros, digest) in golden {
        for n in [1, 2, 4] {
            runtime::set_threads(n);
            let path = cfg.fit(&g, &f).unwrap();
            let what = format!("{cfg:?} @ {n} threads");
            assert_eq!(path.len(), 50, "{what}");
            assert_eq!(path.final_model().num_nonzeros(), nonzeros, "{what}");
            assert_eq!(path_digest(&path), digest, "{what}");
            // The copy ties the original at the first activation, where
            // the lower index wins. On this seed it later comes up as
            // the next activation, fails to join the factor and is
            // excluded by the retry.
            assert_eq!(path.model_at(1).support(), [MULTI_TILE_COPIED], "{what}");
            for (lambda, model) in path.iter() {
                assert!(
                    model.coefficient(copy).is_none(),
                    "{what}: the copy of atom {MULTI_TILE_COPIED} is active at λ = {lambda}"
                );
            }
        }
    }
    runtime::set_threads(0);
}
