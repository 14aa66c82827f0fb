//! EXT-A: the upper end of the paper's claimed range — solving
//! `M ≈ 10⁶` model coefficients from `K = 10³` sampling points.
//!
//! A materialized design matrix would be `1000 × 1 000 405` ≈ 8 GB, so
//! this experiment exercises the streaming path end to end: OMP, LAR,
//! and cross-validated LAR all run against a [`DictionarySource`] that
//! evaluates the quadratic Hermite dictionary on the fly (`O(K·N)`
//! memory instead of `O(K·M)`). CV folds are source-level row views —
//! nothing `K×M`-sized exists at any point, which the recorded
//! peak-RSS numbers verify.
//!
//! Ground truth: a 20-term sparse quadratic with noise. Success =
//! exact support recovery + small relative error, at a fitting cost of
//! minutes on one core.
//!
//! Run: `cargo run --release -p rsm-bench --bin million [-- --quick | -- --smoke]`
//!
//! Modes:
//! - (default) full size: `M ≈ 10⁶`, `K = 1000`, OMP + LAR + CV(LAR);
//! - `--quick`: `M ≈ 10⁵`, `K = 500`, same methods, smaller CV grid;
//! - `--smoke`: `M ≈ 10⁵`, `K = 500`, same methods, and the process
//!   exits nonzero unless OMP and LAR recover the planted support
//!   exactly and the CV(LAR) model's support contains every planted
//!   atom — the CI gate for the streaming path.
//!
//! Per-method records (method, M, K, threads, nproc, sweep kernel, fit
//! seconds, per-step seconds, peak-RSS estimate, errors) are written to
//! `results/BENCH_sources.json`; the OMP record additionally keeps its
//! historical shape in `results/million.json`.

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{peak_rss_mb, save_json, timed, RunOptions};
use rsm_core::lar::LarConfig;
use rsm_core::ls::LsConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::select::{cross_validate, CvConfig};
use rsm_core::source::{AtomSource, DictionarySource};
use rsm_core::{solver, Method, SparseModel};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;
use rsm_stats::NormalSampler;
use serde::Serialize;

/// OLS refit on a selected support (the paper's final step: LAR picks
/// the atoms, least squares re-estimates their coefficients). The
/// gathered sub-matrix is `K × |support|` — tiny, so this never
/// re-materializes the design matrix.
fn debias<S: AtomSource + ?Sized>(g: &S, f: &[f64], support: &[usize]) -> SparseModel {
    let mut cols = Matrix::zeros(g.num_rows(), support.len());
    g.columns_into(support, &mut cols);
    let local = LsConfig.fit(&cols, f).expect("debias LS is overdetermined");
    let coeffs: Vec<(usize, f64)> = local
        .coefficients()
        .iter()
        .map(|&(i, c)| (support[i], c))
        .collect();
    SparseModel::new(g.num_atoms(), coeffs)
}

#[derive(Serialize)]
struct MillionRecord {
    num_vars: usize,
    dict_size: usize,
    samples: usize,
    true_support: Vec<usize>,
    recovered_support: Vec<usize>,
    support_recovered_exactly: bool,
    train_error: f64,
    test_error: f64,
    fit_seconds: f64,
}

/// One `BENCH_sources.json` entry: a method fit through the streaming
/// source, with its cost and memory footprint.
#[derive(Serialize)]
struct SourceBenchRecord {
    method: String,
    m: usize,
    k: usize,
    threads: usize,
    /// Cores the host reports (`available_parallelism`).
    nproc: usize,
    /// The kernel the dictionary sweep ran (`rsm_basis::sweep_kernel`):
    /// `"avx2"`, or the slower `"plain"`.
    sweep_kernel: &'static str,
    fit_seconds: f64,
    /// `VmHWM` of the process in MB after this fit — cumulative over
    /// the run, so it upper-bounds the streaming footprint.
    peak_rss_mb: Option<f64>,
    train_error: f64,
    test_error: f64,
    support_recovered_exactly: bool,
    /// Model order the errors are reported at.
    lambda: usize,
    /// Cross-validated choice of λ, when the method ran under CV.
    cv_best_lambda: Option<usize>,
    /// Wall-clock seconds per path step (fixed-order rows only).
    step_seconds: Option<f64>,
    /// Wall-clock seconds of the cross-validation λ walk alone (CV
    /// rows only; excludes the final full-data fit).
    cv_wall_seconds: Option<f64>,
}

struct Problem {
    dict: Dictionary,
    samples: Matrix,
    test_samples: Matrix,
    truth: Vec<(usize, f64)>,
    f: Vec<f64>,
    f_test: Vec<f64>,
}

impl Problem {
    fn expected_support(&self) -> Vec<usize> {
        self.truth.iter().map(|&(j, _)| j).collect()
    }

    fn score(&self, model: &SparseModel) -> (f64, f64, bool) {
        let pred_train: Vec<f64> = (0..self.samples.rows())
            .map(|r| model.predict_point(&self.dict, self.samples.row(r)))
            .collect();
        let pred_test: Vec<f64> = (0..self.test_samples.rows())
            .map(|r| model.predict_point(&self.dict, self.test_samples.row(r)))
            .collect();
        let train_error = relative_error(&pred_train, &self.f);
        let test_error = relative_error(&pred_test, &self.f_test);
        let exact = model.support() == self.expected_support();
        (train_error, test_error, exact)
    }
}

fn build_problem(n: usize, k: usize, k_test: usize, p: usize) -> Problem {
    let dict = Dictionary::new(n, DictionaryKind::Quadratic);
    let m = dict.len();
    let mut rng = NormalSampler::seed_from_u64(2009);
    let samples = Matrix::from_fn(k, n, |_, _| rng.sample());
    let test_samples = Matrix::from_fn(k_test, n, |_, _| rng.sample());

    // Sparse ground truth spread across term kinds (constant excluded).
    let mut truth: Vec<(usize, f64)> = (0..p)
        .map(|i| {
            let idx = 1 + (i * (m - 1) / p + 37 * i) % (m - 1);
            (
                idx,
                if i % 2 == 0 {
                    1.5 + i as f64 * 0.1
                } else {
                    -1.0 - i as f64 * 0.05
                },
            )
        })
        .collect();
    truth.sort_by_key(|&(j, _)| j);
    truth.dedup_by_key(|&mut (j, _)| j);

    let mut eval_truth = |pts: &Matrix, noise: f64| -> Vec<f64> {
        (0..pts.rows())
            .map(|r| {
                truth
                    .iter()
                    .map(|&(j, c)| c * dict.eval_term(j, pts.row(r)))
                    .sum::<f64>()
                    + noise * rng.sample()
            })
            .collect()
    };
    let f = eval_truth(&samples, 0.05);
    let f_test = eval_truth(&test_samples, 0.0);
    Problem {
        dict,
        samples,
        test_samples,
        truth,
        f,
        f_test,
    }
}

fn main() {
    let opts = RunOptions::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // N chosen so the quadratic dictionary crosses 10⁶ (full) or 10⁵
    // (quick/smoke) terms.
    let n = if smoke { 446 } else { opts.pick(1413, 446) };
    let k = if smoke { 500 } else { opts.pick(1000, 500) };
    let k_test = if smoke { 200 } else { opts.pick(1000, 400) };
    let p = 20; // true sparsity

    let prob = build_problem(n, k, k_test, p);
    let m = prob.dict.len();
    let src = DictionarySource::new(&prob.dict, &prob.samples);
    println!(
        "streaming solvers: N = {n} variables, M = {m} quadratic coefficients, K = {k} samples"
    );
    println!(
        "(materialized G would be {:.1} GB; the streaming source holds {:.1} MB)",
        (k * m * 8) as f64 / 1e9,
        (k * n * 8) as f64 / 1e6
    );

    let expected = prob.expected_support();
    let lambda = prob.truth.len() + 5;
    let threads = opts.threads;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep_kernel = rsm_basis::sweep_kernel();
    let mut records: Vec<SourceBenchRecord> = Vec::new();
    let mut all_recovered = true;

    // --- OMP -------------------------------------------------------
    println!("\nrunning OMP to λ = {lambda} …");
    let (path, omp_secs) = timed(|| OmpConfig::new(lambda).fit(&src, &prob.f).unwrap());
    let omp_model = path.model_at(prob.truth.len());
    let (omp_train, omp_test, omp_exact) = prob.score(&omp_model);
    println!(
        "OMP: {omp_secs:.1}s ({:.1}s per step), support {}, train {:.2}%, test {:.2}%",
        omp_secs / path.len() as f64,
        if omp_exact { "EXACT" } else { "partial" },
        omp_train * 100.0,
        omp_test * 100.0
    );
    all_recovered &= omp_exact;
    records.push(SourceBenchRecord {
        method: "OMP".into(),
        m,
        k,
        threads,
        nproc,
        sweep_kernel,
        fit_seconds: omp_secs,
        peak_rss_mb: peak_rss_mb(),
        train_error: omp_train,
        test_error: omp_test,
        support_recovered_exactly: omp_exact,
        lambda: prob.truth.len(),
        cv_best_lambda: None,
        step_seconds: Some(omp_secs / path.len() as f64),
        cv_wall_seconds: None,
    });

    // Historical single-method record (kept for trajectory continuity).
    let record = MillionRecord {
        num_vars: n,
        dict_size: src.num_atoms(),
        samples: k,
        true_support: expected.clone(),
        recovered_support: omp_model.support(),
        support_recovered_exactly: omp_exact,
        train_error: omp_train,
        test_error: omp_test,
        fit_seconds: omp_secs,
    };
    if let Err(e) = save_json("million", &record) {
        eprintln!("warning: could not persist million.json: {e}");
    }

    // --- LAR -------------------------------------------------------
    println!("\nrunning LAR to λ = {lambda} …");
    let (lar_path, lar_secs) = timed(|| LarConfig::new(lambda).fit(&src, &prob.f).unwrap());
    // Raw LAR coefficients at a mid-path breakpoint are shrunk; report
    // the debiased fit the paper actually uses.
    let lar_model = debias(
        &src,
        &prob.f,
        &lar_path.model_at(prob.truth.len()).support(),
    );
    let (lar_train, lar_test, lar_exact) = prob.score(&lar_model);
    println!(
        "LAR: {lar_secs:.1}s ({:.1}s per step), support {}, train {:.2}%, test {:.2}%",
        lar_secs / lar_path.len() as f64,
        if lar_exact { "EXACT" } else { "partial" },
        lar_train * 100.0,
        lar_test * 100.0
    );
    all_recovered &= lar_exact;
    records.push(SourceBenchRecord {
        method: "LAR".into(),
        m,
        k,
        threads,
        nproc,
        sweep_kernel,
        fit_seconds: lar_secs,
        peak_rss_mb: peak_rss_mb(),
        train_error: lar_train,
        test_error: lar_test,
        support_recovered_exactly: lar_exact,
        lambda: prob.truth.len(),
        cv_best_lambda: None,
        step_seconds: Some(lar_secs / lar_path.len() as f64),
        cv_wall_seconds: None,
    });

    // --- cross-validated LAR ---------------------------------------
    let lmax = opts.pick(25, 8).max(p + 5);
    println!("\nrunning 4-fold cross-validated LAR to λ_max = {lmax} …");
    // The same composition as `solver::fit` with
    // `ModelOrder::CrossValidated`, unrolled so the λ walk and the
    // final full-data fit are timed separately.
    let cvcfg = CvConfig::new(lmax);
    let (cv, cv_walk_secs) = timed(|| {
        cross_validate(&src, &prob.f, &cvcfg, |gt, ft| {
            solver::fit_path(Method::Lar, gt, ft, cvcfg.lambda_max)
        })
        .unwrap()
    });
    let (cv_path, cv_final_secs) =
        timed(|| solver::fit_path(Method::Lar, &src, &prob.f, cv.best_lambda).unwrap());
    let cv_secs = cv_walk_secs + cv_final_secs;
    let cv_model = debias(&src, &prob.f, &cv_path.model_at(cv.best_lambda).support());
    let (cv_train, cv_test, cv_exact) = prob.score(&cv_model);
    // CV may keep a few extra atoms past the planted ones, so its gate
    // is containment, not exact recovery.
    let cv_support = cv_model.support();
    let cv_contains_truth = expected.iter().all(|j| cv_support.contains(j));
    println!(
        "CV(LAR): {cv_secs:.1}s ({cv_walk_secs:.1}s λ walk), best λ = {}, support {}, \
         train {:.2}%, test {:.2}%",
        cv.best_lambda,
        if cv_exact {
            "EXACT"
        } else if cv_contains_truth {
            "contains the planted atoms"
        } else {
            "partial"
        },
        cv_train * 100.0,
        cv_test * 100.0
    );
    all_recovered &= cv_contains_truth;
    records.push(SourceBenchRecord {
        method: "LAR+CV".into(),
        m,
        k,
        threads,
        nproc,
        sweep_kernel,
        fit_seconds: cv_secs,
        peak_rss_mb: peak_rss_mb(),
        train_error: cv_train,
        test_error: cv_test,
        support_recovered_exactly: cv_exact,
        lambda: cv.best_lambda,
        cv_best_lambda: Some(cv.best_lambda),
        step_seconds: None,
        cv_wall_seconds: Some(cv_walk_secs),
    });

    println!(
        "\nK/M ratio: {:.5} — {} coefficients per sample, resolved through sparsity",
        k as f64 / m as f64,
        m / k
    );
    if let Some(mb) = peak_rss_mb() {
        println!(
            "peak RSS: {mb:.0} MB (dense G would need {:.0} MB)",
            (k * m * 8) as f64 / 1e6
        );
    }

    match save_json("BENCH_sources", &records) {
        Ok(p) => eprintln!("results written to {}", p.display()),
        Err(e) => eprintln!("warning: could not persist results: {e}"),
    }

    if smoke && !all_recovered {
        eprintln!("SMOKE FAILURE: a solver lost the planted support");
        std::process::exit(1);
    }
}
