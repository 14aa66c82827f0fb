//! The fit workloads: LAR through `rsm_core::solver::fit`, timed per
//! call, on planted sparse problems generated from the seed.

use crate::report::{self, EndToEnd, Latencies, Outcome, SolverTally};
use crate::serve::{self, Server};
use crate::trace::{ProbedSource, Tracer};
use crate::RunCfg;
use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::select::CvConfig;
use rsm_core::source::{AtomSource, DictionarySource};
use rsm_core::{solver, FitReport, Method, ModelBundle, ModelOrder, SparseModel};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;
use rsm_stats::NormalSampler;
use std::sync::Arc;
use std::time::Instant;

/// A planted problem family: `F = Σ c_i·g_i(ΔY) + noise` over a Hermite
/// dictionary, with `planted` atoms and coefficients decaying by
/// `decay` per rank.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    pub kind: DictionaryKind,
    pub n: usize,
    pub k: usize,
    pub k_test: usize,
    pub planted: usize,
    pub decay: f64,
    pub noise: f64,
    /// Fit a materialized `design_matrix` instead of the streaming
    /// `DictionarySource`.
    pub dense: bool,
}

/// One generated problem instance.
#[derive(Debug)]
pub struct Problem {
    dict: Dictionary,
    samples: Matrix,
    dense: Option<Matrix>,
    test: Matrix,
    /// Planted `(atom, coefficient)` pairs, strongest first.
    truth: Vec<(usize, f64)>,
    f: Vec<f64>,
    f_test: Vec<f64>,
}

impl Problem {
    pub fn generate(spec: &ProblemSpec, seed: u64) -> Problem {
        let dict = Dictionary::new(spec.n, spec.kind);
        let m = dict.len();
        let mut rng = NormalSampler::seed_from_u64(seed);
        let samples = Matrix::from_fn(spec.k, spec.n, |_, _| rng.sample());
        let test = Matrix::from_fn(spec.k_test, spec.n, |_, _| rng.sample());
        let mut truth: Vec<(usize, f64)> = Vec::with_capacity(spec.planted);
        let mut scale = 1.0;
        while truth.len() < spec.planted {
            // Any atom but the constant, each at most once.
            let j = 1 + rng.uniform_index(m - 1);
            if truth.iter().any(|&(t, _)| t == j) {
                continue;
            }
            let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
            truth.push((j, sign * scale * (1.0 + rng.uniform())));
            scale *= spec.decay;
        }
        let eval = |pts: &Matrix, r: usize| -> f64 {
            truth
                .iter()
                .map(|&(j, c)| c * dict.eval_term(j, pts.row(r)))
                .sum()
        };
        let f = (0..spec.k)
            .map(|r| eval(&samples, r) + spec.noise * rng.sample())
            .collect();
        let f_test = (0..spec.k_test).map(|r| eval(&test, r)).collect();
        let dense = spec.dense.then(|| dict.design_matrix(&samples));
        Problem {
            dict,
            samples,
            dense,
            test,
            truth,
            f,
            f_test,
        }
    }

    /// One LAR fit through the library's front end; with a tracer, the
    /// source is wrapped in a [`ProbedSource`] and the call in a span.
    pub fn fit(&self, order: &ModelOrder, tracer: Option<&Tracer>) -> rsm_core::Result<FitReport> {
        match &self.dense {
            Some(g) => fit_on(g, &self.f, order, tracer),
            None => fit_on(
                DictionarySource::new(&self.dict, &self.samples),
                &self.f,
                order,
                tracer,
            ),
        }
    }

    /// Relative L2 error of `model` on the held-out points.
    pub fn test_error(&self, model: &SparseModel) -> rsm_core::Result<f64> {
        let pred = model.predict_batch(&self.dict, &self.test)?;
        Ok(relative_error(&pred, &self.f_test))
    }

    /// The bundle `rsm fit` would write for `model`.
    pub fn bundle(&self, model: SparseModel, lambda: usize) -> ModelBundle {
        ModelBundle {
            input_columns: (0..self.dict.num_vars()).map(|i| format!("x{i}")).collect(),
            response: "y".to_string(),
            basis: match self.dict.kind() {
                DictionaryKind::Linear => "linear",
                _ => "quadratic",
            }
            .to_string(),
            method: Method::Lar.name().to_string(),
            lambda,
            train_error: 0.0,
            model,
        }
    }
}

fn fit_on<S: AtomSource + Sync>(
    src: S,
    f: &[f64],
    order: &ModelOrder,
    tracer: Option<&Tracer>,
) -> rsm_core::Result<FitReport> {
    match tracer {
        None => solver::fit(&src, f, Method::Lar, order),
        Some(t) => {
            let probed = ProbedSource::new(src, t);
            t.in_fit(|| solver::fit(&probed, f, Method::Lar, order))
        }
    }
}

/// Seed of instance `i` of a run seeded with `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1)
}

/// A fit workload.
#[derive(Debug, Clone)]
pub struct FitSpec {
    pub problem: ProblemSpec,
    /// `Some(λ)` fixes the model order; `None` cross-validates up to
    /// `lambda_max` with 4 folds.
    pub fixed: Option<usize>,
    pub lambda_max: usize,
    /// Distinct instances; the timed loop cycles through them.
    pub instances: usize,
    /// The strongest planted atoms every fit must select.
    pub recover: usize,
    /// Held-out relative error above which a fit counts as failed.
    pub err_cap: f64,
}

impl FitSpec {
    fn order(&self) -> ModelOrder {
        match self.fixed {
            Some(l) => ModelOrder::Fixed(l),
            None => ModelOrder::CrossValidated(CvConfig::new(self.lambda_max)),
        }
    }
}

fn quadratic(n: usize, k: usize, planted: usize) -> ProblemSpec {
    ProblemSpec {
        kind: DictionaryKind::Quadratic,
        n,
        k,
        k_test: k / 2,
        planted,
        decay: 1.0,
        noise: 0.05,
        dense: false,
    }
}

/// The fit workloads, at full or `--smoke` size.
pub fn spec(name: &str, smoke: bool) -> Option<FitSpec> {
    let s = match (name, smoke) {
        // N = 1413 quadratic: M = 1 000 405 atoms from K = 1000 samples.
        ("path-1m", false) => FitSpec {
            problem: quadratic(1413, 1000, 20),
            fixed: Some(25),
            lambda_max: 25,
            instances: 1,
            recover: 20,
            err_cap: 0.05,
        },
        ("path-1m", true) => FitSpec {
            problem: quadratic(120, 200, 6),
            fixed: Some(8),
            lambda_max: 8,
            instances: 1,
            recover: 6,
            err_cap: 0.05,
        },
        // N = 446 quadratic: M = 100 128 atoms.
        ("cv-100k", false) => FitSpec {
            problem: quadratic(446, 1000, 20),
            fixed: None,
            lambda_max: 25,
            instances: 3,
            recover: 20,
            err_cap: 0.05,
        },
        ("cv-100k", true) => FitSpec {
            problem: quadratic(60, 200, 6),
            fixed: None,
            lambda_max: 8,
            instances: 2,
            recover: 6,
            err_cap: 0.05,
        },
        // Linear N = 630 (M = 631, the OpAmp linear case), dense.
        ("dense-wide", false) => FitSpec {
            problem: ProblemSpec {
                kind: DictionaryKind::Linear,
                n: 630,
                k: 1000,
                k_test: 500,
                planted: 150,
                decay: 0.98,
                noise: 0.05,
                dense: true,
            },
            fixed: None,
            lambda_max: 200,
            instances: 8,
            recover: 20,
            err_cap: 0.05,
        },
        ("dense-wide", true) => FitSpec {
            problem: ProblemSpec {
                kind: DictionaryKind::Linear,
                n: 80,
                k: 200,
                k_test: 100,
                planted: 30,
                decay: 0.95,
                noise: 0.05,
                dense: true,
            },
            fixed: None,
            lambda_max: 40,
            instances: 2,
            recover: 10,
            err_cap: 0.05,
        },
        _ => return None,
    };
    Some(s)
}

/// Checks one fit; returns its held-out error.
fn check(spec: &FitSpec, p: &Problem, report: &FitReport) -> Result<f64, String> {
    let model = &report.model;
    if model.coefficients().iter().any(|&(_, c)| !c.is_finite()) {
        return Err("non-finite coefficient".to_string());
    }
    let support = model.support();
    for &(j, _) in &p.truth[..spec.recover] {
        if support.binary_search(&j).is_err() {
            return Err(format!("planted atom {j} missing from the support"));
        }
    }
    let err = p.test_error(model).map_err(|e| e.to_string())?;
    if err.is_nan() || err > spec.err_cap {
        return Err(format!(
            "held-out error {err} above the cap {}",
            spec.err_cap
        ));
    }
    Ok(err)
}

/// What a timed loop over the instance pool produced.
struct Loop {
    ops: Latencies,
    test_err: Vec<f64>,
    loop_s: f64,
    /// Digest of each instance's model (fitted at least once).
    digests: Vec<u64>,
    /// The bundle of instance 0's first fit, for the served check.
    first: Option<ModelBundle>,
}

/// Fits the pool round-robin until `seconds` have passed and every
/// instance was fitted at least once.
fn fit_loop(
    spec: &FitSpec,
    pool: &[Problem],
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
    tally: &mut SolverTally,
) -> Loop {
    let order = spec.order();
    let mut lp = Loop {
        ops: Latencies::default(),
        test_err: Vec::new(),
        loop_s: 0.0,
        digests: vec![0; pool.len()],
        first: None,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < pool.len() || report::time_left(start, &lp.ops, seconds) {
        let idx = i % pool.len();
        let p = &pool[idx];
        let t0 = Instant::now();
        let result = p.fit(&order, tracer);
        lp.ops.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| check(spec, p, &r).map(|err| (r, err)))
        {
            Ok((r, err)) => {
                lp.test_err.push(err);
                tally.add(&r);
                let d = report::model_digest(&r.model);
                if i < pool.len() {
                    lp.digests[idx] = d;
                } else if lp.digests[idx] != d {
                    out.fail(format!("instance {idx} refitted to a different model"));
                }
                if i == 0 {
                    lp.first = Some(p.bundle(r.model, r.lambda));
                }
            }
            Err(why) => {
                out.failed += 1;
                eprintln!("fit {i} (instance {idx}) failed: {why}");
            }
        }
        i += 1;
    }
    lp.loop_s = start.elapsed().as_secs_f64();
    lp
}

/// Serves `bundle` (fitted on `p`) over RSMP and checks every held-out
/// prediction bit for bit against `predict_point`; returns the requests.
fn served_check(
    p: &Problem,
    bundle: Option<&ModelBundle>,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> Vec<serve::Request> {
    let Some(bundle) = bundle else {
        out.fail("no model to serve".to_string());
        return Vec::new();
    };
    let requests = serve::requests(bundle, &p.test, serve::CHECK_POINTS);
    match Server::start(bundle, tracer.cloned()) {
        Ok(mut server) => {
            serve::send_all(&mut server, &requests, out);
            server.finish(out);
        }
        Err(e) => out.fail(format!("cannot start the server: {e}")),
    }
    requests
}

fn make_pool(spec: &FitSpec, seed: u64) -> Vec<Problem> {
    (0..spec.instances)
        .map(|i| Problem::generate(&spec.problem, instance_seed(seed, i)))
        .collect()
}

/// Runs a fit workload.
pub fn run(spec: &FitSpec, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = SolverTally::default();
    match &cfg.trace {
        None => {
            let mut e2e = EndToEnd::default();
            let mut pool = Vec::new();
            for _ in 0..crate::SETUP_REPS {
                drop(pool);
                let t0 = Instant::now();
                pool = make_pool(spec, cfg.seed);
                e2e.setup_s.push(t0.elapsed().as_secs_f64());
            }
            let lp = fit_loop(spec, &pool, cfg.seconds, None, &mut out, &mut tally);
            out.digest = report::combine_digests(&lp.digests);
            served_check(&pool[0], lp.first.as_ref(), None, &mut out);
            e2e.ops = lp.ops;
            e2e.loop_s = lp.loop_s;
            e2e.test_err = lp.test_err;
            e2e.finish(&mut out);
        }
        Some(t) => {
            let pool = make_pool(spec, cfg.seed);
            let half = cfg.seconds / 2.0;
            let mut untraced = SolverTally::default();
            let plain = fit_loop(spec, &pool, half, None, &mut out, &mut untraced);
            let traced = fit_loop(spec, &pool, half, Some(t), &mut out, &mut tally);
            if plain.digests != traced.digests {
                out.fail("traced fits differ from untraced fits".to_string());
            }
            out.digest = report::combine_digests(&traced.digests);
            let p50 = plain.ops.p50();
            let overhead = 100.0 * (traced.ops.p50() - p50) / p50;
            let requests = served_check(&pool[0], traced.first.as_ref(), Some(t), &mut out);
            let points = match &traced.first {
                Some(b) => serve::replay(b, &requests, t, &mut out),
                None => f64::NAN,
            };
            out.metrics = report::per_layer(t, &tally, points, overhead);
            out.info = report::trace_info(t, &tally);
        }
    }
    out
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Serializes tests that set the process-wide thread count.
    pub static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn probed_source_is_transparent_at_one_and_two_threads() {
        let _guard = THREADS.lock().unwrap_or_else(|p| p.into_inner());
        for name in ["path-1m", "cv-100k", "dense-wide"] {
            let spec = spec(name, true).unwrap();
            let p = Problem::generate(&spec.problem, instance_seed(7, 0));
            let mut digests = Vec::new();
            for threads in [1, 2] {
                rsm_runtime::set_threads(threads);
                let plain = p.fit(&spec.order(), None).unwrap();
                let tracer = Tracer::new();
                let probed = p.fit(&spec.order(), Some(&tracer)).unwrap();
                check(&spec, &p, &plain).unwrap();
                digests.push(report::model_digest(&plain.model));
                digests.push(report::model_digest(&probed.model));
                assert!(tracer.counter("source.correlate.calls") > 0, "{name}");
                assert_eq!(tracer.durations_s("fit").len(), 1, "{name}");
            }
            rsm_runtime::set_threads(0);
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "{name}: {digests:x?}"
            );
        }
    }

    #[test]
    fn instances_come_from_the_seed() {
        let spec = spec("cv-100k", true).unwrap().problem;
        let a = Problem::generate(&spec, instance_seed(3, 0));
        let b = Problem::generate(&spec, instance_seed(3, 0));
        let c = Problem::generate(&spec, instance_seed(4, 0));
        assert_eq!(a.f, b.f);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.f, c.f);
        assert_eq!(a.truth.len(), spec.planted);
    }
}
