//! `predict-bench` — throughput and latency of the serving path.
//!
//! Fits a small quadratic bundle in-process, serves it over TCP with
//! the real `rsm-serve` stack, and drives it with batched predict
//! frames at 1 and 4 worker threads. Records predictions/sec, p50/p99
//! round-trip latency, the host's core count and peak RSS into
//! `results/BENCH_serve.json`.
//!
//! Every response is verified **bit-exact** against the in-process
//! [`predict_point`](rsm_core::SparseModel::predict_point) evaluation;
//! any mismatch exits with
//! status 1. `--smoke` shrinks the workload for CI while keeping the
//! full verification (that is the point of the smoke job).
//!
//! ```text
//! cargo run --release -p rsm-bench --bin predict-bench [-- --smoke]
//! ```

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::{solver, Method, ModelBundle, ModelOrder};
use rsm_linalg::Matrix;
use rsm_serve::{Client, PredictEngine};
use rsm_stats::metrics::relative_error;
use rsm_stats::NormalSampler;
use serde::Serialize;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Instant;

/// Inputs of the benchmark bundle (quadratic basis → M = 153 atoms).
const NUM_VARS: usize = 16;
/// Training samples for the in-process fit.
const TRAIN_K: usize = 400;
/// Model order of the fitted bundle.
const LAMBDA: usize = 12;

#[derive(Debug, Clone, Serialize)]
struct BenchConfig {
    num_vars: usize,
    basis: String,
    num_bases: usize,
    batch_points: usize,
    batches: usize,
    smoke: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ThreadRun {
    threads: usize,
    predictions_per_sec: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    batches: usize,
    points: usize,
    bit_exact: bool,
}

#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    config: BenchConfig,
    /// Cores the host reports (`available_parallelism`): the 4-thread
    /// run only shows a parallel speed-up where this is at least 4.
    nproc: usize,
    runs: Vec<ThreadRun>,
    train_error: f64,
    peak_rss_mb: Option<f64>,
}

/// Fits the benchmark bundle on synthetic data: a sparse quadratic
/// ground truth plus noise, recovered by OMP.
fn fit_bundle() -> ModelBundle {
    let mut rng = NormalSampler::seed_from_u64(2009);
    let samples = Matrix::from_fn(TRAIN_K, NUM_VARS, |_, _| rng.sample());
    let dict = Dictionary::new(NUM_VARS, DictionaryKind::Quadratic);
    let g = dict.design_matrix(&samples);
    let truth: &[(usize, f64)] = &[
        (0, 0.8),
        (3, 2.0),
        (NUM_VARS, -1.25),
        (40, 0.75),
        (100, -0.5),
        (152, 0.375),
    ];
    let f: Vec<f64> = (0..TRAIN_K)
        .map(|r| truth.iter().map(|&(j, v)| v * g[(r, j)]).sum::<f64>() + 0.01 * rng.sample())
        .collect();
    let report = solver::fit(&g, &f, Method::Omp, &ModelOrder::Fixed(LAMBDA))
        .expect("benchmark fit succeeds");
    let train_error = relative_error(&report.model.predict_matrix(&g), &f);
    ModelBundle {
        input_columns: (0..NUM_VARS).map(|i| format!("dy{i}")).collect(),
        response: "delay".to_string(),
        basis: "quadratic".to_string(),
        method: report.method.name().to_string(),
        lambda: report.lambda,
        train_error,
        model: report.model,
    }
}

/// Runs one thread-count sweep: spawn the server, stream `batches`
/// batches of `batch_points` points, verify bits, collect latencies.
fn run_at(bundle: &ModelBundle, threads: usize, batch_points: usize, batches: usize) -> ThreadRun {
    rsm_runtime::set_threads(threads);
    let engine = PredictEngine::new(bundle.clone()).expect("engine builds");
    let dict = bundle.dictionary().expect("dictionary rebuilds");

    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        rsm_serve::serve_tcp(&engine, "127.0.0.1:0", Some(1), |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("server runs");
    });
    let addr = rx.recv().expect("server binds");
    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));

    let mut rng = NormalSampler::seed_from_u64(7 + threads as u64);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(batches);
    let mut points_done = 0usize;
    let mut bit_exact = true;
    let t0 = Instant::now();
    for _ in 0..batches {
        let points: Vec<f64> = (0..batch_points * NUM_VARS).map(|_| rng.sample()).collect();
        let sent = Instant::now();
        let values = client
            .predict(NUM_VARS, &points)
            .expect("server answers the batch");
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        points_done += values.len();
        for (i, v) in values.iter().enumerate() {
            let expect = bundle
                .model
                .predict_point(&dict, &points[i * NUM_VARS..(i + 1) * NUM_VARS]);
            if v.to_bits() != expect.to_bits() {
                eprintln!(
                    "BIT MISMATCH at {threads} threads, point {i}: wire {v} ({:#018x}) \
                     vs in-process {expect} ({:#018x})",
                    v.to_bits(),
                    expect.to_bits()
                );
                bit_exact = false;
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    drop(client);
    server.join().expect("server thread exits cleanly");
    rsm_runtime::set_threads(0);

    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx.min(latencies_ms.len() - 1)]
    };
    ThreadRun {
        threads,
        predictions_per_sec: points_done as f64 / total_s.max(1e-12),
        p50_latency_ms: pct(0.50),
        p99_latency_ms: pct(0.99),
        batches,
        points: points_done,
        bit_exact,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (batch_points, batches) = if smoke { (512, 20) } else { (4096, 100) };

    println!(
        "predict-bench: {NUM_VARS}-input quadratic bundle, \
         {batches} batches x {batch_points} points, threads {{1, 4}}{}",
        if smoke { " [smoke]" } else { "" }
    );
    let bundle = fit_bundle();
    println!(
        "fitted bundle: M = {}, lambda = {}, train error {:.2}%",
        bundle.model.num_bases(),
        bundle.lambda,
        bundle.train_error * 100.0
    );

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let run = run_at(&bundle, threads, batch_points, batches);
        println!(
            "threads {}: {:.0} predictions/s, p50 {:.3} ms, p99 {:.3} ms, bit_exact {}",
            run.threads,
            run.predictions_per_sec,
            run.p50_latency_ms,
            run.p99_latency_ms,
            run.bit_exact
        );
        runs.push(run);
    }

    let all_exact = runs.iter().all(|r| r.bit_exact);
    let record = BenchRecord {
        config: BenchConfig {
            num_vars: NUM_VARS,
            basis: "quadratic".to_string(),
            num_bases: bundle.model.num_bases(),
            batch_points,
            batches,
            smoke,
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        runs,
        train_error: bundle.train_error,
        peak_rss_mb: rsm_bench::peak_rss_mb(),
    };
    match rsm_bench::save_json("BENCH_serve", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }

    if !all_exact {
        eprintln!("predict-bench: served predictions were NOT bit-exact");
        std::process::exit(1);
    }
    println!("all served predictions bit-exact against predict_point");
}
