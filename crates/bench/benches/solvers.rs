//! Criterion benches of the four solvers' fitting cost.
//!
//! These document the scaling behind the tables: OMP/STAR/LAR cost
//! `O(λ·K·M)` per fit, LS costs `O(K·M²)` — the law used to
//! extrapolate the LS paper-scale fitting times (EXPERIMENTS.md), and
//! the incremental-QR ablation (naive re-factoring OMP would be
//! `O(λ²·K·M)`-ish; the bench shows near-linear growth in λ).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::source::{AtomSource, DictionarySource};
use rsm_core::{lar::LarConfig, ls, omp::OmpConfig, star::StarConfig};
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;
use std::hint::black_box;

fn sparse_problem(k: usize, m: usize, p: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = NormalSampler::seed_from_u64(seed);
    let g = Matrix::from_fn(k, m, |_, _| rng.sample());
    let mut f = vec![0.0; k];
    for i in 0..p {
        let j = (i * m / p + 3) % m;
        for r in 0..k {
            f[r] += (1.0 + i as f64) * g[(r, j)];
        }
    }
    for v in &mut f {
        *v += 0.05 * rng.sample();
    }
    (g, f)
}

fn bench_sparse_solvers_vs_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_solvers_vs_M");
    group.sample_size(10);
    for &m in &[500usize, 2_000, 8_000] {
        let (g, f) = sparse_problem(300, m, 10, 1);
        group.bench_with_input(BenchmarkId::new("omp_lambda20", m), &m, |b, _| {
            b.iter(|| {
                OmpConfig::new(20)
                    .fit(black_box(&g), black_box(&f))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("star_lambda20", m), &m, |b, _| {
            b.iter(|| {
                StarConfig::new(20)
                    .fit(black_box(&g), black_box(&f))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("lar_20steps", m), &m, |b, _| {
            b.iter(|| {
                LarConfig::new(20)
                    .fit(black_box(&g), black_box(&f))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_omp_vs_lambda(c: &mut Criterion) {
    // Near-linear growth in λ demonstrates the incremental-QR update;
    // a from-scratch re-factor per step would grow quadratically.
    let mut group = c.benchmark_group("omp_vs_lambda");
    group.sample_size(10);
    let (g, f) = sparse_problem(400, 4_000, 40, 2);
    for &lambda in &[10usize, 20, 40, 80] {
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, &l| {
            let cfg = OmpConfig::new(l);
            b.iter(|| cfg.fit(black_box(&g), black_box(&f)).unwrap())
        });
    }
    group.finish();
}

fn bench_ls_vs_m(c: &mut Criterion) {
    // The K·M² law used for the paper-scale LS extrapolations.
    let mut group = c.benchmark_group("ls_vs_M");
    group.sample_size(10);
    for &m in &[100usize, 200, 400] {
        let (g, f) = sparse_problem(3 * m, m, 10, 3);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| ls::fit(black_box(&g), black_box(&f)).unwrap())
        });
    }
    group.finish();
}

fn bench_correlate_serial_vs_parallel(c: &mut Criterion) {
    // The selection step `ξ = Gᵀ·res` dominates large-M fits; this
    // bench compares the deterministic parallel runtime against the
    // single-thread baseline on the streaming (DictionarySource)
    // correlate. Results are bit-identical at every thread count; only
    // the wall clock moves. Speedup numbers land in EXPERIMENTS.md.
    let mut group = c.benchmark_group("correlate_vs_M");
    group.sample_size(10);
    // Quadratic dictionaries over n variables give M = 1 + 2n + C(n,2)
    // atoms: n = 140 → M = 10 011 ≈ 10⁴, n = 444 → M = 99 235 ≈ 10⁵.
    for &n_vars in &[140usize, 444] {
        let dict = Dictionary::new(n_vars, DictionaryKind::Quadratic);
        let m = dict.len();
        let k = 200;
        let mut rng = NormalSampler::seed_from_u64(4);
        let samples = Matrix::from_fn(k, n_vars, |_, _| rng.sample());
        let src = DictionarySource::new(&dict, &samples);
        let res: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).sin()).collect();
        for &(name, threads) in &[("serial", 1usize), ("threads4", 4)] {
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                rsm_runtime::set_threads(threads);
                b.iter(|| black_box(&src).correlate(black_box(&res)));
                rsm_runtime::set_threads(0);
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sparse_solvers_vs_m,
    bench_omp_vs_lambda,
    bench_ls_vs_m,
    bench_correlate_serial_vs_parallel
);
criterion_main!(benches);
