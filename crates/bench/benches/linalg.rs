//! Criterion benches of the dense linear-algebra kernels.
//!
//! Documents the cost of the primitives the solvers are built on, and
//! in particular the incremental-vs-batch QR gap that makes OMP's
//! per-step re-fit affordable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::qr::{IncrementalQr, QrDecomposition};
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;
use std::hint::black_box;

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = NormalSampler::seed_from_u64(seed);
    Matrix::from_fn(r, c, |_, _| rng.sample())
}

fn spd(n: usize, seed: u64) -> Matrix {
    let b = random_matrix(n + 4, n, seed);
    let mut g = b.gram();
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr");
    group.sample_size(10);
    for &n in &[50usize, 150, 400] {
        let a = random_matrix(3 * n, n, 7);
        group.bench_with_input(BenchmarkId::new("householder", n), &n, |b, _| {
            b.iter(|| QrDecomposition::new(black_box(&a)).unwrap())
        });
    }
    group.finish();
}

fn bench_incremental_qr_append(c: &mut Criterion) {
    // Appending column p+1 to an existing p-column factorization:
    // O(K·p) — the OMP inner step.
    let mut group = c.benchmark_group("incremental_qr_append");
    let k = 1000;
    let cols = random_matrix(k, 120, 9);
    for &p in &[20usize, 60, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let mut qr = IncrementalQr::new(k);
            for j in 0..p {
                qr.push_column(&cols.col(j)).unwrap();
            }
            let next = cols.col(p);
            b.iter_batched(
                || qr.clone(),
                |mut q| q.push_column(black_box(&next)).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorizations");
    group.sample_size(10);
    for &n in &[30usize, 100, 300] {
        let a = spd(n, 3);
        group.bench_with_input(BenchmarkId::new("lu", n), &n, |b, _| {
            b.iter(|| LuDecomposition::new(black_box(&a)).unwrap())
        });
    }
    group.finish();
}

fn bench_matvec_t(c: &mut Criterion) {
    // Gᵀ·res over the whole dictionary: the dominant OMP/STAR/LAR op.
    let mut group = c.benchmark_group("design_matvec_t");
    group.sample_size(20);
    for &m in &[1_000usize, 10_000, 21_311] {
        let g = random_matrix(1_000, m, 5);
        let r: Vec<f64> = (0..1_000).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| g.matvec_t(black_box(&r)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_qr,
    bench_incremental_qr_append,
    bench_lu,
    bench_matvec_t
);
criterion_main!(benches);
