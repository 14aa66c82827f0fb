//! Free-function kernels on `&[f64]` slices.
//!
//! These are the hot inner loops of the whole workspace (OMP spends
//! most of its time in [`dot`] across dictionary columns), so they are
//! kept monomorphic and allocation-free.

use crate::tol;

/// Dot product `xᵀ·y`.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length; in release
/// builds the shorter length governs.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: measurably faster than a naive
    // fold on long columns and slightly more accurate (four partial sums).
    let n = x.len().min(y.len());
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    // Lockstep `chunks_exact` keeps the same four partial sums in the
    // same order as the indexed unroll it replaced, so the result is
    // bit-identical — while letting LLVM drop the bounds checks.
    for (cx, cy) in x[..4 * chunks]
        .chunks_exact(4)
        .zip(y[..4 * chunks].chunks_exact(4))
    {
        s0 += cx[0] * cy[0];
        s1 += cx[1] * cy[1];
        s2 += cx[2] * cy[2];
        s3 += cx[3] * cy[3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (x_it, y_it) in x[4 * chunks..n].iter().zip(&y[4 * chunks..n]) {
        s += (*x_it) * (*y_it);
    }
    s
}

/// Euclidean (L2) norm `||x||₂`, computed with overflow-safe scaling.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if !tol::exactly_zero(v) {
            let a = v.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y ← y + alpha·x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_is_scale_safe() {
        let x = [3e200, 4e200];
        assert!((norm2(&x) - 5e200).abs() / 5e200 < 1e-14);
        let tiny = [3e-200, 4e-200];
        assert!((norm2(&tiny) - 5e-200).abs() / 5e-200 < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norms_simple_values() {
        let x = [1.0, -2.0, 2.0];
        assert!((norm2(&x) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }
}
