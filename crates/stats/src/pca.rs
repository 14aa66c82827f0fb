//! Principal component analysis of correlated jointly-normal process
//! parameters (Section II of the paper).
//!
//! Given `ΔX ~ N(0, Σ)`, PCA finds `Σ = V·diag(λ)·Vᵀ` and the
//! whitening map `ΔY = diag(λ)^{-1/2}·Vᵀ·ΔX`, producing independent
//! standard-normal factors `ΔY`. The inverse (coloring) map
//! `ΔX = V·diag(λ)^{1/2}·ΔY` is what the sampling pipeline uses to
//! drive the circuit simulator from independent factors.

use rsm_linalg::eig::SymmetricEigen;
use rsm_linalg::{LinalgError, Matrix};

use crate::rng::NormalSampler;

/// A PCA / whitening transform derived from a covariance matrix.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Eigenvalues in descending order, truncated to the retained rank.
    eigenvalues: Vec<f64>,
    /// `N × r` matrix of retained principal directions (columns).
    components: Matrix,
    n: usize,
}

impl Pca {
    /// Computes PCA from a covariance matrix, retaining components with
    /// eigenvalue above `rel_tol · λ_max` (pass `0.0` to keep all
    /// non-negative components).
    ///
    /// # Errors
    ///
    /// - Propagates eigensolver errors ([`LinalgError::ShapeMismatch`],
    ///   [`LinalgError::NoConvergence`]);
    /// - [`LinalgError::NotPositiveDefinite`] if the most negative
    ///   eigenvalue is materially negative (beyond round-off), i.e. the
    ///   input is not a covariance matrix.
    pub fn from_covariance(cov: &Matrix, rel_tol: f64) -> Result<Self, LinalgError> {
        let eig = SymmetricEigen::new(cov)?;
        let lam = eig.eigenvalues();
        let n = cov.rows();
        let lmax = lam.first().copied().unwrap_or(0.0).max(0.0);
        if let Some(&lmin) = lam.last() {
            if lmin < -1e-8 * lmax.max(1.0) {
                return Err(LinalgError::NotPositiveDefinite { index: n - 1 });
            }
        }
        let thresh = (rel_tol * lmax).max(0.0);
        let r = lam.iter().filter(|&&l| l > thresh).count().max(1);
        let keep: Vec<usize> = (0..r).collect();
        Ok(Pca {
            eigenvalues: lam[..r].to_vec(),
            components: eig.eigenvectors().select_cols(&keep),
            n,
        })
    }

    /// Computes PCA from data rows (one sample per row) by forming the
    /// sample covariance about the sample mean.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if fewer than two
    /// samples are supplied; otherwise as [`Self::from_covariance`].
    pub fn from_samples(data: &Matrix, rel_tol: f64) -> Result<Self, LinalgError> {
        let (k, n) = data.shape();
        if k < 2 {
            return Err(LinalgError::InvalidArgument(
                "PCA needs at least two samples".into(),
            ));
        }
        let mut means = vec![0.0; n];
        for r in 0..k {
            for (j, m) in means.iter_mut().enumerate() {
                *m += data[(r, j)];
            }
        }
        for m in &mut means {
            *m /= k as f64;
        }
        let mut cov = Matrix::zeros(n, n);
        for r in 0..k {
            let row = data.row(r);
            for i in 0..n {
                let di = row[i] - means[i];
                for j in i..n {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        let denom = (k - 1) as f64;
        for i in 0..n {
            for j in i..n {
                cov[(i, j)] /= denom;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        Self::from_covariance(&cov, rel_tol)
    }

    /// Retained latent dimension `r ≤ N`.
    #[inline]
    pub fn latent_dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Retained eigenvalues (variances along principal directions),
    /// descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Retained principal directions as columns of an `N × r` matrix.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Fraction of total variance captured by the first `r'` components,
    /// for each `r' = 1..=r`.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        let mut acc = 0.0;
        self.eigenvalues
            .iter()
            .map(|&l| {
                acc += l;
                if total > 0.0 {
                    acc / total
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Whitens a (zero-mean) parameter vector:
    /// `ΔY = diag(λ)^{-1/2} Vᵀ ΔX`.
    ///
    /// # Panics
    ///
    /// Panics if `dx.len() != N`.
    pub fn whiten(&self, dx: &[f64]) -> Vec<f64> {
        assert_eq!(dx.len(), self.n, "whiten: dimension mismatch");
        let r = self.latent_dim();
        let mut y = vec![0.0; r];
        for (j, yj) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for i in 0..self.n {
                s += self.components[(i, j)] * dx[i];
            }
            *yj = s / self.eigenvalues[j].sqrt();
        }
        y
    }

    /// Colors an independent standard-normal factor vector back into
    /// parameter space: `ΔX = V diag(λ)^{1/2} ΔY`.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != latent_dim()`.
    pub fn color(&self, dy: &[f64]) -> Vec<f64> {
        let r = self.latent_dim();
        assert_eq!(dy.len(), r, "color: dimension mismatch");
        let mut x = vec![0.0; self.n];
        for (j, &yj) in dy.iter().enumerate() {
            let s = self.eigenvalues[j].sqrt() * yj;
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += self.components[(i, j)] * s;
            }
        }
        x
    }

    /// Draws one correlated parameter sample `ΔX` by coloring an
    /// independent standard-normal draw.
    pub fn sample(&self, sampler: &mut NormalSampler) -> Vec<f64> {
        let dy = sampler.sample_vec(self.latent_dim());
        self.color(&dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe;

    fn toy_cov() -> Matrix {
        // 3-var covariance with strong correlation between vars 0 and 1.
        Matrix::from_rows(&[&[2.0, 1.2, 0.0], &[1.2, 1.0, 0.0], &[0.0, 0.0, 0.5]]).unwrap()
    }

    #[test]
    fn whiten_color_roundtrip() {
        let pca = Pca::from_covariance(&toy_cov(), 0.0).unwrap();
        let dy = [0.3, -1.2, 2.0];
        let dx = pca.color(&dy);
        let back = pca.whiten(&dx);
        for (a, b) in back.iter().zip(&dy) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn colored_samples_have_target_covariance() {
        let cov = toy_cov();
        let pca = Pca::from_covariance(&cov, 0.0).unwrap();
        let mut s = NormalSampler::seed_from_u64(77);
        let k = 60_000;
        let mut acc = Matrix::zeros(3, 3);
        for _ in 0..k {
            let x = pca.sample(&mut s);
            for i in 0..3 {
                for j in 0..3 {
                    acc[(i, j)] += x[i] * x[j];
                }
            }
        }
        acc.scale(1.0 / k as f64);
        assert!(acc.max_abs_diff(&cov).unwrap() < 0.05);
    }

    #[test]
    fn whitened_factors_are_uncorrelated_standard() {
        let pca = Pca::from_covariance(&toy_cov(), 0.0).unwrap();
        let mut s = NormalSampler::seed_from_u64(5);
        let k = 40_000;
        let mut y0 = Vec::with_capacity(k);
        let mut y1 = Vec::with_capacity(k);
        for _ in 0..k {
            let x = pca.sample(&mut s);
            let y = pca.whiten(&x);
            y0.push(y[0]);
            y1.push(y[1]);
        }
        assert!((describe::variance(&y0) - 1.0).abs() < 0.05);
        assert!((describe::variance(&y1) - 1.0).abs() < 0.05);
        assert!(describe::correlation(&y0, &y1).abs() < 0.03);
    }

    #[test]
    fn eigenvalues_descending_and_sum_to_trace() {
        let cov = toy_cov();
        let pca = Pca::from_covariance(&cov, 0.0).unwrap();
        let lam = pca.eigenvalues();
        for w in lam.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let tr = 2.0 + 1.0 + 0.5;
        assert!((lam.iter().sum::<f64>() - tr).abs() < 1e-10);
    }

    #[test]
    fn rank_truncation_drops_null_directions() {
        // Rank-1 covariance: x0 = x1 exactly.
        let cov = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let pca = Pca::from_covariance(&cov, 1e-10).unwrap();
        assert_eq!(pca.latent_dim(), 1);
        assert!((pca.eigenvalues()[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn explained_variance_monotone_to_one() {
        let pca = Pca::from_covariance(&toy_cov(), 0.0).unwrap();
        let ratios = pca.explained_variance_ratio();
        for w in ratios.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((ratios.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_covariance_rejected() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(matches!(
            Pca::from_covariance(&m, 0.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn from_samples_recovers_structure() {
        // Generate samples from a known covariance, re-estimate by PCA.
        let cov = toy_cov();
        let gen = Pca::from_covariance(&cov, 0.0).unwrap();
        let mut s = NormalSampler::seed_from_u64(31);
        let k = 20_000;
        let data = Matrix::from_fn(k, 3, |_, _| 0.0);
        let mut data = data;
        for r in 0..k {
            let x = gen.sample(&mut s);
            data.row_mut(r).copy_from_slice(&x);
        }
        let est = Pca::from_samples(&data, 0.0).unwrap();
        let lam_true = gen.eigenvalues();
        let lam_est = est.eigenvalues();
        for (t, e) in lam_true.iter().zip(lam_est) {
            assert!((t - e).abs() < 0.08, "{t} vs {e}");
        }
    }

    #[test]
    fn from_samples_needs_two_rows() {
        let data = Matrix::zeros(1, 3);
        assert!(Pca::from_samples(&data, 0.0).is_err());
    }
}
