//! Normalized probabilists' Hermite polynomials.
//!
//! The probabilists' Hermite polynomials satisfy the recurrence
//! `He_{n+1}(x) = x·He_n(x) − n·He_{n−1}(x)` and are orthogonal under
//! the standard normal weight with `E[He_m·He_n] = n!·δ_mn`. We work
//! with the *normalized* family `ψ_n = He_n / √(n!)`, which is
//! orthonormal — this is exactly Eq. (2)–(4) of the paper:
//! `ψ_0 = 1`, `ψ_1(x) = x`, `ψ_2(x) = (x² − 1)/√2`, …

/// Evaluates the normalized Hermite polynomial `ψ_n(x)`.
///
/// Uses the stable normalized three-term recurrence
/// `ψ_{n+1} = (x·ψ_n − √n·ψ_{n−1}) / √(n+1)`.
///
/// # Example
///
/// ```
/// use rsm_basis::hermite::psi;
/// assert_eq!(psi(0, 2.0), 1.0);
/// assert_eq!(psi(1, 2.0), 2.0);
/// assert!((psi(2, 2.0) - 3.0 / 2f64.sqrt()).abs() < 1e-15);
/// ```
pub fn psi(n: usize, x: f64) -> f64 {
    match n {
        0 => 1.0,
        1 => x,
        _ => {
            let mut pm1 = 1.0; // ψ_0
            let mut p = x; // ψ_1
            for k in 1..n {
                let next = (x * p - (k as f64).sqrt() * pm1) / ((k + 1) as f64).sqrt();
                pm1 = p;
                p = next;
            }
            p
        }
    }
}

/// Evaluates `ψ_0(x), …, ψ_d(x)` into `out` (which must have length
/// `d + 1`). Costs one recurrence pass — use this in design-matrix
/// construction instead of repeated [`psi`] calls.
///
/// # Panics
///
/// Panics if `out.len() == 0`.
pub fn psi_all(x: f64, out: &mut [f64]) {
    assert!(!out.is_empty(), "psi_all: empty output buffer");
    out[0] = 1.0;
    if out.len() == 1 {
        return;
    }
    out[1] = x;
    // Register recurrence instead of re-reading `out[k]`/`out[k - 1]`:
    // `p`/`pm1` carry ψ_{m-1}, ψ_{m-2} for the slot `m` being written.
    // Same `sqrt` arguments (exact small integers) and operation order
    // as the indexed form, so the table is bit-identical.
    let (mut pm1, mut p) = (1.0, x);
    for (m, o) in out.iter_mut().enumerate().skip(2) {
        let next = (x * p - ((m - 1) as f64).sqrt() * pm1) / (m as f64).sqrt();
        *o = next;
        pm1 = p;
        p = next;
    }
}

/// Nodes and weights of the `n`-point Gauss–Hermite quadrature rule for
/// the *standard normal* weight (∫ f(x)·φ(x) dx ≈ Σ w_i f(x_i)).
///
/// Computed by Golub–Welsch: the nodes are the eigenvalues of the
/// symmetric Jacobi matrix of the probabilists' Hermite recurrence
/// (zero diagonal, off-diagonal `√k`), and the weight at each node is
/// the squared first component of the corresponding eigenvector. Used
/// by the test-suite to verify basis orthonormality by numerical
/// integration.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gauss_hermite(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0, "gauss_hermite: need at least one node");
    use rsm_linalg::eig::SymmetricEigen;
    use rsm_linalg::Matrix;
    let mut jac = Matrix::zeros(n, n);
    for k in 1..n {
        let b = (k as f64).sqrt();
        jac[(k - 1, k)] = b;
        jac[(k, k - 1)] = b;
    }
    #[expect(
        clippy::expect_used,
        reason = "the Golub-Welsch Jacobi matrix is symmetric tridiagonal by construction; eigensolver failure is unreachable"
    )]
    let eig = SymmetricEigen::new(&jac).expect("Jacobi matrix eigendecomposition");
    let mut pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let x = eig.eigenvalues()[i];
            let v0 = eig.eigenvectors()[(0, i)];
            (x, v0 * v0)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let nodes = pairs.iter().map(|p| p.0).collect();
    let weights = pairs.iter().map(|p| p.1).collect();
    (nodes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_few_match_paper_eq3() {
        // ψ_0 = 1, ψ_1 = x, ψ_2 = (x² − 1)/√2 — Eq. (3) of the paper.
        for &x in &[-2.0, -0.5, 0.0, 0.3, 1.7] {
            assert_eq!(psi(0, x), 1.0);
            assert_eq!(psi(1, x), x);
            assert!((psi(2, x) - (x * x - 1.0) / 2f64.sqrt()).abs() < 1e-14);
            let he3 = x * x * x - 3.0 * x;
            assert!((psi(3, x) - he3 / 6f64.sqrt()).abs() < 1e-13);
        }
    }

    #[test]
    fn psi_all_matches_psi() {
        let mut buf = vec![0.0; 9];
        for &x in &[-1.3, 0.0, 0.9, 2.4] {
            psi_all(x, &mut buf);
            for (n, &b) in buf.iter().enumerate() {
                assert!((b - psi(n, x)).abs() < 1e-12, "n={n} x={x}");
            }
        }
    }

    #[test]
    fn orthonormal_under_gauss_hermite_quadrature() {
        // ∫ ψ_i ψ_j φ = δ_ij, integrated exactly by a 20-point rule for
        // i + j ≤ 39.
        let (nodes, weights) = gauss_hermite(20);
        for i in 0..8 {
            for j in 0..8 {
                let s: f64 = nodes
                    .iter()
                    .zip(&weights)
                    .map(|(&x, &w)| w * psi(i, x) * psi(j, x))
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-10, "i={i} j={j} s={s}");
            }
        }
    }

    #[test]
    fn quadrature_weights_sum_to_one() {
        for &n in &[1usize, 2, 5, 16, 32] {
            let (_, w) = gauss_hermite(n);
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-11, "n={n} sum={s}");
        }
    }

    #[test]
    fn quadrature_integrates_moments() {
        // E[z²] = 1, E[z⁴] = 3, E[z⁶] = 15.
        let (nodes, weights) = gauss_hermite(10);
        let moment = |p: i32| -> f64 {
            nodes
                .iter()
                .zip(&weights)
                .map(|(&x, &w)| w * x.powi(p))
                .sum()
        };
        assert!((moment(2) - 1.0).abs() < 1e-11);
        assert!((moment(4) - 3.0).abs() < 1e-10);
        assert!((moment(6) - 15.0).abs() < 1e-9);
        assert!(moment(1).abs() < 1e-11);
        assert!(moment(3).abs() < 1e-10);
    }

    #[test]
    fn monte_carlo_normalization() {
        // Sanity-check E[ψ_n²] = 1 by quadrature at higher order.
        let (nodes, weights) = gauss_hermite(40);
        for n in 0..15 {
            let s: f64 = nodes
                .iter()
                .zip(&weights)
                .map(|(&x, &w)| w * psi(n, x) * psi(n, x))
                .sum();
            assert!((s - 1.0).abs() < 1e-8, "n={n} E[psi^2]={s}");
        }
    }

    #[test]
    #[should_panic(expected = "empty output buffer")]
    fn psi_all_rejects_empty() {
        psi_all(0.0, &mut []);
    }
}
