//! Classical least-squares fitting — the baseline of Myers &
//! Montgomery (reference \[21\] of the paper).
//!
//! Solves the *over-determined* system `G·α = F` by QR; requires
//! `K ≥ M`. This is the method whose sample cost the sparse solvers
//! beat by 2–25× in the paper's tables.

use crate::model::SparseModel;
use crate::source::AtomSource;
use crate::{check_response, CoreError, Result};
use rsm_linalg::qr::QrDecomposition;
use rsm_linalg::Matrix;

/// Fits all `M` coefficients of `G·α = F` by least squares.
///
/// The result is returned as a [`SparseModel`] for interface
/// uniformity; it is in general dense (`‖α‖₀ ≈ M`).
///
/// LS genuinely needs the full dense `G` (a QR factorization is not a
/// streaming operation), so the preconditions — crucially `K ≥ M` — are
/// checked *before* anything is allocated, and only then is the `K×M`
/// matrix gathered through [`AtomSource::columns_into`]. Because LS is
/// only legal in the overdetermined regime, the gather is bounded by
/// `K²` doubles and the huge-`M` streaming problem a
/// [`crate::source::DictionarySource`] exists for can never reach it.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
/// - [`CoreError::BadConfig`] if `f` is non-finite, or naming the
///   first atom whose column holds a non-finite entry;
/// - [`CoreError::Unsolvable`] if `K < M` (the underdetermined case
///   this paper exists to solve — use OMP/LAR/STAR) or if `G` is
///   rank-deficient.
pub fn fit<S: AtomSource + ?Sized>(g: &S, f: &[f64]) -> Result<SparseModel> {
    check_response(g, f)?;
    let (k, m) = (g.num_rows(), g.num_atoms());
    if k < m {
        return Err(CoreError::Unsolvable(format!(
            "least squares needs K >= M (got K = {k}, M = {m}); \
             use OMP/LAR/STAR for underdetermined systems"
        )));
    }
    let js: Vec<usize> = (0..m).collect();
    let mut dense = Matrix::zeros(k, m);
    g.columns_into(&js, &mut dense);
    // A non-finite entry would factor into `NaN` coefficients. The
    // gathered design is row-major: entry i lies in column i % m.
    let first_bad = dense
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_finite())
        .map(|(i, _)| i % m)
        .min();
    if let Some(j) = first_bad {
        return Err(CoreError::BadConfig(format!(
            "atom {j}'s column holds a non-finite entry"
        )));
    }
    let qr = QrDecomposition::new(&dense)
        .map_err(|e| CoreError::Numerical(format!("QR factorization failed: {e}")))?;
    let alpha = qr
        .solve_least_squares(f)
        .map_err(|e| CoreError::Unsolvable(format!("rank-deficient design matrix: {e}")))?;
    Ok(SparseModel::new(m, alpha.into_iter().enumerate().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::NormalSampler;

    #[test]
    fn exact_fit_on_square_system() {
        let g = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let model = fit(&g, &[2.0, 5.0]).unwrap();
        assert!((model.coefficient(0).unwrap() - 2.0).abs() < 1e-12);
        assert!((model.coefficient(1).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_recovers_truth() {
        let mut s = NormalSampler::seed_from_u64(1);
        let g = Matrix::from_fn(50, 5, |_, _| s.sample());
        let truth = [1.0, -2.0, 0.0, 0.5, 3.0];
        let f = g.matvec(&truth).unwrap();
        let model = fit(&g, &f).unwrap();
        let dense = model.to_dense();
        for (a, b) in dense.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minimizes_residual_against_perturbations() {
        let mut s = NormalSampler::seed_from_u64(2);
        let g = Matrix::from_fn(30, 3, |_, _| s.sample());
        let f: Vec<f64> = (0..30).map(|_| s.sample()).collect();
        let model = fit(&g, &f).unwrap();
        let base: f64 = {
            let p = model.predict_matrix(&g);
            p.iter().zip(&f).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        // Any coordinate perturbation must not reduce the cost.
        for j in 0..3 {
            for delta in [-1e-3, 1e-3] {
                let mut dense = model.to_dense();
                dense[j] += delta;
                let cost: f64 = (0..30)
                    .map(|r| {
                        let pred: f64 = g.row(r).iter().zip(&dense).map(|(x, a)| x * a).sum();
                        (pred - f[r]) * (pred - f[r])
                    })
                    .sum();
                assert!(cost >= base - 1e-12);
            }
        }
    }

    #[test]
    fn underdetermined_rejected_with_guidance() {
        let g = Matrix::zeros(3, 5);
        match fit(&g, &[0.0; 3]) {
            Err(CoreError::Unsolvable(msg)) => assert!(msg.contains("OMP")),
            other => panic!("expected Unsolvable, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = Matrix::identity(3);
        assert!(matches!(
            fit(&g, &[1.0, 2.0]),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_deficiency_reported() {
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            fit(&g, &[1.0, 2.0, 3.0]),
            Err(CoreError::Unsolvable(_))
        ));
    }
}
