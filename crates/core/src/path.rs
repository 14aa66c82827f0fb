//! Solution paths: the nested sequence of sparse models a greedy or
//! path-following solver produces as `λ` grows.
//!
//! Cross-validation (Section IV-C) needs the model at *every* `λ` from
//! a single solver run; [`SparsePath`] stores those snapshots.

use crate::model::SparseModel;
use crate::{CoreError, Result};

/// The sequence of models produced as basis functions are added.
///
/// `snapshot(p)` is the model after `p + 1` selection steps; for OMP
/// and STAR that model has `p + 1` non-zero coefficients, for LARS it
/// has at most `p + 1` (the lasso variant can drop variables).
#[derive(Debug, Clone)]
pub struct SparsePath {
    num_bases: usize,
    snapshots: Vec<SparseModel>,
    residual_norms: Vec<f64>,
}

impl SparsePath {
    /// Builds a path from per-step snapshots and the residual L2 norm
    /// after each step.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or the path is empty.
    pub fn new(num_bases: usize, snapshots: Vec<SparseModel>, residual_norms: Vec<f64>) -> Self {
        assert!(!snapshots.is_empty(), "empty solution path");
        assert_eq!(
            snapshots.len(),
            residual_norms.len(),
            "snapshot / residual-norm length mismatch"
        );
        SparsePath {
            num_bases,
            snapshots,
            residual_norms,
        }
    }

    /// Dictionary size `M`.
    #[inline]
    pub fn num_bases(&self) -> usize {
        self.num_bases
    }

    /// Number of steps actually taken (may be less than the requested
    /// `λ` if the solver ran out of informative columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `false` by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The model after `lambda` selection steps, clamped to the last
    /// step available. `lambda = 0` returns the all-zero model.
    pub fn model_at(&self, lambda: usize) -> SparseModel {
        if lambda == 0 {
            return SparseModel::zero(self.num_bases);
        }
        let idx = lambda.min(self.snapshots.len()) - 1;
        self.snapshots[idx].clone()
    }

    /// The final (largest-`λ`) model.
    #[expect(
        clippy::expect_used,
        reason = "RegularizationPath constructors record at least one snapshot; emptiness is a construction bug"
    )]
    pub fn final_model(&self) -> &SparseModel {
        self.snapshots.last().expect("non-empty path")
    }

    /// Residual L2 norms after each step (same indexing as snapshots).
    pub fn residual_norms(&self) -> &[f64] {
        &self.residual_norms
    }

    /// Iterates `(lambda, model)` pairs, `lambda = 1..=len()`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SparseModel)> + '_ {
        self.snapshots.iter().enumerate().map(|(i, m)| (i + 1, m))
    }
}

/// The path a solver traced, or [`CoreError::Unsolvable`] if it
/// recorded no snapshot (no informative atom at the first step).
pub(crate) fn traced_path(
    m: usize,
    snapshots: Vec<SparseModel>,
    residual_norms: Vec<f64>,
) -> Result<SparsePath> {
    if snapshots.is_empty() {
        return Err(CoreError::Unsolvable(
            "no informative basis vector found".into(),
        ));
    }
    Ok(SparsePath::new(m, snapshots, residual_norms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_path() -> SparsePath {
        let s1 = SparseModel::new(5, vec![(2, 1.0)]);
        let s2 = SparseModel::new(5, vec![(2, 1.1), (4, -0.3)]);
        SparsePath::new(5, vec![s1, s2], vec![0.5, 0.1])
    }

    #[test]
    fn model_at_clamps_and_zero() {
        let p = toy_path();
        assert_eq!(p.model_at(0), SparseModel::zero(5));
        assert_eq!(p.model_at(1).num_nonzeros(), 1);
        assert_eq!(p.model_at(2).num_nonzeros(), 2);
        // Clamped past the end.
        assert_eq!(p.model_at(99).num_nonzeros(), 2);
    }

    #[test]
    fn iter_yields_one_based_lambdas() {
        let p = toy_path();
        let lambdas: Vec<usize> = p.iter().map(|(l, _)| l).collect();
        assert_eq!(lambdas, vec![1, 2]);
    }

    #[test]
    fn residuals_align() {
        let p = toy_path();
        assert_eq!(p.residual_norms(), &[0.5, 0.1]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.final_model().num_nonzeros(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let s = SparseModel::zero(3);
        let _ = SparsePath::new(3, vec![s], vec![]);
    }

    #[test]
    #[should_panic(expected = "empty solution path")]
    fn empty_path_panics() {
        let _ = SparsePath::new(3, vec![], vec![]);
    }
}
