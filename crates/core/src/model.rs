//! The sparse model produced by every solver.

use rsm_basis::{Atom, Dictionary};
use rsm_linalg::{tol, Matrix};
use serde::{Deserialize, Serialize};

/// Row-chunk length for [`SparseModel::predict_rows`]. A function of
/// nothing but this constant and the batch size, so the chunk grid —
/// and therefore the result bits — never depend on the thread count.
const BATCH_ROW_CHUNK: usize = 256;

/// A sparse coefficient vector `α`: the solution of `G·α ≈ F` with only
/// a few non-zeros (Step 9 of Algorithm 1 sets every unselected
/// coefficient to exactly zero).
///
/// Coefficients are stored as sorted `(basis index, value)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseModel {
    /// Total dictionary size `M`.
    num_bases: usize,
    /// Sorted, deduplicated `(index, coefficient)` pairs.
    coeffs: Vec<(usize, f64)>,
}

impl SparseModel {
    /// Builds a model from coefficient pairs (merged and sorted;
    /// duplicate indices are summed, zero entries dropped).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_bases`.
    pub fn new(num_bases: usize, coeffs: Vec<(usize, f64)>) -> Self {
        let mut c = coeffs;
        c.sort_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(c.len());
        for (i, v) in c {
            assert!(i < num_bases, "coefficient index {i} >= M = {num_bases}");
            match merged.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => merged.push((i, v)),
            }
        }
        merged.retain(|&(_, v)| !tol::exactly_zero(v));
        SparseModel {
            num_bases,
            coeffs: merged,
        }
    }

    /// The all-zero model over `M` bases.
    pub fn zero(num_bases: usize) -> Self {
        SparseModel {
            num_bases,
            coeffs: Vec::new(),
        }
    }

    /// Dictionary size `M`.
    #[inline]
    pub fn num_bases(&self) -> usize {
        self.num_bases
    }

    /// Number of non-zero coefficients — the `‖α‖₀` the paper's
    /// regularization constrains.
    #[inline]
    pub fn num_nonzeros(&self) -> usize {
        self.coeffs.len()
    }

    /// Sorted indices of the non-zero coefficients.
    pub fn support(&self) -> Vec<usize> {
        self.coeffs.iter().map(|&(i, _)| i).collect()
    }

    /// The non-zero `(index, coefficient)` pairs, sorted by index.
    pub fn coefficients(&self) -> &[(usize, f64)] {
        &self.coeffs
    }

    /// Coefficient at basis `i` (`None` if zero / unselected).
    pub fn coefficient(&self, i: usize) -> Option<f64> {
        self.coeffs
            .binary_search_by_key(&i, |&(j, _)| j)
            .ok()
            .map(|k| self.coeffs[k].1)
    }

    /// Densifies into a full-length coefficient vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.num_bases];
        for &(i, c) in &self.coeffs {
            v[i] = c;
        }
        v
    }

    /// Predicts the response for one design-matrix row (all `M` basis
    /// values at a sample point): `Σ α_i·g_i`.
    ///
    /// # Panics
    ///
    /// Panics if the row is shorter than a selected index, and in debug
    /// builds whenever `row.len()` is not the model's basis count `M`.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(
            row.len(),
            self.num_bases,
            "predict_row: design row width is not the basis count"
        );
        self.coeffs.iter().map(|&(i, c)| c * row[i]).sum()
    }

    /// Predicts responses for every row of a design matrix.
    pub fn predict_matrix(&self, g: &Matrix) -> Vec<f64> {
        (0..g.rows()).map(|r| self.predict_row(g.row(r))).collect()
    }

    /// Predicts using sparse evaluation of a basis dictionary at a raw
    /// sample point `ΔY` — only the selected terms are evaluated, so
    /// prediction cost is `O(‖α‖₀)` instead of `O(M)`.
    pub fn predict_point(&self, dict: &Dictionary, dy: &[f64]) -> f64 {
        let terms = self.coeffs.iter().map(|&(m, c)| (dict.atom(m), c));
        score(terms, dict, dy)
    }

    /// Batched sparse prediction: scores every row of `points` (raw
    /// `ΔY` sample points, one per row) against the dictionary.
    ///
    /// The column check of [`Self::predict_rows`] for a [`Matrix`] of
    /// points; see there for the evaluation and its bit contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`](crate::CoreError) when the
    /// point dimension disagrees with the dictionary, or when the
    /// dictionary size disagrees with the model's basis count.
    pub fn predict_batch(&self, dict: &Dictionary, points: &Matrix) -> crate::Result<Vec<f64>> {
        if points.cols() != dict.num_vars() {
            return Err(crate::CoreError::ShapeMismatch {
                expected: format!("points with {} columns", dict.num_vars()),
                found: format!("{} columns", points.cols()),
            });
        }
        self.predict_rows(dict, points.as_slice())
    }

    /// Batched sparse prediction over row-major points: `points` holds
    /// `dict.num_vars()` coordinates per point.
    ///
    /// This is the workspace's single serving-side evaluator — the
    /// `rsm predict` CSV path (through [`Self::predict_batch`]) and the
    /// `rsm serve` wire path both call it. The support is decoded into
    /// [`Atom`]s once per call, and only those terms are evaluated per
    /// row, so a batch costs `O(K·‖α‖₀)` term evaluations instead of
    /// `O(K·M)`. Rows fan out over `rsm_runtime`'s fixed-order chunk
    /// grid ([`rsm_runtime::par_chunks_reduce`]), and each row sums
    /// `c·g` in support order exactly as [`Self::predict_point`] does,
    /// so the output is **bit-identical** to a serial per-point loop at
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`](crate::CoreError) when the
    /// coordinate count is not a multiple of the point dimension, or
    /// when the dictionary size disagrees with the model's basis count.
    pub fn predict_rows(&self, dict: &Dictionary, points: &[f64]) -> crate::Result<Vec<f64>> {
        let n = dict.num_vars();
        if !points.len().is_multiple_of(n) {
            return Err(crate::CoreError::ShapeMismatch {
                expected: format!("points with {n} columns"),
                found: format!("{} coordinates", points.len()),
            });
        }
        if dict.len() != self.num_bases {
            return Err(crate::CoreError::ShapeMismatch {
                expected: format!("dictionary of {} bases", self.num_bases),
                found: format!("{} bases", dict.len()),
            });
        }
        let terms: Vec<(Atom, f64)> = self
            .coeffs
            .iter()
            .map(|&(m, c)| (dict.atom(m), c))
            .collect();
        let k = points.len() / n;
        let mut out: Vec<f64> = Vec::with_capacity(k);
        rsm_runtime::par_chunks_reduce(
            k,
            BATCH_ROW_CHUNK,
            |rows| {
                points[rows.start * n..rows.end * n]
                    .chunks_exact(n)
                    .map(|dy| score(terms.iter().copied(), dict, dy))
                    .collect::<Vec<f64>>()
            },
            |chunk| out.extend_from_slice(&chunk),
        );
        Ok(out)
    }

    /// L1 norm of the coefficient vector (what LAR's relaxation
    /// constrains).
    pub fn l1_norm(&self) -> f64 {
        self.coeffs.iter().map(|&(_, c)| c.abs()).sum()
    }

    /// A human-readable report: terms sorted by decreasing |coefficient|,
    /// one per line, rendered through the dictionary (`y3`, `ψ2(y0)`,
    /// `y1·y7`, …). The paper's Fig. 6 in text form.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write into a String cannot fail"
    )]
    pub fn describe(&self, dict: &Dictionary) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(usize, f64)> = self.coeffs.clone();
        rows.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} of {} coefficients non-zero",
            rows.len(),
            self.num_bases
        );
        for (rank, (m, c)) in rows.iter().enumerate() {
            let _ = writeln!(out, "{:>4}  {:>14.6e}  {}", rank + 1, c, dict.atom(*m));
        }
        out
    }

    /// Mean and variance of the modeled response under `ΔY ~ N(0, I)`,
    /// exploiting basis orthonormality: the mean is the constant-term
    /// coefficient (basis 0 by convention) and the variance is the sum
    /// of squares of all other coefficients.
    ///
    /// Only meaningful when the model was fit over an orthonormal
    /// dictionary whose index 0 is the constant term.
    pub fn response_moments(&self) -> (f64, f64) {
        let mean = self.coefficient(0).unwrap_or(0.0);
        let var = self
            .coeffs
            .iter()
            .filter(|&&(i, _)| i != 0)
            .map(|&(_, c)| c * c)
            .sum();
        (mean, var)
    }
}

/// `Σ c·g(dy)` over decoded `(atom, c)` terms, in the order given: the
/// one expression behind [`SparseModel::predict_point`] and
/// [`SparseModel::predict_rows`], so both produce the same bits.
// Without the hint the row loop calls it out of line: 86 against 60 ns
// per point (N = 64 quadratic, 32 terms, one thread of a 2-vCPU Xeon).
#[inline]
fn score(terms: impl Iterator<Item = (Atom, f64)>, dict: &Dictionary, dy: &[f64]) -> f64 {
    terms.map(|(a, c)| c * dict.eval_atom(a, dy)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_basis::{Dictionary, DictionaryKind};
    use rsm_linalg::Matrix;

    #[test]
    fn construction_merges_sorts_and_drops_zeros() {
        let m = SparseModel::new(10, vec![(5, 1.0), (2, 3.0), (5, -1.0), (7, 0.0)]);
        assert_eq!(m.coefficients(), &[(2, 3.0)]);
        assert_eq!(m.num_nonzeros(), 1);
        assert_eq!(m.support(), vec![2]);
    }

    #[test]
    #[should_panic(expected = ">= M")]
    fn out_of_range_index_panics() {
        let _ = SparseModel::new(3, vec![(3, 1.0)]);
    }

    #[test]
    fn coefficient_lookup() {
        let m = SparseModel::new(6, vec![(1, 2.0), (4, -0.5)]);
        assert_eq!(m.coefficient(1), Some(2.0));
        assert_eq!(m.coefficient(4), Some(-0.5));
        assert_eq!(m.coefficient(0), None);
        assert_eq!(m.coefficient(5), None);
    }

    #[test]
    fn dense_roundtrip() {
        let m = SparseModel::new(4, vec![(0, 1.0), (3, 2.0)]);
        assert_eq!(m.to_dense(), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn predictions() {
        let m = SparseModel::new(3, vec![(0, 2.0), (2, -1.0)]);
        assert!((m.predict_row(&[1.0, 9.0, 4.0]) - (2.0 - 4.0)).abs() < 1e-15);
        let g = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[1.0, 0.0, -1.0]]).unwrap();
        assert_eq!(m.predict_matrix(&g), vec![1.0, 3.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "design row width is not the basis count")]
    fn predict_row_rejects_a_row_of_the_wrong_width() {
        // Every selected index is in range, so only the width check
        // can catch the row of a different design.
        let m = SparseModel::new(3, vec![(0, 2.0), (2, -1.0)]);
        let _ = m.predict_row(&[1.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn predict_point_matches_dense_evaluation() {
        let dict = Dictionary::new(3, DictionaryKind::Quadratic);
        let m = SparseModel::new(dict.len(), vec![(0, 0.5), (2, 1.5), (7, -2.0)]);
        let dy = [0.4, -1.0, 0.7];
        let mut row = vec![0.0; dict.len()];
        dict.eval_point_into(&dy, &mut row);
        let dense = m.predict_row(&row);
        let sparse = m.predict_point(&dict, &dy);
        assert!((dense - sparse).abs() < 1e-13);
    }

    #[test]
    fn predict_batch_matches_predict_point_bitwise() {
        for (n, kind) in [(7, DictionaryKind::Linear), (9, DictionaryKind::Quadratic)] {
            let dict = Dictionary::new(n, kind);
            let m = dict.len();
            // The constant, a linear, a pure-quadratic (on the quadratic
            // dictionary), a cross and the last term.
            let support = [0, 1, (3 * n / 2).min(m - 1), m / 2, m - 1];
            let coeffs = support.into_iter().zip([0.5, 0.3, -1.7, 0.25, 1.125]);
            let model = SparseModel::new(m, coeffs.collect());
            // One row, and more rows than one chunk so the chunk grid
            // is exercised.
            for k in [1, 700] {
                let pts = Matrix::from_fn(k, n, |r, c| ((r * 7 + c) as f64 * 0.13).sin() * 1.7);
                for threads in [1usize, 4] {
                    rsm_runtime::set_threads(threads);
                    let batch = model.predict_batch(&dict, &pts).unwrap();
                    let rows = model.predict_rows(&dict, pts.as_slice()).unwrap();
                    assert_eq!(batch.len(), k);
                    assert_eq!(rows.len(), k);
                    for (r, (&b, &w)) in batch.iter().zip(&rows).enumerate() {
                        let p = model.predict_point(&dict, pts.row(r));
                        let at = format!("{kind:?} row {r} of {k} @ {threads} threads");
                        assert_eq!(p.to_bits(), b.to_bits(), "{at}");
                        assert_eq!(p.to_bits(), w.to_bits(), "{at}");
                    }
                }
            }
        }
        rsm_runtime::set_threads(0);
    }

    #[test]
    fn predict_batch_rejects_shape_mismatches() {
        let dict = Dictionary::new(3, DictionaryKind::Linear);
        let m = SparseModel::new(dict.len(), vec![(1, 1.0)]);
        let wrong_cols = Matrix::zeros(5, 2);
        assert!(m.predict_batch(&dict, &wrong_cols).is_err());
        let wrong_dict = Dictionary::new(5, DictionaryKind::Linear);
        assert!(m.predict_batch(&wrong_dict, &Matrix::zeros(5, 5)).is_err());
        // Row-major points must hold whole points.
        assert!(m.predict_rows(&dict, &[0.0; 7]).is_err());
        assert!(m.predict_rows(&wrong_dict, &[0.0; 5]).is_err());
        assert_eq!(m.predict_rows(&dict, &[1.0, 2.0, 3.0]).unwrap(), vec![1.0]);
        // Empty batch is fine.
        assert!(m
            .predict_batch(&dict, &Matrix::zeros(0, 3))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn norms() {
        let m = SparseModel::new(5, vec![(1, 3.0), (2, -4.0)]);
        assert!((m.l1_norm() - 7.0).abs() < 1e-15);
        assert_eq!(SparseModel::zero(5).l1_norm(), 0.0);
    }

    #[test]
    fn moments_from_orthonormal_coefficients() {
        let m = SparseModel::new(8, vec![(0, 1.5), (3, 2.0), (6, -1.0)]);
        let (mean, var) = m.response_moments();
        assert!((mean - 1.5).abs() < 1e-15);
        assert!((var - 5.0).abs() < 1e-15);
    }

    #[test]
    fn describe_sorts_by_magnitude_and_names_terms() {
        let dict = Dictionary::new(3, DictionaryKind::Quadratic);
        let m = SparseModel::new(dict.len(), vec![(0, 0.5), (2, -3.0), (4, 1.0)]);
        let report = m.describe(&dict);
        assert!(report.starts_with("3 of 10 coefficients non-zero"));
        let lines: Vec<&str> = report.lines().skip(1).collect();
        assert!(lines[0].contains("y1"), "first line: {}", lines[0]);
        assert!(lines[1].contains("ψ2(y0)") || lines[1].contains("1"));
        // Magnitudes non-increasing.
        let mags: Vec<f64> = lines
            .iter()
            .map(|l| {
                l.split_whitespace()
                    .nth(1)
                    .unwrap()
                    .parse::<f64>()
                    .unwrap()
                    .abs()
            })
            .collect();
        for w in mags.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let m = SparseModel::new(100, vec![(3, 1.25), (42, -0.75)]);
        let json = serde_json::to_string(&m).unwrap();
        let back: SparseModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
