//! The sparse model produced by every solver.

use crate::CoreError;
use rsm_basis::{Atom, Dictionary};
use rsm_linalg::{tol, Matrix};
use serde::{Deserialize, Serialize};

/// Points [`SparseModel::predict_rows`] scores in lockstep: each term
/// is added to this many sums at once, so that many chains of adds
/// overlap where one point's chain would wait on each add. Scoring
/// 4 099 points (N = 64 quadratic, 32 terms; best call of each of 5
/// runs on a 2-vCPU Xeon) took 154–165 µs at 4 points, 140–147 µs at 8
/// and 138–145 µs at 16.
const LOCKSTEP: usize = 8;

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
        let [y] = score(terms, dict, [dy]);
        y
    }

    /// Batched sparse prediction: scores every row of `points` (raw
    /// `ΔY` sample points, one per row) against the dictionary.
    ///
    /// The column check of [`Self::predict_rows`] for a [`Matrix`] of
    /// points; see there for the evaluation and its bit contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] when the point dimension
    /// disagrees with the dictionary, or when the dictionary size
    /// disagrees with the model's basis count, and
    /// [`CoreError::NonFinite`] naming the first NaN or infinite
    /// coordinate.
    pub fn predict_batch(&self, dict: &Dictionary, points: &Matrix) -> crate::Result<Vec<f64>> {
        if points.cols() != dict.num_vars() {
            return Err(CoreError::ShapeMismatch {
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
    /// point, so a batch costs `O(K·‖α‖₀)` term evaluations instead of
    /// `O(K·M)`. The batch is scored in one serial pass on the calling
    /// thread, in blocks of 8 points: a block's coordinates are checked
    /// for finiteness, then each term is added to the block's 8 sums in
    /// support order. The last points of a batch that fill no block are
    /// scored one at a time. Every point sums `c·g` exactly as
    /// [`Self::predict_point`] does, so the output is **bit-identical**
    /// to a per-point loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] when the coordinate count is
    /// not a multiple of the point dimension, or when the dictionary
    /// size disagrees with the model's basis count, and
    /// [`CoreError::NonFinite`] naming the first NaN or infinite
    /// coordinate.
    pub fn predict_rows(&self, dict: &Dictionary, points: &[f64]) -> crate::Result<Vec<f64>> {
        let n = dict.num_vars();
        if !points.len().is_multiple_of(n) {
            return Err(CoreError::ShapeMismatch {
                expected: format!("points with {n} columns"),
                found: format!("{} coordinates", points.len()),
            });
        }
        if dict.len() != self.num_bases {
            return Err(CoreError::ShapeMismatch {
                expected: format!("dictionary of {} bases", self.num_bases),
                found: format!("{} bases", dict.len()),
            });
        }
        let terms: Vec<(Atom, f64)> = self
            .coeffs
            .iter()
            .map(|&(m, c)| (dict.atom(m), c))
            .collect();
        let mut out: Vec<f64> = Vec::with_capacity(points.len() / n);
        let mut blocks = points.chunks_exact(LOCKSTEP * n);
        for block in blocks.by_ref() {
            check_finite(block, n, out.len())?;
            let dys = std::array::from_fn(|p| &block[p * n..(p + 1) * n]);
            out.extend(score::<LOCKSTEP>(terms.iter().copied(), dict, dys));
        }
        let tail = blocks.remainder();
        check_finite(tail, n, out.len())?;
        for dy in tail.chunks_exact(n) {
            let [y] = score(terms.iter().copied(), dict, [dy]);
            out.push(y);
        }
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

/// `Σ c·g(dy)` at `P` points in lockstep, over decoded `(atom, c)`
/// terms in the order given: the one sum behind
/// [`SparseModel::predict_point`] and [`SparseModel::predict_rows`].
/// Each point's sum starts from −0.0, as `Iterator::sum` does, and adds
/// its terms one at a time in order, so its bits depend neither on `P`
/// nor on the other points.
fn score<const P: usize>(
    terms: impl Iterator<Item = (Atom, f64)>,
    dict: &Dictionary,
    dys: [&[f64]; P],
) -> [f64; P] {
    let mut sums = [-0.0; P];
    for (a, c) in terms {
        for (s, dy) in sums.iter_mut().zip(dys) {
            *s += c * dict.eval_atom(a, dy);
        }
    }
    sums
}

/// Checks that every coordinate of `coords`, whole points of `n`
/// coordinates starting at point `first` of the batch, is finite.
///
/// The test folds with a non-short-circuit `&`, so it runs without a
/// branch per coordinate; only a block that fails is scanned again for
/// the first offender.
fn check_finite(coords: &[f64], n: usize, first: usize) -> crate::Result<()> {
    if coords.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(());
    }
    let pos = coords
        .iter()
        .position(|v| !v.is_finite())
        .unwrap_or_default();
    Err(CoreError::NonFinite {
        point: first + pos / n,
        coordinate: pos % n,
    })
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
            // No point, a tail alone, one block, a block and a tail, and
            // many blocks with a tail.
            for k in [0, 1, 7, 8, 9, 4_099] {
                let pts = Matrix::from_fn(k, n, |r, c| ((r * 7 + c) as f64 * 0.13).sin() * 1.7);
                let batch = model.predict_batch(&dict, &pts).unwrap();
                let rows = model.predict_rows(&dict, pts.as_slice()).unwrap();
                assert_eq!(batch.len(), k);
                assert_eq!(rows.len(), k);
                for (r, (&b, &w)) in batch.iter().zip(&rows).enumerate() {
                    let p = model.predict_point(&dict, pts.row(r));
                    let at = format!("{kind:?} row {r} of {k}");
                    assert_eq!(p.to_bits(), b.to_bits(), "{at}");
                    assert_eq!(p.to_bits(), w.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn empty_sums_and_negative_zero_terms_predict_negative_zero() {
        let dict = Dictionary::new(2, DictionaryKind::Linear);
        // `y0 = −0.0` makes the term `1·y0` exactly −0.0; a sum started
        // from +0.0 would turn either model's answer into +0.0.
        for model in [
            SparseModel::zero(dict.len()),
            SparseModel::new(dict.len(), vec![(1, 1.0)]),
        ] {
            let pts = Matrix::from_fn(9, 2, |_, c| if c == 0 { -0.0 } else { 1.0 });
            assert_eq!(
                model.predict_point(&dict, pts.row(0)).to_bits(),
                (-0.0f64).to_bits()
            );
            for y in model.predict_rows(&dict, pts.as_slice()).unwrap() {
                assert_eq!(y.to_bits(), (-0.0f64).to_bits(), "{model:?}");
            }
        }
    }

    #[test]
    fn the_first_non_finite_coordinate_is_named() {
        let n = 3;
        let dict = Dictionary::new(n, DictionaryKind::Quadratic);
        let model = SparseModel::new(dict.len(), vec![(0, 0.5), (4, -1.0), (9, 2.0)]);
        let k = 4_099;
        // The first coordinate, the last of a block, the first of the
        // next block, the first tail point, and the last coordinate of
        // the batch, past point 4 096.
        for (point, coordinate) in [(0, 0), (7, n - 1), (8, 0), (4_096, 1), (k - 1, n - 1)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut pts = vec![0.25; k * n];
                pts[point * n + coordinate] = bad;
                // A later offender does not hide the first.
                pts[k * n - 1] = f64::NAN;
                assert_eq!(
                    model.predict_rows(&dict, &pts),
                    Err(CoreError::NonFinite { point, coordinate }),
                    "{bad} at point {point}, coordinate {coordinate}"
                );
            }
        }
        let one = Matrix::from_vec(1, n, vec![0.0, f64::NAN, 0.0]).unwrap();
        let err = model.predict_batch(&dict, &one).unwrap_err();
        assert_eq!(err.to_string(), "coordinate 1 of point 0 is not finite");
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
