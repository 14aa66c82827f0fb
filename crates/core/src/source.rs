//! Implicit design-matrix sources — the solver engine's central
//! abstraction.
//!
//! The paper targets up to `M ≈ 10⁶` model coefficients. A
//! materialized design matrix at `K = 10³`, `M = 10⁶` is 8 GB — beyond
//! sensible memory — so every solver in this crate (OMP, STAR, LAR, LS,
//! and the [`crate::select`] cross-validation driver) is written
//! against [`AtomSource`] instead of a concrete
//! [`rsm_linalg::Matrix`]. The dense matrix is just one implementation;
//! [`DictionarySource`] is the streaming one, evaluating a Hermite
//! dictionary on the fly with `O(K + M)` scratch instead of `O(K·M)`
//! storage.
//!
//! The trait surface mirrors what the path algorithms actually touch:
//!
//! - [`AtomSource::correlate`] — `ξ = Gᵀ·res` over all atoms (the
//!   selection step of every greedy/path method);
//! - [`AtomSource::column_into`] — materialize one selected column;
//! - [`AtomSource::columns_into`] — batched gather of an active set;
//! - [`AtomSource::row_into`] — one design-matrix row;
//! - [`AtomSource::column_sq_norms`] — per-atom squared norms (the
//!   normalization of LAR and of normalized OMP);
//! - [`AtomSource::column_sq_norms_of_rows`] — the same norms over a
//!   row list (the norms of a [`RowSubsetSource`], such as a
//!   cross-validation fold);
//! - [`AtomSource::gram_active`] — the active-set Gram matrix
//!   `G_Aᵀ·G_A`.
//!
//! The batched gathers (`columns_into`, `column_block_into`,
//! `gram_active`) have default implementations in terms of
//! `column_into`, and `column_sq_norms_of_rows` in terms of
//! `row_into`; the rest, with `num_rows` and `num_atoms`, are
//! required.
//!
//! The adapter [`RowSubsetSource`] presents a row slice of another
//! source (cross-validation folds) without materializing anything.

use rsm_basis::{Accumulation, Dictionary};
use rsm_linalg::vec_ops::dot;
use rsm_linalg::Matrix;

/// Minimum `K·M` work (rows × atoms) before the streaming correlation
/// goes parallel. Like the `rsm-linalg` kernels, the gate depends only
/// on problem shape, so a given problem takes the same code path — and
/// produces the same bits — at every thread count.
const PAR_MIN_WORK: usize = 32_768;

/// Fixed number of sample-row chunks above [`PAR_MIN_WORK`]. In the
/// sweeps (`correlate`, `column_sq_norms`) the chunks fix each entry's
/// floating-point summation order — per-chunk partials folded in
/// ascending order — while the parallel split runs over
/// [`ATOM_TILE`]s. Constant, so the result does not depend on the
/// thread count.
const PAR_ROW_CHUNKS: usize = 16;

/// Atom-tile width of the parallel sweeps: 16 Ki doubles (128 KB), so
/// a tile's accumulator and its row-chunk scratch stay cache-resident
/// while every row is added in. It splits the work only; no entry's
/// arithmetic depends on it.
const ATOM_TILE: usize = 16 * 1024;

/// The interface a sparse solver needs from the design matrix
/// `G ∈ R^{K×M}`.
///
/// [`Self::columns_into`], [`Self::column_block_into`] and
/// [`Self::gram_active`] default to one [`Self::column_into`] per
/// column, and [`Self::column_sq_norms_of_rows`] to one
/// [`Self::row_into`] per listed row; every other method is required.
pub trait AtomSource {
    /// Number of rows `K` (samples).
    fn num_rows(&self) -> usize;

    /// Number of atoms `M` (basis functions).
    fn num_atoms(&self) -> usize;

    /// Computes all correlations `ξ = Gᵀ·res`.
    ///
    /// The provided sources skip every row whose residual is exactly
    /// zero (either sign), so such a row contributes nothing even when
    /// it holds NaN or ±inf; [`RowSubsetSource`] relies on this for the
    /// rows outside its subset.
    ///
    /// # Panics
    ///
    /// Implementations panic if `res.len() != num_rows()`.
    fn correlate(&self, res: &[f64]) -> Vec<f64>;

    /// Materializes column `j` into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `j >= num_atoms()` or
    /// `out.len() != num_rows()`.
    fn column_into(&self, j: usize, out: &mut [f64]);

    /// Batched gather of an active set: column `js[c]` lands in column
    /// `c` of `out`. The indices need not be sorted or distinct.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `num_rows() × js.len()` or any index is
    /// out of range.
    fn columns_into(&self, js: &[usize], out: &mut Matrix) {
        assert_eq!(out.rows(), self.num_rows(), "columns_into: wrong row count");
        assert_eq!(out.cols(), js.len(), "columns_into: wrong column count");
        let mut col = vec![0.0; self.num_rows()];
        for (c, &j) in js.iter().enumerate() {
            self.column_into(j, &mut col);
            out.set_col(c, &col);
        }
    }

    /// Materializes design-matrix row `k` (all `M` basis values at one
    /// sample point) into `out`, in `O(M)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `k >= num_rows()` or
    /// `out.len() != num_atoms()`.
    fn row_into(&self, k: usize, out: &mut [f64]);

    /// Squared L2 norm of every column — the normalization pass of LAR
    /// and of normalized OMP.
    fn column_sq_norms(&self) -> Vec<f64>;

    /// Squared L2 norm of every column over the listed rows only: entry
    /// `j` is `Σ g_j(x_k)²` over `k ∈ rows`, one sum from `+0.0` in list
    /// order, with no row chunks. A [`RowSubsetSource`] reports these
    /// as its [`Self::column_sq_norms`].
    ///
    /// The default builds each listed row with [`Self::row_into`] and
    /// adds its squares in. [`DictionarySource`] sweeps its dictionary
    /// tile by tile instead, and [`Matrix`] adds its listed rows in
    /// place ([`Matrix::column_sq_sums`]), both with the same bits.
    ///
    /// # Panics
    ///
    /// Panics if a listed row is `>= num_rows()`.
    fn column_sq_norms_of_rows(&self, rows: &[usize]) -> Vec<f64> {
        let m = self.num_atoms();
        let mut sq = vec![0.0; m];
        let mut row = vec![0.0; m];
        for &r in rows {
            self.row_into(r, &mut row);
            for (s, &g) in sq.iter_mut().zip(&row) {
                *s += g * g;
            }
        }
        sq
    }

    /// Materializes the contiguous column block
    /// `[col_start, col_start + out.cols())` into `out`
    /// (`num_rows() × B`), one column at a time.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past `num_atoms()` or
    /// `out.rows() != num_rows()`.
    fn column_block_into(&self, col_start: usize, out: &mut Matrix) {
        assert_eq!(
            out.rows(),
            self.num_rows(),
            "column_block_into: wrong row count"
        );
        assert!(
            col_start + out.cols() <= self.num_atoms(),
            "column_block_into: block out of range"
        );
        let mut col = vec![0.0; self.num_rows()];
        for c in 0..out.cols() {
            self.column_into(col_start + c, &mut col);
            out.set_col(c, &col);
        }
    }

    /// The active-set Gram matrix `G_Aᵀ·G_A` (`|js| × |js|`,
    /// symmetric). Default: gather the columns, then pairwise dot
    /// products — `O(K·|A|²)` time, `O(K·|A|)` scratch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    fn gram_active(&self, js: &[usize]) -> Matrix {
        let p = js.len();
        let mut cols = Matrix::zeros(self.num_rows(), p);
        self.columns_into(js, &mut cols);
        let mut gram = Matrix::zeros(p, p);
        let col_vecs: Vec<Vec<f64>> = (0..p).map(|c| cols.col(c)).collect();
        for (a, va) in col_vecs.iter().enumerate() {
            for (off, vb) in col_vecs[a..].iter().enumerate() {
                let v = dot(va, vb);
                gram[(a, a + off)] = v;
                gram[(a + off, a)] = v;
            }
        }
        gram
    }
}

/// References delegate to the underlying source.
impl<S: AtomSource + ?Sized> AtomSource for &S {
    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }
    fn num_atoms(&self) -> usize {
        (**self).num_atoms()
    }
    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        (**self).correlate(res)
    }
    fn column_into(&self, j: usize, out: &mut [f64]) {
        (**self).column_into(j, out);
    }
    fn columns_into(&self, js: &[usize], out: &mut Matrix) {
        (**self).columns_into(js, out);
    }
    fn row_into(&self, k: usize, out: &mut [f64]) {
        (**self).row_into(k, out);
    }
    fn column_sq_norms(&self) -> Vec<f64> {
        (**self).column_sq_norms()
    }
    fn column_sq_norms_of_rows(&self, rows: &[usize]) -> Vec<f64> {
        (**self).column_sq_norms_of_rows(rows)
    }
    fn column_block_into(&self, col_start: usize, out: &mut Matrix) {
        (**self).column_block_into(col_start, out);
    }
    fn gram_active(&self, js: &[usize]) -> Matrix {
        (**self).gram_active(js)
    }
}

impl AtomSource for Matrix {
    fn num_rows(&self) -> usize {
        self.rows()
    }

    fn num_atoms(&self) -> usize {
        self.cols()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        // Shape pre-check so the failure surfaces through the
        // documented panic path of the trait contract; with the length
        // verified, `matvec_t` cannot fail.
        assert_eq!(res.len(), self.rows(), "residual length mismatch");
        match self.matvec_t(res) {
            Ok(xi) => xi,
            Err(_) => unreachable!("matvec_t length verified above"),
        }
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        self.col_into(j, out);
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        out.copy_from_slice(self.row(k));
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        self.column_sq_sums(0..self.rows())
    }

    fn column_sq_norms_of_rows(&self, rows: &[usize]) -> Vec<f64> {
        self.column_sq_sums(rows.iter().copied())
    }
}

/// An implicit design matrix: a basis [`Dictionary`] evaluated at a set
/// of sample points on demand.
///
/// `correlate` and `column_sq_norms` sweep the samples tile by tile
/// over the atoms, accumulating `res[k]·g(ΔY^(k))` (or `g²`) through
/// [`Dictionary::accumulate`], and `column_sq_norms_of_rows` through
/// [`Dictionary::accumulate_squares_of_rows`] — never holding a row of
/// `G`, only cache-sized tiles of the output.
///
/// # Example
///
/// ```
/// use rsm_basis::{Dictionary, DictionaryKind};
/// use rsm_core::source::{AtomSource, DictionarySource};
/// use rsm_linalg::Matrix;
///
/// let dict = Dictionary::new(50, DictionaryKind::Quadratic);
/// let samples = Matrix::zeros(10, 50);
/// let src = DictionarySource::new(&dict, &samples);
/// assert_eq!(src.num_atoms(), dict.len()); // 1 + 100 + 1225
/// assert_eq!(src.num_rows(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct DictionarySource<'a> {
    dict: &'a Dictionary,
    /// `K × N` matrix of variation samples (inputs, not basis values).
    samples: &'a Matrix,
}

impl<'a> DictionarySource<'a> {
    /// Wraps a dictionary and its evaluation points.
    ///
    /// # Panics
    ///
    /// Panics if `samples.cols() != dict.num_vars()`.
    pub fn new(dict: &'a Dictionary, samples: &'a Matrix) -> Self {
        assert_eq!(
            samples.cols(),
            dict.num_vars(),
            "sample dimension does not match dictionary variables"
        );
        DictionarySource { dict, samples }
    }

    /// The wrapped dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        self.dict
    }

    /// True when the problem is large enough for the fixed-grid
    /// parallel row sweep.
    fn parallel_rows(&self) -> bool {
        let k = self.samples.rows();
        k > 1 && k.saturating_mul(self.dict.len()) >= PAR_MIN_WORK
    }

    /// One sweep of every sample row into every atom: the body of
    /// `correlate` and `column_sq_norms`.
    ///
    /// Each entry's summation order is fixed by the row chunks alone:
    /// `((0 + p₀) + p₁) + …`, each partial `p_c` summing its chunk's
    /// rows in ascending order from `+0.0` — or, below the parallel
    /// gate, one sum over all rows. Workers split the atoms into fixed
    /// tiles, each written in place; no entry's arithmetic depends on
    /// the tiling, so the result is bit-identical at every thread count.
    fn sweep(&self, acc: Accumulation<'_>) -> Vec<f64> {
        let k_rows = self.samples.rows();
        let m = self.dict.len();
        let parallel = self.parallel_rows();
        let chunk = k_rows.div_ceil(PAR_ROW_CHUNKS).max(1);
        let mut out = vec![0.0; m];
        rsm_runtime::par_chunks_mut_reduce(
            &mut out[..],
            if parallel { ATOM_TILE } else { m },
            |atoms, tile| {
                if !parallel {
                    self.dict
                        .accumulate(self.samples, 0..k_rows, acc, atoms, tile);
                    return;
                }
                let mut part = vec![0.0; atoms.len()];
                for lo in (0..k_rows).step_by(chunk) {
                    part.fill(0.0);
                    let rows = lo..(lo + chunk).min(k_rows);
                    self.dict
                        .accumulate(self.samples, rows, acc, atoms.clone(), &mut part);
                    for (t, &p) in tile.iter_mut().zip(&part) {
                        *t += p;
                    }
                }
            },
            |()| {},
        );
        out
    }
}

impl AtomSource for DictionarySource<'_> {
    fn num_rows(&self) -> usize {
        self.samples.rows()
    }

    fn num_atoms(&self) -> usize {
        self.dict.len()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        assert_eq!(res.len(), self.samples.rows(), "residual length mismatch");
        self.sweep(Accumulation::Weighted(res))
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.samples.rows());
        let atom = self.dict.atom(j);
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.dict.eval_atom(atom, self.samples.row(k));
        }
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.dict.eval_point_into(self.samples.row(k), out);
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        self.sweep(Accumulation::Squares)
    }

    fn column_sq_norms_of_rows(&self, rows: &[usize]) -> Vec<f64> {
        // Each `ATOM_TILE` of the output takes one sweep of the listed
        // rows, in list order. There are no row chunks, so the tiles
        // split the work only, and every entry is the one sum the
        // default computes.
        let mut out = vec![0.0; self.dict.len()];
        rsm_runtime::par_chunks_mut_reduce(
            &mut out[..],
            ATOM_TILE,
            |atoms, tile| {
                self.dict
                    .accumulate_squares_of_rows(self.samples, rows, atoms, tile);
            },
            |()| {},
        );
        out
    }
}

/// A row-subset view of another source: the design matrix restricted
/// to `rows`, without copying anything. Cross-validation folds are
/// expressed as two of these views (train and test) over the full
/// source.
#[derive(Debug)]
pub struct RowSubsetSource<'a, S: ?Sized> {
    inner: &'a S,
    rows: &'a [usize],
}

impl<'a, S: AtomSource + ?Sized> RowSubsetSource<'a, S> {
    /// Wraps `inner`, exposing only `rows`, which must be strictly
    /// increasing: a repeated row would count twice in the norms and
    /// columns but once in `correlate`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not strictly increasing or any index is
    /// `>= inner.num_rows()`.
    pub fn new(inner: &'a S, rows: &'a [usize]) -> Self {
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "row subset must be strictly increasing"
        );
        let k = inner.num_rows();
        assert!(
            rows.last().is_none_or(|&r| r < k),
            "row subset index out of range"
        );
        RowSubsetSource { inner, rows }
    }

    /// The selected row indices of the inner source.
    pub fn rows(&self) -> &[usize] {
        self.rows
    }
}

impl<S: AtomSource + ?Sized> AtomSource for RowSubsetSource<'_, S> {
    fn num_rows(&self) -> usize {
        self.rows.len()
    }

    fn num_atoms(&self) -> usize {
        self.inner.num_atoms()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        assert_eq!(res.len(), self.rows.len(), "residual length mismatch");
        // Scatter into a full-length residual and delegate: rows
        // outside the subset carry an exact 0.0, which the provided
        // sources skip outright. This reuses the inner source's
        // deterministic parallel accumulation instead of re-deriving a
        // chunk grid per subset (a sweep over the subset's rows alone
        // would move the chunk boundaries and change bits).
        let mut full = vec![0.0; self.inner.num_rows()];
        for (&r, &v) in self.rows.iter().zip(res) {
            full[r] = v;
        }
        self.inner.correlate(&full)
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows.len(), "column_into: wrong output size");
        let mut full = vec![0.0; self.inner.num_rows()];
        self.inner.column_into(j, &mut full);
        for (o, &r) in out.iter_mut().zip(self.rows) {
            *o = full[r];
        }
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.inner.row_into(self.rows[k], out);
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        // One sum over the subset's rows in ascending order: the dense
        // row sweep's order on a materialized sub-matrix.
        self.inner.column_sq_norms_of_rows(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_basis::DictionaryKind;
    use rsm_stats::NormalSampler;

    fn setup() -> (Dictionary, Matrix) {
        let mut rng = NormalSampler::seed_from_u64(7);
        let dict = Dictionary::new(6, DictionaryKind::Quadratic);
        let samples = Matrix::from_fn(15, 6, |_, _| rng.sample());
        (dict, samples)
    }

    #[test]
    fn correlate_matches_materialized() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let src = DictionarySource::new(&dict, &samples);
        let res: Vec<f64> = (0..15).map(|i| (i as f64 * 0.31).sin()).collect();
        let xi_src = src.correlate(&res);
        let xi_mat = g.correlate(&res);
        assert_eq!(xi_src.len(), xi_mat.len());
        for (a, b) in xi_src.iter().zip(&xi_mat) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    #[test]
    fn column_matches_materialized() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let src = DictionarySource::new(&dict, &samples);
        let mut col = vec![0.0; 15];
        for j in [0usize, 1, 7, dict.len() - 1] {
            src.column_into(j, &mut col);
            let expect = g.col(j);
            for (a, b) in col.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_residual_rows_are_skipped_correctly() {
        let (dict, samples) = setup();
        let src = DictionarySource::new(&dict, &samples);
        let mut res = vec![0.0; 15];
        res[3] = 2.0;
        let xi = src.correlate(&res);
        // ξ_j = 2·g_j(ΔY^(3)).
        let mut row = vec![0.0; dict.len()];
        dict.eval_point_into(samples.row(3), &mut row);
        for (x, g) in xi.iter().zip(&row) {
            assert!((x - 2.0 * g).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "does not match dictionary")]
    fn dimension_mismatch_panics() {
        let dict = Dictionary::new(4, DictionaryKind::Linear);
        let samples = Matrix::zeros(3, 5);
        let _ = DictionarySource::new(&dict, &samples);
    }

    #[test]
    #[should_panic(expected = "residual length mismatch")]
    fn matrix_correlate_checks_shape() {
        let g = Matrix::zeros(4, 3);
        let _ = AtomSource::correlate(&g, &[1.0, 2.0]);
    }

    #[test]
    fn rows_and_column_batches_match_materialized() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let src = DictionarySource::new(&dict, &samples);
        // row_into vs materialized rows, for both backends.
        let mut row_s = vec![0.0; dict.len()];
        let mut row_m = vec![0.0; dict.len()];
        for k in [0usize, 7, 14] {
            src.row_into(k, &mut row_s);
            AtomSource::row_into(&g, k, &mut row_m);
            assert_eq!(row_m, g.row(k).to_vec());
            for (a, b) in row_s.iter().zip(&row_m) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // columns_into gather.
        let js = [2usize, 0, 9, 9];
        let mut got = Matrix::zeros(15, js.len());
        src.columns_into(&js, &mut got);
        for (c, &j) in js.iter().enumerate() {
            for (r, v) in g.col(j).iter().enumerate() {
                assert!((got[(r, c)] - v).abs() < 1e-12);
            }
        }
        // column_block_into matches per-column evaluation.
        let mut blk = Matrix::zeros(15, 5);
        src.column_block_into(3, &mut blk);
        for c in 0..5 {
            for (r, v) in g.col(3 + c).iter().enumerate() {
                assert!((blk[(r, c)] - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn column_sq_norms_match_both_backends() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let src = DictionarySource::new(&dict, &samples);
        let sq_m = AtomSource::column_sq_norms(&g);
        let sq_s = src.column_sq_norms();
        for (j, (a, b)) in sq_m.iter().zip(&sq_s).enumerate() {
            assert!((a - b).abs() < 1e-10, "atom {j}: {a} vs {b}");
            let col = g.col(j);
            assert!((a - dot(&col, &col)).abs() < 1e-10);
        }
    }

    #[test]
    fn gram_active_is_symmetric_and_correct() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let src = DictionarySource::new(&dict, &samples);
        let js = [1usize, 4, 11];
        let gram = src.gram_active(&js);
        assert_eq!(gram.shape(), (3, 3));
        for a in 0..3 {
            for b in 0..3 {
                let want = dot(&g.col(js[a]), &g.col(js[b]));
                assert!((gram[(a, b)] - want).abs() < 1e-10);
                assert!((gram[(a, b)] - gram[(b, a)]).abs() < 1e-15);
            }
        }
    }

    /// A `Matrix` seen only through the required methods, so it takes
    /// every provided default.
    struct Defaults<'a>(&'a Matrix);

    impl AtomSource for Defaults<'_> {
        fn num_rows(&self) -> usize {
            self.0.rows()
        }
        fn num_atoms(&self) -> usize {
            self.0.cols()
        }
        fn correlate(&self, res: &[f64]) -> Vec<f64> {
            self.0.correlate(res)
        }
        fn column_into(&self, j: usize, out: &mut [f64]) {
            self.0.column_into(j, out);
        }
        fn row_into(&self, k: usize, out: &mut [f64]) {
            AtomSource::row_into(self.0, k, out);
        }
        fn column_sq_norms(&self) -> Vec<f64> {
            unreachable!("the fold views below ask for listed rows only")
        }
    }

    #[test]
    fn matrix_norms_match_the_row_at_a_time_loops() {
        let (dict, samples) = setup();
        let mut g = dict.design_matrix(&samples);
        // All rows: the row-at-a-time loop the kernel replaced.
        let mut want = vec![0.0; g.cols()];
        for r in 0..g.rows() {
            for (w, &v) in want.iter_mut().zip(g.row(r)) {
                *w += v * v;
            }
        }
        let got = AtomSource::column_sq_norms(&g);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Fold views: the trait default, with NaN and ±inf in every row
        // the view leaves out.
        let rows = [0usize, 2, 3, 5, 8, 9, 10, 11, 12, 14];
        for r in (0..g.rows()).filter(|r| !rows.contains(r)) {
            g.row_mut(r)
                .fill([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][r % 3]);
        }
        for n in 0..=rows.len() {
            let want = RowSubsetSource::new(&Defaults(&g), &rows[..n]).column_sq_norms();
            let got = RowSubsetSource::new(&g, &rows[..n]).column_sq_norms();
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{n} rows"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn row_subset_source_rejects_a_repeated_row() {
        // A view of rows [1, 1] would count row 1 twice in its norms
        // and columns, but its scattered `correlate` only once.
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let _ = RowSubsetSource::new(&g, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn row_subset_source_rejects_a_row_past_the_end() {
        let g = Matrix::zeros(3, 2);
        let _ = RowSubsetSource::new(&g, &[0, 3]);
    }

    #[test]
    fn row_subset_source_matches_select_rows() {
        let (dict, samples) = setup();
        let g = dict.design_matrix(&samples);
        let rows = [1usize, 4, 7, 13];
        let view = RowSubsetSource::new(&g, &rows);
        let dense = g.select_rows(&rows);
        assert_eq!(view.num_rows(), 4);
        assert_eq!(view.num_atoms(), g.cols());
        // Below the parallel gate, correlate is the copied sub-matrix's
        // `matvec_t` bit for bit: the zero-padded rows outside the
        // subset are skipped, even when they hold NaN or ±inf.
        let res = [0.5, -1.0, 2.0, 0.25];
        let mut poisoned = g.clone();
        for r in (0..g.rows()).filter(|r| !rows.contains(r)) {
            poisoned
                .row_mut(r)
                .fill([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][r % 3]);
        }
        let xi_view = RowSubsetSource::new(&poisoned, &rows).correlate(&res);
        let xi_dense = dense.matvec_t(&res).unwrap();
        for (a, b) in xi_view.iter().zip(&xi_dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Columns and rows.
        let mut col = vec![0.0; 4];
        view.column_into(3, &mut col);
        assert_eq!(col, dense.col(3));
        let mut row = vec![0.0; g.cols()];
        view.row_into(2, &mut row);
        assert_eq!(row, g.row(7).to_vec());
        // Squared norms agree with the dense row sweep.
        let sq_view = view.column_sq_norms();
        let sq_dense = AtomSource::column_sq_norms(&dense);
        for (a, b) in sq_view.iter().zip(&sq_dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
