//! Row-major dense matrix type.

use crate::tol;
use crate::vec_ops;
use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// Minimum number of matrix elements before `matvec_t` uses the
/// parallel runtime; smaller operands stay on the plain loop.
/// The gate depends only on operand shape — never on the thread count
/// — so a given problem always takes the same code path and produces
/// the same bits (see the `rsm-runtime` crate docs).
const PAR_MIN_ELEMS: usize = 32_768;

/// Fixed row-chunk count for the parallel kernel. A function of
/// nothing: chunk boundaries derive from the row count alone, keeping
/// chunked accumulation order identical for every thread count.
const PAR_ROW_CHUNKS: usize = 16;

/// Rows per block of the row kernel ([`add_rows`]): each output entry
/// stays in a register while this many rows are added to it, as in the
/// dictionary sweep. The result does not depend on it.
const ROW_BLOCK: usize = 8;

/// A dense, row-major matrix of `f64`.
///
/// The storage layout is `data[r * cols + c]`. Rows are therefore
/// contiguous slices, which the factorization kernels exploit.
///
/// # Example
///
/// ```
/// use rsm_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let x = a.matvec(&[1.0, 1.0]).unwrap();
/// assert_eq!(x, vec![3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally-long row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the rows have unequal
    /// lengths, and [`LinalgError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::InvalidArgument("empty row list".into()));
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::ShapeMismatch {
                    expected: format!("row of length {ncols}"),
                    found: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(r, c)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a fresh vector (columns are strided).
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Writes column `c` into the provided buffer, which must have
    /// length `rows`.
    pub fn col_into(&self, c: usize, out: &mut [f64]) {
        debug_assert!(c < self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cols + c];
        }
    }

    /// Sets column `c` from a slice of length `rows`.
    pub fn set_col(&mut self, c: usize, v: &[f64]) {
        debug_assert!(c < self.cols);
        debug_assert_eq!(v.len(), self.rows);
        for (r, &x) in v.iter().enumerate() {
            self.data[r * self.cols + c] = x;
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| vec_ops::dot(self.row(r), x))
            .collect())
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    ///
    /// Rows whose weight `x[r]` is exactly zero (either sign) are
    /// skipped, so they contribute nothing even when they hold NaN or
    /// ±inf — the rule the dictionary sweep follows. For finite rows the
    /// skip changes no bit: every partial sum starts at `+0.0` and,
    /// under round-to-nearest, never becomes `−0.0`, so adding the `±0`
    /// product of such a row would leave it unchanged.
    ///
    /// Each entry is `((0 + p₀) + p₁) + …` over 16 fixed row chunks
    /// when the matrix holds at least 32 768 entries, and one sum
    /// otherwise; a partial `p_c` adds `x_r·a_rj` for its live rows one
    /// at a time in ascending order, from `+0.0`. The live rows are
    /// taken in blocks (see [`Matrix::column_sq_sums`]), which changes
    /// no bit of that order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("length {}", x.len()),
            });
        }
        let live_rows = |rows: Range<usize>, out: &mut [f64]| {
            let live = rows
                .filter(|&r| !tol::exactly_zero(x[r]))
                .map(|r| (self.row(r), x[r]));
            add_rows(live, out, |w, a| w * a);
        };
        let mut y = vec![0.0; self.cols];
        if self.rows * self.cols >= PAR_MIN_ELEMS && self.rows > 1 {
            // Row-block partial accumulators, merged in chunk order.
            // The summation order differs from the one sum below, but
            // the size gate means a given shape always takes the same
            // path, and the chunk grid plus ordered merge make the
            // result independent of the thread count.
            let chunk = self.rows.div_ceil(PAR_ROW_CHUNKS).max(1);
            rsm_runtime::par_chunks_reduce(
                self.rows,
                chunk,
                |rr| {
                    let mut part = vec![0.0; self.cols];
                    live_rows(rr, &mut part);
                    part
                },
                |part: Vec<f64>| {
                    for (yi, pi) in y.iter_mut().zip(&part) {
                        *yi += pi;
                    }
                },
            );
        } else {
            live_rows(0..self.rows, &mut y);
        }
        Ok(y)
    }

    /// Squared L2 norm of every column over the listed rows: entry `j`
    /// is `Σ a_rj²` over `r ∈ rows`, one sum from `+0.0` in list order.
    /// A row that is not listed is never read.
    ///
    /// The rows are added in blocks of 8, then the remainder in blocks
    /// of 4, 2 and 1, each entry held in a register while a block's
    /// rows are added to it one at a time — the scheme of the
    /// dictionary sweep. So the result is bit-identical to adding the
    /// listed rows' squares in one row at a time.
    ///
    /// # Panics
    ///
    /// Panics if a listed row is `>= rows()`.
    pub fn column_sq_sums(&self, rows: impl IntoIterator<Item = usize>) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        let listed = rows.into_iter().map(|r| {
            assert!(r < self.rows, "column_sq_sums: row {r} out of range");
            (self.row(r), 1.0)
        });
        add_rows(listed, &mut out, |_, a| a * a);
        out
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("inner dimension {}", self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps both inner accesses row-contiguous.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if tol::exactly_zero(aik) {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                vec_ops::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric `cols × cols`).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let xi = row[i];
                if tol::exactly_zero(xi) {
                    continue;
                }
                for (j, &xj) in row.iter().enumerate().skip(i) {
                    g.data[i * self.cols + j] += xi * xj;
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g.data[i * self.cols + j] = g.data[j * self.cols + i];
            }
        }
        g
    }

    /// Extracts the sub-matrix formed by the given column indices, in order.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in indices.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// Extracts the sub-matrix formed by the given row indices, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Maximum absolute entry difference to another matrix (∞-distance).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs())))
    }

    fn check_same_shape(&self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        Ok(())
    }
}

/// Adds the rows `(a_r, w_r)` that `rows` yields into `out`: entry `j`
/// gets `term(w_r, a_rj)` added for each row in turn. The rows go in
/// blocks of [`ROW_BLOCK`], then the remainder in blocks of 4, 2 and 1,
/// so every entry still takes them one at a time in the order `rows`
/// yields them.
fn add_rows<'a>(
    rows: impl Iterator<Item = (&'a [f64], f64)>,
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    let mut block: [(&[f64], f64); ROW_BLOCK] = [(&[], 0.0); ROW_BLOCK];
    let mut len = 0;
    for row in rows {
        block[len] = row;
        len += 1;
        if len == ROW_BLOCK {
            add_block(&block, out, term);
            len = 0;
        }
    }
    let mut rest = &block[..len];
    if let Some((four, tail)) = rest.split_first_chunk::<4>() {
        add_block(four, out, term);
        rest = tail;
    }
    if let Some((two, tail)) = rest.split_first_chunk::<2>() {
        add_block(two, out, term);
        rest = tail;
    }
    if let Some((one, _)) = rest.split_first_chunk::<1>() {
        add_block(one, out, term);
    }
}

/// Adds a block of rows into `out`: each entry is loaded once, gets
/// `term(w_b, a_b[e])` added for `b = 0, 1, …` in turn, and is stored
/// once.
#[inline(always)]
fn add_block<const B: usize>(
    block: &[(&[f64], f64); B],
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64,
) {
    let rows: [&[f64]; B] = std::array::from_fn(|b| &block[b].0[..out.len()]);
    for (e, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for (row, &(_, w)) in rows.iter().zip(block) {
            acc += term(w, row[e]);
        }
        *o = acc;
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:>12.5e}", self[(r, c)])?;
                if c + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert!(approx(m[(0, 1)], 2.0));
        assert!(approx(m[(1, 2)], 6.0));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 4.0]);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn identity_matvec() {
        let i = Matrix::identity(3);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(i.matvec(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn matvec_shape_error() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
        assert!(m.matvec_t(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 19.0));
        assert!(approx(c[(0, 1)], 22.0));
        assert!(approx(c[(1, 0)], 43.0));
        assert!(approx(c[(1, 1)], 50.0));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0));
        let x = [1.0, 0.5, -2.0, 3.0];
        let direct = a.matvec_t(&x).unwrap();
        let via_t = a.transpose().matvec(&x).unwrap();
        for (d, v) in direct.iter().zip(&via_t) {
            assert!(approx(*d, *v));
        }
    }

    /// `x` for a `rows`-row matrix cut in chunks of `chunk` rows, where
    /// chunk `c` holds `live(c)` rows of non-zero weight, spread over
    /// the chunk, and ±0 on the rest.
    fn chunk_weights(rows: usize, chunk: usize, live: impl Fn(usize) -> usize) -> Vec<f64> {
        (0..rows)
            .map(|r| {
                let (c, i) = (r / chunk, r % chunk);
                // 7 is prime to every chunk length used, so the live
                // rows are a spread-out subset of the chunk.
                if (i * 7) % chunk < live(c) {
                    (r % 5) as f64 - 2.3 + (r as f64 / 17.0).sin()
                } else if r % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect()
    }

    #[test]
    fn matvec_t_skips_zero_weight_rows_bit_for_bit() {
        // A shape below the parallel gate (one sum) and one above it
        // (16 row chunks of 18 rows). Between them the chunks hold every
        // live-row count from 0 to 17, so every block size of the row
        // kernel runs, remainders included. The reference adds every
        // row with `axpy` in the documented order, ±0-weighted ones
        // included; poisoning those rows must not move a bit.
        let mut cases: Vec<(usize, usize, Vec<f64>)> = (0..=17)
            .map(|live| (40, 30, chunk_weights(40, 40, |_| live)))
            .collect();
        for shift in [0, 16] {
            cases.push((288, 120, chunk_weights(288, 18, |c| (c + shift) % 18)));
        }
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        for (rows, cols, x) in cases {
            let mut a = Matrix::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17) % 23) as f64 / 7.0 - 1.5 + 1e-3 * (r as f64) * (c as f64).sqrt()
            });
            let chunk = if rows * cols >= PAR_MIN_ELEMS {
                rows.div_ceil(PAR_ROW_CHUNKS)
            } else {
                rows
            };
            let mut want = vec![0.0; cols];
            for lo in (0..rows).step_by(chunk) {
                let mut part = vec![0.0; cols];
                for r in lo..(lo + chunk).min(rows) {
                    vec_ops::axpy(x[r], a.row(r), &mut part);
                }
                for (w, p) in want.iter_mut().zip(&part) {
                    *w += p;
                }
            }
            for r in (0..rows).filter(|&r| tol::exactly_zero(x[r])) {
                for (c, v) in a.row_mut(r).iter_mut().enumerate() {
                    *v = poison[(r + c) % poison.len()];
                }
            }
            for threads in [1, 2, 4] {
                rsm_runtime::set_threads(threads);
                let got = a.matvec_t(&x).unwrap();
                for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{rows}x{cols}, {threads} threads, column {c}"
                    );
                }
            }
            rsm_runtime::set_threads(0);
        }
    }

    #[test]
    fn column_sq_sums_add_the_listed_rows_bit_for_bit() {
        // Every listed-row count from 0 to 19, in list order (not
        // sorted); the rows left out hold NaN, ±inf and 1e300, which
        // must never be read.
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        for n in 0..20 {
            let listed: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 23).collect();
            let mut a = Matrix::from_fn(23, 13, |r, c| {
                (r as f64 * 0.37 + c as f64).sin() * (1.0 + r as f64 * c as f64)
            });
            let mut want = vec![0.0; 13];
            for &r in &listed {
                for (w, &v) in want.iter_mut().zip(a.row(r)) {
                    *w += v * v;
                }
            }
            for r in (0..23).filter(|r| !listed.contains(r)) {
                for (c, v) in a.row_mut(r).iter_mut().enumerate() {
                    *v = poison[(r + c) % poison.len()];
                }
            }
            let got = a.column_sq_sums(listed.iter().copied());
            for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{n} rows, column {c}");
            }
        }
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_fn(5, 3, |r, c| ((r + 1) * (c + 2)) as f64 / 3.0);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&g2).unwrap() < 1e-12);
    }

    #[test]
    fn select_cols_and_rows() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        let sc = a.select_cols(&[3, 1]);
        assert_eq!(sc.shape(), (3, 2));
        assert!(approx(sc[(2, 0)], 23.0));
        assert!(approx(sc[(2, 1)], 21.0));
        let sr = a.select_rows(&[2, 0]);
        assert_eq!(sr.shape(), (2, 4));
        assert!(approx(sr[(0, 1)], 21.0));
        assert!(approx(sr[(1, 1)], 1.0));
    }

    #[test]
    fn col_into_and_set_col() {
        let mut a = Matrix::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        let mut buf = vec![0.0; 3];
        a.col_into(1, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        a.col_into(0, &mut buf);
        assert_eq!(buf, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert!(approx(d[(0, 0)], 2.0));
        assert!(approx(d[(1, 1)], 3.0));
        assert!(approx(d[(0, 1)], 0.0));
    }

    #[test]
    fn debug_format_does_not_panic() {
        let m = Matrix::from_fn(10, 10, |r, c| (r + c) as f64);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
    }
}
