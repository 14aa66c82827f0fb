//! Indexable basis-function dictionaries and design matrices.
//!
//! A dictionary enumerates the `M` basis functions spanning the chosen
//! model family over `N` variables. For the paper's two families the
//! enumeration is pure index arithmetic (no per-term storage), which is
//! what makes `M ~ 10⁴–10⁶` practical:
//!
//! - **linear**: `M = 1 + N` — constant, then `Δy_v`;
//! - **quadratic**: `M = 1 + 2N + N(N−1)/2` — constant, linear terms,
//!   pure quadratics `ψ₂(Δy_v)`, then cross terms `Δy_i·Δy_j` (`i < j`)
//!   in lexicographic order. This matches the paper's
//!   "200-dimensional quadratic model contains 20 301 unknown
//!   coefficients": `1 + 400 + 19 900 = 20 301`.

use rsm_linalg::{tol, Matrix};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;
use std::ops::Range;

/// What [`Dictionary::accumulate`] adds, per sample row `k`, into the
/// entry of atom `j`.
#[derive(Debug, Clone, Copy)]
pub enum Accumulation<'a> {
    /// `w_k · g_j(x_k)`, weights indexed by sample row: the correlation
    /// `Gᵀ·w`. Rows whose weight is exactly zero are skipped.
    Weighted(&'a [f64]),
    /// `g_j(x_k)²`: the squared column norms.
    Squares,
}

/// The model family a [`Dictionary`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictionaryKind {
    /// Constant + first-order terms.
    Linear,
    /// Constant + linear + pure-quadratic + pairwise cross terms.
    Quadratic,
}

/// An indexable dictionary of `M` orthonormal basis functions over `N`
/// independent standard-normal variables.
///
/// # Example
///
/// ```
/// use rsm_basis::{Dictionary, DictionaryKind};
/// let d = Dictionary::new(200, DictionaryKind::Quadratic);
/// assert_eq!(d.len(), 20_301); // the paper's Table II/III size
/// ```
#[derive(Debug, Clone)]
pub struct Dictionary {
    n: usize,
    kind: DictionaryKind,
}

/// One basis function of a [`Dictionary`], decoded from its index by
/// [`Dictionary::atom`]: [`Dictionary::eval_atom`] evaluates it with no
/// index arithmetic, so a caller that evaluates the same atoms at many
/// points decodes each one once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atom {
    /// The constant `g ≡ 1`.
    Constant,
    /// `Δy_v`.
    Linear(usize),
    /// `ψ₂(Δy_v) = (Δy_v² − 1)/√2`.
    PureQuadratic(usize),
    /// `Δy_i·Δy_j`, `i < j`.
    Cross(usize, usize),
}

/// Names the basis function over the variables `y0, y1, …`: `1`, `y3`,
/// `ψ2(y3)` or `y3·y7`.
impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Atom::Constant => write!(f, "1"),
            Atom::Linear(v) => write!(f, "y{v}"),
            Atom::PureQuadratic(v) => write!(f, "ψ2(y{v})"),
            Atom::Cross(i, j) => write!(f, "y{i}·y{j}"),
        }
    }
}

impl Dictionary {
    /// Creates a dictionary over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, kind: DictionaryKind) -> Self {
        assert!(n > 0, "dictionary needs at least one variable");
        Dictionary { n, kind }
    }

    /// Number of variables `N`.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The model family.
    #[inline]
    pub fn kind(&self) -> DictionaryKind {
        self.kind
    }

    /// Number of basis functions `M`.
    pub fn len(&self) -> usize {
        match self.kind {
            DictionaryKind::Linear => 1 + self.n,
            DictionaryKind::Quadratic => 1 + 2 * self.n + self.n * (self.n - 1) / 2,
        }
    }

    /// `false` always (a dictionary contains at least the constant);
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `m`-th basis function, decoded for [`Self::eval_atom`].
    ///
    /// # Panics
    ///
    /// Panics if `m >= len()`.
    pub fn atom(&self, m: usize) -> Atom {
        assert!(m < self.len(), "term index {m} out of range {}", self.len());
        let n = self.n;
        // A linear dictionary ends at `m = n`, so only a quadratic one
        // reaches the last two arms.
        match m {
            0 => Atom::Constant,
            _ if m <= n => Atom::Linear(m - 1),
            _ if m <= 2 * n => Atom::PureQuadratic(m - n - 1),
            _ => {
                let (i, j) = cross_pair(n, m - 2 * n - 1);
                Atom::Cross(i, j)
            }
        }
    }

    /// Evaluates a decoded basis function at one point: the one place
    /// each kind's expression is written for single-term queries, so
    /// the value has the bits [`Self::eval_point_into`] computes for
    /// the same atom.
    ///
    /// # Panics
    ///
    /// Panics if the atom names a variable beyond `dy`.
    #[inline]
    pub fn eval_atom(&self, atom: Atom, dy: &[f64]) -> f64 {
        match atom {
            Atom::Constant => 1.0,
            Atom::Linear(v) => dy[v],
            Atom::PureQuadratic(v) => {
                let y = dy[v];
                (y * y - 1.0) * FRAC_1_SQRT_2
            }
            Atom::Cross(i, j) => dy[i] * dy[j],
        }
    }

    /// Evaluates basis function `m` at one point.
    ///
    /// For scattered single-term queries; use [`Self::eval_point_into`]
    /// when all `M` values are needed, and [`Self::atom`] with
    /// [`Self::eval_atom`] to evaluate the same term at many points.
    ///
    /// # Panics
    ///
    /// Panics if `m >= len()` or `dy` is shorter than `N`.
    pub fn eval_term(&self, m: usize, dy: &[f64]) -> f64 {
        self.eval_atom(self.atom(m), dy)
    }

    /// Evaluates all `M` basis functions at one point into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != N` or `out.len() != M`.
    pub fn eval_point_into(&self, dy: &[f64], out: &mut [f64]) {
        assert_eq!(dy.len(), self.n, "eval_point_into: wrong input dimension");
        assert_eq!(out.len(), self.len(), "eval_point_into: wrong output size");
        let n = self.n;
        out[0] = 1.0;
        out[1..=n].copy_from_slice(dy);
        if self.kind == DictionaryKind::Quadratic {
            for (v, &y) in dy.iter().enumerate() {
                out[n + 1 + v] = (y * y - 1.0) * FRAC_1_SQRT_2;
            }
            let mut p = 2 * n + 1;
            for (i, &yi) in dy.iter().enumerate() {
                for &yj in &dy[i + 1..] {
                    out[p] = yi * yj;
                    p += 1;
                }
            }
        }
    }

    /// Builds the `K × M` design matrix `G` of Eq. (6)–(8): row `k`
    /// holds all basis functions evaluated at sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.cols() != N`.
    pub fn design_matrix(&self, samples: &Matrix) -> Matrix {
        assert_eq!(
            samples.cols(),
            self.n,
            "design_matrix: sample dimension mismatch"
        );
        let k = samples.rows();
        let m = self.len();
        let mut g = Matrix::zeros(k, m);
        for r in 0..k {
            let dy = samples.row(r).to_vec();
            self.eval_point_into(&dy, g.row_mut(r));
        }
        g
    }

    /// Adds one pass over the sample rows `rows` (in ascending order)
    /// into the atom range `atoms`: for every row `k` and atom `j`,
    /// `out[j − atoms.start] += w_k·g_j(x_k)`, or `g_j(x_k)²` (see
    /// [`Accumulation`]).
    ///
    /// This is the streaming kernel behind the dictionary source's
    /// full-data correlation and norm sweeps;
    /// [`Self::accumulate_squares_of_rows`] is its form for a row list,
    /// behind the norms of a cross-validation fold. No `M`-wide row is
    /// materialized:
    /// the linear and quadratic families take the live rows (weight not
    /// exactly zero) in blocks of 8 and walk the requested atoms once per
    /// block, the cross terms as contiguous `y_i·y[j..]` segments,
    /// keeping each entry in a register while the block's rows are added
    /// to it. Every entry gets the same `g` value
    /// [`Self::eval_point_into`] computes and the same update `out += w·g`
    /// (or `g·g`), one row at a time in ascending order, so the result is
    /// bit-identical to evaluating whole rows and adding them in. On
    /// x86_64 CPUs with AVX2 that sweep runs an AVX2 build of the same
    /// code ([`sweep_kernel`]), which rounds identically: neither build
    /// fuses a multiply into an add.
    ///
    /// # Panics
    ///
    /// Panics if `samples.cols() != N`, `atoms` is not a range within
    /// `0..M`, `out.len() != atoms.len()`, or a row of `rows` is out of
    /// range of `samples` or of the weights.
    pub fn accumulate(
        &self,
        samples: &Matrix,
        rows: Range<usize>,
        acc: Accumulation<'_>,
        atoms: Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(
            samples.cols(),
            self.n,
            "accumulate: sample dimension mismatch"
        );
        assert!(
            atoms.start <= atoms.end && atoms.end <= self.len(),
            "accumulate: atom range out of bounds"
        );
        assert_eq!(out.len(), atoms.len(), "accumulate: wrong output size");
        match acc {
            Accumulation::Weighted(w) => {
                self.accumulate_with(samples, rows, Some(w), atoms, out, |wk, g| wk * g);
            }
            Accumulation::Squares => {
                self.accumulate_with(samples, rows, None, atoms, out, |_, g| g * g);
            }
        }
    }

    /// [`Self::accumulate`] with the per-entry update
    /// `out += term(w_k, g)`; `weights: None` visits every row.
    fn accumulate_with(
        &self,
        samples: &Matrix,
        rows: Range<usize>,
        weights: Option<&[f64]>,
        atoms: Range<usize>,
        out: &mut [f64],
        term: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        let live = live_rows(rows, weights);
        let layout = Layout::new(self.n, atoms);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            #[expect(
                unsafe_code,
                reason = "calls the AVX2 build of the sweep, which needs a CPU check the compiler cannot see"
            )]
            // SAFETY: `sweep_avx2` is safe code compiled with AVX2
            // enabled, so its one requirement is a CPU that executes
            // AVX2 instructions, which `has_avx2` just detected.
            unsafe {
                sweep_avx2(&layout, samples, live, out, term);
            }
            return;
        }
        sweep_blocks(&layout, samples, live, out, term);
    }

    /// Adds `g_j(x_k)²` for every listed sample row `k` into the atom
    /// range `atoms`: the [`Accumulation::Squares`] sweep of
    /// [`Self::accumulate`] over a row list instead of a row range.
    ///
    /// The rows run through the same blocked kernel, in list order and
    /// in blocks of 8, and every entry gets the `g` value
    /// [`Self::eval_point_into`] computes and the update `out += g·g`,
    /// one listed row at a time. So the result is bit-identical to
    /// evaluating each listed row whole and adding its squares in, in
    /// list order. A row that is not listed is never read.
    ///
    /// # Panics
    ///
    /// Panics if `samples.cols() != N`, `atoms` is not a range within
    /// `0..M`, `out.len() != atoms.len()`, or a listed row is out of
    /// range of `samples`.
    pub fn accumulate_squares_of_rows(
        &self,
        samples: &Matrix,
        rows: &[usize],
        atoms: Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(
            samples.cols(),
            self.n,
            "accumulate_squares_of_rows: sample dimension mismatch"
        );
        assert!(
            atoms.start <= atoms.end && atoms.end <= self.len(),
            "accumulate_squares_of_rows: atom range out of bounds"
        );
        assert_eq!(
            out.len(),
            atoms.len(),
            "accumulate_squares_of_rows: wrong output size"
        );
        let listed = rows.iter().map(|&k| (k, 1.0));
        let layout = Layout::new(self.n, atoms);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            #[expect(
                unsafe_code,
                reason = "calls the AVX2 build of the sweep, which needs a CPU check the compiler cannot see"
            )]
            // SAFETY: as in `accumulate_with`: `sweep_avx2` is safe code
            // compiled with AVX2 enabled, and `has_avx2` just detected a
            // CPU that executes AVX2 instructions.
            unsafe {
                sweep_avx2(&layout, samples, listed, out, |_, g| g * g);
            }
            return;
        }
        sweep_blocks(&layout, samples, listed, out, |_, g| g * g);
    }
}

/// The rows of `rows` paired with their weights, skipping exactly-zero
/// weights; every row, with weight 1, when `weights` is `None`.
fn live_rows(
    rows: Range<usize>,
    weights: Option<&[f64]>,
) -> impl Iterator<Item = (usize, f64)> + '_ {
    rows.filter_map(move |k| match weights {
        Some(w) if tol::exactly_zero(w[k]) => None,
        Some(w) => Some((k, w[k])),
        None => Some((k, 1.0)),
    })
}

/// Live rows per block of the structured sweep: each output entry stays
/// in a register while this many rows are added to it. At `M ≈ 10⁶`,
/// `K = 1000` on one thread, 4 measured about the same and 16 about
/// 10 % slower. The result does not depend on it.
const ROW_BLOCK: usize = 8;

/// The instruction set the structured sweep of
/// [`Dictionary::accumulate`] runs on this CPU: `"avx2"` or `"plain"`
/// (the baseline instructions of the target). Both give the same bits;
/// benchmark records carry the name because the plain kernel took about
/// 1.5 times as long at `M ≈ 10⁶`.
pub fn sweep_kernel() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "plain"
    }
}

/// Whether this CPU runs the AVX2 build of the sweep: the one predicate
/// behind both the dispatch and [`sweep_kernel`].
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`sweep_blocks`] compiled with AVX2 enabled. Not FMA: a fused
/// multiply-add rounds once where the plain build rounds twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(
    layout: &Layout,
    samples: &Matrix,
    live: impl Iterator<Item = (usize, f64)>,
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    sweep_blocks(layout, samples, live, out, term);
}

/// The structured sweep: adds the live rows `(k, w_k)` into `out` in
/// blocks of [`ROW_BLOCK`], then the remainder in blocks of 4, 2 and 1,
/// so every entry still takes the rows one at a time in the order
/// `live` yields them.
///
/// Always inlined, so every caller compiles it for its own target
/// features: `accumulate` and `accumulate_squares_of_rows` for the
/// target's baseline (the plain kernel, the only one off x86_64 and on
/// CPUs without AVX2), [`sweep_avx2`] for AVX2.
#[inline(always)]
fn sweep_blocks(
    layout: &Layout,
    samples: &Matrix,
    live: impl Iterator<Item = (usize, f64)>,
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    let mut block: [(&[f64], f64); ROW_BLOCK] = [(&[], 0.0); ROW_BLOCK];
    let mut len = 0;
    for (k, wk) in live {
        block[len] = (samples.row(k), wk);
        len += 1;
        if len == ROW_BLOCK {
            layout.add(&block, out, term);
            len = 0;
        }
    }
    let mut rest = &block[..len];
    while let Some((four, tail)) = rest.split_first_chunk::<4>() {
        layout.add(four, out, term);
        rest = tail;
    }
    if let Some((two, tail)) = rest.split_first_chunk::<2>() {
        layout.add(two, out, term);
        rest = tail;
    }
    if let Some((one, _)) = rest.split_first_chunk::<1>() {
        layout.add(one, out, term);
    }
}

/// The structured (linear or quadratic) layout clipped to an atom range
/// `start..`: the constant, then the linear, pure-quadratic and cross
/// blocks, each empty where it misses the range.
struct Layout {
    n: usize,
    start: usize,
    constant: bool,
    linear: Range<usize>,
    pure: Range<usize>,
    cross: Range<usize>,
    /// The `(i, j)` pair of `cross.start`.
    first_pair: (usize, usize),
}

impl Layout {
    fn new(n: usize, Range { start, end }: Range<usize>) -> Self {
        let cross = start.max(2 * n + 1)..end;
        let first_pair = if cross.is_empty() {
            (0, 1)
        } else {
            cross_pair(n, cross.start - 2 * n - 1)
        };
        Layout {
            n,
            start,
            constant: start == 0 && end > 0,
            linear: start.max(1)..end.min(n + 1),
            pure: start.max(n + 1)..end.min(2 * n + 1),
            cross,
            first_pair,
        }
    }

    /// Adds the block's rows `(x_k, w_k)` into `out`, walking each
    /// contiguous run of entries once.
    #[inline(always)]
    fn add<const B: usize>(
        &self,
        block: &[(&[f64], f64); B],
        out: &mut [f64],
        term: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        let (n, start) = (self.n, self.start);
        if self.constant {
            let mut o = out[0];
            for &(_, wk) in block {
                o += term(wk, 1.0);
            }
            out[0] = o;
        }
        if !self.linear.is_empty() {
            let run = &mut out[self.linear.start - start..self.linear.end - start];
            add_run(run, block, self.linear.start - 1, |_, y| y, term);
        }
        if !self.pure.is_empty() {
            let run = &mut out[self.pure.start - start..self.pure.end - start];
            let psi2 = |_, y: f64| (y * y - 1.0) * FRAC_1_SQRT_2;
            add_run(run, block, self.pure.start - n - 1, psi2, term);
        }
        if !self.cross.is_empty() {
            // Cross-block row `i` is the contiguous segment
            // `y_i·y[i+1..]`; only the first may start mid-row.
            let (mut i, mut j) = self.first_pair;
            let mut rest = &mut out[self.cross.start - start..];
            while !rest.is_empty() {
                let len = (n - j).min(rest.len());
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
                let yi: [f64; B] = std::array::from_fn(|b| block[b].0[i]);
                add_run(run, block, j, |b, yj| yi[b] * yj, term);
                rest = tail;
                i += 1;
                j = i + 1;
            }
        }
    }
}

/// Adds the block's rows into the run `out`, whose entry `e` takes
/// `g(b, x_b[src + e])` from row `b`: each entry is loaded once, gets
/// `term(w_b, g)` added for `b = 0, 1, …` in turn, and is stored once.
#[inline(always)]
fn add_run<const B: usize>(
    out: &mut [f64],
    block: &[(&[f64], f64); B],
    src: usize,
    g: impl Fn(usize, f64) -> f64,
    term: impl Fn(f64, f64) -> f64,
) {
    let ys: [&[f64]; B] = std::array::from_fn(|b| &block[b].0[src..src + out.len()]);
    for (e, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for (b, (y, &(_, wk))) in ys.iter().zip(block).enumerate() {
            acc += term(wk, g(b, y[e]));
        }
        *o = acc;
    }
}

/// Maps a lexicographic cross-term rank `c` to its `(i, j)` pair,
/// `0 ≤ i < j < n`: rank 0 ↦ (0,1), rank 1 ↦ (0,2), …
fn cross_pair(n: usize, c: usize) -> (usize, usize) {
    // Pairs with first index < i: S(i) = i·(2n − i − 1)/2.
    // Closed-form initial guess, then exact fixup (guards float error).
    let nf = n as f64;
    let cf = c as f64;
    let mut i = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0).powi(2) - 8.0 * cf).max(0.0).sqrt()) / 2.0)
        .floor() as usize;
    let s = |i: usize| i * (2 * n - i - 1) / 2;
    while i + 1 < n && s(i + 1) <= c {
        i += 1;
    }
    while i > 0 && s(i) > c {
        i -= 1;
    }
    let j = i + 1 + (c - s(i));
    debug_assert!(j < n, "cross_pair: rank {c} out of range for n={n}");
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_size_and_terms() {
        let d = Dictionary::new(5, DictionaryKind::Linear);
        assert_eq!(d.len(), 6);
        assert_eq!(d.atom(0), Atom::Constant);
        assert_eq!(d.atom(3), Atom::Linear(2));
        assert_eq!(d.atom(0).to_string(), "1");
        assert_eq!(d.atom(3).to_string(), "y2");
    }

    #[test]
    fn quadratic_size_matches_paper() {
        // Table II/III: 200 variables → 20 301 coefficients.
        let d = Dictionary::new(200, DictionaryKind::Quadratic);
        assert_eq!(d.len(), 20_301);
        // SRAM appendix note: 21 310 vars → 21 311 linear bases.
        let l = Dictionary::new(21_310, DictionaryKind::Linear);
        assert_eq!(l.len(), 21_311);
    }

    #[test]
    fn quadratic_term_layout() {
        let n = 4;
        let d = Dictionary::new(n, DictionaryKind::Quadratic);
        assert_eq!(d.len(), 1 + 8 + 6);
        assert_eq!(d.atom(0), Atom::Constant);
        assert_eq!(d.atom(1), Atom::Linear(0));
        assert_eq!(d.atom(n), Atom::Linear(n - 1));
        assert_eq!(d.atom(n + 1), Atom::PureQuadratic(0));
        assert_eq!(d.atom(2 * n), Atom::PureQuadratic(n - 1));
        assert_eq!(d.atom(2 * n + 1), Atom::Cross(0, 1));
        assert_eq!(d.atom(2 * n + 2), Atom::Cross(0, 2));
        assert_eq!(d.atom(2 * n + 3), Atom::Cross(0, 3));
        assert_eq!(d.atom(2 * n + 4), Atom::Cross(1, 2));
        assert_eq!(d.atom(d.len() - 1), Atom::Cross(2, 3));
        assert_eq!(d.atom(2 * n).to_string(), "ψ2(y3)");
        assert_eq!(d.atom(d.len() - 1).to_string(), "y2·y3");
    }

    #[test]
    fn cross_pair_exhaustive_small() {
        for n in 2..12 {
            let mut rank = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(cross_pair(n, rank), (i, j), "n={n} rank={rank}");
                    rank += 1;
                }
            }
        }
    }

    /// The dictionaries the atom pins run over: both kinds, with the
    /// quadratic one large enough that `cross_pair`'s square root has
    /// many ranks to resolve.
    fn pinned_dictionaries() -> [Dictionary; 2] {
        [
            Dictionary::new(7, DictionaryKind::Linear),
            Dictionary::new(70, DictionaryKind::Quadratic),
        ]
    }

    /// Points over `n` variables whose every third coordinate cycles
    /// through 0, −0, ±inf, NaN and 1e±300; the others are ordinary.
    fn special_points(n: usize) -> Vec<Vec<f64>> {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            1e-300,
            -1e-300,
        ];
        (0..specials.len())
            .map(|p| {
                (0..n)
                    .map(|v| match v % 3 {
                        0 => specials[(v / 3 + p) % specials.len()],
                        _ => ((v * 7 + p * 13) as f64 * 0.37).sin() * 2.1,
                    })
                    .collect()
            })
            .collect()
    }

    /// Every basis value of `d` at `dy` in index order, from the
    /// per-kind expressions written out once more, with the cross pairs
    /// enumerated by nested loops rather than decoded by rank.
    fn written_out(d: &Dictionary, dy: &[f64]) -> Vec<f64> {
        let mut row = vec![1.0];
        row.extend_from_slice(dy);
        if d.kind() == DictionaryKind::Quadratic {
            row.extend(dy.iter().map(|&y| (y * y - 1.0) * FRAC_1_SQRT_2));
            for (i, &yi) in dy.iter().enumerate() {
                row.extend(dy[i + 1..].iter().map(|&yj| yi * yj));
            }
        }
        row
    }

    #[test]
    fn eval_atom_pins_the_bits_of_every_kind() {
        for d in pinned_dictionaries() {
            let mut row = vec![0.0; d.len()];
            for dy in special_points(d.num_vars()) {
                let want = written_out(&d, &dy);
                assert_eq!(want.len(), d.len());
                d.eval_point_into(&dy, &mut row);
                for (m, &w) in want.iter().enumerate() {
                    let got = d.eval_atom(d.atom(m), &dy);
                    for (what, v) in [("eval_atom", got), ("eval_point_into", row[m])] {
                        if w.is_nan() {
                            assert!(v.is_nan(), "{what} {:?} m={m}: {v} for NaN", d.kind());
                        } else {
                            assert_eq!(v.to_bits(), w.to_bits(), "{what} {:?} m={m}", d.kind());
                        }
                    }
                    assert_eq!(d.eval_term(m, &dy).to_bits(), got.to_bits());
                }
            }
        }
    }

    #[test]
    fn atoms_follow_the_nested_loop_layout() {
        for d in pinned_dictionaries() {
            let n = d.num_vars();
            // The structured layout, enumerated without `cross_pair`.
            let mut layout = vec![Atom::Constant];
            layout.extend((0..n).map(Atom::Linear));
            if d.kind() == DictionaryKind::Quadratic {
                layout.extend((0..n).map(Atom::PureQuadratic));
                layout.extend((0..n).flat_map(|i| (i + 1..n).map(move |j| Atom::Cross(i, j))));
                assert_eq!(d.atom(2 * n + 1), Atom::Cross(0, 1), "first cross rank");
                assert_eq!(d.atom(d.len() - 1), Atom::Cross(n - 2, n - 1), "last");
            }
            assert_eq!(layout.len(), d.len());
            for (m, &want) in layout.iter().enumerate() {
                assert_eq!(d.atom(m), want, "{:?} m={m}", d.kind());
            }
        }
    }

    #[test]
    fn eval_point_into_matches_per_term() {
        let d = Dictionary::new(5, DictionaryKind::Quadratic);
        let dy = [1.0, -0.5, 0.0, 2.2, -1.7];
        let mut out = vec![0.0; d.len()];
        d.eval_point_into(&dy, &mut out);
        for (m, &o) in out.iter().enumerate() {
            assert!((o - d.eval_term(m, &dy)).abs() < 1e-13, "m={m}");
        }
    }

    #[test]
    fn design_matrix_rows_are_point_evals() {
        let d = Dictionary::new(3, DictionaryKind::Linear);
        let samples = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 0.5]]).unwrap();
        let g = d.design_matrix(&samples);
        assert_eq!(g.shape(), (2, 4));
        assert_eq!(g.row(0), &[1.0, 1.0, 2.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, -1.0, 0.0, 0.5]);
    }

    /// Row-at-a-time reference for `accumulate` and
    /// `accumulate_squares_of_rows`: whole rows from `eval_point_into`,
    /// taken in the order `rows` yields them and added in with
    /// `out += w·g` (or `g·g`).
    fn accumulate_by_rows(
        d: &Dictionary,
        samples: &Matrix,
        rows: impl IntoIterator<Item = usize>,
        weights: Option<&[f64]>,
        atoms: Range<usize>,
    ) -> Vec<f64> {
        let mut out = vec![0.0; atoms.len()];
        let mut row = vec![0.0; d.len()];
        for k in rows {
            if weights.is_some_and(|w| tol::exactly_zero(w[k])) {
                continue;
            }
            d.eval_point_into(samples.row(k), &mut row);
            for (o, &g) in out.iter_mut().zip(&row[atoms.clone()]) {
                *o += match weights {
                    Some(w) => w[k] * g,
                    None => g * g,
                };
            }
        }
        out
    }

    /// Rows `1..4·ROW_BLOCK` of a sample matrix over 5 variables, with
    /// weights that are zero (`0.0` and `−0.0` in turn) on every fourth
    /// row. The weighted sweep sees `3·ROW_BLOCK − 1` live rows and the
    /// squares sweep `4·ROW_BLOCK − 1`: full blocks, then a remainder
    /// that runs through the blocks of 4, 2 and 1.
    fn blocked_rows() -> (Matrix, Vec<f64>, Range<usize>) {
        let k = 4 * ROW_BLOCK;
        let samples = Matrix::from_fn(k, 5, |r, c| ((r * 5 + c) as f64 * 0.73).sin() * 1.9);
        let weights = (0..k)
            .map(|r| match r % 8 {
                2 => 0.0,
                6 => -0.0,
                _ => (r as f64 * 1.37).sin() * 2.5,
            })
            .collect();
        (samples, weights, 1..k)
    }

    /// A sample matrix over 5 variables with `8·ROW_BLOCK` rows, and a
    /// strictly increasing list of `4·ROW_BLOCK − 1` of them, the odd
    /// rows and every eighth row from 4, so one-row gaps split runs of
    /// one to three listed rows: full blocks, then a remainder that runs
    /// through the blocks of 4, 2 and 1. Every unlisted row holds NaN,
    /// ±inf and 1e300, so a sweep that read one would show it.
    fn listed_rows() -> (Matrix, Vec<usize>) {
        let k = 8 * ROW_BLOCK;
        let rows: Vec<usize> = (0..k)
            .filter(|r| r % 2 == 1 || r % 8 == 4)
            .take(4 * ROW_BLOCK - 1)
            .collect();
        assert_eq!(rows.len(), 4 * ROW_BLOCK - 1);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        let samples = Matrix::from_fn(k, 5, |r, c| match rows.binary_search(&r) {
            Ok(_) => ((r * 5 + c) as f64 * 0.73).sin() * 1.9,
            Err(_) => specials[(r + c) % specials.len()],
        });
        (samples, rows)
    }

    #[test]
    fn accumulate_squares_of_rows_matches_row_evaluation_on_every_atom_range() {
        let (samples, rows) = listed_rows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [DictionaryKind::Linear, DictionaryKind::Quadratic] {
            let d = Dictionary::new(5, kind);
            for lo in 0..=d.len() {
                for hi in lo..=d.len() {
                    let want = accumulate_by_rows(&d, &samples, rows.iter().copied(), None, lo..hi);
                    let mut got = vec![0.0; hi - lo];
                    d.accumulate_squares_of_rows(&samples, &rows, lo..hi, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{kind:?} atoms {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn accumulate_matches_row_evaluation_on_every_atom_range() {
        // Every sub-range of atoms, so ranges start and end inside the
        // linear, pure and cross blocks and split every cross-term row.
        let (samples, weights, rows) = blocked_rows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [DictionaryKind::Linear, DictionaryKind::Quadratic] {
            let d = Dictionary::new(5, kind);
            for lo in 0..=d.len() {
                for hi in lo..=d.len() {
                    for w in [Some(&weights[..]), None] {
                        let want = accumulate_by_rows(&d, &samples, rows.clone(), w, lo..hi);
                        let acc = w.map_or(Accumulation::Squares, Accumulation::Weighted);
                        let mut got = vec![0.0; hi - lo];
                        d.accumulate(&samples, rows.clone(), acc, lo..hi, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{kind:?} atoms {lo}..{hi}");
                    }
                }
            }
        }
    }

    #[test]
    fn plain_kernel_matches_the_dispatched_kernel() {
        // The dispatched `accumulate` runs the AVX2 build where the CPU
        // has AVX2, so this pins the plain build to it on such hosts.
        // Only NaN-ness is compared for NaN entries: which operand's
        // payload an addition propagates is up to the compiler.
        if sweep_kernel() == "plain" {
            println!("this CPU lacks AVX2: both sides run the plain kernel");
        }
        let bits = |v: &[f64]| {
            v.iter()
                .map(|&x| if x.is_nan() { f64::NAN } else { x }.to_bits())
                .collect::<Vec<_>>()
        };
        let (samples, base, rows) = blocked_rows();
        let specials = [1e300, -1e-300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut weights = base.clone();
        for (k, w) in weights.iter_mut().enumerate().filter(|(k, _)| k % 4 == 3) {
            *w = specials[(k / 4) % specials.len()];
        }
        for kind in [DictionaryKind::Linear, DictionaryKind::Quadratic] {
            let d = Dictionary::new(5, kind);
            for lo in 0..=d.len() {
                for hi in lo..=d.len() {
                    for w in [Some(&base[..]), Some(&weights[..]), None] {
                        let acc = w.map_or(Accumulation::Squares, Accumulation::Weighted);
                        let mut dispatched = vec![0.0; hi - lo];
                        d.accumulate(&samples, rows.clone(), acc, lo..hi, &mut dispatched);
                        // `sweep_blocks` inlined here is the plain build.
                        let mut plain = vec![0.0; hi - lo];
                        let layout = Layout::new(d.num_vars(), lo..hi);
                        let live = live_rows(rows.clone(), w);
                        match w {
                            Some(_) => {
                                sweep_blocks(&layout, &samples, live, &mut plain, |wk, g| wk * g)
                            }
                            None => sweep_blocks(&layout, &samples, live, &mut plain, |_, g| g * g),
                        }
                        assert_eq!(bits(&plain), bits(&dispatched), "{kind:?} atoms {lo}..{hi}");
                    }
                }
            }
        }
        // The listed entry, with the same specials in some listed rows.
        let (mut listed_samples, rows) = listed_rows();
        for (i, &r) in rows.iter().enumerate().filter(|(i, _)| i % 4 == 3) {
            listed_samples[(r, i % 5)] = specials[(i / 4) % specials.len()];
        }
        for kind in [DictionaryKind::Linear, DictionaryKind::Quadratic] {
            let d = Dictionary::new(5, kind);
            for lo in 0..=d.len() {
                for hi in lo..=d.len() {
                    let mut dispatched = vec![0.0; hi - lo];
                    d.accumulate_squares_of_rows(&listed_samples, &rows, lo..hi, &mut dispatched);
                    let mut plain = vec![0.0; hi - lo];
                    let layout = Layout::new(d.num_vars(), lo..hi);
                    let listed = rows.iter().map(|&k| (k, 1.0));
                    sweep_blocks(&layout, &listed_samples, listed, &mut plain, |_, g| g * g);
                    assert_eq!(
                        bits(&plain),
                        bits(&dispatched),
                        "listed, {kind:?} atoms {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn term_index_out_of_range_panics() {
        let d = Dictionary::new(3, DictionaryKind::Linear);
        let _ = d.atom(4);
    }

    #[test]
    fn quadratic_family_is_orthonormal_under_the_three_point_rule() {
        // The 3-point Gauss–Hermite rule for N(0, 1) (nodes 0 and ±√3,
        // weights 2/3 and 1/6) is exact up to degree 5 in each
        // variable, and every product g_i·g_j of the quadratic family
        // has degree ≤ 4 in each, so the 27-point tensor rule over 3
        // variables gives E[g_i·g_j] = δ_ij exactly but for rounding.
        let r3 = 3f64.sqrt();
        let rule = [(0.0, 2.0 / 3.0), (r3, 1.0 / 6.0), (-r3, 1.0 / 6.0)];
        let d = Dictionary::new(3, DictionaryKind::Quadratic);
        let m = d.len();
        let mut gram = vec![0.0; m * m];
        let mut row = vec![0.0; m];
        for &(y0, w0) in &rule {
            for &(y1, w1) in &rule {
                for &(y2, w2) in &rule {
                    d.eval_point_into(&[y0, y1, y2], &mut row);
                    for (i, &gi) in row.iter().enumerate() {
                        for (j, &gj) in row.iter().enumerate() {
                            gram[i * m + j] += w0 * w1 * w2 * gi * gj;
                        }
                    }
                }
            }
        }
        for i in 0..m {
            for j in 0..m {
                let v = gram[i * m + j];
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-14, "E[g{i}·g{j}] = {v}");
            }
        }
    }
}
