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
//!
//! An arbitrary total-degree family is provided for small `N`.

use crate::hermite;
use crate::term::Term;
use rsm_linalg::{tol, Matrix};
use std::f64::consts::FRAC_1_SQRT_2;
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
    /// All Hermite products of total degree ≤ d (small `N` only —
    /// the term list is materialized).
    TotalDegree(u32),
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
    /// Materialized terms for [`DictionaryKind::TotalDegree`].
    terms: Option<Vec<Term>>,
}

impl Dictionary {
    /// Creates a dictionary over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or for [`DictionaryKind::TotalDegree`] if the
    /// term count would exceed 10⁷ (use the structured families
    /// instead).
    pub fn new(n: usize, kind: DictionaryKind) -> Self {
        assert!(n > 0, "dictionary needs at least one variable");
        let terms = match kind {
            DictionaryKind::TotalDegree(d) => {
                /// DFS frame: (next variable, remaining degree, partial factors).
                type Frame = (usize, u32, Vec<(usize, u32)>);
                let mut terms = Vec::new();
                let mut stack: Vec<Frame> = vec![(0, d, Vec::new())];
                // Depth-first enumeration of exponent vectors with
                // total degree ≤ d, producing graded-lexicographic-ish
                // order after the sort below.
                while let Some((v, rem, partial)) = stack.pop() {
                    if v == n {
                        terms.push(Term::new(partial));
                        continue;
                    }
                    for deg in (0..=rem).rev() {
                        let mut p = partial.clone();
                        if deg > 0 {
                            p.push((v, deg));
                        }
                        stack.push((v + 1, rem - deg, p));
                    }
                    assert!(
                        terms.len() <= 10_000_000,
                        "total-degree dictionary too large; use Linear/Quadratic"
                    );
                }
                terms.sort_by_key(|t| {
                    (
                        t.total_degree(),
                        t.factors().iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                    )
                });
                Some(terms)
            }
            _ => None,
        };
        Dictionary { n, kind, terms }
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
    #[expect(
        clippy::expect_used,
        reason = "constructor materializes `terms` for TotalDegree; absence is a construction bug"
    )]
    pub fn len(&self) -> usize {
        match self.kind {
            DictionaryKind::Linear => 1 + self.n,
            DictionaryKind::Quadratic => 1 + 2 * self.n + self.n * (self.n - 1) / 2,
            DictionaryKind::TotalDegree(_) => self.terms.as_ref().expect("materialized").len(),
        }
    }

    /// `false` always (a dictionary contains at least the constant);
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `m`-th basis function as a [`Term`].
    ///
    /// # Panics
    ///
    /// Panics if `m >= len()`.
    #[expect(
        clippy::expect_used,
        reason = "constructor materializes `terms` for TotalDegree; absence is a construction bug"
    )]
    pub fn term(&self, m: usize) -> Term {
        assert!(m < self.len(), "term index {m} out of range {}", self.len());
        match self.kind {
            DictionaryKind::Linear => {
                if m == 0 {
                    Term::constant()
                } else {
                    Term::linear(m - 1)
                }
            }
            DictionaryKind::Quadratic => {
                let n = self.n;
                if m == 0 {
                    Term::constant()
                } else if m <= n {
                    Term::linear(m - 1)
                } else if m <= 2 * n {
                    Term::pure_quadratic(m - n - 1)
                } else {
                    let (i, j) = cross_pair(n, m - 2 * n - 1);
                    Term::cross(i, j)
                }
            }
            DictionaryKind::TotalDegree(_) => self.terms.as_ref().expect("materialized")[m].clone(),
        }
    }

    /// Evaluates basis function `m` at one point.
    ///
    /// For scattered single-term queries; use [`Self::eval_point_into`]
    /// when all `M` values are needed.
    pub fn eval_term(&self, m: usize, dy: &[f64]) -> f64 {
        match self.kind {
            DictionaryKind::Linear => {
                if m == 0 {
                    1.0
                } else {
                    dy[m - 1]
                }
            }
            DictionaryKind::Quadratic => {
                let n = self.n;
                if m == 0 {
                    1.0
                } else if m <= n {
                    dy[m - 1]
                } else if m <= 2 * n {
                    let y = dy[m - n - 1];
                    (y * y - 1.0) * std::f64::consts::FRAC_1_SQRT_2
                } else {
                    let (i, j) = cross_pair(n, m - 2 * n - 1);
                    dy[i] * dy[j]
                }
            }
            DictionaryKind::TotalDegree(_) => self.term(m).eval(dy),
        }
    }

    /// Evaluates all `M` basis functions at one point into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != N` or `out.len() != M`.
    #[expect(
        clippy::expect_used,
        reason = "constructor materializes `terms` for TotalDegree; absence is a construction bug"
    )]
    pub fn eval_point_into(&self, dy: &[f64], out: &mut [f64]) {
        assert_eq!(dy.len(), self.n, "eval_point_into: wrong input dimension");
        assert_eq!(out.len(), self.len(), "eval_point_into: wrong output size");
        match self.kind {
            DictionaryKind::Linear => {
                out[0] = 1.0;
                out[1..].copy_from_slice(dy);
            }
            DictionaryKind::Quadratic => {
                let n = self.n;
                out[0] = 1.0;
                out[1..=n].copy_from_slice(dy);
                for (v, &y) in dy.iter().enumerate() {
                    out[n + 1 + v] = (y * y - 1.0) * std::f64::consts::FRAC_1_SQRT_2;
                }
                let mut p = 2 * n + 1;
                for (i, &yi) in dy.iter().enumerate() {
                    for &yj in &dy[i + 1..] {
                        out[p] = yi * yj;
                        p += 1;
                    }
                }
            }
            DictionaryKind::TotalDegree(d) => {
                // Shared ψ table: psis[v][k] = ψ_k(dy[v]).
                let dmax = d as usize;
                let mut psis = vec![0.0; self.n * (dmax + 1)];
                for (chunk, &yv) in psis.chunks_exact_mut(dmax + 1).zip(dy) {
                    hermite::psi_all(yv, chunk);
                }
                for (m, t) in self
                    .terms
                    .as_ref()
                    .expect("materialized")
                    .iter()
                    .enumerate()
                {
                    let mut prod = 1.0;
                    for &(v, deg) in t.factors() {
                        prod *= psis[v * (dmax + 1) + deg as usize];
                    }
                    out[m] = prod;
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

    /// Evaluates a block of columns `[col_start, col_start + out.cols())`
    /// of the design matrix into `out` — the streaming path for
    /// dictionaries too large to materialize.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds `M` or `samples.cols() != N` or
    /// `out.rows() != samples.rows()`.
    pub fn eval_column_block(&self, samples: &Matrix, col_start: usize, out: &mut Matrix) {
        assert_eq!(samples.cols(), self.n);
        assert_eq!(out.rows(), samples.rows());
        let width = out.cols();
        assert!(col_start + width <= self.len(), "column block out of range");
        for r in 0..samples.rows() {
            let dy = samples.row(r);
            for c in 0..width {
                out[(r, c)] = self.eval_term(col_start + c, dy);
            }
        }
    }

    /// Adds one pass over the sample rows `rows` (in ascending order)
    /// into the atom range `atoms`: for every row `k` and atom `j`,
    /// `out[j − atoms.start] += w_k·g_j(x_k)`, or `g_j(x_k)²` (see
    /// [`Accumulation`]).
    ///
    /// This is the streaming kernel behind the dictionary source's
    /// correlation and norm sweeps. No `M`-wide row is materialized:
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
        // A total-degree dictionary evaluates its materialized terms
        // through the shared ψ table of `eval_point_into`, row by row.
        if let (DictionaryKind::TotalDegree(d), Some(terms)) = (self.kind, &self.terms) {
            let stride = d as usize + 1;
            let mut psis = vec![0.0; self.n * stride];
            for (k, wk) in live {
                for (chunk, &yv) in psis.chunks_exact_mut(stride).zip(samples.row(k)) {
                    hermite::psi_all(yv, chunk);
                }
                for (o, t) in out.iter_mut().zip(&terms[atoms.clone()]) {
                    let mut prod = 1.0;
                    for &(v, deg) in t.factors() {
                        prod *= psis[v * stride + deg as usize];
                    }
                    *o += term(wk, prod);
                }
            }
            return;
        }
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
/// so every entry still takes the rows one at a time in ascending order.
///
/// Always inlined, so every caller compiles it for its own target
/// features: `accumulate` for the target's baseline (the plain kernel,
/// the only one off x86_64 and on CPUs without AVX2), [`sweep_avx2`]
/// for AVX2.
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
        assert!(d.term(0).is_constant());
        assert_eq!(d.term(3), Term::linear(2));
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
        assert!(d.term(0).is_constant());
        assert_eq!(d.term(1), Term::linear(0));
        assert_eq!(d.term(n), Term::linear(n - 1));
        assert_eq!(d.term(n + 1), Term::pure_quadratic(0));
        assert_eq!(d.term(2 * n), Term::pure_quadratic(n - 1));
        assert_eq!(d.term(2 * n + 1), Term::cross(0, 1));
        assert_eq!(d.term(2 * n + 2), Term::cross(0, 2));
        assert_eq!(d.term(2 * n + 3), Term::cross(0, 3));
        assert_eq!(d.term(2 * n + 4), Term::cross(1, 2));
        assert_eq!(d.term(d.len() - 1), Term::cross(2, 3));
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

    #[test]
    fn eval_term_matches_term_eval() {
        let d = Dictionary::new(6, DictionaryKind::Quadratic);
        let dy = [0.3, -1.1, 0.8, 2.0, -0.4, 0.05];
        for m in 0..d.len() {
            let direct = d.eval_term(m, &dy);
            let via_term = d.term(m).eval(&dy);
            assert!((direct - via_term).abs() < 1e-13, "m={m}");
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

    #[test]
    fn column_block_matches_design_matrix() {
        let d = Dictionary::new(4, DictionaryKind::Quadratic);
        let samples = Matrix::from_fn(7, 4, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let g = d.design_matrix(&samples);
        let mut block = Matrix::zeros(7, 5);
        d.eval_column_block(&samples, 6, &mut block);
        for r in 0..7 {
            for c in 0..5 {
                assert!((block[(r, c)] - g[(r, 6 + c)]).abs() < 1e-14);
            }
        }
    }

    /// Row-at-a-time reference for `accumulate`: whole rows from
    /// `eval_point_into`, added in with `out += w·g` (or `g·g`).
    fn accumulate_by_rows(
        d: &Dictionary,
        samples: &Matrix,
        rows: Range<usize>,
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

    #[test]
    fn accumulate_matches_row_evaluation_on_every_atom_range() {
        // Every sub-range of atoms, so ranges start and end inside the
        // linear, pure and cross blocks and split every cross-term row.
        let (samples, weights, rows) = blocked_rows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [
            DictionaryKind::Linear,
            DictionaryKind::Quadratic,
            DictionaryKind::TotalDegree(3),
        ] {
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
    }

    #[test]
    fn total_degree_dictionary_counts() {
        // N=2, d=2 → 1 + 2 + 3 = 6 terms (Eq. (4) of the paper).
        let d = Dictionary::new(2, DictionaryKind::TotalDegree(2));
        assert_eq!(d.len(), 6);
        // First term constant, next two linear (paper's g1..g5 ordering
        // up to within-degree permutation).
        assert!(d.term(0).is_constant());
        assert_eq!(d.term(1).total_degree(), 1);
        assert_eq!(d.term(2).total_degree(), 1);
        for m in 3..6 {
            assert_eq!(d.term(m).total_degree(), 2);
        }
    }

    #[test]
    fn total_degree_matches_binomial() {
        // #terms of total degree ≤ d in n vars = C(n + d, d).
        let d = Dictionary::new(3, DictionaryKind::TotalDegree(3));
        assert_eq!(d.len(), 20); // C(6,3)
        let d2 = Dictionary::new(4, DictionaryKind::TotalDegree(2));
        assert_eq!(d2.len(), 15); // C(6,2)
    }

    #[test]
    fn total_degree_eval_consistency() {
        let d = Dictionary::new(3, DictionaryKind::TotalDegree(3));
        let dy = [0.4, -1.2, 0.9];
        let mut out = vec![0.0; d.len()];
        d.eval_point_into(&dy, &mut out);
        for (m, v) in out.iter().enumerate() {
            assert!((v - d.term(m).eval(&dy)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn term_index_out_of_range_panics() {
        let d = Dictionary::new(3, DictionaryKind::Linear);
        let _ = d.term(4);
    }

    #[test]
    fn quadratic_orthonormality_monte_carlo() {
        // E[g_i g_j] = δ_ij for the quadratic family under N(0, I).
        use rsm_stats::NormalSampler;
        let n = 3;
        let d = Dictionary::new(n, DictionaryKind::Quadratic);
        let mut s = NormalSampler::seed_from_u64(99);
        let k = 200_000;
        let m = d.len();
        let mut acc = vec![0.0; m * m];
        let mut row = vec![0.0; m];
        for _ in 0..k {
            let dy = s.sample_vec(n);
            d.eval_point_into(&dy, &mut row);
            for i in 0..m {
                for j in i..m {
                    acc[i * m + j] += row[i] * row[j];
                }
            }
        }
        for i in 0..m {
            for j in i..m {
                let v = acc[i * m + j] / k as f64;
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - expect).abs() < 0.05,
                    "E[g{i}·g{j}] = {v}, expected {expect}"
                );
            }
        }
    }
}
