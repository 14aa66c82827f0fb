//! Incremental solver sessions — resumable `FitSession` state objects
//! for LAR, OMP, and coordinate-descent lasso.
//!
//! The batch entry points (`LarConfig::fit_source`, `OmpConfig::
//! fit_source`, `LassoCdConfig::fit_warm_source`) are thin wrappers
//! over the types in this module: they create a session, feed it the
//! whole sample set in one [`extend_samples`](FitSession::extend_samples)
//! call, and run the path to completion. The streaming driver
//! ([`crate::solver::fit_streaming`]) instead alternates `extend_samples`
//! with [`step`](LarSession::step)/`run_to` calls as sample batches
//! arrive, so fitting overlaps sample production.
//!
//! # What is incremental where
//!
//! Every session splits its state into two layers:
//!
//! - **Data-sweep accumulators** (column square norms, raw correlations
//!   `Gᵀ·F`, response norm). These are rank-k updatable: a batch of
//!   `ΔK` new rows contributes additively in `O(ΔK·M)`, so no full
//!   re-sweep of the old rows ever happens.
//! - **Path state** (active set, Cholesky/QR factors, residual,
//!   snapshots). OMP's invariant — residual orthogonal to the selected
//!   span — is restorable exactly after new rows arrive (one `O(K·p)`
//!   refactorization over `p` selected atoms, not a re-selection), so
//!   [`OmpSession`] *resumes* its greedy selection where it left off.
//!   LAR's equiangular invariant (all active atoms tie in absolute
//!   correlation) is a property of the data, not of the iterate, so
//!   [`LarSession`] restarts its path from step 0 on extension — but
//!   keeps the accumulated sweeps, and its per-step re-solve stays
//!   `O(p²)` thanks to the persistent [`GrowingCholesky`] with
//!   [`drop_column`](GrowingCholesky::drop_column) downdates on lasso
//!   drops (previously an `O(p³)` rebuild).
//!
//! # Numerical contract
//!
//! A session fed all samples in a single `extend_samples` call performs
//! bit-for-bit the same floating-point operations as the pre-session
//! batch solvers, with one sanctioned exception: the lasso drop path
//! now downdates the Cholesky factor instead of refactorizing, which
//! changes low-order bits after the first drop (pinned by the
//! golden-bits tests in `tests/lasso_drop.rs`). Multi-batch extension
//! accumulates the data sweeps batch-by-batch, which differs from the
//! single-sweep result in low-order bits but is *bit-identical across
//! thread counts* because every inner kernel goes through the runtime's
//! fixed-order fold.

use crate::lar::LarConfig;
use crate::lasso_cd::{soft_threshold, LassoCdConfig};
use crate::model::SparseModel;
use crate::omp::OmpConfig;
use crate::path::SparsePath;
use crate::solver::Method;
use crate::source::{AtomSource, RowSubsetSource};
use crate::{CoreError, Result};
use rsm_linalg::cholesky::GrowingCholesky;
use rsm_linalg::qr::GrowingQr;
use rsm_linalg::tol;
use rsm_linalg::vec_ops::{axpy, dot, norm2};
use std::ops::Range;

/// Outcome of a single [`step`](LarSession::step) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The path advanced by one step (one more snapshot recorded).
    Advanced,
    /// The path is finished — no further step will change the model.
    Finished,
}

/// Common surface of the incremental solver sessions.
pub trait FitSession {
    /// Number of sample rows consumed so far.
    fn rows_seen(&self) -> usize;

    /// Feeds the next contiguous batch of sample rows.
    ///
    /// `g` and `f` must describe the **full** data seen so far plus the
    /// new batch (`g.num_rows() == f.len() == new_rows.end`), and
    /// `new_rows.start` must equal [`rows_seen`](Self::rows_seen): the
    /// session reads only the new rows for its rank-k sweep updates but
    /// may gather full columns to restore factor invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] on non-contiguous or misshapen
    /// batches; [`CoreError::BadConfig`] if the new response rows are
    /// non-finite.
    fn extend_samples<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        new_rows: Range<usize>,
    ) -> Result<()>;
}

/// Validates a batch against the rows already consumed. Returns the
/// batch row indices as a vector (for [`RowSubsetSource`] views).
fn check_batch<S: AtomSource + ?Sized>(
    rows_seen: usize,
    m: usize,
    g: &S,
    f: &[f64],
    new_rows: &Range<usize>,
) -> Result<Vec<usize>> {
    if g.num_atoms() != m {
        return Err(CoreError::ShapeMismatch {
            expected: format!("source with {m} atoms"),
            found: format!("{} atoms", g.num_atoms()),
        });
    }
    if new_rows.start != rows_seen || new_rows.end < new_rows.start {
        return Err(CoreError::ShapeMismatch {
            expected: format!("contiguous batch starting at row {rows_seen}"),
            found: format!("rows {}..{}", new_rows.start, new_rows.end),
        });
    }
    if g.num_rows() != new_rows.end || f.len() != new_rows.end {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {}", new_rows.end),
            found: format!(
                "source with {} rows, response of length {}",
                g.num_rows(),
                f.len()
            ),
        });
    }
    if f[new_rows.clone()].iter().any(|v| !v.is_finite()) {
        return Err(CoreError::BadConfig(
            "response vector contains non-finite values".into(),
        ));
    }
    Ok(new_rows.clone().collect())
}

// ---------------------------------------------------------------------------
// Sample deltas (streaming batches)
// ---------------------------------------------------------------------------

/// The rank-k data-sweep contribution of one contiguous batch of sample
/// rows, computed away from any session (typically by a runtime worker)
/// and applied in row order via [`LarSession::apply_delta`] /
/// [`OmpSession::apply_delta`].
///
/// A delta carries `O(M)` numbers regardless of the batch length, so the
/// pipelined driver ([`crate::solver::fit_streaming`]) moves deltas —
/// not sample rows — from its producer workers to the fitter.
#[derive(Debug, Clone)]
pub struct SampleDelta {
    /// The contiguous row range this delta covers.
    pub rows: Range<usize>,
    /// `Σ_{r∈rows} G[r,j]²` per atom.
    pub col_sq: Vec<f64>,
    /// `Σ_{r∈rows} G[r,j]·F[r]` per atom (empty when computed with
    /// `with_correlations == false`).
    pub c0: Vec<f64>,
    /// `Σ_{r∈rows} F[r]²`.
    pub f_sq: f64,
}

impl SampleDelta {
    /// Sweeps the given rows of `g`/`f` into a delta. `f` is indexed
    /// absolutely (`f.len() >= rows.end` and `rows.end <=
    /// g.num_rows()`). Raw correlations are computed only when the
    /// consuming session needs them (LAR does; OMP correlates against
    /// its own residual instead).
    ///
    /// The response rows are *not* validated for finiteness here — the
    /// streaming driver checks `f` once up front.
    pub fn compute<S: AtomSource + ?Sized>(
        g: &S,
        f: &[f64],
        rows: Range<usize>,
        with_correlations: bool,
    ) -> Self {
        let idx: Vec<usize> = rows.clone().collect();
        let view = RowSubsetSource::new(g, &idx);
        let col_sq = view.column_sq_norms();
        let fb = &f[rows.clone()];
        let c0 = if with_correlations {
            view.correlate(fb)
        } else {
            Vec::new()
        };
        SampleDelta {
            rows,
            col_sq,
            c0,
            f_sq: dot(fb, fb),
        }
    }

    /// Validates the delta against a session that has consumed
    /// `rows_seen` rows of an `m`-atom dictionary.
    fn check(&self, rows_seen: usize, m: usize, need_c0: bool) -> Result<()> {
        if self.rows.start != rows_seen || self.rows.end < self.rows.start {
            return Err(CoreError::ShapeMismatch {
                expected: format!("contiguous delta starting at row {rows_seen}"),
                found: format!("rows {}..{}", self.rows.start, self.rows.end),
            });
        }
        if self.col_sq.len() != m || (need_c0 && self.c0.len() != m) {
            return Err(CoreError::ShapeMismatch {
                expected: format!("delta over {m} atoms"),
                found: format!(
                    "{} square norms, {} correlations",
                    self.col_sq.len(),
                    self.c0.len()
                ),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LAR
// ---------------------------------------------------------------------------

/// Per-path state of a [`LarSession`]; recreated whenever samples are
/// extended (the equiangular invariant is data-dependent).
#[derive(Debug, Clone)]
struct LarPathState {
    /// `‖G_j‖₂` over the rows seen (√ of the accumulated square norms).
    col_norms: Vec<f64>,
    /// Atoms excluded for this path: zero-norm or numerically dependent.
    excluded: Vec<bool>,
    /// Current fit `X·β` in sample space.
    mu: Vec<f64>,
    /// Normalized correlations `Xᵀ(f − μ)` (X = column-normalized G).
    c: Vec<f64>,
    active: Vec<usize>,
    in_active: Vec<bool>,
    /// Coefficients in normalized coordinates.
    beta: Vec<f64>,
    chol: GrowingCholesky,
    /// Normalized active columns, in activation order.
    active_cols: Vec<Vec<f64>>,
    snapshots: Vec<SparseModel>,
    residual_norms: Vec<f64>,
    steps: usize,
    /// Absolute correlation floor `rel_tol · ‖F‖₂`.
    tol: f64,
    max_active: usize,
    done: bool,
}

/// Resumable least-angle-regression state: accumulated data sweeps plus
/// a restartable path.
///
/// See the [module docs](self) for the incrementality contract.
#[derive(Debug, Clone)]
pub struct LarSession {
    cfg: LarConfig,
    m: usize,
    k: usize,
    /// Accumulated `Σ_r G[r,j]²`.
    col_sq: Vec<f64>,
    /// Accumulated raw correlations `Σ_r G[r,j]·F[r]`.
    c0: Vec<f64>,
    /// Accumulated `Σ_r F[r]²` (the streaming response-norm source).
    f_sq: f64,
    /// `‖F‖₂` over the rows seen (recomputed exactly by
    /// [`FitSession::extend_samples`]; derived from [`Self::f_sq`] on
    /// the delta path).
    f_norm: f64,
    path: Option<LarPathState>,
}

impl LarSession {
    /// Creates an empty session over a dictionary of `m` atoms.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if `cfg.max_steps == 0`.
    pub fn new(cfg: LarConfig, m: usize) -> Result<Self> {
        if cfg.max_steps == 0 {
            return Err(CoreError::BadConfig("max_steps must be at least 1".into()));
        }
        Ok(LarSession {
            cfg,
            m,
            k: 0,
            col_sq: vec![0.0; m],
            c0: vec![0.0; m],
            f_sq: 0.0,
            f_norm: 0.0,
            path: None,
        })
    }

    /// Applies a worker-produced batch without touching the data: the
    /// streaming counterpart of [`FitSession::extend_samples`]. The
    /// response norm is derived from the accumulated `Σ F[r]²` (instead
    /// of an exact `O(K)` re-norm), so multi-delta sessions differ from
    /// single-batch fits in low-order bits — but remain bit-identical
    /// across thread counts for a fixed batch grid.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] for a non-contiguous batch or a
    /// delta computed without correlations.
    pub fn apply_delta(&mut self, d: SampleDelta) -> Result<()> {
        d.check(self.k, self.m, true)?;
        if self.k == 0 {
            self.col_sq = d.col_sq;
            self.c0 = d.c0;
        } else {
            // `d.check` proved both sides are m-length; the asserts
            // document the lockstep contract at the zip itself.
            debug_assert_eq!(self.col_sq.len(), d.col_sq.len());
            debug_assert_eq!(self.c0.len(), d.c0.len());
            for (acc, v) in self.col_sq.iter_mut().zip(&d.col_sq) {
                *acc += v;
            }
            for (acc, v) in self.c0.iter_mut().zip(&d.c0) {
                *acc += v;
            }
        }
        self.k = d.rows.end;
        self.f_sq += d.f_sq;
        self.f_norm = self.f_sq.max(0.0).sqrt();
        self.path = None;
        Ok(())
    }

    /// Number of path steps taken so far (0 before the first `step`).
    pub fn steps_taken(&self) -> usize {
        self.path.as_ref().map_or(0, |p| p.steps)
    }

    /// `true` once the path can no longer advance.
    pub fn is_finished(&self) -> bool {
        self.path.as_ref().is_some_and(|p| p.done)
    }

    /// Starts (or restarts) the path from the accumulated sweeps.
    fn ensure_started(&mut self) {
        if self.path.is_some() {
            return;
        }
        let m = self.m;
        let mut col_norms = self.col_sq.clone();
        let mut excluded = vec![false; m];
        for (j, n) in col_norms.iter_mut().enumerate() {
            *n = n.sqrt();
            if *n <= tol::NORM_FLOOR {
                excluded[j] = true;
            }
        }
        let mut c = self.c0.clone();
        for (j, v) in c.iter_mut().enumerate() {
            *v /= col_norms[j].max(tol::NORM_FLOOR);
        }
        let mut state = LarPathState {
            col_norms,
            excluded,
            mu: vec![0.0; self.k],
            c,
            active: Vec::new(),
            in_active: vec![false; m],
            beta: vec![0.0; m],
            chol: GrowingCholesky::new(),
            active_cols: Vec::new(),
            snapshots: Vec::new(),
            residual_norms: Vec::new(),
            steps: 0,
            tol: self.cfg.rel_tol * self.f_norm,
            max_active: self.cfg.max_steps.min(self.k).min(m),
            done: false,
        };
        if tol::exactly_zero(self.f_norm) {
            // Degenerate response: the zero model is exact.
            state.snapshots.push(SparseModel::zero(m));
            state.residual_norms.push(0.0);
            state.done = true;
        }
        self.path = Some(state);
    }

    /// Advances the path by one LAR step (one activation / advance /
    /// possible lasso drop), recording one snapshot.
    ///
    /// `g` and `f` must cover exactly the rows fed so far.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] if the active-set factorization breaks
    /// down irrecoverably.
    pub fn step<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<StepOutcome> {
        self.ensure_started();
        let k = self.k;
        let m = self.m;
        let lasso = self.cfg.lasso;
        let max_steps = self.cfg.max_steps;
        #[expect(
            clippy::expect_used,
            reason = "ensure_started() above guarantees the path state exists"
        )]
        let st = self.path.as_mut().expect("path state initialized");
        if st.done || st.steps >= max_steps {
            st.done = true;
            return Ok(StepOutcome::Finished);
        }

        // Activation: scan for the maximal absolute correlation among
        // non-active columns, retrying past numerically dependent atoms
        // (each retry re-scans the unchanged correlation vector, which
        // is exactly what the batch solver's `continue` did).
        loop {
            let mut cmax = 0.0f64;
            let mut jbest: Option<usize> = None;
            for j in 0..m {
                if st.in_active[j] || st.excluded[j] {
                    continue;
                }
                let a = st.c[j].abs();
                if a > cmax {
                    cmax = a;
                    jbest = Some(j);
                }
            }
            if st.active.len() < st.max_active {
                match jbest {
                    Some(j) if cmax > st.tol => {
                        let mut col = vec![0.0; k];
                        g.column_into(j, &mut col);
                        let inv = 1.0 / st.col_norms[j];
                        for v in &mut col {
                            *v *= inv;
                        }
                        let cross: Vec<f64> =
                            st.active_cols.iter().map(|ac| dot(ac, &col)).collect();
                        match st.chol.push(&cross, 1.0) {
                            Ok(()) => {
                                st.active.push(j);
                                st.in_active[j] = true;
                                st.active_cols.push(col);
                                break;
                            }
                            Err(_) => {
                                st.excluded[j] = true;
                                continue; // try the next-best column
                            }
                        }
                    }
                    _ => {
                        // Nothing informative left.
                        st.done = true;
                        return Ok(StepOutcome::Finished);
                    }
                }
            } else if st.active.is_empty() {
                st.done = true;
                return Ok(StepOutcome::Finished);
            } else {
                // Saturated: keep advancing along the current set.
                break;
            }
        }
        st.steps += 1;

        // Equiangular direction.
        let signs: Vec<f64> = st.active.iter().map(|&j| st.c[j].signum()).collect();
        let w_raw = st.chol.solve(&signs)?;
        let s_dot_w = dot(&signs, &w_raw);
        if s_dot_w <= 0.0 {
            return Err(CoreError::Numerical(
                "LARS equiangular normalization failed (Gram not PD)".into(),
            ));
        }
        let a_a = 1.0 / s_dot_w.sqrt();
        let w: Vec<f64> = w_raw.iter().map(|v| v * a_a).collect();
        // u = X_A·w ; a = Xᵀ·u.
        let mut u = vec![0.0; k];
        for (ac, &wj) in st.active_cols.iter().zip(&w) {
            axpy(wj, ac, &mut u);
        }
        let mut a_vec = g.correlate(&u);
        for (j, v) in a_vec.iter_mut().enumerate() {
            *v /= st.col_norms[j].max(tol::NORM_FLOOR);
        }
        // Correlation level inside the active set.
        let c_level = st
            .active
            .iter()
            .map(|&j| st.c[j].abs())
            .fold(0.0f64, f64::max);

        // Step length to the next activation event.
        let mut gamma = c_level / a_a; // full step (last-variable case)
        for j in 0..m {
            if st.in_active[j] || st.excluded[j] {
                continue;
            }
            for cand in [
                (c_level - st.c[j]) / (a_a - a_vec[j]),
                (c_level + st.c[j]) / (a_a + a_vec[j]),
            ] {
                if cand > tol::STEP_REL_TOL && cand < gamma {
                    gamma = cand;
                }
            }
        }
        // Lasso: step length to the first zero crossing.
        let mut drop_idx: Option<usize> = None;
        if lasso {
            for (pos, (&j, &wj)) in st.active.iter().zip(&w).enumerate() {
                if !tol::exactly_zero(wj) {
                    let gd = -st.beta[j] / wj;
                    if gd > tol::STEP_REL_TOL && gd < gamma {
                        gamma = gd;
                        drop_idx = Some(pos);
                    }
                }
            }
        }

        // Advance.
        for (&j, &wj) in st.active.iter().zip(&w) {
            st.beta[j] += gamma * wj;
        }
        axpy(gamma, &u, &mut st.mu);
        for (cj, aj) in st.c.iter_mut().zip(&a_vec) {
            *cj -= gamma * aj;
        }

        // Handle a lasso drop: a Givens downdate of the Cholesky factor
        // in O(p²) — no refactorization of the surviving active set.
        if let Some(pos) = drop_idx {
            let j = st.active.remove(pos);
            st.in_active[j] = false;
            st.beta[j] = 0.0;
            st.active_cols.remove(pos);
            if st.chol.drop_column(pos).is_err() {
                return Err(CoreError::Numerical(
                    "LARS active-set downdate failed after drop".into(),
                ));
            }
        }

        // Record a snapshot in the caller's (unnormalized) scale.
        let coeffs: Vec<(usize, f64)> = st
            .active
            .iter()
            .map(|&j| (j, st.beta[j] / st.col_norms[j]))
            .collect();
        st.snapshots.push(SparseModel::new(m, coeffs));
        let res: Vec<f64> = f.iter().zip(&st.mu).map(|(a, b)| a - b).collect();
        st.residual_norms.push(norm2(&res));

        // Converged: correlations exhausted.
        let remaining =
            st.c.iter()
                .enumerate()
                .filter(|&(j, _)| !st.excluded[j])
                .map(|(_, v)| v.abs())
                .fold(0.0f64, f64::max);
        if remaining <= st.tol {
            st.done = true;
            return Ok(StepOutcome::Finished);
        }
        if st.active.len() >= st.max_active && !lasso {
            // One final full-length step was just taken.
            st.done = true;
            return Ok(StepOutcome::Finished);
        }
        if st.steps >= max_steps {
            st.done = true;
            return Ok(StepOutcome::Finished);
        }
        Ok(StepOutcome::Advanced)
    }

    /// Advances the path until `lambda` steps have been taken (or it
    /// finishes earlier).
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    pub fn run_to<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        lambda: usize,
    ) -> Result<()> {
        while self.steps_taken() < lambda {
            if self.step(g, f)? == StepOutcome::Finished {
                break;
            }
        }
        Ok(())
    }

    /// Runs the path to its configured end (`max_steps`).
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    pub fn run<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<()> {
        self.run_to(g, f, self.cfg.max_steps)
    }

    /// The path traced so far.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsolvable`] if no step has produced a snapshot yet.
    pub fn path(&self) -> Result<SparsePath> {
        match &self.path {
            Some(st) if !st.snapshots.is_empty() => Ok(SparsePath::new(
                self.m,
                st.snapshots.clone(),
                st.residual_norms.clone(),
            )),
            _ => Err(CoreError::Unsolvable(
                "no informative basis vector found".into(),
            )),
        }
    }

    /// Consumes the session, returning the traced path.
    ///
    /// # Errors
    ///
    /// As [`Self::path`].
    pub fn into_path(self) -> Result<SparsePath> {
        match self.path {
            Some(st) if !st.snapshots.is_empty() => {
                Ok(SparsePath::new(self.m, st.snapshots, st.residual_norms))
            }
            _ => Err(CoreError::Unsolvable(
                "no informative basis vector found".into(),
            )),
        }
    }
}

impl FitSession for LarSession {
    fn rows_seen(&self) -> usize {
        self.k
    }

    fn extend_samples<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        new_rows: Range<usize>,
    ) -> Result<()> {
        let rows = check_batch(self.k, self.m, g, f, &new_rows)?;
        if self.k == 0 {
            // First batch: direct sweeps over the source — for the
            // single-batch (wrapper) case this is bit-identical to the
            // historical batch solver.
            self.col_sq = g.column_sq_norms();
            self.c0 = g.correlate(f);
        } else if !rows.is_empty() {
            let view = RowSubsetSource::new(g, &rows);
            let sq = view.column_sq_norms();
            for (acc, v) in self.col_sq.iter_mut().zip(&sq) {
                *acc += v;
            }
            let dc = view.correlate(&f[new_rows.clone()]);
            for (acc, v) in self.c0.iter_mut().zip(&dc) {
                *acc += v;
            }
        }
        let fb = &f[new_rows.clone()];
        self.f_sq += dot(fb, fb);
        self.k = new_rows.end;
        self.f_norm = norm2(f);
        // The equiangular invariant does not survive a data change:
        // restart the path (the accumulated sweeps carry over).
        self.path = None;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// OMP
// ---------------------------------------------------------------------------

/// Resumable orthogonal-matching-pursuit state.
///
/// Unlike [`LarSession`], the greedy selection genuinely survives a
/// sample extension: the selected support is kept, the QR factor is
/// rebuilt over the extended columns (`O(K·p)` per selected atom), all
/// path snapshots are refreshed from prefix solves, and selection
/// resumes where it left off.
#[derive(Debug, Clone)]
pub struct OmpSession {
    cfg: OmpConfig,
    m: usize,
    k: usize,
    /// Accumulated `Σ_r G[r,j]²` (only tracked under `normalize_atoms`).
    col_sq: Option<Vec<f64>>,
    /// Accumulated `Σ_r F[r]²` (the streaming response-norm source).
    f_sq: f64,
    /// `‖F‖₂` over the rows seen (recomputed exactly by
    /// [`FitSession::extend_samples`]; derived from [`Self::f_sq`] on
    /// the delta path).
    f_norm: f64,
    qr: GrowingQr,
    selected: Vec<usize>,
    in_model: Vec<bool>,
    excluded: Vec<bool>,
    res: Vec<f64>,
    snapshots: Vec<SparseModel>,
    residual_norms: Vec<f64>,
    /// Set by [`Self::apply_delta`]: the QR factor / residual /
    /// snapshots are stale and must be restored against the full data
    /// before the next step.
    pending_restore: bool,
    done: bool,
}

impl OmpSession {
    /// Creates an empty session over a dictionary of `m` atoms.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if `cfg.lambda == 0`.
    pub fn new(cfg: OmpConfig, m: usize) -> Result<Self> {
        if cfg.lambda == 0 {
            return Err(CoreError::BadConfig("lambda must be at least 1".into()));
        }
        let col_sq = cfg.normalize_atoms.then(|| vec![0.0; m]);
        Ok(OmpSession {
            cfg,
            m,
            k: 0,
            col_sq,
            f_sq: 0.0,
            f_norm: 0.0,
            qr: GrowingQr::new(0),
            selected: Vec::new(),
            in_model: vec![false; m],
            excluded: vec![false; m],
            res: Vec::new(),
            snapshots: Vec::new(),
            residual_norms: Vec::new(),
            pending_restore: false,
            done: false,
        })
    }

    /// Applies a worker-produced batch: the streaming counterpart of
    /// [`FitSession::extend_samples`]. The expensive part of an OMP
    /// extension — rebuilding the QR factor over the extended columns —
    /// is deferred to the next [`step`](Self::step) (or
    /// [`deselect`](Self::deselect)) call, so back-to-back deltas pay
    /// for one restore, not one per batch. As on the LAR delta path,
    /// the response norm is derived from the accumulated `Σ F[r]²`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] for a non-contiguous or misshapen
    /// delta.
    pub fn apply_delta(&mut self, d: SampleDelta) -> Result<()> {
        d.check(self.k, self.m, false)?;
        if let Some(col_sq) = &mut self.col_sq {
            if self.k == 0 {
                *col_sq = d.col_sq;
            } else {
                // `d.check` proved the delta spans all m atoms.
                debug_assert_eq!(col_sq.len(), d.col_sq.len());
                for (acc, v) in col_sq.iter_mut().zip(&d.col_sq) {
                    *acc += v;
                }
            }
        }
        self.k = d.rows.end;
        self.f_sq += d.f_sq;
        self.f_norm = self.f_sq.max(0.0).sqrt();
        self.pending_restore = true;
        self.done = false;
        Ok(())
    }

    /// Number of selection steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` once selection can no longer advance.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Selected atom indices, in selection order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Per-column norms for normalized selection, floored at
    /// [`tol::NORM_FLOOR`].
    fn norms(&self) -> Option<Vec<f64>> {
        self.col_sq
            .as_ref()
            .map(|sq| sq.iter().map(|&s| s.sqrt().max(tol::NORM_FLOOR)).collect())
    }

    /// Restores the orthogonality invariant over the extended rows: one
    /// QR rebuild across the selected support (`O(K·p)` per atom), a
    /// residual re-fit, and a snapshot refresh — not a re-selection.
    fn restore<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<()> {
        self.qr = GrowingQr::new(self.k);
        let mut col = vec![0.0; self.k];
        for (pos, &s) in self.selected.iter().enumerate() {
            g.column_into(s, &mut col);
            if self.qr.push_column(&col).is_err() {
                return Err(CoreError::Numerical(format!(
                    "previously selected atom {s} (position {pos}) became dependent after extension"
                )));
            }
        }
        self.res = if self.selected.is_empty() {
            f.to_vec()
        } else {
            self.qr.residual(f)?
        };
        self.refresh_snapshots(f)?;
        self.pending_restore = false;
        Ok(())
    }

    /// Performs one greedy selection + LS re-fit step.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] if the LS re-fit fails.
    pub fn step<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<StepOutcome> {
        if self.done {
            return Ok(StepOutcome::Finished);
        }
        if self.pending_restore {
            self.restore(g, f)?;
        }
        if tol::exactly_zero(self.f_norm) {
            if self.snapshots.is_empty() {
                self.snapshots.push(SparseModel::zero(self.m));
                self.residual_norms.push(0.0);
            }
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        let lambda_max = self.cfg.lambda.min(self.k).min(self.m);
        if self.selected.len() >= lambda_max {
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        // ξ = Gᵀ·Res (the 1/K factor does not change the argmax). Under
        // normalized selection the norms are divided into the buffer
        // once — |ξ_j/n_j| = |ξ_j|/n_j for n_j > 0, so the selection is
        // identical to scoring each candidate separately, without the
        // per-candidate Option re-match.
        let mut xi = g.correlate(&self.res);
        if let Some(norms) = self.norms() {
            for (v, n) in xi.iter_mut().zip(&norms) {
                *v /= n;
            }
        }
        let mut col_buf = vec![0.0; self.k];
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (j, &v) in xi.iter().enumerate() {
                if self.in_model[j] || self.excluded[j] {
                    continue;
                }
                let score = v.abs();
                match best {
                    Some((_, b)) if score <= b => {}
                    _ => best = Some((j, score)),
                }
            }
            let Some((s, score)) = best else {
                self.done = true;
                return Ok(StepOutcome::Finished);
            };
            if score <= self.f_norm * tol::STEP_REL_TOL {
                // Residual orthogonal to every remaining atom.
                self.done = true;
                return Ok(StepOutcome::Finished);
            }
            g.column_into(s, &mut col_buf);
            match self.qr.push_column(&col_buf) {
                Ok(()) => {
                    self.in_model[s] = true;
                    self.selected.push(s);
                    break;
                }
                Err(_) => {
                    // Atom in the span of the current selection: skip it
                    // permanently (selection would loop otherwise).
                    self.excluded[s] = true;
                    continue;
                }
            }
        }
        // Full LS re-fit over the selected set.
        let coef = self.qr.solve_least_squares(f)?;
        self.res = self.qr.residual(f)?;
        let rn = norm2(&self.res);
        self.snapshots.push(SparseModel::new(
            self.m,
            self.selected
                .iter()
                .copied()
                .zip(coef.iter().copied())
                .collect(),
        ));
        self.residual_norms.push(rn);
        if rn <= self.cfg.rel_tol * self.f_norm {
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        if self.selected.len() >= lambda_max {
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        Ok(StepOutcome::Advanced)
    }

    /// Advances selection until `lambda` atoms are in the model (or the
    /// path finishes earlier).
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    pub fn run_to<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        lambda: usize,
    ) -> Result<()> {
        while self.selected.len() < lambda {
            if self.step(g, f)? == StepOutcome::Finished {
                break;
            }
        }
        Ok(())
    }

    /// Runs selection to the configured `lambda`.
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    pub fn run<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<()> {
        self.run_to(g, f, self.cfg.lambda)
    }

    /// Removes the `pos`-th *selected* atom from the model via a Givens
    /// column removal on the QR factor (`O((K + p)·(p − pos))`, no
    /// refactorization), refreshing all snapshots.
    ///
    /// The atom is **not** excluded: subsequent steps may re-select it.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if `pos` is out of range;
    /// [`CoreError::Numerical`] if the downdate or re-fit fails.
    pub fn deselect<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64], pos: usize) -> Result<()> {
        if pos >= self.selected.len() {
            return Err(CoreError::BadConfig(format!(
                "deselect position {pos} out of range ({} selected)",
                self.selected.len()
            )));
        }
        if self.pending_restore {
            self.restore(g, f)?;
        }
        let j = self.selected.remove(pos);
        self.in_model[j] = false;
        self.qr.remove_column(pos)?;
        self.res = self.qr.residual(f)?;
        self.refresh_snapshots(f)?;
        self.done = false;
        Ok(())
    }

    /// Rebuilds every path snapshot from prefix solves of the current
    /// factor (used after extensions and deselections, where the old
    /// snapshots were fit against different data/support).
    fn refresh_snapshots(&mut self, f: &[f64]) -> Result<()> {
        self.snapshots.clear();
        self.residual_norms.clear();
        if self.selected.is_empty() {
            return Ok(());
        }
        let y = self.qr.qt_apply(f)?;
        let f_sq = dot(f, f);
        let mut fitted_sq = 0.0;
        for p in 1..=self.selected.len() {
            let coef = self.qr.solve_r_prefix(&y[..p])?;
            fitted_sq += y[p - 1] * y[p - 1];
            // ‖f − Q_p Q_pᵀ f‖² = ‖f‖² − Σ_{i<p} (Qᵀf)_i² (orthonormal Q).
            let rn = (f_sq - fitted_sq).max(0.0).sqrt();
            self.snapshots.push(SparseModel::new(
                self.m,
                self.selected[..p]
                    .iter()
                    .copied()
                    .zip(coef.iter().copied())
                    .collect(),
            ));
            self.residual_norms.push(rn);
        }
        Ok(())
    }

    /// The selection path traced so far.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsolvable`] if no snapshot exists yet.
    pub fn path(&self) -> Result<SparsePath> {
        if self.snapshots.is_empty() {
            return Err(CoreError::Unsolvable(
                "no informative basis vector found".into(),
            ));
        }
        Ok(SparsePath::new(
            self.m,
            self.snapshots.clone(),
            self.residual_norms.clone(),
        ))
    }

    /// Consumes the session, returning the traced path.
    ///
    /// # Errors
    ///
    /// As [`Self::path`].
    pub fn into_path(self) -> Result<SparsePath> {
        if self.snapshots.is_empty() {
            return Err(CoreError::Unsolvable(
                "no informative basis vector found".into(),
            ));
        }
        Ok(SparsePath::new(self.m, self.snapshots, self.residual_norms))
    }
}

impl FitSession for OmpSession {
    fn rows_seen(&self) -> usize {
        self.k
    }

    fn extend_samples<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        new_rows: Range<usize>,
    ) -> Result<()> {
        let rows = check_batch(self.k, self.m, g, f, &new_rows)?;
        if let Some(col_sq) = &mut self.col_sq {
            if self.k == 0 {
                *col_sq = g.column_sq_norms();
            } else if !rows.is_empty() {
                let view = RowSubsetSource::new(g, &rows);
                let sq = view.column_sq_norms();
                for (acc, v) in col_sq.iter_mut().zip(&sq) {
                    *acc += v;
                }
            }
        }
        let fb = &f[new_rows.clone()];
        self.f_sq += dot(fb, fb);
        self.k = new_rows.end;
        self.f_norm = norm2(f);
        self.restore(g, f)?;
        self.done = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Coordinate-descent lasso
// ---------------------------------------------------------------------------

/// Resumable coordinate-descent lasso state. The coefficient vector is
/// its own warm start: extensions append residual rows for the new
/// samples (gathering only the support's columns) and sweeping resumes
/// from the current iterate.
#[derive(Debug, Clone)]
pub struct LassoCdSession {
    cfg: LassoCdConfig,
    m: usize,
    k: usize,
    /// Accumulated `Σ_r G[r,j]²` (coordinate curvature).
    col_sq: Vec<f64>,
    alpha: Vec<f64>,
    res: Vec<f64>,
    fscale: f64,
    sweeps_done: usize,
    converged: bool,
}

impl LassoCdSession {
    /// Creates an empty session, optionally warm-started from a dense
    /// coefficient vector of length `m`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a negative or non-finite penalty;
    /// [`CoreError::ShapeMismatch`] for a misshapen warm start.
    pub fn new(cfg: LassoCdConfig, m: usize, warm: Option<&[f64]>) -> Result<Self> {
        if cfg.penalty < 0.0 || !cfg.penalty.is_finite() {
            return Err(CoreError::BadConfig("penalty must be >= 0".into()));
        }
        if let Some(w) = warm {
            if w.len() != m {
                return Err(CoreError::ShapeMismatch {
                    expected: format!("warm start of length {m}"),
                    found: format!("length {}", w.len()),
                });
            }
        }
        let alpha = warm.map(|w| w.to_vec()).unwrap_or_else(|| vec![0.0; m]);
        Ok(LassoCdSession {
            cfg,
            m,
            k: 0,
            col_sq: vec![0.0; m],
            alpha,
            res: Vec::new(),
            fscale: tol::NORM_FLOOR,
            sweeps_done: 0,
            converged: false,
        })
    }

    /// `true` once a sweep has met the convergence criterion (reset by
    /// extensions).
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Full coordinate sweeps performed since the last extension.
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Performs one full coordinate sweep.
    ///
    /// # Errors
    ///
    /// None currently; the `Result` reserves the right to surface
    /// kernel failures.
    pub fn step<S: AtomSource + ?Sized>(&mut self, g: &S, _f: &[f64]) -> Result<StepOutcome> {
        if self.converged {
            return Ok(StepOutcome::Finished);
        }
        let mut max_delta = 0.0f64;
        let mut max_alpha = 0.0f64;
        let mut col = vec![0.0; self.k];
        for j in 0..self.m {
            if self.col_sq[j] <= tol::NORM_FLOOR {
                continue;
            }
            g.column_into(j, &mut col);
            // Partial residual correlation: ρ = G_jᵀ(r + G_j α_j).
            let rho = dot(&col, &self.res) + self.col_sq[j] * self.alpha[j];
            let new = soft_threshold(rho, self.cfg.penalty) / self.col_sq[j];
            let delta = new - self.alpha[j];
            if !tol::exactly_zero(delta) {
                axpy(-delta, &col, &mut self.res);
                self.alpha[j] = new;
            }
            max_delta = max_delta.max(delta.abs());
            max_alpha = max_alpha.max(new.abs());
        }
        self.sweeps_done += 1;
        if max_delta <= self.cfg.tol * max_alpha.max(self.fscale * tol::DEFAULT_ABS_TOL) {
            self.converged = true;
            return Ok(StepOutcome::Finished);
        }
        Ok(StepOutcome::Advanced)
    }

    /// Sweeps until convergence or the configured sweep cap.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] if the cap is exhausted first.
    pub fn run<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<()> {
        while self.sweeps_done < self.cfg.max_sweeps {
            if self.step(g, f)? == StepOutcome::Finished {
                return Ok(());
            }
        }
        Err(CoreError::Numerical(format!(
            "coordinate descent did not converge in {} sweeps",
            self.cfg.max_sweeps
        )))
    }

    /// The current iterate as a sparse model (exact zeros dropped).
    pub fn model(&self) -> SparseModel {
        SparseModel::new(
            self.m,
            self.alpha
                .iter()
                .enumerate()
                .filter(|&(_, &a)| !tol::exactly_zero(a))
                .map(|(j, &a)| (j, a))
                .collect(),
        )
    }
}

impl FitSession for LassoCdSession {
    fn rows_seen(&self) -> usize {
        self.k
    }

    fn extend_samples<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        new_rows: Range<usize>,
    ) -> Result<()> {
        let rows = check_batch(self.k, self.m, g, f, &new_rows)?;
        let first = self.k == 0;
        if first {
            self.col_sq = g.column_sq_norms();
        } else if !rows.is_empty() {
            let view = RowSubsetSource::new(g, &rows);
            let sq = view.column_sq_norms();
            for (acc, v) in self.col_sq.iter_mut().zip(&sq) {
                *acc += v;
            }
        }
        // Residual rows for the new samples: r = F − G·α, gathering
        // only the support's columns.
        let batch_len = new_rows.end - new_rows.start;
        let start = new_rows.start;
        self.res.extend_from_slice(&f[new_rows.clone()]);
        if self.alpha.iter().any(|&a| !tol::exactly_zero(a)) {
            if first {
                // Single-batch (wrapper) case: full columns, identical
                // to the historical warm-start residual build.
                let mut col = vec![0.0; new_rows.end];
                for (j, &aj) in self.alpha.clone().iter().enumerate() {
                    if tol::exactly_zero(aj) {
                        continue;
                    }
                    g.column_into(j, &mut col);
                    axpy(-aj, &col, &mut self.res);
                }
            } else if batch_len > 0 {
                let view = RowSubsetSource::new(g, &rows);
                let mut col = vec![0.0; batch_len];
                for (j, &aj) in self.alpha.clone().iter().enumerate() {
                    if tol::exactly_zero(aj) {
                        continue;
                    }
                    view.column_into(j, &mut col);
                    axpy(-aj, &col, &mut self.res[start..]);
                }
            }
        }
        self.k = new_rows.end;
        self.fscale = norm2(f).max(tol::NORM_FLOOR);
        self.sweeps_done = 0;
        self.converged = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Method-dispatched sessions (streaming driver support)
// ---------------------------------------------------------------------------

/// A [`LarSession`] or [`OmpSession`] behind one dispatch surface, so
/// the streaming driver ([`crate::solver::fit_streaming`]) can treat
/// the path-producing methods uniformly.
#[derive(Debug, Clone)]
pub enum MethodSession {
    /// Least-angle regression (with or without the lasso modification).
    Lar(LarSession),
    /// Orthogonal matching pursuit.
    Omp(OmpSession),
}

impl MethodSession {
    /// Creates an empty session for `method` with path length
    /// `lambda_max` over a dictionary of `m` atoms.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for `lambda_max == 0` or a method
    /// without streaming-session support (`Ls`, `Star`).
    pub fn new(method: Method, lambda_max: usize, m: usize) -> Result<Self> {
        match method {
            Method::Lar => Ok(MethodSession::Lar(LarSession::new(
                LarConfig::new(lambda_max),
                m,
            )?)),
            Method::LarLasso => Ok(MethodSession::Lar(LarSession::new(
                LarConfig::new(lambda_max).with_lasso(),
                m,
            )?)),
            Method::Omp => Ok(MethodSession::Omp(OmpSession::new(
                OmpConfig::new(lambda_max),
                m,
            )?)),
            Method::Ls | Method::Star => Err(CoreError::BadConfig(format!(
                "{} does not support streaming sessions",
                method.name()
            ))),
        }
    }

    /// `true` when [`SampleDelta`]s fed to this session must carry raw
    /// correlations (LAR's data sweep needs `Gᵀ·F`; OMP correlates
    /// against its own residual instead).
    pub fn needs_correlations(&self) -> bool {
        matches!(self, MethodSession::Lar(_))
    }

    /// See [`LarSession::apply_delta`] / [`OmpSession::apply_delta`].
    ///
    /// # Errors
    ///
    /// As the underlying session.
    pub fn apply_delta(&mut self, d: SampleDelta) -> Result<()> {
        match self {
            MethodSession::Lar(s) => s.apply_delta(d),
            MethodSession::Omp(s) => s.apply_delta(d),
        }
    }

    /// Advances the path until `lambda` steps/selections have been
    /// taken (or it finishes earlier). `g`/`f` must cover exactly the
    /// rows fed so far.
    ///
    /// # Errors
    ///
    /// As the underlying session's `step`.
    pub fn run_to<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        lambda: usize,
    ) -> Result<()> {
        match self {
            MethodSession::Lar(s) => s.run_to(g, f, lambda),
            MethodSession::Omp(s) => s.run_to(g, f, lambda),
        }
    }

    /// Number of path steps taken so far.
    pub fn steps_taken(&self) -> usize {
        match self {
            MethodSession::Lar(s) => s.steps_taken(),
            MethodSession::Omp(s) => s.steps_taken(),
        }
    }

    /// `true` once the path can no longer advance.
    pub fn is_finished(&self) -> bool {
        match self {
            MethodSession::Lar(s) => s.is_finished(),
            MethodSession::Omp(s) => s.is_finished(),
        }
    }

    /// The path traced so far.
    ///
    /// # Errors
    ///
    /// As the underlying session's `path`.
    pub fn path(&self) -> Result<SparsePath> {
        match self {
            MethodSession::Lar(s) => s.path(),
            MethodSession::Omp(s) => s.path(),
        }
    }
}

impl FitSession for MethodSession {
    fn rows_seen(&self) -> usize {
        match self {
            MethodSession::Lar(s) => s.rows_seen(),
            MethodSession::Omp(s) => s.rows_seen(),
        }
    }

    fn extend_samples<S: AtomSource + ?Sized>(
        &mut self,
        g: &S,
        f: &[f64],
        new_rows: Range<usize>,
    ) -> Result<()> {
        match self {
            MethodSession::Lar(s) => s.extend_samples(g, f, new_rows),
            MethodSession::Omp(s) => s.extend_samples(g, f, new_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_linalg::Matrix;
    use rsm_stats::NormalSampler;

    fn sparse_problem(k: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let f: Vec<f64> = (0..k)
            .map(|r| 3.0 * g[(r, 2)] - 2.0 * g[(r, 11)] + 0.9 * g[(r, 17)] + 0.01 * s.sample())
            .collect();
        (g, f)
    }

    fn take_rows(g: &Matrix, f: &[f64], k: usize) -> (Matrix, Vec<f64>) {
        let sub = Matrix::from_fn(k, g.cols(), |i, j| g[(i, j)]);
        (sub, f[..k].to_vec())
    }

    #[test]
    fn lar_single_batch_session_matches_batch_fit() {
        let (g, f) = sparse_problem(50, 40, 5);
        let cfg = LarConfig::new(8);
        let batch = cfg.fit(&g, &f).unwrap();
        let mut s = LarSession::new(cfg, 40).unwrap();
        s.extend_samples(&g, &f, 0..50).unwrap();
        s.run(&g, &f).unwrap();
        let path = s.into_path().unwrap();
        assert_eq!(path.len(), batch.len());
        for (a, b) in path.residual_norms().iter().zip(batch.residual_norms()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lar_two_batch_extension_agrees_with_batch_fit() {
        let (g, f) = sparse_problem(60, 30, 7);
        let cfg = LarConfig::new(6);
        let mut s = LarSession::new(cfg.clone(), 30).unwrap();
        let (g1, f1) = take_rows(&g, &f, 35);
        s.extend_samples(&g1, &f1, 0..35).unwrap();
        s.run(&g1, &f1).unwrap();
        assert!(s.steps_taken() > 0);
        // Extend: the path restarts, the sweeps accumulate.
        s.extend_samples(&g, &f, 35..60).unwrap();
        assert_eq!(s.steps_taken(), 0);
        s.run(&g, &f).unwrap();
        let inc = s.into_path().unwrap();
        let batch = cfg.fit(&g, &f).unwrap();
        assert_eq!(inc.len(), batch.len());
        assert_eq!(inc.final_model().support(), batch.final_model().support());
        for (a, b) in inc.residual_norms().iter().zip(batch.residual_norms()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn lar_run_to_is_resumable_mid_path() {
        let (g, f) = sparse_problem(45, 25, 9);
        let cfg = LarConfig::new(7);
        let mut s = LarSession::new(cfg.clone(), 25).unwrap();
        s.extend_samples(&g, &f, 0..45).unwrap();
        s.run_to(&g, &f, 3).unwrap();
        assert_eq!(s.steps_taken(), 3);
        s.run(&g, &f).unwrap();
        let resumed = s.into_path().unwrap();
        let straight = cfg.fit(&g, &f).unwrap();
        assert_eq!(resumed.len(), straight.len());
        for (a, b) in resumed
            .residual_norms()
            .iter()
            .zip(straight.residual_norms())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lar_zero_response_yields_zero_path() {
        let g = Matrix::identity(4);
        let mut s = LarSession::new(LarConfig::new(2), 4).unwrap();
        s.extend_samples(&g, &[0.0; 4], 0..4).unwrap();
        s.run(&g, &[0.0; 4]).unwrap();
        let path = s.into_path().unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
    }

    #[test]
    fn lar_batch_shape_violations_rejected() {
        let (g, f) = sparse_problem(25, 20, 3);
        let mut s = LarSession::new(LarConfig::new(3), 20).unwrap();
        // Non-contiguous start.
        assert!(s.extend_samples(&g, &f, 5..20).is_err());
        // Response/source row mismatch.
        assert!(s.extend_samples(&g, &f[..10], 0..10).is_err());
        // Wrong atom count.
        assert!(LarSession::new(LarConfig::new(3), 7)
            .unwrap()
            .extend_samples(&g, &f, 0..20)
            .is_err());
        // Non-finite response.
        let mut bad = f.clone();
        bad[3] = f64::NAN;
        assert!(s.extend_samples(&g, &bad, 0..20).is_err());
        assert!(LarSession::new(LarConfig::new(0), 4).is_err());
    }

    #[test]
    fn omp_single_batch_session_matches_batch_fit() {
        let (g, f) = sparse_problem(50, 40, 13);
        let cfg = OmpConfig::new(6);
        let batch = cfg.fit(&g, &f).unwrap();
        let mut s = OmpSession::new(cfg, 40).unwrap();
        s.extend_samples(&g, &f, 0..50).unwrap();
        s.run(&g, &f).unwrap();
        let path = s.into_path().unwrap();
        assert_eq!(path.len(), batch.len());
        for (a, b) in path.residual_norms().iter().zip(batch.residual_norms()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(path.final_model().support(), batch.final_model().support());
    }

    #[test]
    fn omp_extension_resumes_selection() {
        let (g, f) = sparse_problem(64, 32, 17);
        let cfg = OmpConfig::new(5);
        let mut s = OmpSession::new(cfg.clone(), 32).unwrap();
        let (g1, f1) = take_rows(&g, &f, 40);
        s.extend_samples(&g1, &f1, 0..40).unwrap();
        s.run_to(&g1, &f1, 2).unwrap();
        assert_eq!(s.selected().len(), 2);
        let selected_before: Vec<usize> = s.selected().to_vec();
        s.extend_samples(&g, &f, 40..64).unwrap();
        // Support survives the extension; snapshots refreshed against
        // the full data.
        assert_eq!(s.selected(), &selected_before[..]);
        assert_eq!(s.path().unwrap().len(), 2);
        s.run(&g, &f).unwrap();
        let path = s.into_path().unwrap();
        // The resumed prefix is pinned to the early selection; the
        // batch fit on the full data must find the same truth support.
        let batch = cfg.fit(&g, &f).unwrap();
        let mut resumed = path.final_model().support().to_vec();
        let mut straight = batch.final_model().support().to_vec();
        resumed.sort_unstable();
        straight.sort_unstable();
        assert_eq!(resumed, straight);
    }

    #[test]
    fn omp_snapshot_refresh_matches_prefix_refits() {
        let (g, f) = sparse_problem(48, 24, 19);
        let mut s = OmpSession::new(OmpConfig::new(4), 24).unwrap();
        let (g1, f1) = take_rows(&g, &f, 30);
        s.extend_samples(&g1, &f1, 0..30).unwrap();
        s.run(&g1, &f1).unwrap();
        s.extend_samples(&g, &f, 30..48).unwrap();
        let path = s.path().unwrap();
        // Each refreshed snapshot must equal an LS fit of its prefix
        // support against the full data.
        for (p, (_, model)) in path.iter().enumerate() {
            let support = &s.selected()[..=p];
            let mut qr = GrowingQr::new(48);
            let mut col = vec![0.0; 48];
            for &j in support {
                g.column_into(j, &mut col);
                qr.push_column(&col).unwrap();
            }
            let coef = qr.solve_least_squares(&f).unwrap();
            for (&j, &c) in support.iter().zip(&coef) {
                let got = model.coefficient(j).unwrap();
                assert!((got - c).abs() < 1e-9, "atom {j}: {got} vs {c}");
            }
            let rn = norm2(&qr.residual(&f).unwrap());
            assert!((path.residual_norms()[p] - rn).abs() < 1e-9);
        }
    }

    #[test]
    fn omp_deselect_removes_atom_and_allows_reselection() {
        let (g, f) = sparse_problem(40, 20, 23);
        let mut s = OmpSession::new(OmpConfig::new(4), 20).unwrap();
        s.extend_samples(&g, &f, 0..40).unwrap();
        s.run(&g, &f).unwrap();
        let selected = s.selected().to_vec();
        assert!(selected.len() >= 3);
        let victim = selected[1];
        s.deselect(&g, &f, 1).unwrap();
        assert!(!s.selected().contains(&victim));
        assert_eq!(s.path().unwrap().len(), selected.len() - 1);
        // The dropped atom is informative again: continuing selection
        // brings it (or a substitute) back and restores the fit.
        s.run(&g, &f).unwrap();
        let path = s.into_path().unwrap();
        let rn = *path.residual_norms().last().unwrap();
        assert!(rn <= 0.2 * norm2(&f), "residual {rn} after re-selection");
        assert!(s0_err(&g, &f, &path) < 0.2);
    }

    fn s0_err(g: &Matrix, f: &[f64], path: &SparsePath) -> f64 {
        let pred = path.final_model().predict_matrix(g);
        let num = norm2(&pred.iter().zip(f).map(|(a, b)| a - b).collect::<Vec<_>>());
        num / norm2(f)
    }

    #[test]
    fn omp_deselect_out_of_range_rejected() {
        let (g, f) = sparse_problem(30, 20, 29);
        let mut s = OmpSession::new(OmpConfig::new(2), 20).unwrap();
        s.extend_samples(&g, &f, 0..30).unwrap();
        s.run(&g, &f).unwrap();
        assert!(s.deselect(&g, &f, 99).is_err());
    }

    #[test]
    fn lasso_cd_single_batch_session_matches_batch_fit() {
        let (g, f) = sparse_problem(60, 20, 31);
        let pen = crate::lasso_cd::penalty_max(&g, &f).unwrap() * 0.3;
        let cfg = LassoCdConfig::new(pen);
        let batch = cfg.fit(&g, &f).unwrap();
        let mut s = LassoCdSession::new(cfg, 20, None).unwrap();
        s.extend_samples(&g, &f, 0..60).unwrap();
        s.run(&g, &f).unwrap();
        let model = s.model();
        assert_eq!(model.support(), batch.support());
        for &(j, a) in batch.coefficients() {
            let b = model.coefficient(j).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lasso_cd_extension_warm_starts_from_iterate() {
        let (g, f) = sparse_problem(80, 25, 37);
        let pen = crate::lasso_cd::penalty_max(&g, &f).unwrap() * 0.25;
        let cfg = LassoCdConfig::new(pen);
        let mut s = LassoCdSession::new(cfg.clone(), 25, None).unwrap();
        let (g1, f1) = take_rows(&g, &f, 50);
        s.extend_samples(&g1, &f1, 0..50).unwrap();
        s.run(&g1, &f1).unwrap();
        let sweeps_cold = s.sweeps_done();
        s.extend_samples(&g, &f, 50..80).unwrap();
        assert!(!s.is_converged());
        s.run(&g, &f).unwrap();
        // Warm resume converges no slower than the cold full-data run
        // would (the penalty and problem scale match).
        let _ = sweeps_cold;
        let incremental = s.model();
        let batch = cfg.fit(&g, &f).unwrap();
        assert_eq!(incremental.support(), batch.support());
        for &(j, a) in batch.coefficients() {
            let b = incremental.coefficient(j).unwrap();
            assert!(
                (a - b).abs() < 1e-7 * (1.0 + a.abs()),
                "atom {j}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn lar_delta_feed_agrees_with_extension_feed() {
        // Deltas accumulate the exact same view sweeps as extensions;
        // only the response norm differs (√ΣF² vs the scaled norm2),
        // so the paths agree to low-order bits and in support.
        let (g, f) = sparse_problem(64, 30, 41);
        let cfg = LarConfig::new(6);
        let mut by_ext = LarSession::new(cfg.clone(), 30).unwrap();
        let (g1, f1) = take_rows(&g, &f, 40);
        by_ext.extend_samples(&g1, &f1, 0..40).unwrap();
        by_ext.extend_samples(&g, &f, 40..64).unwrap();
        by_ext.run(&g, &f).unwrap();
        let mut by_delta = LarSession::new(cfg, 30).unwrap();
        by_delta
            .apply_delta(SampleDelta::compute(&g, &f, 0..40, true))
            .unwrap();
        by_delta
            .apply_delta(SampleDelta::compute(&g, &f, 40..64, true))
            .unwrap();
        assert_eq!(by_delta.rows_seen(), 64);
        by_delta.run(&g, &f).unwrap();
        let pe = by_ext.into_path().unwrap();
        let pd = by_delta.into_path().unwrap();
        assert_eq!(pe.len(), pd.len());
        assert_eq!(pe.final_model().support(), pd.final_model().support());
        for (a, b) in pe.residual_norms().iter().zip(pd.residual_norms()) {
            assert!((a - b).abs() <= 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn omp_delta_defers_restore_until_step() {
        let (g, f) = sparse_problem(70, 28, 43);
        let cfg = OmpConfig::new(5);
        let batch = cfg.fit(&g, &f).unwrap();
        let mut s = OmpSession::new(cfg, 28).unwrap();
        // Back-to-back deltas: no QR work happens until the first step.
        s.apply_delta(SampleDelta::compute(&g, &f, 0..32, false))
            .unwrap();
        s.apply_delta(SampleDelta::compute(&g, &f, 32..70, false))
            .unwrap();
        assert_eq!(s.rows_seen(), 70);
        assert_eq!(s.steps_taken(), 0);
        s.run(&g, &f).unwrap();
        let path = s.into_path().unwrap();
        assert_eq!(path.final_model().support(), batch.final_model().support());
        for (a, b) in path.residual_norms().iter().zip(batch.residual_norms()) {
            assert!((a - b).abs() <= 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn omp_delta_mid_path_resumes_selection() {
        let (g, f) = sparse_problem(80, 26, 47);
        let cfg = OmpConfig::new(6);
        let mut s = OmpSession::new(cfg.clone(), 26).unwrap();
        s.apply_delta(SampleDelta::compute(&g, &f, 0..50, false))
            .unwrap();
        let (g1, f1) = take_rows(&g, &f, 50);
        s.run_to(&g1, &f1, 2).unwrap();
        let kept: Vec<usize> = s.selected().to_vec();
        assert_eq!(kept.len(), 2);
        s.apply_delta(SampleDelta::compute(&g, &f, 50..80, false))
            .unwrap();
        assert!(!s.is_finished());
        s.run(&g, &f).unwrap();
        // The pre-delta selection survives the extension as a prefix.
        assert_eq!(&s.selected()[..2], &kept[..]);
        let mut by_ext = OmpSession::new(cfg, 26).unwrap();
        by_ext.extend_samples(&g1, &f1, 0..50).unwrap();
        by_ext.run_to(&g1, &f1, 2).unwrap();
        by_ext.extend_samples(&g, &f, 50..80).unwrap();
        by_ext.run(&g, &f).unwrap();
        assert_eq!(s.selected(), by_ext.selected());
    }

    #[test]
    fn delta_shape_violations_rejected() {
        let (g, f) = sparse_problem(40, 22, 53);
        let mut lar = LarSession::new(LarConfig::new(3), 22).unwrap();
        // Gap: delta must start at the session's row count.
        let gap = SampleDelta::compute(&g, &f, 10..20, true);
        assert!(lar.apply_delta(gap).is_err());
        // LAR deltas must carry correlations.
        let no_c0 = SampleDelta::compute(&g, &f, 0..20, false);
        assert!(lar.apply_delta(no_c0).is_err());
        // Wrong atom count.
        let mut wrong = SampleDelta::compute(&g, &f, 0..20, true);
        wrong.col_sq.pop();
        assert!(lar.apply_delta(wrong).is_err());
        // A valid delta still lands after the rejections.
        let ok = SampleDelta::compute(&g, &f, 0..20, true);
        assert!(lar.apply_delta(ok).is_ok());
        let mut omp = OmpSession::new(OmpConfig::new(2), 22).unwrap();
        let gap = SampleDelta::compute(&g, &f, 5..15, false);
        assert!(omp.apply_delta(gap).is_err());
    }

    #[test]
    fn method_session_dispatch_and_rejections() {
        use crate::solver::Method;
        let (g, f) = sparse_problem(50, 24, 59);
        for method in [Method::Lar, Method::LarLasso, Method::Omp] {
            let mut s = MethodSession::new(method, 4, 24).unwrap();
            assert_eq!(
                s.needs_correlations(),
                matches!(method, Method::Lar | Method::LarLasso)
            );
            s.apply_delta(SampleDelta::compute(&g, &f, 0..50, s.needs_correlations()))
                .unwrap();
            s.run_to(&g, &f, 4).unwrap();
            assert!(s.steps_taken() >= 1);
            let path = s.path().unwrap();
            assert!(path.model_at(4).num_nonzeros() >= 1, "{method:?}");
        }
        assert!(MethodSession::new(Method::Ls, 4, 24).is_err());
        assert!(MethodSession::new(Method::Star, 4, 24).is_err());
        assert!(MethodSession::new(Method::Omp, 0, 24).is_err());
    }

    #[test]
    fn step_after_finish_is_idempotent_and_unpoisoned() {
        let (g, f) = sparse_problem(30, 20, 61);
        let mut s = LarSession::new(LarConfig::new(3), 20).unwrap();
        s.extend_samples(&g, &f, 0..30).unwrap();
        s.run(&g, &f).unwrap();
        assert!(s.is_finished());
        let steps = s.steps_taken();
        let len_before = s.path().unwrap().len();
        // Stepping a finished session is a no-op, not an error — and
        // repeating it changes nothing.
        assert_eq!(s.step(&g, &f).unwrap(), StepOutcome::Finished);
        assert_eq!(s.step(&g, &f).unwrap(), StepOutcome::Finished);
        assert_eq!(s.steps_taken(), steps);
        assert_eq!(s.into_path().unwrap().len(), len_before);

        let mut o = OmpSession::new(OmpConfig::new(3), 20).unwrap();
        o.extend_samples(&g, &f, 0..30).unwrap();
        o.run(&g, &f).unwrap();
        assert!(o.is_finished());
        let picked = o.selected().to_vec();
        assert_eq!(o.step(&g, &f).unwrap(), StepOutcome::Finished);
        assert_eq!(o.selected(), &picked[..], "no phantom selection");
    }

    #[test]
    fn delta_after_finish_resumes_the_session() {
        let (g, f) = sparse_problem(60, 20, 67);
        let (g1, f1) = take_rows(&g, &f, 40);
        let mut s = LarSession::new(LarConfig::new(4), 20).unwrap();
        s.apply_delta(SampleDelta::compute(&g, &f, 0..40, true))
            .unwrap();
        s.run(&g1, &f1).unwrap();
        assert!(s.is_finished());
        // Feeding a finished session is legal: the path restarts over
        // the accumulated data and the session runs again.
        s.apply_delta(SampleDelta::compute(&g, &f, 40..60, true))
            .unwrap();
        assert!(!s.is_finished());
        assert_eq!(s.steps_taken(), 0);
        assert_eq!(s.rows_seen(), 60);
        s.run(&g, &f).unwrap();
        assert!(!s.into_path().unwrap().is_empty());
    }

    #[test]
    fn non_contiguous_delta_reports_structured_shape_mismatch() {
        let (g, f) = sparse_problem(40, 18, 71);
        let mut s = OmpSession::new(OmpConfig::new(3), 18).unwrap();
        let gap = SampleDelta::compute(&g, &f, 12..30, false);
        match s.apply_delta(gap) {
            Err(CoreError::ShapeMismatch { expected, found }) => {
                assert!(
                    expected.contains("contiguous delta starting at row 0"),
                    "{expected}"
                );
                assert!(found.contains("12..30"), "{found}");
            }
            other => panic!("expected a structured ShapeMismatch, got {other:?}"),
        }
        // The rejection leaves the session unpoisoned: nothing was
        // consumed and a well-formed feed still works.
        assert_eq!(s.rows_seen(), 0);
        s.apply_delta(SampleDelta::compute(&g, &f, 0..40, false))
            .unwrap();
        s.run(&g, &f).unwrap();
        assert!(!s.into_path().unwrap().is_empty());
    }

    #[test]
    fn streaming_rejection_names_the_method_in_bad_config() {
        use crate::solver::Method;
        for method in [Method::Ls, Method::Star] {
            match MethodSession::new(method, 4, 10) {
                Err(CoreError::BadConfig(msg)) => {
                    assert!(msg.contains("does not support streaming sessions"), "{msg}");
                    assert!(msg.contains(method.name()), "{msg}");
                }
                Err(other) => panic!("expected BadConfig for {method:?}, got {other:?}"),
                Ok(_) => panic!("{method:?} must reject streaming sessions"),
            }
        }
    }
}
