//! Solver sessions — the step-by-step state of LAR and OMP over one
//! fixed sample set.
//!
//! A session is built once from the design source `g` and the response
//! `f`: construction validates the operands and runs the data sweeps
//! (column square norms, and for LAR the correlations `Gᵀ·F`), and each
//! [`step`](LarSession::step) advances the path by one breakpoint. The
//! `fit` entry points (`LarConfig::fit`, `OmpConfig::fit`) are thin
//! wrappers that build a session and run it to completion;
//! cross-validation runs one such path per fold
//! ([`crate::select::cross_validate`]).
//!
//! A session does not keep `g` or `f`: every `step` takes them again,
//! and they must be the data the session was built from.
//!
//! # Incremental factors
//!
//! The path state keeps its factorizations between steps. LAR's
//! per-step re-solve stays `O(p²)` thanks to the persistent
//! [`GrowingCholesky`], with [`drop_column`](GrowingCholesky::drop_column)
//! downdates on lasso drops; OMP's least-squares re-fit grows a
//! [`GrowingQr`] by one column per selection.
//!
//! # Numerical contract
//!
//! Plain LAR and OMP sessions perform bit-for-bit the same
//! floating-point operations as the batch solvers they replaced. A
//! lasso drop downdates the Cholesky factor instead of refactorizing
//! it, which changes low-order bits, and the step after a drop moves
//! along the reduced active set without activating an atom (Efron et
//! al. 2004, §3.1). `tests/lasso_drop.rs` pins the path's bits and
//! checks the lasso KKT conditions at every snapshot.

use crate::lar::LarConfig;
use crate::model::SparseModel;
use crate::omp::OmpConfig;
use crate::path::SparsePath;
use crate::source::AtomSource;
use crate::{check_response, CoreError, Result};
use rsm_linalg::cholesky::GrowingCholesky;
use rsm_linalg::qr::GrowingQr;
use rsm_linalg::tol;
use rsm_linalg::vec_ops::{axpy, dot, norm2};

/// Outcome of a single [`step`](LarSession::step) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The path advanced by one step (one more snapshot recorded).
    Advanced,
    /// The path is finished — no further step will change the model.
    Finished,
}

/// The path traced so far, or [`CoreError::Unsolvable`] before the
/// first snapshot.
fn traced_path(
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

// ---------------------------------------------------------------------------
// LAR
// ---------------------------------------------------------------------------

/// Resumable least-angle-regression state.
///
/// See the [module docs](self) for the contract.
#[derive(Debug, Clone)]
pub struct LarSession {
    cfg: LarConfig,
    m: usize,
    k: usize,
    /// `‖G_j‖₂` (the swept square norms, square-rooted in place).
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
    /// Set by a lasso drop: the next step moves along the reduced
    /// active set without activating an atom.
    after_drop: bool,
    done: bool,
}

impl LarSession {
    /// Sweeps `g` and `f` into a session ready for its first step. A
    /// zero response is fitted exactly by the zero model, so such a
    /// session is finished on construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if `cfg.max_steps == 0` or `f` is
    /// non-finite; [`CoreError::ShapeMismatch`] if
    /// `f.len() != g.num_rows()`.
    pub fn new<S: AtomSource + ?Sized>(cfg: LarConfig, g: &S, f: &[f64]) -> Result<Self> {
        if cfg.max_steps == 0 {
            return Err(CoreError::BadConfig("max_steps must be at least 1".into()));
        }
        check_response(g, f)?;
        let (k, m) = (g.num_rows(), g.num_atoms());
        let mut col_norms = g.column_sq_norms();
        let mut c = g.correlate(f);
        let f_norm = norm2(f);
        let mut excluded = vec![false; m];
        for (j, n) in col_norms.iter_mut().enumerate() {
            *n = n.sqrt();
            if *n <= tol::NORM_FLOOR {
                excluded[j] = true;
            }
        }
        for (j, v) in c.iter_mut().enumerate() {
            *v /= col_norms[j].max(tol::NORM_FLOOR);
        }
        let mut session = LarSession {
            m,
            k,
            col_norms,
            excluded,
            mu: vec![0.0; k],
            c,
            active: Vec::new(),
            in_active: vec![false; m],
            beta: vec![0.0; m],
            chol: GrowingCholesky::new(),
            active_cols: Vec::new(),
            snapshots: Vec::new(),
            residual_norms: Vec::new(),
            steps: 0,
            tol: cfg.rel_tol * f_norm,
            max_active: cfg.max_steps.min(k).min(m),
            after_drop: false,
            done: false,
            cfg,
        };
        if tol::exactly_zero(f_norm) {
            session.snapshots.push(SparseModel::zero(m));
            session.residual_norms.push(0.0);
            session.done = true;
        }
        Ok(session)
    }

    /// Number of path steps taken so far (0 before the first `step`).
    pub fn steps_taken(&self) -> usize {
        self.steps
    }

    /// `true` once the path can no longer advance.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Advances the path by one LAR step (one activation / advance /
    /// possible lasso drop), recording one snapshot.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] if the active-set factorization breaks
    /// down irrecoverably.
    pub fn step<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<StepOutcome> {
        let k = self.k;
        let m = self.m;
        let lasso = self.cfg.lasso;
        let max_steps = self.cfg.max_steps;
        if self.done || self.steps >= max_steps {
            self.done = true;
            return Ok(StepOutcome::Finished);
        }

        // Activation: scan for the maximal absolute correlation among
        // non-active columns, retrying past numerically dependent atoms
        // (each retry re-scans the unchanged correlation vector). Right
        // after a lasso drop the dropped atom still sits at the
        // correlation level, so the scan would pick it straight back;
        // instead the step moves along the reduced active set (Efron et
        // al. 2004, §3.1), unless the drop emptied it.
        let after_drop = std::mem::take(&mut self.after_drop) && !self.active.is_empty();
        loop {
            let mut cmax = 0.0f64;
            let mut jbest: Option<usize> = None;
            for j in 0..m {
                if self.in_active[j] || self.excluded[j] {
                    continue;
                }
                let a = self.c[j].abs();
                if a > cmax {
                    cmax = a;
                    jbest = Some(j);
                }
            }
            if !after_drop && self.active.len() < self.max_active {
                match jbest {
                    Some(j) if cmax > self.tol => {
                        let mut col = vec![0.0; k];
                        g.column_into(j, &mut col);
                        let inv = 1.0 / self.col_norms[j];
                        for v in &mut col {
                            *v *= inv;
                        }
                        let cross: Vec<f64> =
                            self.active_cols.iter().map(|ac| dot(ac, &col)).collect();
                        match self.chol.push(&cross, 1.0) {
                            Ok(()) => {
                                self.active.push(j);
                                self.in_active[j] = true;
                                self.active_cols.push(col);
                                break;
                            }
                            Err(_) => {
                                self.excluded[j] = true;
                                continue; // try the next-best column
                            }
                        }
                    }
                    _ => {
                        // Nothing informative left.
                        self.done = true;
                        return Ok(StepOutcome::Finished);
                    }
                }
            } else if self.active.is_empty() {
                self.done = true;
                return Ok(StepOutcome::Finished);
            } else {
                // Saturated, or right after a drop: keep advancing
                // along the current set.
                break;
            }
        }
        self.steps += 1;

        // Equiangular direction.
        let signs: Vec<f64> = self.active.iter().map(|&j| self.c[j].signum()).collect();
        let w_raw = self.chol.solve(&signs)?;
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
        for (ac, &wj) in self.active_cols.iter().zip(&w) {
            axpy(wj, ac, &mut u);
        }
        let mut a_vec = g.correlate(&u);
        for (j, v) in a_vec.iter_mut().enumerate() {
            *v /= self.col_norms[j].max(tol::NORM_FLOOR);
        }
        // Correlation level inside the active set.
        let c_level = self
            .active
            .iter()
            .map(|&j| self.c[j].abs())
            .fold(0.0f64, f64::max);

        // Step length to the next activation event.
        let mut gamma = c_level / a_a; // full step (last-variable case)
        for j in 0..m {
            if self.in_active[j] || self.excluded[j] {
                continue;
            }
            for cand in [
                (c_level - self.c[j]) / (a_a - a_vec[j]),
                (c_level + self.c[j]) / (a_a + a_vec[j]),
            ] {
                if cand > tol::STEP_REL_TOL && cand < gamma {
                    gamma = cand;
                }
            }
        }
        // Lasso: step length to the first zero crossing.
        let mut drop_idx: Option<usize> = None;
        if lasso {
            for (pos, (&j, &wj)) in self.active.iter().zip(&w).enumerate() {
                if !tol::exactly_zero(wj) {
                    let gd = -self.beta[j] / wj;
                    if gd > tol::STEP_REL_TOL && gd < gamma {
                        gamma = gd;
                        drop_idx = Some(pos);
                    }
                }
            }
        }

        // Advance.
        for (&j, &wj) in self.active.iter().zip(&w) {
            self.beta[j] += gamma * wj;
        }
        axpy(gamma, &u, &mut self.mu);
        for (cj, aj) in self.c.iter_mut().zip(&a_vec) {
            *cj -= gamma * aj;
        }

        // Handle a lasso drop: a Givens downdate of the Cholesky factor
        // in O(p²) — no refactorization of the surviving active set.
        if let Some(pos) = drop_idx {
            let j = self.active.remove(pos);
            self.in_active[j] = false;
            self.beta[j] = 0.0;
            self.active_cols.remove(pos);
            if self.chol.drop_column(pos).is_err() {
                return Err(CoreError::Numerical(
                    "LARS active-set downdate failed after drop".into(),
                ));
            }
            self.after_drop = true;
        }

        // Record a snapshot in the caller's (unnormalized) scale.
        let coeffs: Vec<(usize, f64)> = self
            .active
            .iter()
            .map(|&j| (j, self.beta[j] / self.col_norms[j]))
            .collect();
        self.snapshots.push(SparseModel::new(m, coeffs));
        let res: Vec<f64> = f.iter().zip(&self.mu).map(|(a, b)| a - b).collect();
        self.residual_norms.push(norm2(&res));

        // Converged: correlations exhausted.
        let remaining = self
            .c
            .iter()
            .enumerate()
            .filter(|&(j, _)| !self.excluded[j])
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        if remaining <= self.tol {
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        if self.active.len() >= self.max_active && !lasso {
            // One final full-length step was just taken.
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        if self.steps >= max_steps {
            self.done = true;
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
        while self.steps < lambda {
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
        traced_path(self.m, self.snapshots.clone(), self.residual_norms.clone())
    }

    /// Consumes the session, returning the traced path.
    ///
    /// # Errors
    ///
    /// As [`Self::path`].
    pub fn into_path(self) -> Result<SparsePath> {
        traced_path(self.m, self.snapshots, self.residual_norms)
    }
}

// ---------------------------------------------------------------------------
// OMP
// ---------------------------------------------------------------------------

/// Resumable orthogonal-matching-pursuit state: the selected support,
/// its QR factor and the residual, plus one snapshot per selection.
#[derive(Debug, Clone)]
pub struct OmpSession {
    cfg: OmpConfig,
    m: usize,
    k: usize,
    /// `max(‖G_j‖₂, NORM_FLOOR)` per atom (normalized selection only).
    norms: Option<Vec<f64>>,
    /// `‖F‖₂`.
    f_norm: f64,
    qr: GrowingQr,
    selected: Vec<usize>,
    in_model: Vec<bool>,
    excluded: Vec<bool>,
    res: Vec<f64>,
    snapshots: Vec<SparseModel>,
    residual_norms: Vec<f64>,
    done: bool,
}

impl OmpSession {
    /// Builds a session over `g` and `f` with an empty selection. A
    /// zero response is fitted exactly by the zero model, so such a
    /// session is finished on construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if `cfg.lambda == 0` or `f` is
    /// non-finite; [`CoreError::ShapeMismatch`] if
    /// `f.len() != g.num_rows()`.
    pub fn new<S: AtomSource + ?Sized>(cfg: OmpConfig, g: &S, f: &[f64]) -> Result<Self> {
        if cfg.lambda == 0 {
            return Err(CoreError::BadConfig("lambda must be at least 1".into()));
        }
        check_response(g, f)?;
        let (k, m) = (g.num_rows(), g.num_atoms());
        let norms = cfg.normalize_atoms.then(|| {
            g.column_sq_norms()
                .iter()
                .map(|&s| s.sqrt().max(tol::NORM_FLOOR))
                .collect()
        });
        let f_norm = norm2(f);
        let mut session = OmpSession {
            cfg,
            m,
            k,
            norms,
            f_norm,
            qr: GrowingQr::new(k),
            selected: Vec::new(),
            in_model: vec![false; m],
            excluded: vec![false; m],
            res: f.to_vec(),
            snapshots: Vec::new(),
            residual_norms: Vec::new(),
            done: false,
        };
        if tol::exactly_zero(f_norm) {
            session.snapshots.push(SparseModel::zero(m));
            session.residual_norms.push(0.0);
            session.done = true;
        }
        Ok(session)
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

    /// Performs one greedy selection + LS re-fit step.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] if the LS re-fit fails.
    pub fn step<S: AtomSource + ?Sized>(&mut self, g: &S, f: &[f64]) -> Result<StepOutcome> {
        if self.done {
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
        // identical to scoring each candidate separately.
        let mut xi = g.correlate(&self.res);
        if let Some(norms) = &self.norms {
            for (v, n) in xi.iter_mut().zip(norms) {
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

    /// The selection path traced so far.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsolvable`] if no snapshot exists yet.
    pub fn path(&self) -> Result<SparsePath> {
        traced_path(self.m, self.snapshots.clone(), self.residual_norms.clone())
    }

    /// Consumes the session, returning the traced path.
    ///
    /// # Errors
    ///
    /// As [`Self::path`].
    pub fn into_path(self) -> Result<SparsePath> {
        traced_path(self.m, self.snapshots, self.residual_norms)
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

    #[test]
    fn lar_run_to_is_resumable_mid_path() {
        let (g, f) = sparse_problem(45, 25, 9);
        let cfg = LarConfig::new(7);
        let mut s = LarSession::new(cfg.clone(), &g, &f).unwrap();
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
        let mut s = LarSession::new(LarConfig::new(2), &g, &[0.0; 4]).unwrap();
        assert!(s.is_finished());
        s.run(&g, &[0.0; 4]).unwrap();
        let path = s.into_path().unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
    }

    #[test]
    fn construction_rejects_bad_operands_with_structured_errors() {
        let (g, f) = sparse_problem(25, 20, 3);
        assert!(matches!(
            LarSession::new(LarConfig::new(0), &g, &f),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            LarSession::new(LarConfig::new(3), &g, &f[..10]),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            OmpSession::new(OmpConfig::new(3), &g, &f[..10]),
            Err(CoreError::ShapeMismatch { .. })
        ));
        let mut bad = f.clone();
        bad[3] = f64::NAN;
        assert!(matches!(
            LarSession::new(LarConfig::new(3), &g, &bad),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            OmpSession::new(OmpConfig::new(3), &g, &bad),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn step_after_finish_is_idempotent_and_unpoisoned() {
        let (g, f) = sparse_problem(30, 20, 61);
        let mut s = LarSession::new(LarConfig::new(3), &g, &f).unwrap();
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

        let mut o = OmpSession::new(OmpConfig::new(3), &g, &f).unwrap();
        o.run(&g, &f).unwrap();
        assert!(o.is_finished());
        let picked = o.selected().to_vec();
        assert_eq!(o.step(&g, &f).unwrap(), StepOutcome::Finished);
        assert_eq!(o.selected(), &picked[..], "no phantom selection");
    }
}
