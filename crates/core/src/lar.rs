//! Least angle regression (LARS) — the algorithm of the DAC 2009 paper,
//! after Efron, Hastie, Johnstone & Tibshirani (2004).
//!
//! LAR relaxes the L0 constraint of Eq. (11) to an L1 constraint and
//! follows the piecewise-linear solution path: at each breakpoint the
//! coefficient estimate moves along the *equiangular* direction of the
//! active set — the direction making equal angles with every active
//! basis vector — exactly until some inactive vector becomes equally
//! correlated with the residual, which then joins the active set.
//!
//! The optional **lasso modification** drops an active variable the
//! moment its coefficient crosses zero, and the next step moves along
//! the reduced active set without activating anything (§3.1 of Efron
//! et al.), making the path coincide with the L1-penalized regression
//! path.
//!
//! Predictors are normalized internally to unit column norm (the
//! algorithm's equal-angle geometry assumes it); reported coefficients
//! are rescaled back to the caller's dictionary.
//!
//! [`LarConfig::fit`] is the whole algorithm: one loop, one step per
//! breakpoint, with the path state as locals. The active-set Gram
//! factor is a [`GrowingCholesky`] that grows by one row per activation
//! and is downdated by Givens rotations on a lasso drop, so each step's
//! re-solve costs `O(p²)`.
//!
//! The per-atom state is three `M`-wide `f64` vectors — the column
//! norms, the correlations `c` and the step's `a = Xᵀu` — and one
//! state byte per atom (free, active or excluded). Coefficients are
//! kept per active position. Every `O(M)` pass over that state runs on
//! a fixed grid of 16 Ki-atom tiles through
//! [`rsm_runtime::par_chunks_mut_reduce`], and its folds (a minimum, a
//! NaN-ignoring maximum, a first-index strict maximum) pick the same
//! value from any tiling, so the path is bit-identical at every thread
//! count and to a single serial scan.

use crate::model::SparseModel;
use crate::path::{traced_path, SparsePath};
use crate::source::AtomSource;
use crate::{check_response, non_finite_sq_norm, CoreError, Result, PATH_REL_TOL};
use rsm_linalg::cholesky::GrowingCholesky;
use rsm_linalg::tol;
use rsm_linalg::vec_ops::{axpy, dot, norm2};

/// Atoms per tile of the per-atom passes. A constant, so one thread
/// walks the same tiles inline.
const TILE: usize = 16 * 1024;

/// Where an atom stands on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomState {
    /// Eligible for activation.
    Free,
    /// In the active set.
    Active,
    /// Of zero norm, or numerically dependent on the active set when it
    /// came up for activation.
    Excluded,
}

/// The next activation: the first atom holding the strict maximum of
/// `|c_j|` over free atoms, if that maximum is above zero. Tile results
/// merged in tile order give the atom a single scan gives.
#[derive(Debug, Clone, Copy)]
struct Best {
    abs: f64,
    atom: Option<usize>,
}

impl Best {
    const NONE: Best = Best {
        abs: 0.0,
        atom: None,
    };

    fn offer(&mut self, j: usize, abs: f64) {
        if abs > self.abs {
            *self = Best { abs, atom: Some(j) };
        }
    }

    fn merge(&mut self, later: Best) {
        if let Some(j) = later.atom {
            self.offer(j, later.abs);
        }
    }

    /// A serial scan of the free atoms.
    fn scan(c: &[f64], state: &[AtomState]) -> Best {
        let mut best = Best::NONE;
        for (j, (cj, &s)) in c.iter().zip(state).enumerate() {
            if s == AtomState::Free {
                best.offer(j, cj.abs());
            }
        }
        best
    }
}

/// LARS configuration.
#[derive(Debug, Clone)]
pub struct LarConfig {
    /// Maximum number of path steps (≈ the paper's `λ`: a step
    /// activates one basis function, except the step right after a
    /// lasso drop, which activates none).
    pub max_steps: usize,
    /// Enable the lasso modification (drop variables whose coefficient
    /// hits zero).
    pub lasso: bool,
}

impl LarConfig {
    /// Plain LARS with at most `max_steps` activations.
    pub fn new(max_steps: usize) -> Self {
        LarConfig {
            max_steps,
            lasso: false,
        }
    }

    /// Enables the lasso variant.
    pub fn with_lasso(mut self) -> Self {
        self.lasso = true;
        self
    }

    /// Runs LARS on `G·α = F`, returning the solution path. The path
    /// ends early once the maximal absolute correlation falls to
    /// `1e-12 · ‖F‖₂`.
    ///
    /// `g` is any [`AtomSource`]: a dense [`rsm_linalg::Matrix`], a
    /// streaming [`crate::source::DictionarySource`], or an adapter
    /// stack. Per-step cost is one [`AtomSource::correlate`] stream,
    /// two tiled passes over the atoms, and `O(K)` work per active
    /// column. Scratch is three `M`-wide `f64` vectors, one byte per
    /// atom, and `O(K·|A|)` for the active columns — never `O(K·M)`. A
    /// zero response is fitted exactly by the zero model, a one-step
    /// path.
    ///
    /// # Errors
    ///
    /// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
    /// - [`CoreError::BadConfig`] if `max_steps == 0`, `f` is
    ///   non-finite, or a squared column norm is not finite (a
    ///   non-finite entry, or squares that overflow), naming the first
    ///   such atom;
    /// - [`CoreError::Unsolvable`] if no atom can be activated at the
    ///   first step;
    /// - [`CoreError::Numerical`] if the active-set Gram factorization
    ///   breaks down irrecoverably.
    pub fn fit<S: AtomSource + ?Sized>(&self, g: &S, f: &[f64]) -> Result<SparsePath> {
        if self.max_steps == 0 {
            return Err(CoreError::BadConfig("max_steps must be at least 1".into()));
        }
        check_response(g, f)?;
        let (k, m) = (g.num_rows(), g.num_atoms());
        let f_norm = norm2(f);
        if tol::exactly_zero(f_norm) {
            return Ok(SparsePath::new(m, vec![SparseModel::zero(m)], vec![0.0]));
        }
        // One pass turns the squared norms into `‖G_j‖₂` and `Gᵀf` into
        // the normalized correlations `Xᵀ(f − μ)` (X = column-normalized
        // G) in place, excludes atoms of zero norm (numerically
        // dependent ones are excluded when they fail to activate), and
        // finds the first activation.
        let mut norms = g.column_sq_norms();
        let mut c = g.correlate(f);
        let mut state = vec![AtomState::Free; m];
        let mut non_finite: Option<(usize, f64)> = None;
        let mut next = Best::NONE;
        rsm_runtime::par_chunks_mut_reduce(
            (&mut norms[..], &mut c[..], &mut state[..]),
            TILE,
            |atoms, (norms, c, state)| {
                let mut non_finite = None;
                let mut best = Best::NONE;
                for (j, ((n, cj), s)) in atoms.zip(norms.iter_mut().zip(c).zip(state)) {
                    if !n.is_finite() && non_finite.is_none() {
                        non_finite = Some((j, *n));
                    }
                    *n = n.sqrt();
                    *cj /= n.max(tol::NORM_FLOOR);
                    if *n <= tol::NORM_FLOOR {
                        *s = AtomState::Excluded;
                    } else {
                        best.offer(j, cj.abs());
                    }
                }
                (non_finite, best)
            },
            |(tile_non_finite, tile_best)| {
                non_finite = non_finite.or(tile_non_finite);
                next.merge(tile_best);
            },
        );
        if let Some((j, sq)) = non_finite {
            return Err(non_finite_sq_norm(j, sq));
        }
        // Absolute correlation floor.
        let c_floor = PATH_REL_TOL * f_norm;
        // Shortest step length that counts as a move. A step length is
        // in the response's units, so the floor scales with `‖F‖₂`.
        let step_floor = tol::STEP_REL_TOL * f_norm;
        let max_active = self.max_steps.min(k).min(m);
        // Current fit `X·β` in sample space.
        let mut mu = vec![0.0; k];
        let mut active: Vec<usize> = Vec::new();
        // Coefficients in normalized coordinates, by active position.
        let mut beta: Vec<f64> = Vec::new();
        let mut chol = GrowingCholesky::new();
        // Normalized active columns, in activation order.
        let mut active_cols: Vec<Vec<f64>> = Vec::new();
        let mut snapshots = Vec::new();
        let mut residual_norms = Vec::new();
        // Set by a lasso drop: the next step moves along the reduced
        // active set without activating an atom.
        let mut dropped = false;

        'path: for _ in 0..self.max_steps {
            // Activation of `next`, the maximal absolute correlation
            // among free atoms, retrying past numerically dependent
            // atoms (each retry rescans the unchanged correlations).
            // Right after a lasso drop the dropped atom still sits at
            // the correlation level, so it would be picked straight
            // back; instead the step moves along the reduced active set
            // (Efron et al. 2004, §3.1), unless the drop emptied it.
            let after_drop = std::mem::take(&mut dropped) && !active.is_empty();
            loop {
                if !after_drop && active.len() < max_active {
                    match next.atom {
                        Some(j) if next.abs > c_floor => {
                            let mut col = vec![0.0; k];
                            g.column_into(j, &mut col);
                            let inv = 1.0 / norms[j];
                            for v in &mut col {
                                *v *= inv;
                            }
                            let cross: Vec<f64> =
                                active_cols.iter().map(|ac| dot(ac, &col)).collect();
                            match chol.push(&cross, 1.0) {
                                Ok(()) => {
                                    active.push(j);
                                    beta.push(0.0);
                                    state[j] = AtomState::Active;
                                    active_cols.push(col);
                                    break;
                                }
                                // Try the next-best column.
                                Err(_) => {
                                    state[j] = AtomState::Excluded;
                                    next = Best::scan(&c, &state);
                                }
                            }
                        }
                        // Nothing informative left.
                        _ => break 'path,
                    }
                } else if active.is_empty() {
                    break 'path;
                } else {
                    // Saturated, or right after a drop: keep advancing
                    // along the current set.
                    break;
                }
            }

            // Equiangular direction.
            let signs: Vec<f64> = active.iter().map(|&j| c[j].signum()).collect();
            let w_raw = chol.solve(&signs)?;
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
            for (ac, &wj) in active_cols.iter().zip(&w) {
                axpy(wj, ac, &mut u);
            }
            let mut a = g.correlate(&u);
            // Correlation level inside the active set.
            let c_level = active.iter().map(|&j| c[j].abs()).fold(0.0f64, f64::max);

            // One pass normalizes `a` in place and finds the step length
            // to the next activation event: the full step (the
            // last-variable case) or the shortest candidate above the
            // floor.
            let mut gamma = c_level / a_a;
            rsm_runtime::par_chunks_mut_reduce(
                &mut a[..],
                TILE,
                |atoms, a| {
                    let mut shortest = f64::INFINITY;
                    let (norms, c, state) =
                        (&norms[atoms.clone()], &c[atoms.clone()], &state[atoms]);
                    for (aj, ((n, &cj), &s)) in a.iter_mut().zip(norms.iter().zip(c).zip(state)) {
                        *aj /= n.max(tol::NORM_FLOOR);
                        if s != AtomState::Free {
                            continue;
                        }
                        for cand in [(c_level - cj) / (a_a - *aj), (c_level + cj) / (a_a + *aj)] {
                            if cand > step_floor && cand < shortest {
                                shortest = cand;
                            }
                        }
                    }
                    shortest
                },
                |shortest| {
                    if shortest < gamma {
                        gamma = shortest;
                    }
                },
            );
            // Lasso: step length to the first zero crossing.
            let mut drop_idx: Option<usize> = None;
            if self.lasso {
                for (pos, (&b, &wj)) in beta.iter().zip(&w).enumerate() {
                    if !tol::exactly_zero(wj) {
                        let gd = -b / wj;
                        if gd > step_floor && gd < gamma {
                            gamma = gd;
                            drop_idx = Some(pos);
                        }
                    }
                }
            }

            // Advance.
            for (b, &wj) in beta.iter_mut().zip(&w) {
                *b += gamma * wj;
            }
            axpy(gamma, &u, &mut mu);

            // Handle a lasso drop: a Givens downdate of the Cholesky
            // factor in O(p²) — no refactorization of the surviving
            // active set.
            if let Some(pos) = drop_idx {
                let j = active.remove(pos);
                beta.remove(pos);
                state[j] = AtomState::Free;
                active_cols.remove(pos);
                if chol.drop_column(pos).is_err() {
                    return Err(CoreError::Numerical(
                        "LARS active-set downdate failed after drop".into(),
                    ));
                }
                dropped = true;
            }

            // One pass moves the correlations to the new fit and finds
            // the largest one left outside the excluded atoms, for the
            // stop test, and the next activation.
            let mut remaining = 0.0f64;
            next = Best::NONE;
            rsm_runtime::par_chunks_mut_reduce(
                &mut c[..],
                TILE,
                |atoms, c| {
                    let mut most = 0.0f64;
                    let mut best = Best::NONE;
                    let (a, state) = (&a[atoms.clone()], &state[atoms.clone()]);
                    for (j, (cj, (&aj, &s))) in atoms.zip(c.iter_mut().zip(a.iter().zip(state))) {
                        *cj -= gamma * aj;
                        if s != AtomState::Excluded {
                            most = most.max(cj.abs());
                        }
                        if s == AtomState::Free {
                            best.offer(j, cj.abs());
                        }
                    }
                    (most, best)
                },
                |(most, best)| {
                    remaining = remaining.max(most);
                    next.merge(best);
                },
            );

            // Record a snapshot in the caller's (unnormalized) scale.
            let coeffs: Vec<(usize, f64)> = active
                .iter()
                .zip(&beta)
                .map(|(&j, &b)| (j, b / norms[j]))
                .collect();
            snapshots.push(SparseModel::new(m, coeffs));
            let res: Vec<f64> = f.iter().zip(&mu).map(|(a, b)| a - b).collect();
            residual_norms.push(norm2(&res));

            // Converged: correlations exhausted.
            if remaining <= c_floor {
                break;
            }
            if active.len() >= max_active && !self.lasso {
                // One final full-length step was just taken.
                break;
            }
        }
        traced_path(m, snapshots, residual_norms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_linalg::vec_ops::{dot, norm2};
    use rsm_linalg::Matrix;
    use rsm_stats::metrics::relative_error;
    use rsm_stats::NormalSampler;

    fn sparse_problem(
        k: usize,
        m: usize,
        truth: &[(usize, f64)],
        noise: f64,
        seed: u64,
    ) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for &(j, v) in truth {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += noise * s.sample();
        }
        (g, f)
    }

    #[test]
    fn recovers_sparse_truth() {
        let truth = [(3usize, 4.0), (20, -2.5), (55, 1.0)];
        let (g, f) = sparse_problem(80, 120, &truth, 0.0, 21);
        let path = LarConfig::new(10).fit(&g, &f).unwrap();
        let model = path.final_model();
        let pred = model.predict_matrix(&g);
        assert!(relative_error(&pred, &f) < 1e-6);
        // The true support must be inside the selected support.
        let support = model.support();
        for (j, _) in truth {
            assert!(support.contains(&j), "missing true atom {j}");
        }
    }

    #[test]
    fn correlations_tie_along_path() {
        // The defining LARS property: after each step, all active
        // variables share the same absolute correlation with the
        // residual, and it upper-bounds every inactive correlation.
        let truth = [(2usize, 3.0), (10, -1.5), (31, 2.0), (47, -1.0)];
        let (g, f) = sparse_problem(100, 60, &truth, 0.05, 22);
        let path = LarConfig::new(6).fit(&g, &f).unwrap();
        // Normalized columns.
        let norms: Vec<f64> = (0..60).map(|j| norm2(&g.col(j))).collect();
        for (lambda, model) in path.iter() {
            let pred = model.predict_matrix(&g);
            let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
            let corrs: Vec<f64> = (0..60)
                .map(|j| dot(&g.col(j), &res).abs() / norms[j])
                .collect();
            let support = model.support();
            if support.is_empty() {
                continue;
            }
            let active_corr: Vec<f64> = support.iter().map(|&j| corrs[j]).collect();
            let cmax = active_corr.iter().fold(0.0f64, |m, &v| m.max(v));
            let cmin = active_corr.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            assert!(
                cmax - cmin < 1e-8 * (1.0 + cmax),
                "step {lambda}: active correlations differ: {active_corr:?}"
            );
            for (j, &corr) in corrs.iter().enumerate() {
                if !support.contains(&j) {
                    assert!(
                        corr <= cmax + 1e-8 * (1.0 + cmax),
                        "step {lambda}: inactive {j} exceeds active level"
                    );
                }
            }
        }
    }

    #[test]
    fn residuals_decrease_along_path() {
        let truth = [(1usize, 2.0), (9, 1.0)];
        let (g, f) = sparse_problem(50, 30, &truth, 0.1, 23);
        let path = LarConfig::new(8).fit(&g, &f).unwrap();
        for w in path.residual_norms().windows(2) {
            assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn active_set_grows_by_one_per_step_without_lasso() {
        let truth = [(0usize, 1.0), (5, -2.0), (12, 0.5)];
        let (g, f) = sparse_problem(40, 20, &truth, 0.02, 24);
        let path = LarConfig::new(5).fit(&g, &f).unwrap();
        for (lambda, model) in path.iter() {
            assert!(model.num_nonzeros() <= lambda);
        }
    }

    #[test]
    fn lasso_variant_reaches_same_fit_on_easy_problem() {
        let truth = [(4usize, 3.0), (15, -2.0)];
        let (g, f) = sparse_problem(60, 25, &truth, 0.0, 25);
        let plain = LarConfig::new(10).fit(&g, &f).unwrap();
        let lasso = LarConfig::new(30).with_lasso().fit(&g, &f).unwrap();
        let ep = relative_error(&plain.final_model().predict_matrix(&g), &f);
        let el = relative_error(&lasso.final_model().predict_matrix(&g), &f);
        assert!(ep < 1e-6, "plain {ep}");
        assert!(el < 1e-6, "lasso {el}");
    }

    #[test]
    fn lasso_coefficients_never_cross_zero_sign() {
        // Along the lasso path, an active coefficient's sign matches its
        // correlation sign (a crossing forces a drop instead).
        let truth = [(2usize, 1.0), (7, -1.0), (11, 0.8), (17, -0.6)];
        let (g, f) = sparse_problem(35, 20, &truth, 0.3, 26);
        let path = LarConfig::new(40).with_lasso().fit(&g, &f).unwrap();
        for (_, model) in path.iter() {
            let pred = model.predict_matrix(&g);
            let res: Vec<f64> = f.iter().zip(&pred).map(|(a, b)| a - b).collect();
            for &(j, coef) in model.coefficients() {
                let corr = dot(&g.col(j), &res);
                // Sign consistency (allowing the just-hit-zero moment).
                if coef.abs() > 1e-10 && corr.abs() > 1e-8 {
                    assert!(
                        coef.signum() == corr.signum(),
                        "coef {coef} vs corr {corr} at atom {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn underdetermined_system_is_fine() {
        // K = 30 samples, M = 200 unknowns — the paper's regime.
        let truth = [(10usize, 5.0), (100, -3.0), (150, 2.0)];
        let (g, f) = sparse_problem(30, 200, &truth, 0.0, 27);
        let path = LarConfig::new(6).fit(&g, &f).unwrap();
        let err = relative_error(&path.final_model().predict_matrix(&g), &f);
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn response_scaled_by_a_power_of_two_scales_the_path_exactly() {
        // Multiplying F by 2^e rounds nothing, so each step must make
        // the same choices and every coefficient must scale by exactly
        // 2^e, however far from 1 the response's units are.
        let mut s = NormalSampler::seed_from_u64(285);
        let g = Matrix::from_fn(60, 200, |_, _| s.sample());
        let f = s.sample_vec(60);
        let bits = |m: &SparseModel, k: f64| -> Vec<(usize, u64)> {
            m.coefficients()
                .iter()
                .map(|&(j, c)| (j, (c * k).to_bits()))
                .collect()
        };
        for cfg in [LarConfig::new(15), LarConfig::new(15).with_lasso()] {
            let base = cfg.fit(&g, &f).unwrap();
            assert_eq!(base.len(), 15);
            // The lasso path drops an atom (at step 9), so the zero
            // crossing's floor is exercised too.
            assert_eq!(base.final_model().num_nonzeros() < 15, cfg.lasso);
            for e in [-1000, -500, -60, -45, -20, 0, 20, 60, 500, 1000] {
                let scale = f64::from_bits(((1023 + e) as u64) << 52);
                let scaled: Vec<f64> = f.iter().map(|v| v * scale).collect();
                let path = cfg.fit(&g, &scaled).unwrap();
                assert_eq!(path.len(), base.len(), "{cfg:?}, e = {e}");
                for ((step, got), (_, want)) in path.iter().zip(base.iter()) {
                    let msg = format!("{cfg:?}, e = {e}, step {step}");
                    assert_eq!(bits(got, 1.0), bits(want, scale), "{msg}");
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let g = Matrix::identity(4);
        assert!(LarConfig::new(0).fit(&g, &[1.0; 4]).is_err());
        assert!(LarConfig::new(2).fit(&g, &[1.0; 3]).is_err());
        let path = LarConfig::new(2).fit(&g, &[0.0; 4]).unwrap();
        assert_eq!(path.final_model().num_nonzeros(), 0);
    }

    #[test]
    fn zero_column_is_ignored() {
        let mut s = NormalSampler::seed_from_u64(31);
        let mut g = Matrix::from_fn(20, 10, |_, _| s.sample());
        for r in 0..20 {
            g[(r, 4)] = 0.0; // dead column
        }
        let f: Vec<f64> = (0..20).map(|r| 2.0 * g[(r, 7)]).collect();
        let path = LarConfig::new(3).fit(&g, &f).unwrap();
        assert!(!path.final_model().support().contains(&4));
    }
}
