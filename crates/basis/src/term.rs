//! Sparse multi-dimensional basis terms.

use crate::hermite;
use std::fmt;

/// One multi-dimensional orthonormal basis function
/// `g(ΔY) = Π_v ψ_{d_v}(Δy_v)`, stored sparsely as the list of
/// `(variable index, degree)` pairs with nonzero degree.
///
/// The empty factor list is the constant term `g ≡ 1`.
///
/// # Example
///
/// ```
/// use rsm_basis::Term;
/// // g(ΔY) = Δy_0 · ψ_2(Δy_3)
/// let t = Term::new(vec![(0, 1), (3, 2)]);
/// assert_eq!(t.total_degree(), 3);
/// let y = [2.0, 0.0, 0.0, 1.0, 0.0];
/// assert!((t.eval(&y) - 2.0 * 0.0).abs() < 1e-15); // ψ₂(1) = 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// `(variable, degree)` factors, sorted by variable, degrees ≥ 1.
    factors: Vec<(usize, u32)>,
}

impl Term {
    /// The constant term `g ≡ 1`.
    pub fn constant() -> Self {
        Term {
            factors: Vec::new(),
        }
    }

    /// A linear term `ψ_1(Δy_v) = Δy_v`.
    pub fn linear(v: usize) -> Self {
        Term {
            factors: vec![(v, 1)],
        }
    }

    /// A pure-quadratic term `ψ_2(Δy_v) = (Δy_v² − 1)/√2`.
    pub fn pure_quadratic(v: usize) -> Self {
        Term {
            factors: vec![(v, 2)],
        }
    }

    /// A cross term `Δy_i · Δy_j` (`i ≠ j`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (use [`Self::pure_quadratic`]).
    pub fn cross(i: usize, j: usize) -> Self {
        assert_ne!(i, j, "cross term needs two distinct variables");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Term {
            factors: vec![(a, 1), (b, 1)],
        }
    }

    /// Builds a term from arbitrary factors; zero degrees are dropped,
    /// duplicate variables merged, and factors sorted.
    pub fn new(factors: Vec<(usize, u32)>) -> Self {
        let mut f: Vec<(usize, u32)> = factors.into_iter().filter(|&(_, d)| d > 0).collect();
        f.sort_by_key(|&(v, _)| v);
        // Merge duplicates.
        let mut merged: Vec<(usize, u32)> = Vec::with_capacity(f.len());
        for (v, d) in f {
            match merged.last_mut() {
                Some((lv, ld)) if *lv == v => *ld += d,
                _ => merged.push((v, d)),
            }
        }
        Term { factors: merged }
    }

    /// The `(variable, degree)` factors, sorted by variable index.
    pub fn factors(&self) -> &[(usize, u32)] {
        &self.factors
    }

    /// Total polynomial degree `Σ_v d_v`.
    pub fn total_degree(&self) -> u32 {
        self.factors.iter().map(|&(_, d)| d).sum()
    }

    /// `true` for the constant term.
    pub fn is_constant(&self) -> bool {
        self.factors.is_empty()
    }

    /// Evaluates `g(ΔY)` at a point.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a referenced variable index is out of
    /// range of `dy`.
    pub fn eval(&self, dy: &[f64]) -> f64 {
        let mut p = 1.0;
        for &(v, d) in &self.factors {
            debug_assert!(v < dy.len(), "term references variable {v} beyond input");
            p *= hermite::psi(d as usize, dy[v]);
        }
        p
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factors.is_empty() {
            return write!(f, "1");
        }
        for (k, &(v, d)) in self.factors.iter().enumerate() {
            if k > 0 {
                write!(f, "·")?;
            }
            if d == 1 {
                write!(f, "y{v}")?;
            } else {
                write!(f, "ψ{d}(y{v})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_term() {
        let t = Term::constant();
        assert!(t.is_constant());
        assert_eq!(t.total_degree(), 0);
        assert_eq!(t.eval(&[1.0, 2.0]), 1.0);
        assert_eq!(format!("{t}"), "1");
    }

    #[test]
    fn linear_term_evaluates_to_coordinate() {
        let t = Term::linear(1);
        assert_eq!(t.eval(&[5.0, -3.0]), -3.0);
        assert_eq!(t.total_degree(), 1);
        assert_eq!(format!("{t}"), "y1");
    }

    #[test]
    fn pure_quadratic_matches_formula() {
        let t = Term::pure_quadratic(0);
        let x = 1.7;
        assert!((t.eval(&[x]) - (x * x - 1.0) / 2f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn cross_term_orders_and_multiplies() {
        let t = Term::cross(3, 1);
        assert_eq!(t.factors(), &[(1, 1), (3, 1)]);
        assert_eq!(t.eval(&[0.0, 2.0, 0.0, -1.5]), -3.0);
        assert_eq!(t.total_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct variables")]
    fn cross_same_variable_panics() {
        let _ = Term::cross(2, 2);
    }

    #[test]
    fn new_merges_and_drops_zero_degrees() {
        let t = Term::new(vec![(2, 1), (0, 0), (2, 1), (1, 3)]);
        assert_eq!(t.factors(), &[(1, 3), (2, 2)]);
        assert_eq!(t.total_degree(), 5);
    }

    #[test]
    fn display_quadratic() {
        let t = Term::new(vec![(0, 2), (4, 1)]);
        assert_eq!(format!("{t}"), "ψ2(y0)·y4");
    }
}
