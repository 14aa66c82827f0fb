//! Designated floating-point comparison helpers.
//!
//! Exact float `==`/`!=` is denied in library code (`clippy::float_cmp`
//! at each library crate root) because LAR/OMP
//! are sensitive to tie-breaking and near-zero correlation tests: a
//! comparison that is exact *by accident* is indistinguishable from
//! one that is exact *on purpose*. Every comparison must route through
//! this module so the choice is explicit and greppable:
//!
//! - [`exactly_zero`] / [`exactly_eq`] — bit-exact comparison, for
//!   structural sentinels (a coefficient that was literally never
//!   touched, a Householder `tau` stored as `0.0` meaning "skip") and
//!   guards against dividing by a literal zero. These preserve the
//!   exact semantics of `==` and therefore keep results bit-identical.
//! - [`approx_eq`] — tolerance-based comparison, for genuinely
//!   approximate questions ("do these two results agree?").
//!
//! The two exact helpers are the *only* sanctioned homes of the raw
//! operator. Neither needs an exemption: `float_cmp` skips comparisons
//! against a zero constant and functions named `*_eq`.

/// Default absolute tolerance for [`approx_eq`] when a caller has no
/// better problem-scale estimate: `f64` epsilon squared-ish, far below
/// any physically meaningful circuit quantity.
pub const DEFAULT_ABS_TOL: f64 = 1e-12;

/// Default relative tolerance for [`approx_eq`].
pub const DEFAULT_REL_TOL: f64 = 1e-9;

/// Norm floor used when dividing by a vector/column norm: values at or
/// below this are treated as structurally zero to avoid overflow in
/// the reciprocal, while every representable normal magnitude above it
/// stays live. Chosen at the bottom of the normal range (not machine
/// epsilon) because LAR/OMP normalize *directions*, where even tiny
/// norms carry sign information.
pub const NORM_FLOOR: f64 = 1e-300;

/// Relative tolerance on a LAR/OMP step improvement: a selection score
/// or step size below `STEP_REL_TOL` times the problem scale means the
/// path has stalled and iteration must stop deterministically (~100×
/// f64 epsilon, absorbing accumulated round-off across a full sweep).
pub const STEP_REL_TOL: f64 = 1e-14;

/// Bit-exact test against zero (matches both `+0.0` and `-0.0`).
///
/// Use for structural sentinels and divide-by-zero guards where any
/// nonzero value — however tiny — must be treated as live data.
#[inline]
#[must_use]
pub fn exactly_zero(x: f64) -> bool {
    x == 0.0
}

/// Bit-exact equality (IEEE `==`: `-0.0 == 0.0`, NaN equals nothing).
///
/// Use only when both operands come from the same computation path and
/// the question is "is this the identical stored value", never for
/// results of differing round-off histories.
#[inline]
#[must_use]
pub fn exactly_eq(a: f64, b: f64) -> bool {
    a == b
}

/// Mixed relative/absolute closeness:
/// `|a - b| <= max(abs_tol, rel_tol * max(|a|, |b|))`.
///
/// NaN compares close to nothing; equal infinities compare close.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64, rel_tol: f64, abs_tol: f64) -> bool {
    if exactly_eq(a, b) {
        return true; // covers equal infinities
    }
    if !a.is_finite() || !b.is_finite() {
        return false; // NaN or mismatched infinities
    }
    let diff = (a - b).abs();
    diff <= abs_tol.max(rel_tol * a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_both_signs_and_subnormals() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f64::MIN_POSITIVE));
        assert!(!exactly_zero(5e-324)); // smallest subnormal stays live
        assert!(!exactly_zero(f64::NAN));
    }

    #[test]
    fn exact_eq_is_ieee() {
        assert!(exactly_eq(1.5, 1.5));
        assert!(exactly_eq(0.0, -0.0));
        assert!(!exactly_eq(f64::NAN, f64::NAN));
        assert!(!exactly_eq(1.0, 1.0 + f64::EPSILON));
    }

    #[test]
    fn approx_eq_mixes_rel_and_abs() {
        assert!(approx_eq(1e9, 1e9 + 1.0, DEFAULT_REL_TOL, DEFAULT_ABS_TOL));
        assert!(approx_eq(0.0, 1e-13, DEFAULT_REL_TOL, DEFAULT_ABS_TOL));
        assert!(!approx_eq(1.0, 1.001, DEFAULT_REL_TOL, DEFAULT_ABS_TOL));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0, 0.0));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0, 1.0));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1.0, 1.0));
    }
}
