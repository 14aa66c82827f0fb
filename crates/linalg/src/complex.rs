//! Minimal complex arithmetic and a complex LU solver.
//!
//! The AC small-signal analysis of the circuit simulator solves
//! `(G + jωC)·x = b` at each frequency point; this module provides the
//! complex scalar type and the dense complex solver it needs, so the
//! workspace stays free of external numeric crates.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use rsm_linalg::Complex;
/// let j = Complex::new(0.0, 1.0);
/// assert_eq!(j * j, Complex::new(-1.0, 0.0));
/// assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`, overflow-safe.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Reciprocal `1/z` (overflow-safe via Smith's algorithm).
    #[inline]
    pub fn recip(self) -> Self {
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex::new(r / d, -1.0 / d)
        }
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "division via the overflow-safe reciprocal is the intended design"
    )]
    fn div(self, o: Complex) -> Complex {
        self * o.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, o: Complex) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

/// Dense complex LU solver with partial pivoting, specialized for the
/// AC analysis system `(G + jωC)·x = b`.
///
/// Stores the matrix as a flat row-major `Vec<Complex>`.
#[derive(Debug, Clone)]
pub struct ComplexLu {
    lu: Vec<Complex>,
    perm: Vec<usize>,
    n: usize,
}

impl ComplexLu {
    /// Factors an `n × n` complex matrix given in row-major order.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `data.len() != n·n`;
    /// - [`LinalgError::Singular`] on a (numerically) zero pivot column.
    pub fn new(n: usize, data: &[Complex]) -> Result<Self> {
        if data.len() != n * n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{n}x{n} = {} entries", n * n),
                found: format!("{} entries", data.len()),
            });
        }
        let mut lu = data.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot on magnitude.
            let mut pmax = 0.0;
            let mut prow = k;
            for i in k..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    prow = i;
                }
            }
            if pmax < f64::MIN_POSITIVE * 1e4 {
                return Err(LinalgError::Singular { index: k });
            }
            if prow != k {
                for c in 0..n {
                    lu.swap(k * n + c, prow * n + c);
                }
                perm.swap(k, prow);
            }
            let pivot = lu[k * n + k];
            let pinv = pivot.recip();
            for i in (k + 1)..n {
                let f = lu[i * n + k] * pinv;
                lu[i * n + k] = f;
                if f != Complex::ZERO {
                    for c in (k + 1)..n {
                        let u = lu[k * n + c];
                        lu[i * n + c] -= f * u;
                    }
                }
            }
        }
        Ok(ComplexLu { lu, perm, n })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut x: Vec<Complex> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s * self.lu[i * n + i].recip();
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn arithmetic_identities() {
        let z = c(2.0, -3.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(Complex::J * Complex::J, c(-1.0, 0.0));
        assert_eq!(-z, c(-2.0, 3.0));
    }

    #[test]
    fn division_and_recip() {
        let z = c(3.0, 4.0);
        let w = z * z.recip();
        assert!((w.re - 1.0).abs() < 1e-15 && w.im.abs() < 1e-15);
        let q = c(1.0, 1.0) / c(1.0, -1.0);
        assert!((q.re).abs() < 1e-15 && (q.im - 1.0).abs() < 1e-15);
    }

    #[test]
    fn recip_extreme_magnitudes() {
        let z = c(1e-200, 1e-200);
        let r = z.recip();
        assert!(r.is_finite());
        let back = r.recip();
        assert!((back.re / 1e-200 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn abs_and_arg() {
        assert!((c(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
        assert!((c(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!((c(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", c(1.0, 2.0)), "1+2j");
        assert_eq!(format!("{}", c(1.0, -2.0)), "1-2j");
    }

    #[test]
    fn complex_lu_solves_real_system() {
        // Real system embedded in complex arithmetic must match lu::solve.
        let data = [c(2.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(3.0, 0.0)];
        let lu = ComplexLu::new(2, &data).unwrap();
        let x = lu.solve(&[c(5.0, 0.0), c(10.0, 0.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12 && x[0].im.abs() < 1e-14);
        assert!((x[1].re - 3.0).abs() < 1e-12 && x[1].im.abs() < 1e-14);
    }

    #[test]
    fn complex_lu_roundtrip() {
        let n = 6;
        let mut state = 123u64;
        let mut next = || {
            state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = vec![Complex::ZERO; n * n];
        for (i, v) in a.iter_mut().enumerate() {
            *v = c(next(), next());
            if i % (n + 1) == 0 {
                *v += c(3.0, 0.0); // diagonal dominance
            }
        }
        let x_true: Vec<Complex> = (0..n).map(|i| c(i as f64, -(i as f64) * 0.5)).collect();
        let mut b = vec![Complex::ZERO; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i * n + j] * x_true[j];
            }
        }
        let lu = ComplexLu::new(n, &a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_lu_pivots_zero_diagonal() {
        let data = [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO];
        let lu = ComplexLu::new(2, &data).unwrap();
        let x = lu.solve(&[c(2.0, 0.0), c(3.0, 0.0)]).unwrap();
        assert!((x[0].re - 3.0).abs() < 1e-14);
        assert!((x[1].re - 2.0).abs() < 1e-14);
    }

    #[test]
    fn complex_lu_singular_detected() {
        let data = [Complex::ONE, Complex::ONE, Complex::ONE, Complex::ONE];
        assert!(matches!(
            ComplexLu::new(2, &data),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn complex_lu_shape_errors() {
        assert!(ComplexLu::new(2, &[Complex::ZERO; 3]).is_err());
        let lu = ComplexLu::new(1, &[Complex::ONE]).unwrap();
        assert!(lu.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }
}
