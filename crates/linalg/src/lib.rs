//! Dense linear-algebra substrate for the `sparse-rsm` workspace.
//!
//! This crate implements, from scratch, every numerical kernel the
//! sparse response-surface-modeling solvers and the circuit simulator
//! need:
//!
//! - a row-major dense [`Matrix`] with the usual products and views,
//! - Householder QR ([`qr::QrDecomposition`]) and an *incremental*
//!   Gram–Schmidt QR ([`qr::IncrementalQr`]) used by the OMP solver to
//!   append one basis column per iteration in `O(K·p)`,
//! - a Cholesky factor of the LARS solver's active-set Gram matrix
//!   that grows one column per activation and is downdated by Givens
//!   rotations on a lasso drop ([`cholesky::GrowingCholesky`]),
//! - LU with partial pivoting ([`lu::LuDecomposition`]) and a complex
//!   variant ([`complex::ComplexLu`]) used by the AC small-signal
//!   analysis of the circuit simulator.
//!
//! # Conventions
//!
//! All matrices are row-major `Vec<f64>` with explicit `(rows, cols)`
//! shape. Dimension mismatches in checked entry points return
//! [`LinalgError`]; the low-level `*_unchecked` helpers assert in debug
//! builds only. Numerical failures (singular pivot, non-PD matrix) are
//! reported as errors, never panics.
//!
//! # Example
//!
//! ```
//! use rsm_linalg::{Matrix, qr::QrDecomposition};
//!
//! // Solve the least-squares problem min ||A x - b||_2.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
//! let b = [6.0, 9.0, 12.0];
//! let qr = QrDecomposition::new(&a).unwrap();
//! let x = qr.solve_least_squares(&b).unwrap();
//! assert!((x[0] - 3.0).abs() < 1e-10 && (x[1] - 3.0).abs() < 1e-10);
//! ```

#![expect(
    clippy::needless_range_loop,
    reason = "numerical kernels index several parallel arrays inside one loop; iterator-zip rewrites obscure the math"
)]
// Library code reports failures as structured errors, compares floats
// exactly only through `rsm_linalg::tol`, and never drops a `Result`
// silently: each exception is a reasoned `#[expect]`. Tests may panic
// (clippy.toml), assert bit-exact results and discard cleanup errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod complex;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod tol;
pub mod vec_ops;

pub use complex::Complex;
pub use matrix::Matrix;

use std::fmt;

/// Errors reported by the checked linear-algebra entry points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was supplied.
        found: String,
    },
    /// A pivot (or diagonal entry) fell below the singularity threshold.
    Singular {
        /// Pivot index at which factorization broke down.
        index: usize,
    },
    /// The matrix supplied to a Cholesky factorization is not positive
    /// definite (a non-positive diagonal pivot was encountered).
    NotPositiveDefinite {
        /// Pivot index at which the failure was detected.
        index: usize,
    },
    /// An argument was outside its documented domain (e.g. empty matrix).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular { index } => {
                write!(f, "matrix is numerically singular at pivot {index}")
            }
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (pivot {index})")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
