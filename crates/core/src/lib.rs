//! Sparse response-surface modeling from underdetermined equations —
//! the contribution of Li, *"Finding deterministic solution from
//! underdetermined equation"* (DAC 2009; journal version IEEE TCAD
//! 2010).
//!
//! Given `K` simulation samples of a performance metric and a
//! dictionary of `M ≫ K` orthonormal basis functions, the linear
//! system `G·α = F` (Eq. (6) of the paper) is underdetermined. This
//! crate solves it by exploiting the sparsity of `α` under an L0-norm
//! constraint (Eq. (11)):
//!
//! - [`omp`] — orthogonal matching pursuit (Algorithm 1): greedy
//!   selection by residual inner product with a full least-squares
//!   re-fit at every step, implemented with an incrementally updated
//!   QR factorization;
//! - [`lar`] — least angle regression (the DAC 2009 algorithm): the L1
//!   relaxation solved by the Efron–Hastie–Johnstone–Tibshirani
//!   equiangular path, with the optional lasso modification;
//! - [`star`] — the STAR baseline (DAC 2008): same selection criterion,
//!   but coefficients set directly to the inner-product estimate;
//! - [`ls`] — classical over-determined least squares (needs `K ≥ M`);
//! - [`codegen`] — export fitted models as C or Verilog-A source;
//! - [`select`] — Q-fold cross-validated choice of the model order `λ`
//!   (Section IV-C, Fig. 2);
//! - [`model`] — the sparse model type shared by all solvers;
//! - [`bundle`] — the persisted model bundle (`rsm fit` output) the
//!   offline and serving prediction paths both load;
//! - [`solver`] — a unified front-end dispatching on [`Method`].
//!
//! # Quick start
//!
//! ```
//! use rsm_core::{omp::OmpConfig, model::SparseModel};
//! use rsm_linalg::Matrix;
//!
//! // y = 3·x₂ with 4 samples and 3 candidate basis vectors.
//! let g = Matrix::from_rows(&[
//!     &[1.0, 0.0, 0.5],
//!     &[1.0, 1.0, -0.5],
//!     &[1.0, 0.0, 1.0],
//!     &[1.0, 1.0, -1.0],
//! ]).unwrap();
//! let f = [1.5, -1.5, 3.0, -3.0];
//! let path = OmpConfig::new(1).fit(&g, &f).unwrap();
//! let model = path.model_at(1);
//! assert_eq!(model.support(), &[2]);
//! assert!((model.coefficient(2).unwrap() - 3.0).abs() < 1e-10);
//! ```

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

pub mod bundle;
pub mod codegen;
pub mod lar;
pub mod ls;
pub mod model;
pub mod omp;
pub mod path;
pub mod select;
pub mod solver;
pub mod source;
pub mod star;

pub use bundle::ModelBundle;
pub use model::SparseModel;
pub use path::SparsePath;
pub use solver::{FitReport, Method, ModelOrder};

use std::fmt;

/// Errors reported by the solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Operand shapes disagree (design matrix vs response vs config).
    ShapeMismatch {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// The requested problem is not solvable by the chosen method
    /// (e.g. LS on an underdetermined system).
    Unsolvable(String),
    /// An underlying linear-algebra kernel failed.
    Numerical(String),
    /// Invalid configuration (zero folds, zero λ, …).
    BadConfig(String),
    /// A point to predict at holds a NaN or an infinity; this names the
    /// first one in the batch.
    NonFinite {
        /// Index of the point in the batch.
        point: usize,
        /// Index of the coordinate within the point.
        coordinate: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            CoreError::Unsolvable(msg) => write!(f, "unsolvable: {msg}"),
            CoreError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::NonFinite { point, coordinate } => {
                write!(f, "coordinate {coordinate} of point {point} is not finite")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<rsm_linalg::LinalgError> for CoreError {
    fn from(e: rsm_linalg::LinalgError) -> Self {
        CoreError::Numerical(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Relative stopping floor of the path solvers: LAR stops once the
/// maximal absolute correlation, and OMP and STAR once the residual
/// L2 norm, falls to `PATH_REL_TOL · ‖F‖₂`.
pub(crate) const PATH_REL_TOL: f64 = 1e-12;

/// Validates a response against its design source: one entry per
/// sample row, all finite.
pub(crate) fn check_response<S: source::AtomSource + ?Sized>(g: &S, f: &[f64]) -> Result<()> {
    let k = g.num_rows();
    if f.len() != k {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {k}"),
            found: format!("length {}", f.len()),
        });
    }
    if f.iter().any(|v| !v.is_finite()) {
        return Err(CoreError::BadConfig(
            "response vector contains non-finite values".into(),
        ));
    }
    Ok(())
}

/// The error for atom `j`, whose squared column norm `sq` is not
/// finite: the design holds a non-finite entry, or the squares of its
/// finite entries overflow.
pub(crate) fn non_finite_sq_norm(j: usize, sq: f64) -> CoreError {
    CoreError::BadConfig(format!(
        "atom {j}'s squared column norm is {sq}: the design holds a non-finite entry, \
         or the squares of its entries overflow"
    ))
}

/// The selection scan of OMP and STAR: the first atom holding the
/// strict maximum of `|xi_j|` over the atoms not in `skip`, with its
/// score, or `None` when every atom is skipped.
///
/// # Errors
///
/// [`CoreError::BadConfig`] naming the first unskipped atom whose score
/// is not finite. A `NaN` score compares false against everything, so
/// the scan would restart at the next atom whatever its score.
pub(crate) fn select_max_abs(xi: &[f64], skip: &[bool]) -> Result<Option<(usize, f64)>> {
    let mut best: Option<(usize, f64)> = None;
    for (j, (&v, &skipped)) in xi.iter().zip(skip).enumerate() {
        if skipped {
            continue;
        }
        let score = v.abs();
        if !score.is_finite() {
            return Err(CoreError::BadConfig(format!(
                "atom {j}'s correlation with the residual is {v}: the design holds a \
                 non-finite entry, or the correlation overflows"
            )));
        }
        match best {
            Some((_, b)) if score <= b => {}
            _ => best = Some((j, score)),
        }
    }
    Ok(best)
}
