//! Statistics substrate for the `sparse-rsm` workspace.
//!
//! Provides everything the modeling pipeline needs around the solvers:
//!
//! - [`rng`] — deterministic standard-normal sampling (Marsaglia polar
//!   method over a seedable PRNG), since the paper draws its sampling
//!   points from the joint PDF of the post-PCA variables, which are
//!   independent standard normals;
//! - [`describe`] — descriptive statistics and empirical quantiles;
//! - [`metrics`] — the relative modeling error reported in the paper's
//!   figures and tables;
//! - [`lhs`] — Latin hypercube sampling in normal space (plus the
//!   inverse normal CDF), used by the sampling-strategy ablation;
//! - [`kstest`] — two-sample Kolmogorov–Smirnov comparison for
//!   validating model-predicted performance distributions.

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

pub mod describe;
pub mod kstest;
pub mod lhs;
pub mod metrics;
pub mod rng;

pub use rng::NormalSampler;
