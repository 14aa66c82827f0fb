//! Orthonormal polynomial basis dictionaries for response surface
//! modeling (Section II of the paper).
//!
//! After PCA the variation variables `ΔY` are independent standard
//! normals, so the natural orthonormal basis under the Gaussian measure
//! is the (normalized, probabilists') Hermite family. This crate
//! provides:
//!
//! - [`hermite`] — 1-D normalized Hermite polynomials `ψ_n` with
//!   `E[ψ_i(z)·ψ_j(z)] = δ_ij` for `z ~ N(0,1)`;
//! - [`term`] — sparse multi-dimensional product terms
//!   `g(ΔY) = Π_v ψ_{d_v}(Δy_v)`;
//! - [`dictionary`] — indexable dictionaries (linear, full quadratic,
//!   total-degree) that enumerate the `M` basis functions *without*
//!   storing them, plus design-matrix construction in both materialized
//!   and streaming (column-block) forms.

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

pub mod dictionary;
pub mod hermite;
pub mod term;

pub use dictionary::{sweep_kernel, Accumulation, Dictionary, DictionaryKind};
pub use term::Term;
