//! Orthonormal polynomial basis dictionaries for response surface
//! modeling (Section II of the paper).
//!
//! The variation variables `ΔY` are independent standard normals, so
//! the natural orthonormal basis under the Gaussian measure is the
//! normalized probabilists' Hermite family of Eq. (2)–(4):
//! `ψ₀ = 1`, `ψ₁(y) = y` and `ψ₂(y) = (y² − 1)/√2`, with
//! `E[ψ_i(z)·ψ_j(z)] = δ_ij` for `z ~ N(0,1)`. This crate provides
//! [`dictionary`]: the paper's linear and full quadratic families as
//! indexable dictionaries that enumerate their `M` basis functions
//! ([`Atom`]s) *without* storing them, plus design-matrix construction
//! in both materialized and streaming (column-block) forms.

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

pub use dictionary::{sweep_kernel, Accumulation, Atom, Dictionary, DictionaryKind};
