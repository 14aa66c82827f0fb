//! # sparse-rsm
//!
//! Large-scale sparse performance variability modeling of analog/RF
//! circuits — a from-scratch Rust reproduction of
//!
//! > Xin Li, *"Finding deterministic solution from underdetermined
//! > equation: large-scale performance modeling by least angle
//! > regression"*, DAC 2009 (journal version: IEEE TCAD 29(11), 2010).
//!
//! The crate is an umbrella over the workspace members:
//!
//! - [`core`] *(rsm-core)* — the paper's contribution: OMP, LAR/LARS,
//!   STAR and LS solvers for the underdetermined system `G·α = F`,
//!   with Q-fold cross-validated model-order selection;
//! - [`basis`] *(rsm-basis)* — orthonormal Hermite dictionaries;
//! - [`stats`] *(rsm-stats)* — normal sampling, descriptive stats, the
//!   modeling-error metric, Latin hypercube sampling, the KS test;
//! - [`spice`] *(rsm-spice)* — an MNA transistor-level circuit
//!   simulator (DC / AC / transient) standing in for Spectre;
//! - [`circuits`] *(rsm-circuits)* — the paper's two benchmarks: a
//!   630-variable two-stage OpAmp and a 21 310-variable SRAM read path;
//! - [`linalg`] *(rsm-linalg)* — the dense linear-algebra kernels
//!   underneath everything;
//! - [`runtime`] *(rsm-runtime)* — the deterministic thread pool the
//!   kernels run on (`RSM_THREADS` / [`runtime::set_threads`]); the
//!   thread count only changes speed, never results;
//! - [`serve`] *(rsm-serve)* — batched model serving over a binary
//!   frame protocol (stdio / TCP / Unix sockets) with predictions
//!   bit-identical to the offline path.
//!
//! ## Quick start
//!
//! ```
//! use sparse_rsm::basis::{Dictionary, DictionaryKind};
//! use sparse_rsm::core::{solver, Method, ModelOrder};
//! use sparse_rsm::stats::NormalSampler;
//! use sparse_rsm::linalg::Matrix;
//!
//! // A 200-dimensional linear dictionary observed at only 60 points …
//! let n = 200;
//! let mut rng = NormalSampler::seed_from_u64(1);
//! let samples = Matrix::from_fn(60, n, |_, _| rng.sample());
//! let dict = Dictionary::new(n, DictionaryKind::Linear);
//! let g = dict.design_matrix(&samples);
//! // … of a response that only depends on three variables:
//! let f: Vec<f64> = (0..60)
//!     .map(|k| 1.0 + 2.0 * samples[(k, 5)] - 0.5 * samples[(k, 120)])
//!     .collect();
//! // OMP recovers the sparse coefficients from K ≪ M samples.
//! let rep = solver::fit(&g, &f, Method::Omp, &ModelOrder::Fixed(3)).unwrap();
//! assert_eq!(rep.model.support(), vec![0, 6, 121]);
//! ```
//!
//! See `examples/` for end-to-end runs against the benchmark circuits
//! and `crates/bench/src/bin/` for the binaries regenerating every
//! table and figure of the paper.

pub use rsm_basis as basis;
pub use rsm_circuits as circuits;
pub use rsm_core as core;
pub use rsm_linalg as linalg;
pub use rsm_runtime as runtime;
pub use rsm_serve as serve;
pub use rsm_spice as spice;
pub use rsm_stats as stats;
