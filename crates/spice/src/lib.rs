//! A small transistor-level circuit simulator.
//!
//! This crate is the workspace's stand-in for the commercial simulator
//! (Cadence Spectre) that the paper uses to generate its sampling
//! points. It implements the classical modified-nodal-analysis (MNA)
//! flow:
//!
//! - [`netlist`] — circuit description: nodes, linear elements
//!   (R, C, L, V, I, VCCS) and square-law (SPICE level-1 style)
//!   MOSFETs;
//! - [`mosfet`] — the nonlinear device model and its small-signal
//!   derivatives;
//! - [`dc`] — DC operating point by Newton–Raphson with gmin stepping
//!   and source stepping fallbacks;
//! - [`ac`] — small-signal AC sweeps `(G + jωC)·x = b` around an
//!   operating point;
//! - [`tran`] — transient analysis (backward Euler / trapezoidal
//!   companion models) with Newton iteration at each time point;
//! - [`parser`] — a SPICE-style netlist parser (`R1 a b 4.7k` cards
//!   with engineering suffixes);
//! - [`measure`] — waveform and transfer-function measurements (gain,
//!   −3 dB bandwidth, threshold crossings).
//!
//! # Example: resistive divider
//!
//! ```
//! use rsm_spice::netlist::Circuit;
//! use rsm_spice::dc::DcAnalysis;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource(vin, Circuit::GROUND, 2.0);
//! ckt.resistor(vin, out, 1_000.0);
//! ckt.resistor(out, Circuit::GROUND, 1_000.0);
//! let op = DcAnalysis::default().solve(&ckt).unwrap();
//! assert!((op.voltage(out) - 1.0).abs() < 1e-9);
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

pub mod ac;
pub mod dc;
pub mod measure;
pub mod mosfet;
pub mod netlist;
pub mod parser;
pub mod tran;

pub use dc::{DcAnalysis, OperatingPoint};
pub use netlist::{Circuit, NodeId};

use std::fmt;

/// Errors reported by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// The Newton iteration failed to converge, even with homotopy
    /// (gmin / source stepping) fallbacks.
    NoConvergence {
        /// Which analysis failed.
        analysis: &'static str,
        /// Iterations spent in the last attempt.
        iterations: usize,
    },
    /// The MNA matrix is structurally or numerically singular (e.g. a
    /// floating node or a loop of ideal voltage sources).
    SingularMatrix {
        /// Description of where the failure occurred.
        context: String,
    },
    /// The netlist is malformed (bad node, non-positive R, etc.).
    BadNetlist(String),
    /// A measurement could not be extracted from the waveform/sweep.
    MeasureFailed(String),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence {
                analysis,
                iterations,
            } => write!(
                f,
                "{analysis} analysis failed to converge after {iterations} iterations"
            ),
            SpiceError::SingularMatrix { context } => {
                write!(f, "singular MNA matrix: {context}")
            }
            SpiceError::BadNetlist(msg) => write!(f, "bad netlist: {msg}"),
            SpiceError::MeasureFailed(msg) => write!(f, "measurement failed: {msg}"),
        }
    }
}

impl std::error::Error for SpiceError {}

/// Result alias for simulator entry points.
pub type Result<T> = std::result::Result<T, SpiceError>;
