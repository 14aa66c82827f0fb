//! A small transistor-level circuit simulator.
//!
//! This crate is the workspace's stand-in for the commercial simulator
//! (Cadence Spectre) that the paper uses to generate its sampling
//! points. It implements the classical modified-nodal-analysis (MNA)
//! flow:
//!
//! - [`netlist`] — circuit description: nodes, linear elements
//!   (R, C, L, V) and square-law (SPICE level-1 style) MOSFETs;
//! - [`mosfet`] — the nonlinear device model and its small-signal
//!   derivatives;
//! - [`dc`] — DC operating point by Newton–Raphson with gmin stepping
//!   and source stepping fallbacks;
//! - [`ac`] — small-signal AC sweeps `(G + jωC)·x = b` around an
//!   operating point, where `G` is the DC Newton Jacobian there;
//! - [`tran`] — transient analysis (trapezoidal companion models,
//!   backward Euler on the first step) with Newton iteration at each
//!   time point;
//! - [`measure`] — waveform and transfer-function measurements (gain,
//!   −3 dB bandwidth, resonance, threshold crossings).
//!
//! Each element is stamped in one place: conductances in
//! [`dc`]'s assembly, which AC reuses, and capacitances from one list
//! that AC and the transient share.
//!
//! # Example: resistive divider
//!
//! ```
//! use rsm_spice::netlist::Circuit;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource(vin, Circuit::GROUND, 2.0);
//! ckt.resistor(vin, out, 1_000.0);
//! ckt.resistor(out, Circuit::GROUND, 1_000.0);
//! let op = rsm_spice::dc::solve(&ckt).unwrap();
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
pub mod tran;

pub use dc::OperatingPoint;
pub use netlist::{Circuit, NodeId};

/// Shunt conductance (S) added from every node to ground and across
/// every MOSFET channel, in DC, AC and transient alike: it keeps
/// floating gates and cutoff devices from making the matrix singular.
pub(crate) const GMIN: f64 = 1e-12;

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
    /// The netlist is malformed (bad node, non-positive R, etc.), or an
    /// analysis argument is out of its domain (a transient's time step
    /// or stop time).
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
