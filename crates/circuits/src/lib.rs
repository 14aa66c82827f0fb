//! Benchmark circuits for the paper's evaluation (Section V).
//!
//! Two circuits, matching the paper's examples and dimensionalities:
//!
//! - [`opamp`] — a two-stage Miller-compensated operational amplifier
//!   (Fig. 3 of the paper) simulated at transistor level on the
//!   [`rsm_spice`] MNA engine, exposing **630** independent variation
//!   variables and four performance metrics (gain, bandwidth, power,
//!   offset);
//! - [`sram`] — an SRAM read path (Fig. 5: cell array, replica-timed
//!   sensing, output buffering) with **21 310** independent variation
//!   variables and one metric (read delay), evaluated by a stage-based
//!   analytic delay model (see DESIGN.md for why the full-array
//!   transient is substituted);
//! - [`lna`] — a 2.4 GHz cascode low-noise amplifier (220 variables,
//!   4 RF metrics) exercising the simulator's inductors and resonance
//!   measurements — the "RF" in the paper's "Analog/RF" scope;
//! - [`ringosc`] — a 5-stage CMOS ring oscillator (128 variables,
//!   frequency metric) exercising the transient engine inside the
//!   modeling loop;
//! - [`variation`] — the hierarchical inter-die/intra-die variation
//!   mapping shared by all benchmarks;
//! - [`sampling`] — Monte-Carlo sample generation driving either
//!   circuit from independent standard-normal factors, as the paper
//!   does after PCA.

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

pub mod lna;
pub mod opamp;
pub mod ringosc;
pub mod sampling;
pub mod sram;
pub mod variation;

pub use lna::Lna;
pub use opamp::OpAmp;
pub use ringosc::RingOscillator;
pub use sram::SramReadPath;

/// A circuit whose performance metrics are deterministic functions of
/// independent (post-PCA) variation variables `ΔY ~ N(0, I)`.
///
/// This is the interface the modeling experiments consume: they never
/// see netlists, only `(ΔY, f(ΔY))` pairs — exactly the paper's setup
/// where Spectre is a black box.
pub trait PerformanceCircuit {
    /// Number of independent variation variables `N`.
    fn num_vars(&self) -> usize;

    /// Names of the performance metrics this circuit produces.
    fn metric_names(&self) -> &'static [&'static str];

    /// Evaluates all metrics at one variation sample.
    ///
    /// # Panics
    ///
    /// Implementations panic if `dy.len() != self.num_vars()`.
    fn evaluate(&self, dy: &[f64]) -> Vec<f64>;

    /// Number of metrics (defaults to `metric_names().len()`).
    fn num_metrics(&self) -> usize {
        self.metric_names().len()
    }
}
