//! AC small-signal analysis.
//!
//! Linearizes the circuit at a DC operating point and solves the
//! complex phasor system `(G + jωC)·x = b` across a frequency sweep.
//! `G` is the DC Newton Jacobian at the operating point, so every
//! element linearizes the way DC stamps it; `C` holds the circuit's
//! capacitances and the inductors' branch reactances. The stimulus is
//! the set of voltage sources declared with a nonzero AC magnitude
//! ([`Circuit::vsource_ac`]).

use crate::dc::{self, OperatingPoint};
use crate::netlist::{Circuit, NodeId};
use crate::{Result, SpiceError, GMIN};
use rsm_linalg::complex::ComplexLu;
use rsm_linalg::{Complex, Matrix};

/// Result of an AC sweep: complex node voltages per frequency point.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `solutions[k][node]` — node phasors at frequency `k`; ground is 0.
    solutions: Vec<Vec<Complex>>,
}

impl AcSweep {
    /// The swept frequencies (Hz).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex node voltage at sweep point `k`.
    pub fn voltage(&self, k: usize, node: NodeId) -> Complex {
        self.solutions[k][node.index()]
    }

    /// |V(node)| across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.solutions
            .iter()
            .map(|s| s[node.index()].abs())
            .collect()
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` if the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

/// Builds a logarithmically spaced frequency grid from `f_start` to
/// `f_stop` with `points_per_decade` points per decade (inclusive of
/// both endpoints).
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade > 0`.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "bad frequency range");
    assert!(points_per_decade > 0, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| {
            let frac = i as f64 / (n - 1) as f64;
            f_start * 10f64.powf(frac * decades)
        })
        .collect()
}

/// Runs the sweep at the given operating point.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] if the phasor system is
/// singular at some frequency.
pub fn sweep(ckt: &Circuit, op: &OperatingPoint, freqs: &[f64]) -> Result<AcSweep> {
    let nn = ckt.num_nodes() - 1;
    let dim = ckt.mna_dim();
    let (g, _) = dc::assemble(ckt, op.solution(), GMIN, 1.0);
    let mut c = Matrix::zeros(dim, dim);
    for (a, b, farads) in ckt.capacitances() {
        dc::stamp(&mut c, a, b, farads);
    }
    // Inductor branch k: v_a − v_b − jωL·i = 0. The −jωL lands in the
    // imaginary (C) matrix at the branch diagonal.
    for (k, l) in ckt.inductors.iter().enumerate() {
        let row = nn + ckt.vsources.len() + k;
        c[(row, row)] -= l.henries;
    }
    // AC RHS: only sources with nonzero `ac`.
    let mut b = vec![Complex::ZERO; dim];
    for (k, v) in ckt.vsources.iter().enumerate() {
        b[nn + k] = Complex::from_real(v.ac);
    }
    let mut solutions = Vec::with_capacity(freqs.len());
    let mut sys = vec![Complex::ZERO; dim * dim];
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        for i in 0..dim {
            for j in 0..dim {
                sys[i * dim + j] = Complex::new(g[(i, j)], w * c[(i, j)]);
            }
        }
        let lu = ComplexLu::new(dim, &sys).map_err(|_| SpiceError::SingularMatrix {
            context: format!("AC system at {f} Hz"),
        })?;
        let x = lu.solve(&b).map_err(|_| SpiceError::SingularMatrix {
            context: format!("AC solve at {f} Hz"),
        })?;
        let mut nodes = vec![Complex::ZERO; ckt.num_nodes()];
        nodes[1..].copy_from_slice(&x[..nn]);
        solutions.push(nodes);
    }
    Ok(AcSweep {
        freqs: freqs.to_vec(),
        solutions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sweep_endpoints_and_monotonic() {
        let f = log_sweep(1.0, 1e6, 10);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f.last().unwrap() - 1e6).abs() / 1e6 < 1e-9);
        for w in f.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn rc_lowpass_magnitude_and_phase() {
        // R = 1k, C = 1µF → f_c = 1/(2πRC) ≈ 159.155 Hz.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor(vin, out, 1_000.0);
        ckt.capacitor(out, Circuit::GROUND, 1e-6);
        let op = dc::solve(&ckt).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-6);
        let sweep = sweep(&ckt, &op, &[fc / 100.0, fc, fc * 100.0]).unwrap();
        let mag = sweep.magnitude(out);
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband {mag:?}");
        assert!((mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(mag[2] < 0.011, "stopband {mag:?}");
        let phase = sweep.voltage(1, out).arg();
        assert!((phase + std::f64::consts::FRAC_PI_4).abs() < 1e-2);
    }

    #[test]
    fn rlc_tank_peaks_at_resonance() {
        // Parallel RLC driven through a series resistor peaks at
        // f0 = 1/(2π√(LC)) where the tank impedance is maximal (= R_p).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let tank = ckt.node("tank");
        ckt.vsource_ac(vin, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor(vin, tank, 1_000.0);
        ckt.resistor(tank, Circuit::GROUND, 10_000.0);
        ckt.inductor(tank, Circuit::GROUND, 5e-9);
        ckt.capacitor(tank, Circuit::GROUND, 2e-12); // f0 ≈ 1.59 GHz
        let op = dc::solve(&ckt).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (5e-9f64 * 2e-12).sqrt());
        let freqs = log_sweep(f0 / 100.0, f0 * 100.0, 60);
        let sweep = sweep(&ckt, &op, &freqs).unwrap();
        let mag = sweep.magnitude(tank);
        // Peak location.
        let (kmax, _) = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let f_peak = sweep.freqs()[kmax];
        assert!(
            (f_peak - f0).abs() / f0 < 0.05,
            "peak {f_peak:.3e} vs {f0:.3e}"
        );
        // At resonance the divider is 10k/(1k+10k).
        assert!(
            (mag[kmax] - 10.0 / 11.0).abs() < 0.01,
            "peak mag {}",
            mag[kmax]
        );
        // Far below resonance the inductor shorts the tank.
        assert!(mag[0] < 0.02, "low-freq leak {}", mag[0]);
        // Far above resonance the capacitor shorts the tank.
        assert!(
            *mag.last().unwrap() < 0.02,
            "high-freq leak {}",
            mag.last().unwrap()
        );
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let vs = ckt.vsource(a, Circuit::GROUND, 1.0);
        ckt.resistor(a, b, 1_000.0);
        ckt.inductor(b, Circuit::GROUND, 1e-3);
        let op = dc::solve(&ckt).unwrap();
        assert!(op.voltage(b).abs() < 1e-9, "v(b) = {}", op.voltage(b));
        // All 1 mA flows through the inductor (b → ground) and the
        // source branch reads the opposite sign convention.
        assert!((op.vsource_current(vs) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn mos_common_source_has_expected_small_signal_gain() {
        use crate::mosfet::{self, MosParams, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gnode = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, 1.2);
        ckt.vsource_ac(gnode, Circuit::GROUND, 0.6, 1.0);
        let rload = 20_000.0;
        ckt.resistor(vdd, d, rload);
        let params = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.4,
            kp: 200e-6,
            lambda: 0.05,
            w: 1e-6,
            l: 100e-9,
        };
        ckt.mosfet(d, gnode, Circuit::GROUND, params);
        let op = dc::solve(&ckt).unwrap();
        let e = mosfet::eval_device(&params, op.voltage(d), 0.6, 0.0);
        let expected_gain = e.gm * (1.0 / (1.0 / rload + e.gds));
        let sweep = sweep(&ckt, &op, &[10.0]).unwrap();
        let gain = sweep.magnitude(d)[0];
        assert!(
            (gain - expected_gain).abs() / expected_gain < 1e-3,
            "gain {gain} vs gm/(gds+GL) {expected_gain}"
        );
    }

    #[test]
    fn capacitive_load_rolls_off_mos_amplifier() {
        use crate::mosfet::{MosParams, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gnode = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, 1.2);
        ckt.vsource_ac(gnode, Circuit::GROUND, 0.6, 1.0);
        ckt.resistor(vdd, d, 20_000.0);
        ckt.capacitor(d, Circuit::GROUND, 1e-12);
        let params = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.4,
            kp: 200e-6,
            lambda: 0.05,
            w: 1e-6,
            l: 100e-9,
        };
        ckt.mosfet(d, gnode, Circuit::GROUND, params);
        let op = dc::solve(&ckt).unwrap();
        let sweep = sweep(&ckt, &op, &[1e3, 1e9]).unwrap();
        let mag = sweep.magnitude(d);
        assert!(mag[1] < mag[0] / 10.0, "no rolloff: {mag:?}");
    }
}
