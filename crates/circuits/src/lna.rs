//! Narrow-band cascode low-noise amplifier — the "RF" in the paper's
//! "Analog/RF" scope.
//!
//! Topology: inductively degenerated common-source NMOS (M1, source
//! inductor `Ls`, gate inductor `Lg`) with a cascode device (M2) and an
//! LC tank load (`Ld ∥ C_d ∥ R_p`) tuned near 2.4 GHz. Simulated at
//! transistor level (DC bias + AC sweep around the tank resonance).
//!
//! Metrics: peak voltage gain (dB), center frequency (Hz), −3 dB
//! bandwidth of the tank (Hz) and static power (W). The gain and f₀
//! depend strongly on the tank passives and M1 — a sparse structure in
//! the 220-variable space (6 globals + 18 device locals + 196 layout
//! parasitics).

use crate::variation::{DeviceSigmas, DeviceVariation, ParasiticSensitivity};
use crate::PerformanceCircuit;
use rsm_spice::ac::{self, log_sweep};
use rsm_spice::dc;
use rsm_spice::measure;
use rsm_spice::mosfet::{MosParams, MosType};
use rsm_spice::netlist::Circuit;

/// Global factor indices.
const G_VTH: usize = 0;
const G_BETA: usize = 1;
const G_IND: usize = 2; // inductor process tolerance
const G_CAP: usize = 3;
const G_RES: usize = 4;
const G_TEMP: usize = 5;
const NUM_GLOBALS: usize = 6;
/// Local-factor slots: M1, M2 (ΔV_th, Δβ each) + Ls, Lg, Ld, C_d, R_p
/// (one tolerance factor each) + 7 reserved dummy-device slots.
const NUM_LOCAL_SLOTS: usize = 18;
const LOCAL_BASE: usize = NUM_GLOBALS;
const PARA_BASE: usize = LOCAL_BASE + NUM_LOCAL_SLOTS;
const NUM_PARA: usize = 196;
/// Total variation dimension.
pub const LNA_NUM_VARS: usize = NUM_GLOBALS + NUM_LOCAL_SLOTS + NUM_PARA;

/// Metric names, in output order.
pub const LNA_METRICS: [&str; 4] = ["gain_db", "f_center", "rf_bandwidth", "power"];

const VDD: f64 = 1.2;
const V_GBIAS: f64 = 0.55;
const V_CASC: f64 = 0.95;
const L_S: f64 = 0.4e-9;
const L_G: f64 = 2.0e-9;
const L_D: f64 = 3.0e-9;
const C_D: f64 = 1.3e-12;
const R_P: f64 = 2_000.0;
const C_OUT: f64 = 50e-15;

/// The cascode LNA benchmark.
///
/// # Example
///
/// ```
/// use rsm_circuits::{Lna, PerformanceCircuit};
/// let lna = Lna::new();
/// assert_eq!(lna.num_vars(), 220);
/// let perf = lna.evaluate(&vec![0.0; 220]);
/// assert!(perf[0] > 6.0);            // > 6 dB gain
/// assert!(perf[1] > 1e9 && perf[1] < 5e9); // tuned in the GHz range
/// ```
#[derive(Debug, Clone)]
pub struct Lna {
    freqs: Vec<f64>,
}

impl Lna {
    /// Builds the benchmark with its default RF sweep grid.
    pub fn new() -> Self {
        // Coarse grid to locate the resonance; a fine linear sweep
        // around the peak is generated per sample.
        Lna {
            freqs: log_sweep(0.4e9, 12e9, 40),
        }
    }

    fn device_variation(&self, idx: usize) -> DeviceVariation {
        DeviceVariation {
            global_vth: G_VTH,
            global_beta: G_BETA,
            local_base: LOCAL_BASE + 2 * idx,
            sigmas: DeviceSigmas::analog_65nm(),
        }
    }

    /// Passive tolerance: global process factor + dedicated local
    /// factor + a parasitic window.
    fn passive_shift(
        &self,
        dy: &[f64],
        global: usize,
        local_slot: usize,
        para_off: usize,
        seed: u64,
    ) -> f64 {
        0.03 * dy[global]
            + 0.02 * dy[LOCAL_BASE + local_slot]
            + ParasiticSensitivity {
                base: PARA_BASE + para_off,
                count: 39,
                sigma_rel: 0.01,
                seed,
            }
            .relative_shift(dy)
    }

    /// Evaluates all four metrics; `None` on (unobserved) convergence
    /// failure.
    pub fn try_evaluate(&self, dy: &[f64]) -> Option<[f64; 4]> {
        assert_eq!(dy.len(), LNA_NUM_VARS, "LNA expects 220 variables");
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let rf_in = ckt.node("rf_in");
        let gate = ckt.node("gate");
        let src = ckt.node("src");
        let casc = ckt.node("casc");
        let mid = ckt.node("mid");
        let out = ckt.node("out");

        let vdd_src = ckt.vsource(vdd, Circuit::GROUND, VDD);
        ckt.vsource_ac(rf_in, Circuit::GROUND, V_GBIAS, 1.0);
        ckt.vsource(casc, Circuit::GROUND, V_CASC);

        let d1 = self.device_variation(0).apply(dy);
        let d2 = self.device_variation(1).apply(dy);
        let m1 = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.35 + d1.dvth,
            kp: 300e-6 * (1.0 + d1.dbeta_rel).max(0.05),
            lambda: 0.12,
            w: 80.0 * 65e-9,
            l: 65e-9,
        };
        let m2 = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.35 + d2.dvth,
            kp: 300e-6 * (1.0 + d2.dbeta_rel).max(0.05),
            lambda: 0.12,
            w: 80.0 * 65e-9,
            l: 65e-9,
        };
        // Degenerated common-source + cascode.
        ckt.mosfet(mid, gate, src, m1);
        ckt.mosfet(out, casc, mid, m2);
        ckt.inductor(
            src,
            Circuit::GROUND,
            L_S * (1.0 + self.passive_shift(dy, G_IND, 4, 0, 300)).max(0.2),
        );
        ckt.inductor(
            rf_in,
            gate,
            L_G * (1.0 + self.passive_shift(dy, G_IND, 5, 39, 301)).max(0.2),
        );
        ckt.inductor(
            vdd,
            out,
            L_D * (1.0 + self.passive_shift(dy, G_IND, 6, 78, 302)).max(0.2),
        );
        ckt.capacitor(
            out,
            Circuit::GROUND,
            C_D * (1.0 + self.passive_shift(dy, G_CAP, 7, 117, 303)).max(0.2),
        );
        ckt.resistor(
            vdd,
            out,
            R_P * (1.0 + self.passive_shift(dy, G_RES, 8, 156, 304)).max(0.3),
        );
        ckt.capacitor(out, Circuit::GROUND, C_OUT);

        let nodeset = [
            (vdd, VDD),
            (gate, V_GBIAS),
            (src, 0.0),
            (casc, V_CASC),
            (mid, 0.4),
            (out, VDD),
        ];
        let op = dc::solve_with_nodeset(&ckt, &nodeset).ok()?;
        // Two-stage sweep: coarse locate, then a fine linear grid
        // spanning ±20 % of the peak so f0 and the −3 dB skirts are
        // resolved far below the metric's process-variation sigma.
        let coarse = ac::sweep(&ckt, &op, &self.freqs).ok()?;
        let mag = coarse.magnitude(out);
        let kmax = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)?;
        let f_guess = coarse.freqs()[kmax];
        let fine_freqs: Vec<f64> = (0..241)
            .map(|i| f_guess * (0.80 + 0.40 * i as f64 / 240.0))
            .collect();
        let sweep = ac::sweep(&ckt, &op, &fine_freqs).ok()?;
        let (f0, peak) = measure::peak_magnitude(&sweep, out).ok()?;
        let bw = measure::bandwidth_3db_around_peak(&sweep, out).ok()?;
        let power = VDD * op.vsource_current(vdd_src).abs() * (1.0 + 0.01 * dy[G_TEMP]);
        Some([measure::to_db(peak), f0, bw, power])
    }
}

impl Default for Lna {
    fn default() -> Self {
        Self::new()
    }
}

impl PerformanceCircuit for Lna {
    fn num_vars(&self) -> usize {
        LNA_NUM_VARS
    }

    fn metric_names(&self) -> &'static [&'static str] {
        &LNA_METRICS
    }

    #[expect(
        clippy::expect_used,
        reason = "infallible `evaluate` contract: a non-converging sample is a testbench bug; `try_evaluate` is the fallible path"
    )]
    fn evaluate(&self, dy: &[f64]) -> Vec<f64> {
        self.try_evaluate(dy)
            .expect("LNA sample failed to converge")
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::NormalSampler;

    #[test]
    fn nominal_lna_is_tuned() {
        let lna = Lna::new();
        let p = lna.evaluate(&vec![0.0; LNA_NUM_VARS]);
        let (gain_db, f0, bw, power) = (p[0], p[1], p[2], p[3]);
        assert!(gain_db > 6.0 && gain_db < 40.0, "gain {gain_db} dB");
        assert!(f0 > 1.5e9 && f0 < 4e9, "f0 {f0:.3e}");
        assert!(bw > 1e7 && bw < f0, "bw {bw:.3e}");
        assert!(power > 1e-5 && power < 5e-3, "power {power}");
    }

    #[test]
    fn tank_inductor_tunes_center_frequency() {
        let lna = Lna::new();
        let mut hi = vec![0.0; LNA_NUM_VARS];
        hi[G_IND] = 2.0; // +6 % inductance → lower f0
        let mut lo = vec![0.0; LNA_NUM_VARS];
        lo[G_IND] = -2.0;
        let f_hi = lna.evaluate(&hi)[1];
        let f_lo = lna.evaluate(&lo)[1];
        assert!(
            f_lo > f_hi,
            "more inductance must lower f0: {f_lo:.3e} vs {f_hi:.3e}"
        );
    }

    #[test]
    fn transistor_beta_moves_gain() {
        let lna = Lna::new();
        let mut hi = vec![0.0; LNA_NUM_VARS];
        hi[LOCAL_BASE + 1] = 2.0; // M1 local Δβ up → more gm
        let mut lo = vec![0.0; LNA_NUM_VARS];
        lo[LOCAL_BASE + 1] = -2.0;
        let g_hi = lna.evaluate(&hi)[0];
        let g_lo = lna.evaluate(&lo)[0];
        assert!(g_hi > g_lo, "gain {g_hi} vs {g_lo}");
    }

    #[test]
    fn random_samples_converge() {
        let lna = Lna::new();
        let mut rng = NormalSampler::seed_from_u64(4);
        for _ in 0..8 {
            let dy = rng.sample_vec(LNA_NUM_VARS);
            let p = lna.try_evaluate(&dy).expect("convergence");
            assert!(p.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "220")]
    fn wrong_dimension_panics() {
        let lna = Lna::new();
        let _ = lna.try_evaluate(&[0.0; 3]);
    }
}
