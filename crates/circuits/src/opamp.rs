//! Two-stage Miller-compensated operational amplifier (Fig. 3 of the
//! paper), simulated at transistor level.
//!
//! Topology: NMOS differential pair (M1/M2) with PMOS current-mirror
//! load (M3/M4), NMOS tail source (M5), PMOS common-source second
//! stage (M6) with NMOS current-sink load (M7), on-chip bias branch
//! (resistor + diode-connected M8), Miller capacitor and capacitive
//! load. DC bias is established through a 10 MΩ feedback resistor from
//! the output to the inverting input, decoupled by a large capacitor —
//! the classical trick that closes the loop at DC (well-defined
//! operating point, direct offset readout) while leaving it open for
//! the AC gain/bandwidth measurement.
//!
//! Variation space: **630** independent standard-normal variables —
//! 6 global (inter-die) factors, 24 per-device mismatch factors
//! (12 devices × {ΔV_th, Δβ}), and 600 fine-grained layout-parasitic
//! factors that weakly modulate node capacitances and the bias
//! resistor. This matches the paper's "630 independent random
//! variables … extracted after PCA".

use crate::variation::{DeviceSigmas, DeviceVariation, ParasiticSensitivity};
use crate::PerformanceCircuit;
use rsm_spice::ac::{self, log_sweep};
use rsm_spice::dc;
use rsm_spice::measure;
use rsm_spice::mosfet::{MosParams, MosType};
use rsm_spice::netlist::Circuit;

/// Number of transistors + the bias resistor carrying mismatch.
const NUM_DEVICES: usize = 12;
/// Global factor indices.
const G_VTH_N: usize = 0;
const G_BETA_N: usize = 1;
const G_VTH_P: usize = 2;
const G_BETA_P: usize = 3;
const G_RES: usize = 4;
const G_CAP: usize = 5;
const NUM_GLOBALS: usize = 6;
/// Local mismatch block: 12 devices × 2 factors.
const LOCAL_BASE: usize = NUM_GLOBALS;
const NUM_LOCALS: usize = 2 * NUM_DEVICES;
/// Fine-grained parasitic block.
const PARA_BASE: usize = LOCAL_BASE + NUM_LOCALS;
const NUM_PARA: usize = 600;
/// Total variation dimension — the paper's 630.
pub const OPAMP_NUM_VARS: usize = NUM_GLOBALS + NUM_LOCALS + NUM_PARA;

/// The four modeled metrics, in the paper's order (Fig. 4 a–d).
pub const OPAMP_METRICS: [&str; 4] = ["gain", "bandwidth", "power", "offset"];

/// Performance sample of the OpAmp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpPerf {
    /// Open-loop low-frequency voltage gain (dB).
    pub gain: f64,
    /// −3 dB bandwidth (Hz).
    pub bandwidth: f64,
    /// Static supply power (W).
    pub power: f64,
    /// Input-referred offset deviation from nominal (V).
    pub offset: f64,
}

/// The two-stage OpAmp benchmark.
///
/// # Example
///
/// ```
/// use rsm_circuits::{OpAmp, PerformanceCircuit};
/// let amp = OpAmp::new();
/// assert_eq!(amp.num_vars(), 630);
/// let nominal = amp.evaluate(&vec![0.0; 630]);
/// assert!(nominal[0] > 40.0); // healthy open-loop gain in dB
/// ```
#[derive(Debug, Clone)]
pub struct OpAmp {
    /// Nominal closed-loop DC output voltage (offset reference).
    nominal_vout: f64,
    /// AC sweep grid reused across samples.
    freqs: Vec<f64>,
}

/// Nominal element values.
const VDD: f64 = 1.2;
const VCM: f64 = 0.7;
const R_BIAS: f64 = 33_500.0;
const C_MILLER: f64 = 0.5e-12;
const C_LOAD: f64 = 1.0e-12;
const R_FB: f64 = 10e6;
const C_FB: f64 = 100e-6;
/// Parasitic node capacitance nominal (F).
const C_PAR: f64 = 5e-15;

fn nmos(w_over_l: f64) -> MosParams {
    MosParams {
        mos_type: MosType::Nmos,
        vth0: 0.35,
        kp: 300e-6,
        lambda: 0.10,
        w: w_over_l * 130e-9,
        l: 130e-9,
    }
}

fn pmos(w_over_l: f64) -> MosParams {
    MosParams {
        mos_type: MosType::Pmos,
        vth0: 0.35,
        kp: 120e-6,
        lambda: 0.15,
        w: w_over_l * 130e-9,
        l: 130e-9,
    }
}

/// Applies a mismatch delta to a model card.
fn perturb(mut p: MosParams, dvth: f64, dbeta_rel: f64) -> MosParams {
    p.vth0 += dvth;
    p.kp *= (1.0 + dbeta_rel).max(0.05);
    p
}

impl OpAmp {
    /// Builds the benchmark with its default AC grid (1 kHz – 10 MHz).
    pub fn new() -> Self {
        let freqs = log_sweep(1e3, 1e7, 10);
        let mut amp = OpAmp {
            nominal_vout: 0.0,
            freqs,
        };
        // Nominal closed-loop output for the offset reference.
        let dy = vec![0.0; OPAMP_NUM_VARS];
        #[expect(
            clippy::expect_used,
            reason = "nominal-point simulation failing means the fixed testbench itself is broken; unrecoverable by the caller"
        )]
        let (_, vout) = amp
            .simulate(&dy)
            .expect("nominal OpAmp must simulate cleanly");
        amp.nominal_vout = vout.offset_raw;
        amp
    }

    /// Evaluates the four metrics at a variation sample.
    ///
    /// Returns `None` if the perturbed sample fails to converge (does
    /// not happen for N(0, I) draws at the calibrated sigmas; exposed
    /// for robustness tests).
    pub fn try_evaluate(&self, dy: &[f64]) -> Option<OpAmpPerf> {
        assert_eq!(dy.len(), OPAMP_NUM_VARS, "OpAmp expects 630 variables");
        let (perf, raw) = self.simulate(dy).ok()?;
        Some(OpAmpPerf {
            offset: raw.offset_raw - self.nominal_vout,
            ..perf
        })
    }

    fn device_variation(&self, idx: usize, is_pmos: bool) -> DeviceVariation {
        DeviceVariation {
            global_vth: if is_pmos { G_VTH_P } else { G_VTH_N },
            global_beta: if is_pmos { G_BETA_P } else { G_BETA_N },
            local_base: LOCAL_BASE + 2 * idx,
            sigmas: DeviceSigmas::analog_65nm(),
        }
    }

    /// Builds and simulates the perturbed netlist.
    fn simulate(&self, dy: &[f64]) -> rsm_spice::Result<(OpAmpPerf, RawDc)> {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let tail = ckt.node("tail");
        let d1 = ckt.node("d1"); // mirror diode node (drain of M1/M3)
        let out1 = ckt.node("out1"); // first-stage output (drain of M2/M4)
        let out = ckt.node("out");
        let bias = ckt.node("bias");

        let vdd_src = ckt.vsource(vdd, Circuit::GROUND, VDD);
        ckt.vsource_ac(inp, Circuit::GROUND, VCM, 1.0);

        // Device mismatch draws.
        let dev = |i: usize, p: bool| self.device_variation(i, p).apply(dy);
        let d_m1 = dev(0, false);
        let d_m2 = dev(1, false);
        let d_m3 = dev(2, true);
        let d_m4 = dev(3, true);
        let d_m5 = dev(4, false);
        let d_m6 = dev(5, true);
        let d_m7 = dev(6, false);
        let d_m8 = dev(7, false);
        // Devices 8..11: reserved slots (dummies / bias cascodes in the
        // full layout); they participate in the variation space so the
        // dictionary contains genuinely irrelevant variables.

        // Bias resistor: global + parasitic window variation.
        let r_shift = 0.05 * dy[G_RES]
            + ParasiticSensitivity {
                base: PARA_BASE,
                count: 40,
                sigma_rel: 0.01,
                seed: 100,
            }
            .relative_shift(dy);
        ckt.resistor(vdd, bias, R_BIAS * (1.0 + r_shift).max(0.3));

        // Bias diode M8 and mirrors.
        ckt.mosfet(
            bias,
            bias,
            Circuit::GROUND,
            perturb(nmos(4.1), d_m8.dvth, d_m8.dbeta_rel),
        );
        // Tail source M5 (same geometry as M8 → ~20 µA).
        ckt.mosfet(
            tail,
            bias,
            Circuit::GROUND,
            perturb(nmos(4.1), d_m5.dvth, d_m5.dbeta_rel),
        );
        // Differential pair M1 (inp → d1), M2 (inn → out1).
        ckt.mosfet(d1, inp, tail, perturb(nmos(6.7), d_m1.dvth, d_m1.dbeta_rel));
        ckt.mosfet(
            out1,
            inn,
            tail,
            perturb(nmos(6.7), d_m2.dvth, d_m2.dbeta_rel),
        );
        // PMOS mirror M3 (diode) / M4.
        ckt.mosfet(d1, d1, vdd, perturb(pmos(7.4), d_m3.dvth, d_m3.dbeta_rel));
        ckt.mosfet(out1, d1, vdd, perturb(pmos(7.4), d_m4.dvth, d_m4.dbeta_rel));
        // Second stage: M6 PMOS CS, M7 NMOS sink (2× bias mirror).
        ckt.mosfet(
            out,
            out1,
            vdd,
            perturb(pmos(29.6), d_m6.dvth, d_m6.dbeta_rel),
        );
        ckt.mosfet(
            out,
            bias,
            Circuit::GROUND,
            perturb(nmos(8.2), d_m7.dvth, d_m7.dbeta_rel),
        );

        // Compensation + load.
        let c_shift = |seed: u64, base_off: usize, count: usize| -> f64 {
            0.03 * dy[G_CAP]
                + ParasiticSensitivity {
                    base: PARA_BASE + base_off,
                    count,
                    sigma_rel: 0.02,
                    seed,
                }
                .relative_shift(dy)
        };
        ckt.capacitor(out1, out, C_MILLER * (1.0 + c_shift(101, 40, 80)).max(0.2));
        ckt.capacitor(
            out,
            Circuit::GROUND,
            C_LOAD * (1.0 + c_shift(102, 120, 80)).max(0.2),
        );
        // Parasitic node caps: each driven by a distinct 90-factor
        // window of the 600-variable parasitic block.
        let para_nodes = [tail, d1, out1, bias];
        for (i, &node) in para_nodes.iter().enumerate() {
            let shift = c_shift(103 + i as u64, 200 + i * 90, 90);
            ckt.capacitor(node, Circuit::GROUND, C_PAR * (1.0 + shift).max(0.1));
        }

        // DC feedback network (closed at DC, open at AC).
        ckt.resistor(out, inn, R_FB);
        ckt.capacitor(inn, Circuit::GROUND, C_FB);

        // Seed Newton near the amplifying solution: the DC feedback
        // loop also admits a railed state (out = 0, M6 off) that a
        // cold start can fall into.
        let nodeset = [
            (vdd, VDD),
            (inp, VCM),
            (inn, VCM),
            (out, VCM),
            (out1, 0.65),
            (bias, 0.45),
            (tail, 0.15),
            (d1, 0.65),
        ];
        let op = dc::solve_with_nodeset(&ckt, &nodeset)?;
        let sweep = ac::sweep(&ckt, &op, &self.freqs)?;
        let gain = measure::to_db(measure::dc_gain(&sweep, out)?);
        let bandwidth = measure::bandwidth_3db(&sweep, out)?;
        let power = VDD * op.vsource_current(vdd_src).abs();
        let offset_raw = op.voltage(out);
        Ok((
            OpAmpPerf {
                gain,
                bandwidth,
                power,
                offset: 0.0, // filled by the caller relative to nominal
            },
            RawDc { offset_raw },
        ))
    }
}

impl Default for OpAmp {
    fn default() -> Self {
        Self::new()
    }
}

/// Raw DC quantities threaded back to the caller.
#[derive(Debug, Clone, Copy)]
struct RawDc {
    offset_raw: f64,
}

impl PerformanceCircuit for OpAmp {
    fn num_vars(&self) -> usize {
        OPAMP_NUM_VARS
    }

    fn metric_names(&self) -> &'static [&'static str] {
        &OPAMP_METRICS
    }

    #[expect(
        clippy::expect_used,
        reason = "infallible `evaluate` contract: a non-converging sample is a testbench bug; `try_evaluate` is the fallible path"
    )]
    fn evaluate(&self, dy: &[f64]) -> Vec<f64> {
        let p = self
            .try_evaluate(dy)
            .expect("OpAmp sample failed to converge");
        vec![p.gain, p.bandwidth, p.power, p.offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::NormalSampler;

    #[test]
    fn nominal_bias_is_healthy() {
        let amp = OpAmp::new();
        let dy = vec![0.0; OPAMP_NUM_VARS];
        let p = amp.try_evaluate(&dy).unwrap();
        assert!(p.gain > 40.0 && p.gain < 120.0, "gain {} dB", p.gain);
        assert!(p.bandwidth > 1e3 && p.bandwidth < 1e8, "bw {}", p.bandwidth);
        assert!(p.power > 1e-5 && p.power < 1e-3, "power {}", p.power);
        assert!(p.offset.abs() < 1e-12, "nominal offset {}", p.offset);
    }

    #[test]
    fn mismatch_creates_offset() {
        let amp = OpAmp::new();
        let mut dy = vec![0.0; OPAMP_NUM_VARS];
        // +1σ on M1's ΔV_th local factor.
        dy[LOCAL_BASE] = 1.0;
        let p = amp.try_evaluate(&dy).unwrap();
        // Input pair mismatch of ~12 mV must appear as mV-scale offset.
        assert!(
            p.offset.abs() > 1e-3 && p.offset.abs() < 0.1,
            "offset {}",
            p.offset
        );
    }

    #[test]
    fn global_vth_shifts_power() {
        let amp = OpAmp::new();
        let mut hi = vec![0.0; OPAMP_NUM_VARS];
        hi[G_VTH_N] = 2.0; // all NMOS Vth up → less bias current
        let mut lo = vec![0.0; OPAMP_NUM_VARS];
        lo[G_VTH_N] = -2.0;
        let p_hi = amp.try_evaluate(&hi).unwrap();
        let p_lo = amp.try_evaluate(&lo).unwrap();
        assert!(
            p_lo.power > p_hi.power,
            "power lo {} vs hi {}",
            p_lo.power,
            p_hi.power
        );
    }

    #[test]
    fn random_samples_converge_and_vary() {
        let amp = OpAmp::new();
        let mut s = NormalSampler::seed_from_u64(17);
        let mut gains = Vec::new();
        for _ in 0..12 {
            let dy = s.sample_vec(OPAMP_NUM_VARS);
            let p = amp.try_evaluate(&dy).expect("sample convergence");
            assert!(p.gain > 20.0 && p.gain.is_finite());
            assert!(p.bandwidth.is_finite() && p.bandwidth > 0.0);
            gains.push(p.gain);
        }
        let spread = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - gains.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.1, "gain shows no variation: {gains:?}");
    }

    #[test]
    fn parasitic_variables_move_bandwidth_weakly() {
        let amp = OpAmp::new();
        let dy0 = vec![0.0; OPAMP_NUM_VARS];
        let p0 = amp.try_evaluate(&dy0).unwrap();
        let mut dy = dy0.clone();
        for i in 0..NUM_PARA {
            dy[PARA_BASE + i] = 1.0;
        }
        let p1 = amp.try_evaluate(&dy).unwrap();
        let rel = (p1.bandwidth - p0.bandwidth).abs() / p0.bandwidth;
        assert!(rel > 1e-4, "parasitics have no effect ({rel})");
        assert!(rel < 0.5, "parasitics dominate ({rel})");
    }

    #[test]
    #[should_panic(expected = "630")]
    fn wrong_dimension_panics() {
        let amp = OpAmp::new();
        let _ = amp.try_evaluate(&[0.0; 10]);
    }

    #[test]
    fn trait_interface() {
        let amp = OpAmp::new();
        assert_eq!(amp.num_vars(), 630);
        assert_eq!(amp.num_metrics(), 4);
        assert_eq!(amp.metric_names()[3], "offset");
    }
}
