//! CMOS ring oscillator — a transient-analysis benchmark.
//!
//! The OpAmp and LNA exercise the simulator's DC + AC paths inside the
//! modeling loop; this benchmark exercises the *transient* path: the
//! metric is the oscillation frequency of an odd-length CMOS inverter
//! ring, measured by counting mid-rail crossings of a node waveform.
//! Ring frequency is the canonical process monitor — its variability
//! aggregates every device in the ring, so unlike the SRAM (a few
//! dominant devices) the response is dense in the device factors and
//! sparse only against the parasitic tail, giving the solvers a
//! different sparsity profile to contend with.
//!
//! The DC operating point of a symmetric ring is metastable (all nodes
//! at the switching threshold); a capacitively-coupled pulse kicks one
//! node off the fixed point and regeneration does the rest.

use crate::variation::{DeviceSigmas, DeviceVariation, ParasiticSensitivity};
use crate::PerformanceCircuit;
use rsm_spice::mosfet::{MosParams, MosType};
use rsm_spice::netlist::Circuit;
use rsm_spice::tran::{self, Step};

const VDD: f64 = 1.2;
/// Ring length (odd).
const STAGES: usize = 5;
/// Per-node explicit load capacitance (F).
const C_NODE: f64 = 5e-15;
/// Kick-coupling capacitance (F).
const C_KICK: f64 = 2e-15;

const G_VTH_N: usize = 0;
const G_BETA_N: usize = 1;
const G_VTH_P: usize = 2;
const G_BETA_P: usize = 3;
const NUM_GLOBALS: usize = 4;
/// 2 devices per stage × STAGES.
const NUM_DEVICES: usize = 2 * STAGES;
const LOCAL_BASE: usize = NUM_GLOBALS;
const PARA_BASE: usize = LOCAL_BASE + 2 * NUM_DEVICES;
const NUM_PARA: usize = 104;
/// Total variation dimension.
pub const RINGOSC_NUM_VARS: usize = NUM_GLOBALS + 2 * NUM_DEVICES + NUM_PARA;

/// The ring-oscillator benchmark.
///
/// # Example
///
/// ```
/// use rsm_circuits::{RingOscillator, PerformanceCircuit};
/// let ring = RingOscillator::new();
/// assert_eq!(ring.num_vars(), 128);
/// let f = ring.evaluate(&vec![0.0; 128]);
/// assert!(f[0] > 1e8, "oscillates in the GHz range: {}", f[0]);
/// ```
#[derive(Debug, Clone)]
pub struct RingOscillator {
    dt: f64,
    t_stop: f64,
}

impl RingOscillator {
    /// Builds the benchmark with a time grid resolving ≈ 8 periods.
    pub fn new() -> Self {
        RingOscillator {
            dt: 2e-12,
            t_stop: 3e-9,
        }
    }

    fn device_variation(&self, idx: usize, pmos: bool) -> DeviceVariation {
        DeviceVariation {
            global_vth: if pmos { G_VTH_P } else { G_VTH_N },
            global_beta: if pmos { G_BETA_P } else { G_BETA_N },
            local_base: LOCAL_BASE + 2 * idx,
            sigmas: DeviceSigmas::analog_65nm(),
        }
    }

    /// Oscillation frequency (Hz); `None` if the ring failed to start
    /// (does not occur at the calibrated sigmas).
    pub fn try_frequency(&self, dy: &[f64]) -> Option<f64> {
        assert_eq!(
            dy.len(),
            RINGOSC_NUM_VARS,
            "ring oscillator expects {RINGOSC_NUM_VARS} variables"
        );
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, VDD);
        let kick_in = ckt.node("kick");
        let kick_src = ckt.vsource(kick_in, Circuit::GROUND, 0.0);
        let nodes: Vec<_> = (0..STAGES).map(|i| ckt.node(&format!("n{i}"))).collect();
        for i in 0..STAGES {
            let inp = nodes[i];
            let out = nodes[(i + 1) % STAGES];
            let dn = self.device_variation(2 * i, false).apply(dy);
            let dp = self.device_variation(2 * i + 1, true).apply(dy);
            let nmos = MosParams {
                mos_type: MosType::Nmos,
                vth0: 0.35 + dn.dvth,
                kp: 300e-6 * (1.0 + dn.dbeta_rel).max(0.05),
                lambda: 0.15,
                w: 4.0 * 65e-9,
                l: 65e-9,
            };
            let pmos = MosParams {
                mos_type: MosType::Pmos,
                vth0: 0.35 + dp.dvth,
                kp: 120e-6 * (1.0 + dp.dbeta_rel).max(0.05),
                lambda: 0.18,
                w: 10.0 * 65e-9,
                l: 65e-9,
            };
            ckt.mosfet(out, inp, Circuit::GROUND, nmos);
            ckt.mosfet(out, inp, vdd, pmos);
            // Node load with a parasitic-window dependence.
            let shift = ParasiticSensitivity {
                base: PARA_BASE + (i * NUM_PARA / STAGES),
                count: NUM_PARA / STAGES,
                sigma_rel: 0.03,
                seed: 400 + i as u64,
            }
            .relative_shift(dy);
            ckt.capacitor(out, Circuit::GROUND, C_NODE * (1.0 + shift).max(0.2));
        }
        // Symmetry-breaking kick into node 0.
        ckt.capacitor(kick_in, nodes[0], C_KICK);

        let kick = Step {
            v0: 0.0,
            v1: VDD,
            t0: 10e-12,
            t_rise: 10e-12,
        };
        let res = tran::run(&ckt, self.dt, self.t_stop, &[(kick_src, kick)]).ok()?;
        // Count rising mid-rail crossings in the settled second half.
        let wave = res.voltage(nodes[2]);
        let times = res.times();
        let start = times.len() / 2;
        let vm = VDD / 2.0;
        let mut rising = Vec::new();
        for k in start.max(1)..times.len() {
            if wave[k - 1] < vm && wave[k] >= vm {
                // Linear interpolation of the crossing time.
                let t = times[k - 1]
                    + (vm - wave[k - 1]) / (wave[k] - wave[k - 1]) * (times[k] - times[k - 1]);
                rising.push(t);
            }
        }
        if rising.len() < 3 {
            return None; // failed to oscillate
        }
        // Mean period from first to last crossing.
        let span = *rising.last()? - *rising.first()?;
        Some((rising.len() - 1) as f64 / span)
    }
}

impl Default for RingOscillator {
    fn default() -> Self {
        Self::new()
    }
}

impl PerformanceCircuit for RingOscillator {
    fn num_vars(&self) -> usize {
        RINGOSC_NUM_VARS
    }

    fn metric_names(&self) -> &'static [&'static str] {
        &["frequency"]
    }

    #[expect(
        clippy::expect_used,
        reason = "infallible `evaluate` contract: a non-starting oscillator is a testbench bug; `try_frequency` is the fallible path"
    )]
    fn evaluate(&self, dy: &[f64]) -> Vec<f64> {
        vec![self
            .try_frequency(dy)
            .expect("ring oscillator failed to start")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::{describe, NormalSampler};

    #[test]
    fn nominal_ring_oscillates_at_plausible_frequency() {
        let ring = RingOscillator::new();
        let f = ring.try_frequency(&vec![0.0; RINGOSC_NUM_VARS]).unwrap();
        assert!(f > 5e8 && f < 5e10, "frequency {f:.3e}");
    }

    #[test]
    fn slower_devices_lower_the_frequency() {
        let ring = RingOscillator::new();
        let mut slow = vec![0.0; RINGOSC_NUM_VARS];
        slow[G_VTH_N] = 2.0;
        slow[G_VTH_P] = 2.0;
        let mut fast = vec![0.0; RINGOSC_NUM_VARS];
        fast[G_VTH_N] = -2.0;
        fast[G_VTH_P] = -2.0;
        let f_slow = ring.try_frequency(&slow).unwrap();
        let f_fast = ring.try_frequency(&fast).unwrap();
        assert!(
            f_fast > f_slow * 1.02,
            "fast {f_fast:.3e} vs slow {f_slow:.3e}"
        );
    }

    #[test]
    fn random_samples_oscillate_with_modest_spread() {
        let ring = RingOscillator::new();
        let mut rng = NormalSampler::seed_from_u64(21);
        let freqs: Vec<f64> = (0..6)
            .map(|_| {
                ring.try_frequency(&rng.sample_vec(RINGOSC_NUM_VARS))
                    .expect("oscillation")
            })
            .collect();
        let cv = describe::std_dev(&freqs) / describe::mean(&freqs);
        assert!(cv > 0.001 && cv < 0.3, "frequency CV {cv}");
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_dimension_panics() {
        let ring = RingOscillator::new();
        let _ = ring.try_frequency(&[0.0; 4]);
    }
}
