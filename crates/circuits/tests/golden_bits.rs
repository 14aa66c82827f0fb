//! Pins the output bits of every simulated circuit.
//!
//! Each circuit is evaluated at a fixed run of standard-normal points:
//! `num_vars()` values per point, drawn in order from a fresh
//! `NormalSampler::seed_from_u64(12345)`. Every metric of every point
//! is folded into one FNV-1a-64 digest, byte by byte over the
//! little-endian `to_bits()`. A change to the simulator that moves any
//! metric by one ulp moves the digest.

use rsm_circuits::{Lna, OpAmp, PerformanceCircuit, RingOscillator};
use rsm_stats::NormalSampler;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over the metric bits of `points` samples of `circuit`.
fn digest(circuit: &dyn PerformanceCircuit, points: usize) -> u64 {
    let mut sampler = NormalSampler::seed_from_u64(12345);
    let mut h = FNV_OFFSET;
    for _ in 0..points {
        let dy = sampler.sample_vec(circuit.num_vars());
        for metric in circuit.evaluate(&dy) {
            for byte in metric.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

#[test]
fn opamp_metrics_match_golden_bits() {
    assert_eq!(digest(&OpAmp::new(), 40), 0xcc56_f609_37ef_5165);
}

#[test]
fn lna_metrics_match_golden_bits() {
    assert_eq!(digest(&Lna::new(), 40), 0x2525_75af_383b_a40d);
}

#[test]
fn ring_oscillator_metrics_match_golden_bits() {
    assert_eq!(digest(&RingOscillator::new(), 6), 0xbf8f_0f2e_aeaf_5003);
}
