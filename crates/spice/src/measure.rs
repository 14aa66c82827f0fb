//! Waveform and transfer-function measurements.
//!
//! These are the "`.measure`" helpers that turn raw analysis output
//! into the scalar performance metrics the paper models: gain,
//! bandwidth, power and delay.

use crate::ac::AcSweep;
use crate::netlist::NodeId;
use crate::{Result, SpiceError};
use rsm_linalg::tol;

/// Low-frequency (first sweep point) magnitude at a node — the DC gain
/// when the AC stimulus has unit magnitude.
///
/// # Errors
///
/// Returns [`SpiceError::MeasureFailed`] for an empty sweep.
pub fn dc_gain(sweep: &AcSweep, node: NodeId) -> Result<f64> {
    if sweep.is_empty() {
        return Err(SpiceError::MeasureFailed("empty AC sweep".into()));
    }
    Ok(sweep.voltage(0, node).abs())
}

/// Converts a magnitude ratio to decibels.
pub fn to_db(mag: f64) -> f64 {
    20.0 * mag.log10()
}

/// −3 dB bandwidth: the lowest frequency at which the magnitude falls
/// below `1/√2` of its first-point value, log-interpolated between the
/// bracketing sweep points.
///
/// # Errors
///
/// Returns [`SpiceError::MeasureFailed`] if the response never drops
/// below the −3 dB line inside the sweep (increase the sweep range).
pub fn bandwidth_3db(sweep: &AcSweep, node: NodeId) -> Result<f64> {
    if sweep.len() < 2 {
        return Err(SpiceError::MeasureFailed(
            "AC sweep needs at least two points".into(),
        ));
    }
    let mag = sweep.magnitude(node);
    let target = mag[0] * std::f64::consts::FRAC_1_SQRT_2;
    for k in 1..mag.len() {
        if mag[k] <= target {
            let (f0, f1) = (sweep.freqs()[k - 1], sweep.freqs()[k]);
            let (m0, m1) = (mag[k - 1], mag[k]);
            if tol::exactly_eq(m0, m1) {
                return Ok(f1);
            }
            // Interpolate log-magnitude over log-frequency.
            let t = (m0.ln() - target.ln()) / (m0.ln() - m1.ln());
            return Ok(f0 * (f1 / f0).powf(t));
        }
    }
    Err(SpiceError::MeasureFailed(format!(
        "response at node {} never crosses -3 dB within the sweep",
        node.index()
    )))
}

/// Peak of |V(node)| across the sweep: `(f_peak, magnitude)` with
/// parabolic refinement of the peak location in log-frequency /
/// log-magnitude coordinates (for resonant RF responses).
///
/// # Errors
///
/// Returns [`SpiceError::MeasureFailed`] for an empty sweep or a peak
/// at the sweep edge (widen the sweep).
pub fn peak_magnitude(sweep: &AcSweep, node: NodeId) -> Result<(f64, f64)> {
    let mag = sweep.magnitude(node);
    if mag.is_empty() {
        return Err(SpiceError::MeasureFailed("empty AC sweep".into()));
    }
    let (k, _) = mag
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| SpiceError::MeasureFailed("empty AC sweep".into()))?;
    if k == 0 || k + 1 == mag.len() {
        return Err(SpiceError::MeasureFailed(
            "response peaks at the sweep edge; widen the sweep".into(),
        ));
    }
    // Parabolic fit through (log f, log |H|) at k−1, k, k+1.
    // Below this curvature the parabola is numerically flat and the
    // vertex offset is meaningless — fall back to the grid peak.
    const FLAT_CURVATURE: f64 = 1e-30;
    let (y0, y1, y2) = (mag[k - 1].ln(), mag[k].ln(), mag[k + 1].ln());
    let denom = y0 - 2.0 * y1 + y2;
    let delta = if denom.abs() < FLAT_CURVATURE {
        0.0
    } else {
        0.5 * (y0 - y2) / denom
    };
    let delta = delta.clamp(-1.0, 1.0);
    // Refined peak at log f_k + δ·h where h is the (log) grid spacing.
    let h = 0.5 * (sweep.freqs()[k + 1] / sweep.freqs()[k - 1]).ln();
    let lf = sweep.freqs()[k].ln() + delta * h;
    let peak_mag = (y1 - 0.25 * (y0 - y2) * delta).exp();
    Ok((lf.exp(), peak_mag))
}

/// Two-sided −3 dB bandwidth around a resonant peak: the frequency
/// span over which |H| stays above `peak/√2`, log-interpolated on both
/// skirts.
///
/// # Errors
///
/// Returns [`SpiceError::MeasureFailed`] if either skirt never falls
/// below the −3 dB line inside the sweep.
pub fn bandwidth_3db_around_peak(sweep: &AcSweep, node: NodeId) -> Result<f64> {
    let mag = sweep.magnitude(node);
    if mag.len() < 3 {
        return Err(SpiceError::MeasureFailed(
            "AC sweep needs at least three points".into(),
        ));
    }
    let (k, _) = mag
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| SpiceError::MeasureFailed("empty AC sweep".into()))?;
    let target = mag[k] * std::f64::consts::FRAC_1_SQRT_2;
    let interp = |i0: usize, i1: usize| -> f64 {
        let (m0, m1) = (mag[i0], mag[i1]);
        let (f0, f1) = (sweep.freqs()[i0], sweep.freqs()[i1]);
        if tol::exactly_eq(m0, m1) {
            return f1;
        }
        let t = (m0.ln() - target.ln()) / (m0.ln() - m1.ln());
        f0 * (f1 / f0).powf(t)
    };
    let mut f_hi = None;
    for i in k + 1..mag.len() {
        if mag[i] <= target {
            f_hi = Some(interp(i - 1, i));
            break;
        }
    }
    let mut f_lo = None;
    for i in (0..k).rev() {
        if mag[i] <= target {
            f_lo = Some(interp(i + 1, i));
            break;
        }
    }
    match (f_lo, f_hi) {
        (Some(lo), Some(hi)) => Ok(hi - lo),
        _ => Err(SpiceError::MeasureFailed(
            "-3 dB skirt leaves the sweep range".into(),
        )),
    }
}

/// First time at which `wave` crosses `threshold` in the requested
/// direction, linearly interpolated.
///
/// # Errors
///
/// Returns [`SpiceError::MeasureFailed`] if no crossing exists.
///
/// # Panics
///
/// Panics if `times` and `wave` differ in length.
pub fn cross_time(times: &[f64], wave: &[f64], threshold: f64, rising: bool) -> Result<f64> {
    assert_eq!(times.len(), wave.len(), "cross_time: length mismatch");
    for k in 1..wave.len() {
        let (a, b) = (wave[k - 1], wave[k]);
        let crossed = if rising {
            a < threshold && b >= threshold
        } else {
            a > threshold && b <= threshold
        };
        if crossed {
            let t = if tol::exactly_eq(b, a) {
                0.0
            } else {
                (threshold - a) / (b - a)
            };
            return Ok(times[k - 1] + t * (times[k] - times[k - 1]));
        }
    }
    Err(SpiceError::MeasureFailed(format!(
        "waveform never crosses {threshold} ({})",
        if rising { "rising" } else { "falling" }
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{self, log_sweep};
    use crate::dc;
    use crate::netlist::Circuit;

    fn rc_sweep() -> (AcSweep, NodeId, f64) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor(vin, out, 1_000.0);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        let op = dc::solve(&ckt).unwrap();
        let freqs = log_sweep(1e2, 1e8, 40);
        let sweep = ac::sweep(&ckt, &op, &freqs).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-9);
        (sweep, out, fc)
    }

    #[test]
    fn rc_bandwidth_matches_pole() {
        let (sweep, out, fc) = rc_sweep();
        let bw = bandwidth_3db(&sweep, out).unwrap();
        assert!((bw - fc).abs() / fc < 0.01, "bw {bw} vs fc {fc}");
    }

    #[test]
    fn rc_dc_gain_is_unity() {
        let (sweep, out, _) = rc_sweep();
        assert!((dc_gain(&sweep, out).unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn db_conversion() {
        assert!((to_db(10.0) - 20.0).abs() < 1e-12);
        assert!((to_db(1.0)).abs() < 1e-12);
    }

    #[test]
    fn peak_and_band_of_rlc_tank() {
        // Parallel RLC through series R: analytic f0 and Q.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let tank = ckt.node("tank");
        ckt.vsource_ac(vin, Circuit::GROUND, 0.0, 1.0);
        // Moderate Q so the sweep grid resolves the peak.
        let rs = 500.0;
        let l = 4e-9;
        let c = 4e-12;
        ckt.resistor(vin, tank, rs);
        ckt.inductor(tank, Circuit::GROUND, l);
        ckt.capacitor(tank, Circuit::GROUND, c);
        let op = dc::solve(&ckt).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let freqs = log_sweep(f0 / 5.0, f0 * 5.0, 300);
        let sweep = ac::sweep(&ckt, &op, &freqs).unwrap();
        let (f_peak, mag) = peak_magnitude(&sweep, tank).unwrap();
        assert!((f_peak - f0).abs() / f0 < 0.01, "{f_peak:.3e} vs {f0:.3e}");
        assert!((mag - 1.0).abs() < 0.02, "peak mag {mag}");
        // Q = Rs·sqrt(C/L) (series-R-driven lossless tank);
        // BW = f0/Q.
        let q = rs * (c / l).sqrt();
        let bw = bandwidth_3db_around_peak(&sweep, tank).unwrap();
        let expect = f0 / q;
        assert!(
            (bw - expect).abs() / expect < 0.05,
            "BW {bw:.3e} vs {expect:.3e}"
        );
    }

    #[test]
    fn peak_at_edge_is_an_error() {
        let (sweep, out, _) = rc_sweep(); // monotone lowpass: peak at edge
        assert!(matches!(
            peak_magnitude(&sweep, out),
            Err(SpiceError::MeasureFailed(_))
        ));
    }

    #[test]
    fn cross_time_interpolates() {
        let times = [0.0, 1.0, 2.0, 3.0];
        let wave = [0.0, 0.4, 0.8, 1.0];
        let t = cross_time(&times, &wave, 0.6, true).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        let falling = [1.0, 0.8, 0.2, 0.0];
        let t = cross_time(&times, &falling, 0.5, false).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cross_time_missing_crossing_errors() {
        let times = [0.0, 1.0];
        let wave = [0.0, 0.1];
        assert!(matches!(
            cross_time(&times, &wave, 0.5, true),
            Err(SpiceError::MeasureFailed(_))
        ));
    }
}
