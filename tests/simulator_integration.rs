//! Integration tests of the circuit-simulation substrate across
//! analyses: DC, AC and transient must tell one consistent story.

use sparse_rsm::spice::ac::{self, log_sweep};
use sparse_rsm::spice::dc;
use sparse_rsm::spice::measure;
use sparse_rsm::spice::mosfet::MosParams;
use sparse_rsm::spice::netlist::Circuit;
use sparse_rsm::spice::tran::{self, Step};

/// A common-source amplifier used across the tests.
fn cs_amp() -> (
    Circuit,
    sparse_rsm::spice::netlist::NodeId,
    sparse_rsm::spice::netlist::VsourceId,
) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(vdd, Circuit::GROUND, 1.2);
    let vin = ckt.vsource_ac(inp, Circuit::GROUND, 0.55, 1.0);
    ckt.resistor(vdd, out, 30_000.0);
    ckt.capacitor(out, Circuit::GROUND, 2e-13);
    ckt.mosfet(
        out,
        inp,
        Circuit::GROUND,
        MosParams::nmos_65nm().scaled_width(3.0),
    );
    (ckt, out, vin)
}

#[test]
fn ac_gain_matches_dc_transfer_slope() {
    // The AC small-signal gain must equal the numerical derivative of
    // the DC transfer curve — linearization consistency.
    let (ckt, out, vin) = cs_amp();
    let op = dc::solve(&ckt).unwrap();
    let sweep = ac::sweep(&ckt, &op, &[1.0]).unwrap();
    let ac_gain = sweep.voltage(0, out).abs();

    let dv = 1e-5;
    let mut hi = ckt.clone();
    hi.set_vsource_dc(vin, 0.55 + dv);
    let mut lo = ckt.clone();
    lo.set_vsource_dc(vin, 0.55 - dv);
    let v_hi = dc::solve(&hi).unwrap().voltage(out);
    let v_lo = dc::solve(&lo).unwrap().voltage(out);
    let dc_slope = ((v_hi - v_lo) / (2.0 * dv)).abs();
    assert!(
        (ac_gain - dc_slope).abs() / dc_slope < 1e-3,
        "AC gain {ac_gain} vs DC slope {dc_slope}"
    );
}

#[test]
fn transient_settles_to_dc_solution_after_step() {
    // After a step and a long settle, the transient solution must land
    // on the DC operating point of the final source values.
    let (ckt, out, vin) = cs_amp();
    let mut final_ckt = ckt.clone();
    final_ckt.set_vsource_dc(vin, 0.65);
    let dc_final = dc::solve(&final_ckt).unwrap().voltage(out);

    let step = Step {
        v0: 0.55,
        v1: 0.65,
        t0: 1e-9,
        t_rise: 100e-12,
    };
    let res = tran::run(&ckt, 50e-12, 80e-9, &[(vin, step)]).unwrap();
    let v_end = *res.voltage(out).last().unwrap();
    assert!(
        (v_end - dc_final).abs() < 1e-3,
        "transient end {v_end} vs DC {dc_final}"
    );
}

#[test]
fn ac_bandwidth_matches_transient_time_constant() {
    // Single-pole consistency: f_3dB from AC ≈ 1/(2πτ) with τ from the
    // transient step response (63.2 % settling).
    let (ckt, out, vin) = cs_amp();
    let op = dc::solve(&ckt).unwrap();
    let freqs = log_sweep(1e3, 1e10, 24);
    let sweep = ac::sweep(&ckt, &op, &freqs).unwrap();
    let f3db = measure::bandwidth_3db(&sweep, out).unwrap();

    let v0 = op.voltage(out);
    let step = Step {
        v0: 0.55,
        v1: 0.56, // small step: stay in the linear region
        t0: 0.0,
        t_rise: 1e-13,
    };
    let res = tran::run(&ckt, 2e-12, 40e-9, &[(vin, step)]).unwrap();
    let wave = res.voltage(out);
    let v_end = *wave.last().unwrap();
    let target = v0 + (v_end - v0) * (1.0 - (-1.0f64).exp());
    let t63 = measure::cross_time(res.times(), &wave, target, v_end > v0).unwrap();
    let f_from_tau = 1.0 / (2.0 * std::f64::consts::PI * t63);
    // The gate-drain cap adds a feedforward zero, so the response is
    // only approximately single-pole — 20 % agreement is the right bar.
    assert!(
        (f3db - f_from_tau).abs() / f3db < 0.2,
        "AC f3dB {f3db:.3e} vs transient 1/(2πτ) {f_from_tau:.3e}"
    );
}

#[test]
fn opamp_offset_metric_is_linear_in_small_mismatch() {
    // Doubling a single mismatch factor should roughly double the
    // offset — the smoothness/linearity the RSM pipeline relies on.
    use sparse_rsm::circuits::{OpAmp, PerformanceCircuit};
    let amp = OpAmp::new();
    let n = amp.num_vars();
    let mut dy1 = vec![0.0; n];
    dy1[6] = 0.5; // first local mismatch factor (M1 ΔVth)
    let mut dy2 = vec![0.0; n];
    dy2[6] = 1.0;
    let o1 = amp.evaluate(&dy1)[3];
    let o2 = amp.evaluate(&dy2)[3];
    assert!(o1.abs() > 1e-5, "offset insensitive to input-pair mismatch");
    let ratio = o2 / o1;
    assert!(
        (ratio - 2.0).abs() < 0.25,
        "offset not locally linear: ratio {ratio}"
    );
}

#[test]
fn sram_delay_agrees_with_inverter_chain_intuition() {
    // Slowing the WL drivers (higher Vth) must increase delay by an
    // amount comparable to the driver-stage share of the budget.
    use sparse_rsm::circuits::{PerformanceCircuit, SramReadPath};
    let sram = SramReadPath::with_geometry(32, 6, 6);
    let n = sram.num_vars();
    let base = sram.evaluate(&vec![0.0; n])[0];
    let mut dy = vec![0.0; n];
    for d in 0..4 {
        dy[sram.periph_var(d)] = 1.5; // all four WL drivers slow
    }
    let slowed = sram.evaluate(&dy)[0];
    let added = slowed - base;
    assert!(added > 0.0, "slower drivers must add delay");
    assert!(added < 0.5 * base, "driver share implausibly large");
}
