//! Transient analysis.
//!
//! Fixed-step integration with trapezoidal companion models for
//! capacitors (including MOSFET parasitics) and inductors, backward
//! Euler on the first step, Newton iteration at every time point, and
//! step source waveforms.

use crate::dc::{self, assemble, stamp, volt};
use crate::netlist::{Circuit, NodeId, VsourceId};
use crate::{Result, SpiceError, GMIN};
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::tol;

/// Newton iteration cap per time point.
const MAX_ITER: usize = 60;
/// Convergence tolerance on node voltages (V).
const VTOL: f64 = 1e-7;

/// A voltage-source waveform: a single edge from `v0` to `v1` starting
/// at `t0`, linear over `t_rise` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Initial level.
    pub v0: f64,
    /// Final level.
    pub v1: f64,
    /// Edge start time (s).
    pub t0: f64,
    /// Edge duration (s); `0.0` is treated as one time step.
    pub t_rise: f64,
}

impl Step {
    /// Waveform value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        if t <= self.t0 {
            self.v0
        } else if self.t_rise > 0.0 && t < self.t0 + self.t_rise {
            self.v0 + (self.v1 - self.v0) * (t - self.t0) / self.t_rise
        } else {
            self.v1
        }
    }
}

/// Recorded transient waveforms.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// `volts[step][node]`.
    volts: Vec<Vec<f64>>,
}

impl TranResult {
    /// Simulated time points (s).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform at a node.
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        self.volts.iter().map(|v| v[node.index()]).collect()
    }
}

/// One capacitance with its companion-model state.
struct CapInst {
    a: NodeId,
    b: NodeId,
    farads: f64,
    /// Capacitor current a→b at the previous accepted time point
    /// (for trapezoidal).
    i_prev: f64,
    /// Capacitor voltage (v_a − v_b) at the previous time point.
    v_prev: f64,
}

/// One inductor instance (its branch current is an MNA unknown).
struct IndInst {
    /// MNA row of this inductor's branch equation.
    row: usize,
    henries: f64,
    /// Branch current at the previous accepted time point.
    i_prev: f64,
    /// Branch voltage (v_a − v_b) at the previous time point.
    v_prev: f64,
    a: NodeId,
    b: NodeId,
}

/// Runs a transient with fixed step `dt` up to `t_stop`: the circuit's
/// sources take their DC values, except those overridden by `stimuli`,
/// which follow the given steps. The initial condition is the DC
/// operating point at the `t = 0` stimulus values.
///
/// # Errors
///
/// [`SpiceError::BadNetlist`], before any work, unless `dt` is finite
/// and positive, `t_stop` finite and non-negative, and the step count
/// `⌈t_stop/dt⌉` fits in a `u32`; propagates DC errors for the initial
/// point; [`SpiceError::NoConvergence`] if a time step fails to
/// converge.
pub fn run(
    ckt: &Circuit,
    dt: f64,
    t_stop: f64,
    stimuli: &[(VsourceId, Step)],
) -> Result<TranResult> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(SpiceError::BadNetlist(format!(
            "transient step dt = {dt} s must be finite and positive"
        )));
    }
    if !(t_stop.is_finite() && t_stop >= 0.0) {
        return Err(SpiceError::BadNetlist(format!(
            "transient stop time t_stop = {t_stop} s must be finite and non-negative"
        )));
    }
    let steps = (t_stop / dt).ceil();
    if steps > f64::from(u32::MAX) {
        return Err(SpiceError::BadNetlist(format!(
            "transient of t_stop = {t_stop} s in steps of dt = {dt} s takes {steps:e} steps, \
             more than {}",
            u32::MAX
        )));
    }
    let steps = steps as usize;
    let mut work = ckt.clone();
    // Initial condition: sources at their t = 0 values.
    for (id, s) in stimuli {
        work.set_vsource_dc(*id, s.value(0.0));
    }
    let op = dc::solve(&work)?;
    let nn = work.num_nodes() - 1;
    // Node voltages, then branch currents (voltage sources, then
    // inductors), from the OP.
    let mut x = op.solution().to_vec();

    // Steady state: no capacitor current, and every inductor a short.
    let mut caps: Vec<CapInst> = work
        .capacitances()
        .map(|(a, b, farads)| CapInst {
            a,
            b,
            farads,
            i_prev: 0.0,
            v_prev: volt(&x, a) - volt(&x, b),
        })
        .collect();
    let mut inds: Vec<IndInst> = work
        .inductors
        .iter()
        .enumerate()
        .map(|(k, l)| {
            let row = nn + work.vsources.len() + k;
            IndInst {
                row,
                henries: l.henries,
                i_prev: x[row],
                v_prev: 0.0,
                a: l.a,
                b: l.b,
            }
        })
        .collect();

    let mut times = Vec::with_capacity(steps + 1);
    let mut volts = Vec::with_capacity(steps + 1);
    let push_state = |times: &mut Vec<f64>, volts: &mut Vec<Vec<f64>>, t: f64, x: &[f64]| {
        let mut v = vec![0.0; nn + 1];
        v[1..].copy_from_slice(&x[..nn]);
        times.push(t);
        volts.push(v);
    };
    push_state(&mut times, &mut volts, 0.0, &x);

    for step in 1..=steps {
        let t = step as f64 * dt;
        for (id, s) in stimuli {
            work.set_vsource_dc(*id, s.value(t));
        }
        // Trapezoidal needs the previous current, so the very first
        // step uses backward Euler.
        let trap = step > 1;
        solve_point(&work, &mut x, &caps, &inds, dt, trap)?;
        // Update inductor state at the accepted solution.
        for ind in &mut inds {
            ind.i_prev = x[ind.row];
            ind.v_prev = volt(&x, ind.a) - volt(&x, ind.b);
        }
        // Update capacitor state at the accepted solution.
        for cap in &mut caps {
            let v_now = volt(&x, cap.a) - volt(&x, cap.b);
            let i_now = if trap {
                2.0 * cap.farads / dt * (v_now - cap.v_prev) - cap.i_prev
            } else {
                cap.farads / dt * (v_now - cap.v_prev)
            };
            cap.v_prev = v_now;
            cap.i_prev = i_now;
        }
        push_state(&mut times, &mut volts, t, &x);
    }
    Ok(TranResult { times, volts })
}

/// Newton solve of one time point with capacitor and inductor
/// companion stamps.
fn solve_point(
    ckt: &Circuit,
    x: &mut [f64],
    caps: &[CapInst],
    inds: &[IndInst],
    dt: f64,
    trap: bool,
) -> Result<()> {
    let nn = ckt.num_nodes() - 1;
    for _ in 0..MAX_ITER {
        let (mut a, mut b) = assemble(ckt, x, GMIN, 1.0);
        for cap in caps {
            if tol::exactly_zero(cap.farads) {
                continue;
            }
            let geq = if trap {
                2.0 * cap.farads / dt
            } else {
                cap.farads / dt
            };
            // Companion: i(a→b) = geq·v − ieq_rhs with
            //   BE:   ieq_rhs = geq·v_prev
            //   TRAP: ieq_rhs = geq·v_prev + i_prev.
            let ieq = if trap {
                geq * cap.v_prev + cap.i_prev
            } else {
                geq * cap.v_prev
            };
            stamp(&mut a, cap.a, cap.b, geq);
            let (i, j) = (cap.a.index(), cap.b.index());
            if i > 0 {
                b[i - 1] += ieq;
            }
            if j > 0 {
                b[j - 1] -= ieq;
            }
        }
        // Inductor companions. The DC assembly already stamped the
        // branch as a short (±1 pattern); add the reactance term:
        //   BE:   v_n − (L/h)·I_n = −(L/h)·I_{n−1}
        //   TRAP: v_n − (2L/h)·I_n = −v_{n−1} − (2L/h)·I_{n−1}.
        for ind in inds {
            let zeq = if trap {
                2.0 * ind.henries / dt
            } else {
                ind.henries / dt
            };
            a[(ind.row, ind.row)] -= zeq;
            b[ind.row] = if trap {
                -ind.v_prev - zeq * ind.i_prev
            } else {
                -zeq * ind.i_prev
            };
        }
        let lu = LuDecomposition::new(&a).map_err(|_| SpiceError::SingularMatrix {
            context: "transient Jacobian".into(),
        })?;
        let x_new = lu.solve(&b).map_err(|_| SpiceError::SingularMatrix {
            context: "transient solve".into(),
        })?;
        let mut max_dv = 0.0f64;
        for i in 0..x.len() {
            let dx = x_new[i] - x[i];
            if i < nn {
                max_dv = max_dv.max(dx.abs());
            }
            x[i] = x_new[i];
        }
        if max_dv <= VTOL {
            return Ok(());
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "transient",
        iterations: MAX_ITER,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_values() {
        let s = Step {
            v0: 0.0,
            v1: 1.0,
            t0: 1e-9,
            t_rise: 1e-9,
        };
        assert_eq!(s.value(0.0), 0.0);
        assert!((s.value(1.5e-9) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(5e-9), 1.0);
    }

    #[test]
    fn a_bad_time_grid_is_rejected_naming_the_argument() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vin, Circuit::GROUND, 1.0);
        ckt.resistor(vin, out, 1_000.0);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        let mut cases = vec![];
        for dt in [0.0, -1e-12, f64::NAN, f64::INFINITY] {
            cases.push((dt, 1e-9, "step dt ="));
        }
        for t_stop in [f64::NAN, -1e-9, f64::INFINITY] {
            cases.push((1e-12, t_stop, "stop time t_stop ="));
        }
        // 1e300 steps: the loop would never end.
        cases.push((1e-300, 1.0, "steps, more than"));
        for (dt, t_stop, needle) in cases {
            match run(&ckt, dt, t_stop, &[]) {
                Err(SpiceError::BadNetlist(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("dt = {dt}, t_stop = {t_stop}: {:?}", other.map(|r| r.times)),
            }
        }
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // 1k × 1nF charging to 1 V: v(t) = 1 − exp(−t/τ), τ = 1 µs.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let vs = ckt.vsource(vin, Circuit::GROUND, 0.0);
        ckt.resistor(vin, out, 1_000.0);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        let res = run(
            &ckt,
            10e-9,
            5e-6,
            &[(
                vs,
                Step {
                    v0: 0.0,
                    v1: 1.0,
                    t0: 0.0,
                    t_rise: 1e-12,
                },
            )],
        )
        .unwrap();
        let tau = 1e-6;
        let wave = res.voltage(out);
        for (k, &t) in res.times().iter().enumerate() {
            if t < 20e-9 {
                continue; // skip the sub-resolution rise edge
            }
            let expect = 1.0 - (-(t) / tau).exp();
            assert!(
                (wave[k] - expect).abs() < 5e-3,
                "t={t}: {} vs {expect}",
                wave[k]
            );
        }
    }

    #[test]
    fn initial_condition_is_dc_steady_state() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, 2.0);
        ckt.resistor(a, b, 1_000.0);
        ckt.resistor(b, Circuit::GROUND, 1_000.0);
        ckt.capacitor(b, Circuit::GROUND, 1e-9);
        let res = run(&ckt, 100e-9, 1e-6, &[]).unwrap();
        // No stimulus: the waveform must stay at the DC solution 1 V.
        for &v in &res.voltage(b) {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn rl_current_ramp_matches_analytic() {
        // Series R-L driven by a step: i(t) = (V/R)(1 − e^{−tR/L}).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let vs = ckt.vsource(vin, Circuit::GROUND, 0.0);
        ckt.resistor(vin, mid, 100.0);
        ckt.inductor(mid, Circuit::GROUND, 1e-6); // τ = L/R = 10 ns
        let res = run(
            &ckt,
            0.2e-9,
            60e-9,
            &[(
                vs,
                Step {
                    v0: 0.0,
                    v1: 1.0,
                    t0: 0.0,
                    t_rise: 1e-13,
                },
            )],
        )
        .unwrap();
        // v(mid) = V·e^{−t/τ} (all of the source appears across L at
        // t = 0⁺ and decays as the current ramps).
        let wave = res.voltage(mid);
        let tau = 1e-6 / 100.0;
        for (k, &t) in res.times().iter().enumerate() {
            if t < 1e-9 {
                continue;
            }
            let expect = (-(t) / tau).exp();
            assert!(
                (wave[k] - expect).abs() < 0.01,
                "t={t}: v(mid)={} vs {expect}",
                wave[k]
            );
        }
    }

    #[test]
    fn lc_tank_oscillates_at_resonance() {
        // A charged-through-step LC tank rings at f0 = 1/(2π√(LC)).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let tank = ckt.node("tank");
        let vs = ckt.vsource(vin, Circuit::GROUND, 0.0);
        // Large series R keeps the tank underdamped (ζ = 1/(2RCω0) ≈ 0.03).
        ckt.resistor(vin, tank, 2_000.0);
        ckt.inductor(tank, Circuit::GROUND, 10e-9);
        ckt.capacitor(tank, Circuit::GROUND, 1e-12); // f0 ≈ 1.59 GHz
        let res = run(
            &ckt,
            5e-12,
            4e-9,
            &[(
                vs,
                Step {
                    v0: 0.0,
                    v1: 1.0,
                    t0: 0.0,
                    t_rise: 1e-13,
                },
            )],
        )
        .unwrap();
        // Count zero crossings of v(tank) − mean to estimate the ring
        // frequency.
        let wave = res.voltage(tank);
        let mean = wave.iter().sum::<f64>() / wave.len() as f64;
        let mut crossings = 0usize;
        for w in wave.windows(2) {
            if (w[0] - mean) * (w[1] - mean) < 0.0 {
                crossings += 1;
            }
        }
        let t_span = *res.times().last().unwrap();
        let f_est = crossings as f64 / 2.0 / t_span;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (10e-9f64 * 1e-12).sqrt());
        assert!(
            (f_est - f0).abs() / f0 < 0.15,
            "ring at {f_est:.3e} vs f0 {f0:.3e}"
        );
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
        use crate::mosfet::MosParams;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vdd, Circuit::GROUND, 1.2);
        let vin = ckt.vsource(inp, Circuit::GROUND, 0.0);
        ckt.mosfet(
            out,
            inp,
            Circuit::GROUND,
            MosParams::nmos_65nm().scaled_width(4.0),
        );
        ckt.mosfet(out, inp, vdd, MosParams::pmos_65nm().scaled_width(8.0));
        ckt.capacitor(out, Circuit::GROUND, 5e-15);
        let res = run(
            &ckt,
            1e-12,
            2e-9,
            &[(
                vin,
                Step {
                    v0: 0.0,
                    v1: 1.2,
                    t0: 0.2e-9,
                    t_rise: 20e-12,
                },
            )],
        )
        .unwrap();
        let wave = res.voltage(out);
        assert!(wave[0] > 1.1, "initial output {}", wave[0]);
        let v_end = *wave.last().unwrap();
        assert!(v_end < 0.1, "final output {v_end}");
        // The output must pass monotonically-ish through mid-rail.
        assert!(wave.iter().any(|&v| (v - 0.6).abs() < 0.3));
    }
}
