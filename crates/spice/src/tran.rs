//! Transient analysis.
//!
//! Fixed-step integration with backward-Euler or trapezoidal companion
//! models for capacitors (including MOSFET parasitics), Newton
//! iteration at every time point, and piecewise-linear / pulse source
//! waveforms.

use crate::dc::{assemble, DcAnalysis, OperatingPoint};
use crate::netlist::{Circuit, NodeId, VsourceId};
use crate::{Result, SpiceError};
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::tol;

/// A time-varying voltage-source waveform.
#[derive(Debug, Clone)]
pub enum Waveform {
    /// Constant level.
    Dc(f64),
    /// Single edge from `v0` to `v1` starting at `t0`, linear over
    /// `t_rise` seconds.
    Step {
        /// Initial level.
        v0: f64,
        /// Final level.
        v1: f64,
        /// Edge start time (s).
        t0: f64,
        /// Edge duration (s); `0.0` is treated as one time step.
        t_rise: f64,
    },
    /// Piecewise-linear `(time, value)` points; values are held flat
    /// outside the listed range. Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Waveform value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Step { v0, v1, t0, t_rise } => {
                if t <= *t0 {
                    *v0
                } else if *t_rise > 0.0 && t < t0 + t_rise {
                    v0 + (v1 - v0) * (t - t0) / t_rise
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if tol::exactly_eq(t1, t0) {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().map_or(0.0, |p| p.1)
            }
        }
    }
}

/// Integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Backward Euler — L-stable, first order.
    BackwardEuler,
    /// Trapezoidal — A-stable, second order (first step uses BE).
    Trapezoidal,
}

/// Transient analysis configuration.
#[derive(Debug, Clone)]
pub struct TranAnalysis {
    /// Fixed time step (s).
    pub dt: f64,
    /// Stop time (s).
    pub t_stop: f64,
    /// Integration method.
    pub method: Integrator,
    /// Newton iteration cap per time point.
    pub max_iter: usize,
    /// Convergence tolerance on node voltages (V).
    pub vtol: f64,
    /// Shunt conductance (as in DC).
    pub gmin: f64,
}

impl TranAnalysis {
    /// Creates a transient run with trapezoidal integration.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        TranAnalysis {
            dt,
            t_stop,
            method: Integrator::Trapezoidal,
            max_iter: 60,
            vtol: 1e-7,
            gmin: 1e-12,
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

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no points were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// One capacitor instance flattened for companion stamping.
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

impl TranAnalysis {
    /// Runs the transient: the circuit's sources take their DC values,
    /// except those overridden by `stimuli`, which follow the given
    /// waveforms. The initial condition is the DC operating point at
    /// `t = 0` waveform values.
    ///
    /// # Errors
    ///
    /// Propagates DC errors for the initial point;
    /// [`SpiceError::NoConvergence`] if a time step fails to converge.
    pub fn run(&self, ckt: &Circuit, stimuli: &[(VsourceId, Waveform)]) -> Result<TranResult> {
        let mut work = ckt.clone();
        // Initial condition: sources at their t = 0 values.
        for (id, w) in stimuli {
            work.set_vsource_dc(*id, w.value(0.0));
        }
        let op = DcAnalysis::default().solve(&work)?;
        let nn = work.num_nodes() - 1;
        let dim = work.mna_dim();

        // Flatten capacitors: explicit elements + MOSFET parasitics.
        let mut caps: Vec<CapInst> = Vec::new();
        for c in &work.capacitors {
            caps.push(CapInst {
                a: c.a,
                b: c.b,
                farads: c.farads,
                i_prev: 0.0,
                v_prev: 0.0,
            });
        }
        for m in &work.mosfets {
            caps.push(CapInst {
                a: m.g,
                b: m.s,
                farads: m.cgs,
                i_prev: 0.0,
                v_prev: 0.0,
            });
            caps.push(CapInst {
                a: m.g,
                b: m.d,
                farads: m.cgd,
                i_prev: 0.0,
                v_prev: 0.0,
            });
            caps.push(CapInst {
                a: m.d,
                b: Circuit::GROUND,
                farads: m.cdb,
                i_prev: 0.0,
                v_prev: 0.0,
            });
        }

        for d in &work.diodes {
            caps.push(CapInst {
                a: d.anode,
                b: d.cathode,
                farads: d.params.cj,
                i_prev: 0.0,
                v_prev: 0.0,
            });
        }

        // Inductors: branch rows follow the voltage sources.
        let mut inds: Vec<IndInst> = work
            .inductors
            .iter()
            .enumerate()
            .map(|(k, l)| IndInst {
                row: nn + work.num_vsources() + k,
                henries: l.henries,
                i_prev: 0.0,
                v_prev: 0.0,
                a: l.a,
                b: l.b,
            })
            .collect();

        let mut x = vec![0.0; dim];
        x[..nn].copy_from_slice(&op.voltages()[1..]);
        // Branch currents (voltage sources, then inductors) from the OP.
        for k in 0..work.num_vsources() + work.num_inductors() {
            x[nn + k] = op_branch(&op, k);
        }
        let volt_of = |x: &[f64], n: NodeId| -> f64 {
            if n.index() == 0 {
                0.0
            } else {
                x[n.index() - 1]
            }
        };
        for cap in &mut caps {
            cap.v_prev = volt_of(&x, cap.a) - volt_of(&x, cap.b);
            cap.i_prev = 0.0; // steady state: no capacitor current
        }
        for ind in &mut inds {
            ind.i_prev = x[ind.row];
            ind.v_prev = 0.0; // steady state: inductor is a short
        }

        let steps = (self.t_stop / self.dt).ceil() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut volts = Vec::with_capacity(steps + 1);
        let push_state = |times: &mut Vec<f64>, volts: &mut Vec<Vec<f64>>, t: f64, x: &[f64]| {
            let mut v = vec![0.0; nn + 1];
            v[1..].copy_from_slice(&x[..nn]);
            times.push(t);
            volts.push(v);
        };
        push_state(&mut times, &mut volts, 0.0, &x);

        let mut first_step = true;
        for step in 1..=steps {
            let t = step as f64 * self.dt;
            for (id, w) in stimuli {
                work.set_vsource_dc(*id, w.value(t));
            }
            // Trapezoidal needs BE on the very first step (no i_prev).
            let trap = self.method == Integrator::Trapezoidal && !first_step;
            self.solve_point(&work, &mut x, &caps, &inds, trap)?;
            // Update inductor state at the accepted solution.
            for ind in &mut inds {
                ind.i_prev = x[ind.row];
                ind.v_prev = volt_of(&x, ind.a) - volt_of(&x, ind.b);
            }
            // Update capacitor state at the accepted solution.
            for cap in &mut caps {
                let v_now = volt_of(&x, cap.a) - volt_of(&x, cap.b);
                let i_now = if trap {
                    2.0 * cap.farads / self.dt * (v_now - cap.v_prev) - cap.i_prev
                } else {
                    cap.farads / self.dt * (v_now - cap.v_prev)
                };
                cap.v_prev = v_now;
                cap.i_prev = i_now;
            }
            push_state(&mut times, &mut volts, t, &x);
            first_step = false;
        }
        Ok(TranResult { times, volts })
    }

    /// Newton solve of one time point with capacitor companion stamps.
    fn solve_point(
        &self,
        ckt: &Circuit,
        x: &mut [f64],
        caps: &[CapInst],
        inds: &[IndInst],
        trap: bool,
    ) -> Result<()> {
        let nn = ckt.num_nodes() - 1;
        for _ in 0..self.max_iter {
            let (mut a, mut b) = assemble(ckt, x, self.gmin, 1.0);
            for cap in caps {
                if tol::exactly_zero(cap.farads) {
                    continue;
                }
                let geq = if trap {
                    2.0 * cap.farads / self.dt
                } else {
                    cap.farads / self.dt
                };
                // Companion: i(a→b) = geq·v − ieq_rhs with
                //   BE:   ieq_rhs = geq·v_prev
                //   TRAP: ieq_rhs = geq·v_prev + i_prev.
                let ieq = if trap {
                    geq * cap.v_prev + cap.i_prev
                } else {
                    geq * cap.v_prev
                };
                let (i, j) = (cap.a.index(), cap.b.index());
                if i > 0 {
                    a[(i - 1, i - 1)] += geq;
                    b[i - 1] += ieq;
                }
                if j > 0 {
                    a[(j - 1, j - 1)] += geq;
                    b[j - 1] -= ieq;
                }
                if i > 0 && j > 0 {
                    a[(i - 1, j - 1)] -= geq;
                    a[(j - 1, i - 1)] -= geq;
                }
            }
            // Inductor companions. The DC assembly already stamped the
            // branch as a short (±1 pattern); add the reactance term:
            //   BE:   v_n − (L/h)·I_n = −(L/h)·I_{n−1}
            //   TRAP: v_n − (2L/h)·I_n = −v_{n−1} − (2L/h)·I_{n−1}.
            for ind in inds {
                let zeq = if trap {
                    2.0 * ind.henries / self.dt
                } else {
                    ind.henries / self.dt
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
            if max_dv <= self.vtol {
                return Ok(());
            }
        }
        Err(SpiceError::NoConvergence {
            analysis: "transient",
            iterations: self.max_iter,
        })
    }
}

/// Branch current of source `k` from an operating point (helper that
/// keeps `OperatingPoint`'s field private API intact).
fn op_branch(op: &OperatingPoint, k: usize) -> f64 {
    op.vsource_current(crate::netlist::VsourceId(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_values() {
        let s = Waveform::Step {
            v0: 0.0,
            v1: 1.0,
            t0: 1e-9,
            t_rise: 1e-9,
        };
        assert_eq!(s.value(0.0), 0.0);
        assert!((s.value(1.5e-9) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(5e-9), 1.0);
        let p = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]);
        assert!((p.value(0.5) - 1.0).abs() < 1e-12);
        assert!((p.value(1.5) - 1.5).abs() < 1e-12);
        assert_eq!(p.value(-1.0), 0.0);
        assert_eq!(p.value(3.0), 1.0);
        assert_eq!(Waveform::Dc(0.7).value(123.0), 0.7);
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
        let tran = TranAnalysis::new(10e-9, 5e-6);
        let res = tran
            .run(
                &ckt,
                &[(
                    vs,
                    Waveform::Step {
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
    fn backward_euler_also_converges() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let vs = ckt.vsource(vin, Circuit::GROUND, 0.0);
        ckt.resistor(vin, out, 1_000.0);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        let mut tran = TranAnalysis::new(20e-9, 4e-6);
        tran.method = Integrator::BackwardEuler;
        let res = tran
            .run(
                &ckt,
                &[(
                    vs,
                    Waveform::Step {
                        v0: 0.0,
                        v1: 1.0,
                        t0: 0.0,
                        t_rise: 1e-12,
                    },
                )],
            )
            .unwrap();
        let v_end = *res.voltage(out).last().unwrap();
        assert!((v_end - 1.0).abs() < 0.02, "end value {v_end}");
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
        let tran = TranAnalysis::new(100e-9, 1e-6);
        let res = tran.run(&ckt, &[]).unwrap();
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
        let tran = TranAnalysis::new(0.2e-9, 60e-9);
        let res = tran
            .run(
                &ckt,
                &[(
                    vs,
                    Waveform::Step {
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
        let tran = TranAnalysis::new(5e-12, 4e-9);
        let res = tran
            .run(
                &ckt,
                &[(
                    vs,
                    Waveform::Step {
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
        let tran = TranAnalysis::new(1e-12, 2e-9);
        let res = tran
            .run(
                &ckt,
                &[(
                    vin,
                    Waveform::Step {
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
