//! DC operating-point analysis: Newton–Raphson on the MNA equations,
//! with gmin stepping and source stepping homotopies as fallbacks.

use crate::mosfet;
use crate::netlist::{Circuit, NodeId, VsourceId};
use crate::{Result, SpiceError, GMIN};
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::Matrix;

/// Maximum Newton iterations per attempt.
const MAX_ITER: usize = 200;
/// Absolute voltage convergence tolerance (V).
const VTOL: f64 = 1e-9;
/// Relative convergence tolerance.
const RTOL: f64 = 1e-9;
/// Per-iteration node-voltage step limit (V); damps Newton.
const VSTEP_MAX: f64 = 0.5;

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The MNA solution: the non-ground node voltages, then the branch
    /// currents of the voltage sources and then of the inductors.
    x: Vec<f64>,
    /// Number of non-ground nodes (where the branch currents start).
    nn: usize,
}

impl OperatingPoint {
    /// Voltage at a node.
    pub fn voltage(&self, node: NodeId) -> f64 {
        volt(&self.x, node)
    }

    /// Current through a voltage source, flowing from its `plus`
    /// terminal through the source to `minus` (SPICE convention: a
    /// supply sourcing current reads negative).
    pub fn vsource_current(&self, id: VsourceId) -> f64 {
        self.x[self.nn + id.0]
    }

    /// The MNA solution vector, laid out as [`assemble`] expects.
    pub(crate) fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Solves for the DC operating point.
///
/// Tries plain Newton from a zero initial guess, then gmin stepping,
/// then source stepping.
///
/// # Errors
///
/// - [`SpiceError::BadNetlist`] from netlist validation;
/// - [`SpiceError::SingularMatrix`] for structurally singular MNA
///   systems;
/// - [`SpiceError::NoConvergence`] if all homotopies fail.
pub fn solve(ckt: &Circuit) -> Result<OperatingPoint> {
    solve_with_nodeset(ckt, &[])
}

/// Solves for the DC operating point starting from a `.nodeset`
/// initial guess — node voltages seeded at the given values. Use this
/// to steer Newton toward the intended solution when a feedback loop
/// admits several (e.g. a railed amplifier state).
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_nodeset(ckt: &Circuit, nodeset: &[(NodeId, f64)]) -> Result<OperatingPoint> {
    ckt.validate()?;
    let mut x = vec![0.0; ckt.mna_dim()];
    for &(node, v) in nodeset {
        if node.index() > 0 {
            x[node.index() - 1] = v;
        }
    }
    let seed = x.clone();
    let finish = |x: Vec<f64>| OperatingPoint {
        x,
        nn: ckt.num_nodes() - 1,
    };
    // 1. Plain Newton from the (possibly seeded) guess.
    if newton(ckt, &mut x, GMIN, 1.0).is_ok() {
        return Ok(finish(x));
    }
    // 2. Gmin stepping: start heavily shunted, relax.
    let mut x2 = seed.clone();
    let mut ok = true;
    let mut g = 1e-2;
    while g >= GMIN {
        if newton(ckt, &mut x2, g, 1.0).is_err() {
            ok = false;
            break;
        }
        g *= 1e-2;
    }
    if ok && newton(ckt, &mut x2, GMIN, 1.0).is_ok() {
        return Ok(finish(x2));
    }
    // 3. Source stepping: ramp all independent sources, with a gmin
    // floor that keeps the Jacobian invertible on partially ramped
    // sources (1 nS — far below any modeled conductance).
    const STEPPING_GMIN: f64 = 1e-9;
    let mut x3 = seed;
    let steps = 20;
    for s in 1..=steps {
        let scale = s as f64 / steps as f64;
        if newton(ckt, &mut x3, STEPPING_GMIN, scale).is_err() {
            return Err(SpiceError::NoConvergence {
                analysis: "DC (source stepping)",
                iterations: MAX_ITER,
            });
        }
    }
    newton(ckt, &mut x3, GMIN, 1.0).map_err(|_| SpiceError::NoConvergence {
        analysis: "DC",
        iterations: MAX_ITER,
    })?;
    Ok(finish(x3))
}

/// Runs Newton iterations in place on `x`. `src_scale` scales all
/// independent sources (for source stepping).
fn newton(ckt: &Circuit, x: &mut [f64], gmin: f64, src_scale: f64) -> Result<()> {
    let nn = ckt.num_nodes() - 1;
    for _it in 0..MAX_ITER {
        let (a, b) = assemble(ckt, x, gmin, src_scale);
        let lu = LuDecomposition::new(&a).map_err(|_| SpiceError::SingularMatrix {
            context: "DC Jacobian".into(),
        })?;
        let x_new = lu.solve(&b).map_err(|_| SpiceError::SingularMatrix {
            context: "DC solve".into(),
        })?;
        // Damped update on node voltages; currents move freely.
        let mut max_dv = 0.0f64;
        for i in 0..x.len() {
            let mut dx = x_new[i] - x[i];
            if i < nn {
                dx = dx.clamp(-VSTEP_MAX, VSTEP_MAX);
                max_dv = max_dv.max(dx.abs());
            }
            x[i] += dx;
        }
        // `f64::max` drops NaN, so the test below would accept a
        // non-finite iterate; such an iterate never becomes finite
        // again (NaN stays NaN, and an infinite current turns NaN on
        // the next update), so it is a failure at once.
        if x.iter().any(|v| !v.is_finite()) {
            break;
        }
        let vmax = x[..nn].iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max_dv <= VTOL + RTOL * vmax {
            return Ok(());
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "DC Newton",
        iterations: MAX_ITER,
    })
}

/// Voltage of `node` in an MNA vector, which elides ground.
pub(crate) fn volt(x: &[f64], node: NodeId) -> f64 {
    match node.index() {
        0 => 0.0,
        i => x[i - 1],
    }
}

/// Adds conductance `g` between nodes `a` and `b` to `m`; the ground
/// row and column are elided.
pub(crate) fn stamp(m: &mut Matrix, a: NodeId, b: NodeId, g: f64) {
    let (i, j) = (a.index(), b.index());
    if i > 0 {
        m[(i - 1, i - 1)] += g;
    }
    if j > 0 {
        m[(j - 1, j - 1)] += g;
    }
    if i > 0 && j > 0 {
        m[(i - 1, j - 1)] -= g;
        m[(j - 1, i - 1)] -= g;
    }
}

/// Assembles the linearized MNA system `A·x_new = b` at candidate
/// solution `x`. `A` is the Newton Jacobian: at a DC solution it is the
/// small-signal conductance matrix that [`crate::ac::sweep`] uses, and
/// the transient adds its companion stamps on top.
pub(crate) fn assemble(ckt: &Circuit, x: &[f64], gmin: f64, src_scale: f64) -> (Matrix, Vec<f64>) {
    let nn = ckt.num_nodes() - 1;
    let dim = ckt.mna_dim();
    let mut a = Matrix::zeros(dim, dim);
    let mut b = vec![0.0; dim];
    for r in &ckt.resistors {
        stamp(&mut a, r.a, r.b, 1.0 / r.ohms);
    }
    // Node-to-ground gmin keeps floating gates solvable.
    for i in 0..nn {
        a[(i, i)] += gmin;
    }
    // Branch rows: the voltage sources, then the inductors, which are
    // ideal shorts at DC (a 0-V source). Each row k states
    // v_plus − v_minus = b_k and carries the branch current.
    let sources = ckt
        .vsources
        .iter()
        .map(|v| (v.plus, v.minus, v.dc * src_scale));
    let shorts = ckt.inductors.iter().map(|l| (l.a, l.b, 0.0));
    for (k, (plus, minus, v)) in sources.chain(shorts).enumerate() {
        let row = nn + k;
        if plus.index() > 0 {
            a[(plus.index() - 1, row)] += 1.0;
            a[(row, plus.index() - 1)] += 1.0;
        }
        if minus.index() > 0 {
            a[(minus.index() - 1, row)] -= 1.0;
            a[(row, minus.index() - 1)] -= 1.0;
        }
        b[row] = v;
    }
    for m in &ckt.mosfets {
        let vd = volt(x, m.d);
        let vg = volt(x, m.g);
        let vs = volt(x, m.s);
        let e = mosfet::eval_device(&m.params, vd, vg, vs);
        // i_d(into drain) ≈ ieq + gm·vgs + gds·vds.
        let ieq = e.id - e.gm * (vg - vs) - e.gds * (vd - vs);
        let (d, g, s) = (m.d.index(), m.g.index(), m.s.index());
        // Drain row: +i_d leaves node d into the device.
        if d > 0 {
            if g > 0 {
                a[(d - 1, g - 1)] += e.gm;
            }
            a[(d - 1, d - 1)] += e.gds;
            if s > 0 {
                a[(d - 1, s - 1)] -= e.gm + e.gds;
            }
            b[d - 1] -= ieq;
        }
        // Source row: i_d enters node s from the device.
        if s > 0 {
            if g > 0 {
                a[(s - 1, g - 1)] -= e.gm;
            }
            if d > 0 {
                a[(s - 1, d - 1)] -= e.gds;
            }
            a[(s - 1, s - 1)] += e.gm + e.gds;
            b[s - 1] += ieq;
        }
        // Channel shunt keeps cutoff devices from isolating nodes.
        stamp(&mut a, m.d, m.s, gmin);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosParams, MosType};

    fn solve_ok(ckt: &Circuit) -> OperatingPoint {
        solve(ckt).expect("DC convergence")
    }

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 3.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = solve_ok(&c);
        assert!((op.voltage(out) - 1.0).abs() < 1e-8);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vsource_current_is_negative_when_sourcing() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let vs = c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, Circuit::GROUND, 100.0);
        let op = solve_ok(&c);
        // 10 mA flows out of the + terminal → branch current = −10 mA.
        assert!((op.vsource_current(vs) + 0.01).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_nmos_settles_to_square_law() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        c.resistor(vdd, d, 10_000.0);
        let params = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.4,
            kp: 200e-6,
            lambda: 0.0,
            w: 2e-6,
            l: 200e-9,
        };
        c.mosfet(d, d, Circuit::GROUND, params);
        let op = solve_ok(&c);
        let v = op.voltage(d);
        // KCL: (1.2 − v)/10k = β/2·(v − 0.4)².
        let beta = params.beta();
        let lhs = (1.2 - v) / 10_000.0;
        let rhs = 0.5 * beta * (v - 0.4) * (v - 0.4);
        assert!((lhs - rhs).abs() < 1e-9, "v={v} lhs={lhs} rhs={rhs}");
        assert!(v > 0.4 && v < 1.2);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        c.vsource(g, Circuit::GROUND, 0.6);
        c.resistor(vdd, d, 20_000.0);
        let params = MosParams {
            mos_type: MosType::Nmos,
            vth0: 0.4,
            kp: 200e-6,
            lambda: 0.1,
            w: 1e-6,
            l: 100e-9,
        };
        c.mosfet(d, g, Circuit::GROUND, params);
        let op = solve_ok(&c);
        let v = op.voltage(d);
        assert!(v > 0.05 && v < 1.2, "drain voltage {v}");
    }

    #[test]
    fn pmos_source_follower_converges() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let s = c.node("s");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        c.vsource(g, Circuit::GROUND, 0.4);
        c.resistor(vdd, s, 50_000.0);
        let params = MosParams {
            mos_type: MosType::Pmos,
            vth0: 0.35,
            kp: 100e-6,
            lambda: 0.1,
            w: 2e-6,
            l: 100e-9,
        };
        // PMOS: source at `s` (high side), drain at ground.
        c.mosfet(Circuit::GROUND, g, s, params);
        let op = solve_ok(&c);
        let v = op.voltage(s);
        // Source settles roughly a |Vth|+ΔVov above the gate.
        assert!(v > 0.6 && v < 1.2, "source voltage {v}");
    }

    #[test]
    fn floating_node_reported() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _b = c.node("b");
        c.resistor(a, Circuit::GROUND, 1.0);
        assert!(matches!(solve(&c), Err(SpiceError::BadNetlist(_))));
    }

    #[test]
    fn nan_source_is_a_bad_netlist() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, f64::NAN);
        c.resistor(a, Circuit::GROUND, 1_000.0);
        assert!(matches!(solve(&c), Err(SpiceError::BadNetlist(_))));
    }

    #[test]
    fn overflowing_operating_point_is_an_error() {
        // Every value is finite, but 1e300 V across 1e-300 Ω overflows
        // the Newton iterate.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1e300);
        c.resistor(vin, out, 1e-300);
        c.resistor(out, Circuit::GROUND, 1.0);
        let res = solve(&c);
        assert!(
            matches!(res, Err(SpiceError::NoConvergence { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        // Inverter: input low → output ≈ VDD; input high → output ≈ 0.
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.vsource(vdd, Circuit::GROUND, 1.2);
            c.vsource(inp, Circuit::GROUND, vin);
            c.mosfet(out, inp, Circuit::GROUND, MosParams::nmos_65nm());
            c.mosfet(out, inp, vdd, MosParams::pmos_65nm().scaled_width(2.0));
            c
        };
        let lo = solve_ok(&build(0.0));
        let hi = solve_ok(&build(1.2));
        let out_lo = lo.voltage(NodeId(3));
        let out_hi = hi.voltage(NodeId(3));
        assert!(out_lo > 1.1, "out at vin=0: {out_lo}");
        assert!(out_hi < 0.1, "out at vin=1.2: {out_hi}");
    }
}
