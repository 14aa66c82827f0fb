//! DC operating-point analysis: Newton–Raphson on the MNA equations,
//! with gmin stepping and source stepping homotopies as fallbacks.

use crate::mosfet::{self, MosEval};
use crate::netlist::{Circuit, InductorId, MosId, NodeId, VsourceId};
use crate::{Result, SpiceError};
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::Matrix;

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Node voltages indexed by [`NodeId::index`]; entry 0 (ground) is 0.
    voltages: Vec<f64>,
    /// Branch currents: voltage sources first, then inductors.
    branch_currents: Vec<f64>,
    /// Number of voltage-source branches (the inductor block starts
    /// after them).
    num_vsources: usize,
    /// Small-signal state of every MOSFET at the operating point.
    mos_evals: Vec<MosEval>,
}

impl OperatingPoint {
    /// Voltage at a node.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages (index 0 is ground).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through a voltage source, flowing from its `plus`
    /// terminal through the source to `minus` (SPICE convention: a
    /// supply sourcing current reads negative).
    pub fn vsource_current(&self, id: VsourceId) -> f64 {
        self.branch_currents[id.0]
    }

    /// Small-signal state (`id`, `gm`, `gds`) of a MOSFET.
    pub fn mos_eval(&self, id: MosId) -> MosEval {
        self.mos_evals[id.0]
    }

    /// DC current through an inductor, flowing a→b.
    pub fn inductor_current(&self, id: InductorId) -> f64 {
        self.branch_currents[self.num_vsources + id.0]
    }

    pub(crate) fn mos_evals(&self) -> &[MosEval] {
        &self.mos_evals
    }

    /// Renders a human-readable operating-point report: node voltages,
    /// source branch currents and per-MOSFET bias state — the
    /// `.op` printout of a classic SPICE.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write into a String cannot fail"
    )]
    pub fn report(&self, ckt: &Circuit) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "node voltages:");
        for i in 1..ckt.num_nodes() {
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} V",
                ckt.node_name(NodeId(i)),
                self.voltages[i]
            );
        }
        if ckt.num_vsources() > 0 {
            let _ = writeln!(out, "source currents:");
            for k in 0..ckt.num_vsources() {
                let _ = writeln!(out, "  V{:<11} {:>12.4e} A", k, self.branch_currents[k]);
            }
        }
        if !self.mos_evals.is_empty() {
            let _ = writeln!(out, "mosfets:");
            for (k, e) in self.mos_evals.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  M{:<3} id = {:>11.4e} A   gm = {:>10.4e} S   gds = {:>10.4e} S",
                    k, e.id, e.gm, e.gds
                );
            }
        }
        out
    }
}

/// DC Newton–Raphson configuration.
#[derive(Debug, Clone)]
pub struct DcAnalysis {
    /// Maximum Newton iterations per attempt.
    pub max_iter: usize,
    /// Absolute voltage convergence tolerance (V).
    pub vtol: f64,
    /// Relative convergence tolerance.
    pub rtol: f64,
    /// Final shunt conductance added drain–source and node–ground (S).
    pub gmin: f64,
    /// Per-iteration node-voltage step limit (V); damps Newton.
    pub vstep_max: f64,
}

impl Default for DcAnalysis {
    fn default() -> Self {
        DcAnalysis {
            max_iter: 200,
            vtol: 1e-9,
            rtol: 1e-9,
            gmin: 1e-12,
            vstep_max: 0.5,
        }
    }
}

impl DcAnalysis {
    /// Solves for the DC operating point.
    ///
    /// Tries plain Newton from a zero initial guess, then gmin
    /// stepping, then source stepping.
    ///
    /// # Errors
    ///
    /// - [`SpiceError::BadNetlist`] from netlist validation;
    /// - [`SpiceError::SingularMatrix`] for structurally singular MNA
    ///   systems;
    /// - [`SpiceError::NoConvergence`] if all homotopies fail.
    pub fn solve(&self, ckt: &Circuit) -> Result<OperatingPoint> {
        self.solve_with_nodeset(ckt, &[])
    }

    /// Solves for the DC operating point starting from a `.nodeset`
    /// initial guess — node voltages seeded at the given values. Use
    /// this to steer Newton toward the intended solution when a
    /// feedback loop admits several (e.g. a railed amplifier state).
    ///
    /// # Errors
    ///
    /// As [`Self::solve`].
    pub fn solve_with_nodeset(
        &self,
        ckt: &Circuit,
        nodeset: &[(NodeId, f64)],
    ) -> Result<OperatingPoint> {
        ckt.validate()?;
        let dim = ckt.mna_dim();
        let mut x = vec![0.0; dim];
        for &(node, v) in nodeset {
            if node.index() > 0 {
                x[node.index() - 1] = v;
            }
        }
        let seed = x.clone();
        // 1. Plain Newton from the (possibly seeded) guess.
        if self.newton(ckt, &mut x, self.gmin, 1.0).is_ok() {
            return Ok(self.finish(ckt, &x));
        }
        // 2. Gmin stepping: start heavily shunted, relax.
        let mut x2 = seed.clone();
        let mut ok = true;
        let mut g = 1e-2;
        while g >= self.gmin {
            if self.newton(ckt, &mut x2, g, 1.0).is_err() {
                ok = false;
                break;
            }
            g *= 1e-2;
        }
        if ok && self.newton(ckt, &mut x2, self.gmin, 1.0).is_ok() {
            return Ok(self.finish(ckt, &x2));
        }
        // 3. Source stepping: ramp all independent sources.
        // Gmin floor during stepping: keeps the Jacobian invertible on
        // partially ramped sources even when the configured gmin is
        // smaller (1 nS — far below any modeled conductance).
        const STEPPING_GMIN: f64 = 1e-9;
        let mut x3 = seed;
        let steps = 20;
        for s in 1..=steps {
            let scale = s as f64 / steps as f64;
            if self
                .newton(ckt, &mut x3, self.gmin.max(STEPPING_GMIN), scale)
                .is_err()
            {
                return Err(SpiceError::NoConvergence {
                    analysis: "DC (source stepping)",
                    iterations: self.max_iter,
                });
            }
        }
        self.newton(ckt, &mut x3, self.gmin, 1.0)
            .map_err(|_| SpiceError::NoConvergence {
                analysis: "DC",
                iterations: self.max_iter,
            })?;
        Ok(self.finish(ckt, &x3))
    }

    /// Runs Newton iterations in place on `x`. `src_scale` scales all
    /// independent sources (for source stepping).
    fn newton(&self, ckt: &Circuit, x: &mut [f64], gmin: f64, src_scale: f64) -> Result<()> {
        let nn = ckt.num_nodes() - 1;
        for _it in 0..self.max_iter {
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
                    dx = dx.clamp(-self.vstep_max, self.vstep_max);
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
            if max_dv <= self.vtol + self.rtol * vmax {
                return Ok(());
            }
        }
        Err(SpiceError::NoConvergence {
            analysis: "DC Newton",
            iterations: self.max_iter,
        })
    }

    fn finish(&self, ckt: &Circuit, x: &[f64]) -> OperatingPoint {
        let nn = ckt.num_nodes() - 1;
        let mut voltages = vec![0.0; ckt.num_nodes()];
        voltages[1..].copy_from_slice(&x[..nn]);
        let branch_currents = x[nn..].to_vec();
        let mos_evals = ckt
            .mosfets
            .iter()
            .map(|m| {
                mosfet::eval_device(
                    &m.params,
                    voltages[m.d.index()],
                    voltages[m.g.index()],
                    voltages[m.s.index()],
                )
            })
            .collect();
        OperatingPoint {
            voltages,
            branch_currents,
            num_vsources: ckt.num_vsources(),
            mos_evals,
        }
    }
}

/// Assembles the linearized MNA system `A·x_new = b` at candidate
/// solution `x`. Shared by DC ([`DcAnalysis`]) and transient (which
/// adds capacitor companion stamps on top).
pub(crate) fn assemble(ckt: &Circuit, x: &[f64], gmin: f64, src_scale: f64) -> (Matrix, Vec<f64>) {
    let nn = ckt.num_nodes() - 1;
    let dim = ckt.mna_dim();
    let mut a = Matrix::zeros(dim, dim);
    let mut b = vec![0.0; dim];
    let volt = |x: &[f64], node: NodeId| -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            x[node.index() - 1]
        }
    };
    // Helper closures for stamping with ground elision.
    let stamp_g = |a: &mut Matrix, n1: NodeId, n2: NodeId, g: f64| {
        let (i, j) = (n1.index(), n2.index());
        if i > 0 {
            a[(i - 1, i - 1)] += g;
        }
        if j > 0 {
            a[(j - 1, j - 1)] += g;
        }
        if i > 0 && j > 0 {
            a[(i - 1, j - 1)] -= g;
            a[(j - 1, i - 1)] -= g;
        }
    };
    for r in &ckt.resistors {
        stamp_g(&mut a, r.a, r.b, 1.0 / r.ohms);
    }
    // Node-to-ground gmin keeps floating gates solvable.
    for i in 0..nn {
        a[(i, i)] += gmin;
    }
    for (k, v) in ckt.vsources.iter().enumerate() {
        let row = nn + k;
        if v.plus.index() > 0 {
            a[(v.plus.index() - 1, row)] += 1.0;
            a[(row, v.plus.index() - 1)] += 1.0;
        }
        if v.minus.index() > 0 {
            a[(v.minus.index() - 1, row)] -= 1.0;
            a[(row, v.minus.index() - 1)] -= 1.0;
        }
        b[row] = v.dc * src_scale;
    }
    // Inductors at DC: ideal shorts (v_a − v_b = 0) with a branch
    // current unknown, exactly like a 0-V source.
    for (k, l) in ckt.inductors.iter().enumerate() {
        let row = nn + ckt.vsources.len() + k;
        if l.a.index() > 0 {
            a[(l.a.index() - 1, row)] += 1.0;
            a[(row, l.a.index() - 1)] += 1.0;
        }
        if l.b.index() > 0 {
            a[(l.b.index() - 1, row)] -= 1.0;
            a[(row, l.b.index() - 1)] -= 1.0;
        }
    }
    for s in &ckt.isources {
        let i = s.dc * src_scale;
        if s.to.index() > 0 {
            b[s.to.index() - 1] += i;
        }
        if s.from.index() > 0 {
            b[s.from.index() - 1] -= i;
        }
    }
    for g in &ckt.vccs {
        // Current g·v_ctrl leaves out_plus, enters out_minus.
        let stamp = |a: &mut Matrix, out: NodeId, ctrl: NodeId, val: f64| {
            if out.index() > 0 && ctrl.index() > 0 {
                a[(out.index() - 1, ctrl.index() - 1)] += val;
            }
        };
        stamp(&mut a, g.out_plus, g.ctrl_plus, g.g);
        stamp(&mut a, g.out_plus, g.ctrl_minus, -g.g);
        stamp(&mut a, g.out_minus, g.ctrl_plus, -g.g);
        stamp(&mut a, g.out_minus, g.ctrl_minus, g.g);
    }
    for d in &ckt.diodes {
        let vd = volt(x, d.anode) - volt(x, d.cathode);
        let (id, gd) = crate::netlist::diode_eval(&d.params, vd);
        let ieq = id - gd * vd;
        let (a_i, c_i) = (d.anode.index(), d.cathode.index());
        if a_i > 0 {
            a[(a_i - 1, a_i - 1)] += gd;
            if c_i > 0 {
                a[(a_i - 1, c_i - 1)] -= gd;
            }
            b[a_i - 1] -= ieq;
        }
        if c_i > 0 {
            a[(c_i - 1, c_i - 1)] += gd;
            if a_i > 0 {
                a[(c_i - 1, a_i - 1)] -= gd;
            }
            b[c_i - 1] += ieq;
        }
        stamp_g(&mut a, d.anode, d.cathode, gmin);
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
            if d > 0 {
                a[(d - 1, d - 1)] += e.gds;
            }
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
        stamp_g(&mut a, m.d, m.s, gmin);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosParams, MosType};

    fn solve(ckt: &Circuit) -> OperatingPoint {
        DcAnalysis::default().solve(ckt).expect("DC convergence")
    }

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 3.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = solve(&c);
        assert!((op.voltage(out) - 1.0).abs() < 1e-8);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vsource_current_is_negative_when_sourcing() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let vs = c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, Circuit::GROUND, 100.0);
        let op = solve(&c);
        // 10 mA flows out of the + terminal → branch current = −10 mA.
        assert!((op.vsource_current(vs) + 0.01).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource(Circuit::GROUND, a, 1e-3);
        c.resistor(a, Circuit::GROUND, 5_000.0);
        let op = solve(&c);
        assert!((op.voltage(a) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_acts_as_transconductor() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(inp, Circuit::GROUND, 0.5);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        // i = 1 mS · v(in), pulled from `out` to ground → v(out) = −0.5 V.
        c.vccs(out, Circuit::GROUND, inp, Circuit::GROUND, 1e-3);
        let op = solve(&c);
        assert!((op.voltage(out) + 0.5).abs() < 1e-6);
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
        let m = c.mosfet(d, d, Circuit::GROUND, params);
        let op = solve(&c);
        let v = op.voltage(d);
        // KCL: (1.2 − v)/10k = β/2·(v − 0.4)².
        let beta = params.beta();
        let lhs = (1.2 - v) / 10_000.0;
        let rhs = 0.5 * beta * (v - 0.4) * (v - 0.4);
        assert!((lhs - rhs).abs() < 1e-9, "v={v} lhs={lhs} rhs={rhs}");
        assert!(v > 0.4 && v < 1.2);
        assert!(op.mos_eval(m).id > 0.0);
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
        let op = solve(&c);
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
        let op = solve(&c);
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
        assert!(matches!(
            DcAnalysis::default().solve(&c),
            Err(SpiceError::BadNetlist(_))
        ));
    }

    #[test]
    fn nan_source_is_a_bad_netlist() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, f64::NAN);
        c.resistor(a, Circuit::GROUND, 1_000.0);
        assert!(matches!(
            DcAnalysis::default().solve(&c),
            Err(SpiceError::BadNetlist(_))
        ));
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
        let res = DcAnalysis::default().solve(&c);
        assert!(
            matches!(res, Err(SpiceError::NoConvergence { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn op_report_names_everything() {
        let mut c = Circuit::new();
        let vin = c.node("supply");
        let out = c.node("load_node");
        c.vsource(vin, Circuit::GROUND, 3.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = DcAnalysis::default().solve(&c).unwrap();
        let report = op.report(&c);
        assert!(report.contains("supply"), "{report}");
        assert!(report.contains("load_node"), "{report}");
        assert!(report.contains("source currents"), "{report}");
        assert!(!report.contains("mosfets"), "{report}");
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
        let lo = solve(&build(0.0));
        let hi = solve(&build(1.2));
        let out_lo = lo.voltage(NodeId(3));
        let out_hi = hi.voltage(NodeId(3));
        assert!(out_lo > 1.1, "out at vin=0: {out_lo}");
        assert!(out_hi < 0.1, "out at vin=1.2: {out_hi}");
    }
}

#[cfg(test)]
mod diode_tests {
    use super::*;
    use crate::netlist::DiodeParams;

    #[test]
    fn diode_resistor_bias_satisfies_shockley() {
        // V → R → diode → gnd: KCL (V − vd)/R = Is(exp(vd/nVT) − 1).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let d = c.node("d");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, d, 1_000.0);
        let params = DiodeParams::default();
        c.diode(d, Circuit::GROUND, params);
        let op = DcAnalysis::default().solve(&c).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.4 && vd < 0.8, "junction voltage {vd}");
        let i_r = (1.0 - vd) / 1_000.0;
        let i_d = params.is * ((vd / (params.n * 0.02585)).exp() - 1.0);
        // gmin shunts contribute ~1e-12 A; allow for them.
        assert!(
            (i_r - i_d).abs() < 1e-6 * i_r.max(1e-30),
            "KCL violated: {i_r} vs {i_d}"
        );
    }

    #[test]
    fn reverse_biased_diode_blocks() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let d = c.node("d");
        let vs = c.vsource(vin, Circuit::GROUND, -1.0);
        c.resistor(vin, d, 1_000.0);
        c.diode(d, Circuit::GROUND, DiodeParams::default());
        let op = DcAnalysis::default().solve(&c).unwrap();
        // Reverse current ≈ Is: node d sits at almost the full −1 V.
        assert!(op.voltage(d) < -0.99, "v(d) = {}", op.voltage(d));
        assert!(op.vsource_current(vs).abs() < 1e-9);
    }

    #[test]
    fn hard_forward_drive_converges_via_limiting() {
        // 5 V straight into a diode through 10 Ω: the naive exponential
        // would overflow; the C¹ extension plus damping must converge.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let d = c.node("d");
        c.vsource(vin, Circuit::GROUND, 5.0);
        c.resistor(vin, d, 10.0);
        c.diode(d, Circuit::GROUND, DiodeParams::default());
        let op = DcAnalysis::default().solve(&c).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.6 && vd < 1.1, "junction voltage {vd}");
    }

    #[test]
    fn diode_small_signal_conductance_in_ac() {
        use crate::ac::AcAnalysis;
        let mut c = Circuit::new();
        let vin = c.node("in");
        let d = c.node("d");
        c.vsource_ac(vin, Circuit::GROUND, 0.8, 1.0);
        let r = 10_000.0;
        c.resistor(vin, d, r);
        let params = DiodeParams::default();
        c.diode(d, Circuit::GROUND, params);
        let op = DcAnalysis::default().solve(&c).unwrap();
        let vd = op.voltage(d);
        let gd = params.is * (vd / (params.n * 0.02585)).exp() / (params.n * 0.02585);
        let sweep = AcAnalysis::default().sweep(&c, &op, &[10.0]).unwrap();
        // Divider: |v(d)| = (1/gd) / (R + 1/gd).
        let expect = (1.0 / gd) / (r + 1.0 / gd);
        let got = sweep.magnitude(d)[0];
        assert!(
            (got - expect).abs() / expect < 1e-3,
            "AC divider {got} vs {expect}"
        );
    }
}
