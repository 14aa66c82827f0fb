//! Circuit description: nodes and elements.

use crate::mosfet::MosParams;
use crate::{Result, SpiceError};
use std::collections::BTreeMap;

/// A circuit node. [`Circuit::GROUND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Index of a MOSFET instance within a circuit (used to perturb device
/// parameters when sampling process variation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MosId(pub(crate) usize);

/// Index of a voltage source (used to read branch currents, e.g. for
/// supply-power measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VsourceId(pub(crate) usize);

/// Index of an inductor (its branch current is an MNA unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InductorId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: NodeId,
    pub b: NodeId,
    pub ohms: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub a: NodeId,
    pub b: NodeId,
    pub farads: f64,
}

/// Junction diode parameters (Shockley model with first-order
/// high-bias extension for Newton robustness).
#[derive(Debug, Clone, Copy)]
pub struct DiodeParams {
    /// Saturation current (A).
    pub is: f64,
    /// Ideality factor.
    pub n: f64,
    /// Fixed junction capacitance (F).
    pub cj: f64,
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams {
            is: 1e-14,
            n: 1.0,
            cj: 10e-15,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Diode {
    pub anode: NodeId,
    pub cathode: NodeId,
    pub params: DiodeParams,
}

#[derive(Debug, Clone)]
pub(crate) struct Inductor {
    pub a: NodeId,
    pub b: NodeId,
    pub henries: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Vsource {
    pub plus: NodeId,
    pub minus: NodeId,
    pub dc: f64,
    /// AC magnitude for small-signal analysis (phase 0).
    pub ac: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Isource {
    /// Current flows from `from` through the source into `to`
    /// (i.e. it *injects* into `to`).
    pub from: NodeId,
    pub to: NodeId,
    pub dc: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Vccs {
    pub out_plus: NodeId,
    pub out_minus: NodeId,
    pub ctrl_plus: NodeId,
    pub ctrl_minus: NodeId,
    /// Transconductance (A/V): current `g·v_ctrl` flows out_plus→out_minus
    /// internally (injected into `out_minus`, drawn from `out_plus`).
    pub g: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Mosfet {
    pub d: NodeId,
    pub g: NodeId,
    pub s: NodeId,
    pub params: MosParams,
    /// Fixed gate-source capacitance (F).
    pub cgs: f64,
    /// Fixed gate-drain (overlap/Miller) capacitance (F).
    pub cgd: f64,
    /// Fixed drain-bulk(=ground) junction capacitance (F).
    pub cdb: f64,
}

/// Evaluates the diode current and small-signal conductance at a
/// junction voltage `vd`, with a C¹ linear extension above
/// `x = vd/(n·V_T) > 40` so Newton cannot overflow the exponential.
pub(crate) fn diode_eval(p: &DiodeParams, vd: f64) -> (f64, f64) {
    const VT: f64 = 0.02585; // thermal voltage at 300 K
    const XMAX: f64 = 40.0;
    let nvt = p.n * VT;
    let x = vd / nvt;
    if x <= XMAX {
        let e = x.exp();
        (p.is * (e - 1.0), p.is * e / nvt)
    } else {
        let e = XMAX.exp();
        // First-order extension: value and slope continuous at XMAX.
        let id = p.is * (e * (1.0 + (x - XMAX)) - 1.0);
        let gd = p.is * e / nvt;
        (id, gd)
    }
}

/// A flat transistor-level circuit.
///
/// Build with the `node`/`resistor`/`capacitor`/… methods; then hand to
/// [`crate::dc::DcAnalysis`], [`crate::ac::AcAnalysis`] or
/// [`crate::tran::TranAnalysis`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    by_name: BTreeMap<String, NodeId>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) inductors: Vec<Inductor>,
    pub(crate) diodes: Vec<Diode>,
    pub(crate) vsources: Vec<Vsource>,
    pub(crate) isources: Vec<Isource>,
    pub(crate) vccs: Vec<Vccs>,
    pub(crate) mosfets: Vec<Mosfet>,
}

impl Circuit {
    /// The reference (ground) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            names: vec!["0".to_string()],
            ..Default::default()
        };
        c.by_name.insert("0".to_string(), NodeId(0));
        c
    }

    /// Returns the node with the given name, creating it if needed.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Node name (for diagnostics).
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of independent voltage sources.
    pub fn num_vsources(&self) -> usize {
        self.vsources.len()
    }

    /// Size of the MNA system: `(nodes − 1) + vsources + inductors`
    /// (each voltage source and each inductor carries a branch-current
    /// unknown).
    pub fn mna_dim(&self) -> usize {
        self.num_nodes() - 1 + self.vsources.len() + self.inductors.len()
    }

    /// Number of inductors.
    pub fn num_inductors(&self) -> usize {
        self.inductors.len()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(ohms > 0.0 && ohms.is_finite(), "resistor must be positive");
        self.resistors.push(Resistor { a, b, ohms });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or non-finite.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        assert!(
            farads >= 0.0 && farads.is_finite(),
            "capacitance must be non-negative"
        );
        self.capacitors.push(Capacitor { a, b, farads });
    }

    /// Adds a junction diode (anode → cathode).
    pub fn diode(&mut self, anode: NodeId, cathode: NodeId, params: DiodeParams) {
        self.diodes.push(Diode {
            anode,
            cathode,
            params,
        });
    }

    /// Adds an inductor. Ideal short at DC; `v = L·di/dt` in transient;
    /// impedance `jωL` in AC.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> InductorId {
        assert!(
            henries > 0.0 && henries.is_finite(),
            "inductance must be positive"
        );
        self.inductors.push(Inductor { a, b, henries });
        InductorId(self.inductors.len() - 1)
    }

    /// Adds an independent DC voltage source (`plus` − `minus` = `dc`).
    /// Returns the source id for branch-current readback.
    pub fn vsource(&mut self, plus: NodeId, minus: NodeId, dc: f64) -> VsourceId {
        self.vsources.push(Vsource {
            plus,
            minus,
            dc,
            ac: 0.0,
        });
        VsourceId(self.vsources.len() - 1)
    }

    /// Adds a voltage source with both a DC level and an AC small-signal
    /// magnitude (the AC stimulus for [`crate::ac::AcAnalysis`]).
    pub fn vsource_ac(&mut self, plus: NodeId, minus: NodeId, dc: f64, ac: f64) -> VsourceId {
        self.vsources.push(Vsource {
            plus,
            minus,
            dc,
            ac,
        });
        VsourceId(self.vsources.len() - 1)
    }

    /// Adds an independent DC current source pushing `dc` amps into `to`
    /// (and out of `from`).
    pub fn isource(&mut self, from: NodeId, to: NodeId, dc: f64) {
        self.isources.push(Isource { from, to, dc });
    }

    /// Adds a voltage-controlled current source:
    /// `i = g·(v(ctrl_plus) − v(ctrl_minus))` flowing from `out_plus`
    /// to `out_minus` through the source.
    pub fn vccs(
        &mut self,
        out_plus: NodeId,
        out_minus: NodeId,
        ctrl_plus: NodeId,
        ctrl_minus: NodeId,
        g: f64,
    ) {
        self.vccs.push(Vccs {
            out_plus,
            out_minus,
            ctrl_plus,
            ctrl_minus,
            g,
        });
    }

    /// Adds a MOSFET with default parasitic capacitances derived from
    /// its geometry (`C_ox ≈ 12 fF/µm²`; `cgs = ⅔·W·L·C_ox`,
    /// `cgd = 0.3·cgs`, `cdb = 0.5·cgs`). Returns the device id.
    pub fn mosfet(&mut self, d: NodeId, g: NodeId, s: NodeId, params: MosParams) -> MosId {
        let cox_per_area = 12e-3; // F/m²  (≈ 12 fF/µm², 65 nm-class)
        let cgs = 2.0 / 3.0 * params.w * params.l * cox_per_area;
        self.mosfet_with_caps(d, g, s, params, cgs, 0.3 * cgs, 0.5 * cgs)
    }

    /// Adds a MOSFET with explicit parasitic capacitances.
    #[expect(
        clippy::too_many_arguments,
        reason = "element constructor: one arg per terminal/cap"
    )]
    pub fn mosfet_with_caps(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: MosParams,
        cgs: f64,
        cgd: f64,
        cdb: f64,
    ) -> MosId {
        self.mosfets.push(Mosfet {
            d,
            g,
            s,
            params,
            cgs,
            cgd,
            cdb,
        });
        MosId(self.mosfets.len() - 1)
    }

    /// Read access to a MOSFET's parameters.
    pub fn mosfet_params(&self, id: MosId) -> &MosParams {
        &self.mosfets[id.0].params
    }

    /// Sets the DC value of a voltage source (e.g. to sweep a bias).
    pub fn set_vsource_dc(&mut self, id: VsourceId, dc: f64) {
        self.vsources[id.0].dc = dc;
    }

    /// Basic validation: every element value is finite, and every
    /// non-ground node has at least one element connection (one still
    /// leaves the node floating in DC, but catches typos early).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] naming the first element with
    /// a NaN or infinite value, or else the first unconnected node.
    pub fn validate(&self) -> Result<()> {
        // Resistors, capacitors and inductors are checked when added.
        let finite = |kind: &str, k: usize, values: &[f64]| {
            if values.iter().all(|v| v.is_finite()) {
                Ok(())
            } else {
                Err(SpiceError::BadNetlist(format!(
                    "{kind} {k} has a non-finite value"
                )))
            }
        };
        for (k, v) in self.vsources.iter().enumerate() {
            finite("voltage source", k, &[v.dc, v.ac])?;
        }
        for (k, i) in self.isources.iter().enumerate() {
            finite("current source", k, &[i.dc])?;
        }
        for (k, g) in self.vccs.iter().enumerate() {
            finite("VCCS", k, &[g.g])?;
        }
        for (k, d) in self.diodes.iter().enumerate() {
            let p = &d.params;
            finite("diode", k, &[p.is, p.n, p.cj])?;
        }
        for (k, m) in self.mosfets.iter().enumerate() {
            let p = &m.params;
            let values = [p.vth0, p.kp, p.lambda, p.w, p.l, m.cgs, m.cgd, m.cdb];
            finite("MOSFET", k, &values)?;
        }
        let n = self.num_nodes();
        let mut degree = vec![0usize; n];
        let bump = |id: NodeId, degree: &mut Vec<usize>| degree[id.0] += 1;
        for r in &self.resistors {
            bump(r.a, &mut degree);
            bump(r.b, &mut degree);
        }
        for c in &self.capacitors {
            bump(c.a, &mut degree);
            bump(c.b, &mut degree);
        }
        for v in &self.vsources {
            bump(v.plus, &mut degree);
            bump(v.minus, &mut degree);
        }
        for l in &self.inductors {
            bump(l.a, &mut degree);
            bump(l.b, &mut degree);
        }
        for d in &self.diodes {
            bump(d.anode, &mut degree);
            bump(d.cathode, &mut degree);
        }
        for i in &self.isources {
            bump(i.from, &mut degree);
            bump(i.to, &mut degree);
        }
        for g in &self.vccs {
            bump(g.out_plus, &mut degree);
            bump(g.out_minus, &mut degree);
            bump(g.ctrl_plus, &mut degree);
            bump(g.ctrl_minus, &mut degree);
        }
        for m in &self.mosfets {
            bump(m.d, &mut degree);
            bump(m.g, &mut degree);
            bump(m.s, &mut degree);
        }
        for (i, &d) in degree.iter().enumerate().skip(1) {
            if d == 0 {
                return Err(SpiceError::BadNetlist(format!(
                    "node '{}' is not connected to anything",
                    self.names[i]
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosParams;

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node_name(Circuit::GROUND), "0");
    }

    #[test]
    fn mna_dim_counts_vsources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(a, b, 1.0);
        assert_eq!(c.mna_dim(), 2);
        c.vsource(a, Circuit::GROUND, 1.0);
        assert_eq!(c.mna_dim(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacitor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GROUND, -1e-12);
    }

    #[test]
    fn validate_flags_non_finite_values() {
        let grounded = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.resistor(a, Circuit::GROUND, 10.0);
            (c, a)
        };
        let (mut c, a) = grounded();
        c.vsource_ac(a, Circuit::GROUND, 1.0, f64::NAN);
        let (mut d, a) = grounded();
        d.isource(Circuit::GROUND, a, f64::INFINITY);
        let (mut e, a) = grounded();
        let params = MosParams {
            kp: f64::NEG_INFINITY,
            ..MosParams::nmos_65nm()
        };
        e.mosfet(a, a, Circuit::GROUND, params);
        for (ckt, kind) in [
            (c, "voltage source 0"),
            (d, "current source 0"),
            (e, "MOSFET 0"),
        ] {
            match ckt.validate() {
                Err(SpiceError::BadNetlist(msg)) => assert!(msg.contains(kind), "{msg}"),
                other => panic!("{kind}: {other:?}"),
            }
        }
    }

    #[test]
    fn validate_flags_floating_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _dangling = c.node("dangling");
        c.resistor(a, Circuit::GROUND, 10.0);
        let err = c.validate().unwrap_err();
        match err {
            SpiceError::BadNetlist(msg) => assert!(msg.contains("dangling")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn default_caps_scale_with_geometry() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let small = c.mosfet(d, g, Circuit::GROUND, MosParams::nmos_65nm());
        let big = c.mosfet(
            d,
            g,
            Circuit::GROUND,
            MosParams::nmos_65nm().scaled_width(4.0),
        );
        assert!(c.mosfets[big.0].cgs > 3.9 * c.mosfets[small.0].cgs);
    }
}
