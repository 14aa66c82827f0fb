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

/// Index of a voltage source (used to read branch currents, e.g. for
/// supply-power measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VsourceId(pub(crate) usize);

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

/// A flat transistor-level circuit.
///
/// Build with the `node`/`resistor`/`capacitor`/… methods; then hand to
/// [`crate::dc::solve`] (and the operating point to
/// [`crate::ac::sweep`]) or to [`crate::tran::run`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    by_name: BTreeMap<String, NodeId>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) inductors: Vec<Inductor>,
    pub(crate) vsources: Vec<Vsource>,
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

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Size of the MNA system: `(nodes − 1) + vsources + inductors`
    /// (each voltage source and each inductor carries a branch-current
    /// unknown).
    pub fn mna_dim(&self) -> usize {
        self.num_nodes() - 1 + self.vsources.len() + self.inductors.len()
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

    /// Adds an inductor. Ideal short at DC; `v = L·di/dt` in transient;
    /// impedance `jωL` in AC.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) {
        assert!(
            henries > 0.0 && henries.is_finite(),
            "inductance must be positive"
        );
        self.inductors.push(Inductor { a, b, henries });
    }

    /// Adds an independent DC voltage source (`plus` − `minus` = `dc`).
    /// Returns the source id for branch-current readback.
    pub fn vsource(&mut self, plus: NodeId, minus: NodeId, dc: f64) -> VsourceId {
        self.vsource_ac(plus, minus, dc, 0.0)
    }

    /// Adds a voltage source with both a DC level and an AC small-signal
    /// magnitude (the AC stimulus for [`crate::ac::sweep`]).
    pub fn vsource_ac(&mut self, plus: NodeId, minus: NodeId, dc: f64, ac: f64) -> VsourceId {
        self.vsources.push(Vsource {
            plus,
            minus,
            dc,
            ac,
        });
        VsourceId(self.vsources.len() - 1)
    }

    /// Adds a MOSFET with parasitic capacitances derived from its
    /// geometry (`C_ox ≈ 12 fF/µm²`; `cgs = ⅔·W·L·C_ox`,
    /// `cgd = 0.3·cgs`, `cdb = 0.5·cgs`).
    pub fn mosfet(&mut self, d: NodeId, g: NodeId, s: NodeId, params: MosParams) {
        let cox_per_area = 12e-3; // F/m²  (≈ 12 fF/µm², 65 nm-class)
        let cgs = 2.0 / 3.0 * params.w * params.l * cox_per_area;
        self.mosfets.push(Mosfet {
            d,
            g,
            s,
            params,
            cgs,
            cgd: 0.3 * cgs,
            cdb: 0.5 * cgs,
        });
    }

    /// Sets the DC value of a voltage source (e.g. to sweep a bias).
    pub fn set_vsource_dc(&mut self, id: VsourceId, dc: f64) {
        self.vsources[id.0].dc = dc;
    }

    /// Every capacitance as `(a, b, farads)`: the capacitors, then each
    /// MOSFET's `cgs`, `cgd` and `cdb`. AC stamps these into `C`, and
    /// the transient builds its companion models from them.
    pub(crate) fn capacitances(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let explicit = self.capacitors.iter().map(|c| (c.a, c.b, c.farads));
        let parasitic = self.mosfets.iter().flat_map(|m| {
            [
                (m.g, m.s, m.cgs),
                (m.g, m.d, m.cgd),
                (m.d, Circuit::GROUND, m.cdb),
            ]
        });
        explicit.chain(parasitic)
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
        for (k, m) in self.mosfets.iter().enumerate() {
            let p = &m.params;
            let values = [p.vth0, p.kp, p.lambda, p.w, p.l, m.cgs, m.cgd, m.cdb];
            finite("MOSFET", k, &values)?;
        }
        let mut connected = vec![false; self.num_nodes()];
        let terminals = self
            .resistors
            .iter()
            .flat_map(|r| [r.a, r.b])
            .chain(self.capacitors.iter().flat_map(|c| [c.a, c.b]))
            .chain(self.inductors.iter().flat_map(|l| [l.a, l.b]))
            .chain(self.vsources.iter().flat_map(|v| [v.plus, v.minus]))
            .chain(self.mosfets.iter().flat_map(|m| [m.d, m.g, m.s]));
        for node in terminals {
            connected[node.0] = true;
        }
        match connected.iter().skip(1).position(|&c| !c) {
            Some(i) => Err(SpiceError::BadNetlist(format!(
                "node '{}' is not connected to anything",
                self.names[i + 1]
            ))),
            None => Ok(()),
        }
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
        assert_eq!(c.node("0"), Circuit::GROUND);
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
        let (mut e, a) = grounded();
        let params = MosParams {
            kp: f64::NEG_INFINITY,
            ..MosParams::nmos_65nm()
        };
        e.mosfet(a, a, Circuit::GROUND, params);
        for (ckt, kind) in [(c, "voltage source 0"), (e, "MOSFET 0")] {
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
        c.mosfet(d, g, Circuit::GROUND, MosParams::nmos_65nm());
        c.mosfet(
            d,
            g,
            Circuit::GROUND,
            MosParams::nmos_65nm().scaled_width(4.0),
        );
        let (small, big) = (&c.mosfets[0], &c.mosfets[1]);
        assert!(big.cgs > 3.9 * small.cgs);
    }
}
