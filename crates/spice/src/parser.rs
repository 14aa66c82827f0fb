//! A SPICE-style netlist parser.
//!
//! Accepts the classic card format, one element per line:
//!
//! ```text
//! * two-stage divider with a MOSFET pull-down
//! V1 vdd 0 DC 1.2 AC 1.0
//! R1 vdd out 10k
//! C1 out 0 100f
//! L1 out tail 2n
//! I1 0 tail 10u
//! G1 out 0 in 0 2m
//! M1 out in 0 NMOS W=1u L=65n VTH=0.35 KP=300u LAMBDA=0.1
//! .end
//! ```
//!
//! - Element kind is the first letter of the name (case-insensitive):
//!   `R`, `C`, `L`, `V`, `I`, `G` (VCCS), `M` (MOSFET).
//! - Values accept engineering suffixes `t g meg k m u n p f`
//!   (case-insensitive; `meg` = 10⁶, `m` = 10⁻³, as in SPICE).
//! - Node `0` (or `gnd`) is ground; all other names are interned.
//! - `*` starts a comment line; everything after `.end` is ignored;
//!   other dot-cards are rejected (analyses are configured in Rust).
//!
//! The parser returns the [`Circuit`] plus name→id maps so stimuli and
//! measurements can address elements by their netlist names.

use crate::mosfet::{MosParams, MosType};
use crate::netlist::{Circuit, InductorId, MosId, NodeId, VsourceId};
use crate::{Result, SpiceError};
use std::collections::BTreeMap;

/// A parsed netlist: the circuit and name→id lookup tables.
#[derive(Debug, Clone)]
pub struct ParsedCircuit {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Voltage sources by netlist name (upper-cased).
    pub vsources: BTreeMap<String, VsourceId>,
    /// MOSFETs by netlist name (upper-cased).
    pub mosfets: BTreeMap<String, MosId>,
    /// Inductors by netlist name (upper-cased).
    pub inductors: BTreeMap<String, InductorId>,
    /// Nodes by netlist name (as written, ground under `"0"`).
    pub nodes: BTreeMap<String, NodeId>,
}

impl ParsedCircuit {
    /// Looks up a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] if the node was never used.
    pub fn node(&self, name: &str) -> Result<NodeId> {
        self.nodes
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::BadNetlist(format!("unknown node '{name}'")))
    }
}

/// Parses an engineering-notation value: `4.7k`, `100f`, `2meg`, `1e-9`.
///
/// # Errors
///
/// Returns [`SpiceError::BadNetlist`] on malformed numbers.
pub fn parse_value(tok: &str) -> Result<f64> {
    let lower = tok.to_ascii_lowercase();
    let (digits, mult) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else if let Some(stripped) = lower.strip_suffix('t') {
        (stripped, 1e12)
    } else if let Some(stripped) = lower.strip_suffix('g') {
        (stripped, 1e9)
    } else if let Some(stripped) = lower.strip_suffix('k') {
        (stripped, 1e3)
    } else if let Some(stripped) = lower.strip_suffix('m') {
        (stripped, 1e-3)
    } else if let Some(stripped) = lower.strip_suffix('u') {
        (stripped, 1e-6)
    } else if let Some(stripped) = lower.strip_suffix('n') {
        (stripped, 1e-9)
    } else if let Some(stripped) = lower.strip_suffix('p') {
        (stripped, 1e-12)
    } else if let Some(stripped) = lower.strip_suffix('f') {
        (stripped, 1e-15)
    } else {
        (lower.as_str(), 1.0)
    };
    digits
        .parse::<f64>()
        .map(|v| v * mult)
        .map_err(|_| SpiceError::BadNetlist(format!("malformed value '{tok}'")))
}

/// Parses a netlist into a [`ParsedCircuit`].
///
/// # Errors
///
/// Returns [`SpiceError::BadNetlist`] with the offending line number on
/// any syntax error, duplicate element name, or unsupported card.
pub fn parse(netlist: &str) -> Result<ParsedCircuit> {
    let mut circuit = Circuit::new();
    let mut nodes: BTreeMap<String, NodeId> = BTreeMap::new();
    nodes.insert("0".to_string(), Circuit::GROUND);
    let mut vsources = BTreeMap::new();
    let mut mosfets = BTreeMap::new();
    let mut inductors = BTreeMap::new();
    let mut seen_names: BTreeMap<String, usize> = BTreeMap::new();

    let intern = |name: &str, circuit: &mut Circuit, nodes: &mut BTreeMap<String, NodeId>| {
        let key = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        *nodes
            .entry(key.to_string())
            .or_insert_with(|| circuit.node(key))
    };

    for (lineno, raw) in netlist.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let err = |msg: String| SpiceError::BadNetlist(format!("line {lineno}: {msg}"));
        if let Some(card) = line.strip_prefix('.') {
            let card = card.split_whitespace().next().unwrap_or("");
            if card.eq_ignore_ascii_case("end") {
                break;
            }
            return Err(err(format!(
                "unsupported dot-card '.{card}' (configure analyses in Rust)"
            )));
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let name = match toks.first() {
            Some(t) => t.to_ascii_uppercase(),
            None => continue, // unreachable: `line` is non-empty after trim
        };
        if seen_names.insert(name.clone(), lineno).is_some() {
            return Err(err(format!("duplicate element name '{name}'")));
        }
        let Some(kind) = name.chars().next() else {
            return Err(err("empty element name".to_string()));
        };
        match kind {
            'R' | 'C' | 'L' => {
                if toks.len() != 4 {
                    return Err(err(format!("{kind} element needs: name node node value")));
                }
                let a = intern(toks[1], &mut circuit, &mut nodes);
                let b = intern(toks[2], &mut circuit, &mut nodes);
                let v = parse_value(toks[3]).map_err(|e| err(e.to_string()))?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err(err(format!(
                        "{kind} value must be positive and finite, got {v}"
                    )));
                }
                match kind {
                    'R' => circuit.resistor(a, b, v),
                    'C' => circuit.capacitor(a, b, v),
                    _ => {
                        let id = circuit.inductor(a, b, v);
                        inductors.insert(name.clone(), id);
                    }
                }
            }
            'V' => {
                // V<name> n+ n- [DC] <dc> [AC <mag>]
                if toks.len() < 4 {
                    return Err(err(
                        "V element needs: name node node [DC] value [AC mag]".into()
                    ));
                }
                let plus = intern(toks[1], &mut circuit, &mut nodes);
                let minus = intern(toks[2], &mut circuit, &mut nodes);
                let mut rest: Vec<&str> = toks[3..].to_vec();
                if rest[0].eq_ignore_ascii_case("dc") {
                    rest.remove(0);
                }
                if rest.is_empty() {
                    return Err(err("V element missing DC value".into()));
                }
                let dc = parse_value(rest[0]).map_err(|e| err(e.to_string()))?;
                let ac = match rest.len() {
                    1 => 0.0,
                    3 if rest[1].eq_ignore_ascii_case("ac") => {
                        parse_value(rest[2]).map_err(|e| err(e.to_string()))?
                    }
                    _ => return Err(err("V element trailing tokens (expected 'AC <mag>')".into())),
                };
                let id = circuit.vsource_ac(plus, minus, dc, ac);
                vsources.insert(name.clone(), id);
            }
            'I' => {
                if toks.len() != 4 {
                    return Err(err("I element needs: name from to value".into()));
                }
                let from = intern(toks[1], &mut circuit, &mut nodes);
                let to = intern(toks[2], &mut circuit, &mut nodes);
                let v = parse_value(toks[3]).map_err(|e| err(e.to_string()))?;
                circuit.isource(from, to, v);
            }
            'G' => {
                if toks.len() != 6 {
                    return Err(err("G element needs: name out+ out- ctrl+ ctrl- gm".into()));
                }
                let op = intern(toks[1], &mut circuit, &mut nodes);
                let om = intern(toks[2], &mut circuit, &mut nodes);
                let cp = intern(toks[3], &mut circuit, &mut nodes);
                let cm = intern(toks[4], &mut circuit, &mut nodes);
                let g = parse_value(toks[5]).map_err(|e| err(e.to_string()))?;
                circuit.vccs(op, om, cp, cm, g);
            }
            'M' => {
                // M<name> d g s NMOS|PMOS KEY=VAL...
                if toks.len() < 5 {
                    return Err(err(
                        "M element needs: name d g s NMOS|PMOS [W= L= VTH= KP= LAMBDA=]".into(),
                    ));
                }
                let d = intern(toks[1], &mut circuit, &mut nodes);
                let g = intern(toks[2], &mut circuit, &mut nodes);
                let s = intern(toks[3], &mut circuit, &mut nodes);
                let mut params = match toks[4].to_ascii_uppercase().as_str() {
                    "NMOS" => MosParams::nmos_65nm(),
                    "PMOS" => MosParams::pmos_65nm(),
                    other => return Err(err(format!("unknown model '{other}'"))),
                };
                for kv in &toks[5..] {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected KEY=VALUE, got '{kv}'")))?;
                    let v = parse_value(val).map_err(|e| err(e.to_string()))?;
                    match key.to_ascii_uppercase().as_str() {
                        "W" => params.w = v,
                        "L" => params.l = v,
                        "VTH" => params.vth0 = v,
                        "KP" => params.kp = v,
                        "LAMBDA" => params.lambda = v,
                        other => return Err(err(format!("unknown MOSFET parameter '{other}'"))),
                    }
                }
                let _ = params.mos_type; // set below
                params.mos_type = match toks[4].to_ascii_uppercase().as_str() {
                    "NMOS" => MosType::Nmos,
                    _ => MosType::Pmos,
                };
                let id = circuit.mosfet(d, g, s, params);
                mosfets.insert(name.clone(), id);
            }
            other => {
                return Err(err(format!(
                    "unsupported element kind '{other}' (supported: R C L V I G M)"
                )))
            }
        }
    }
    Ok(ParsedCircuit {
        circuit,
        vsources,
        mosfets,
        inductors,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::AcAnalysis;
    use crate::dc::DcAnalysis;

    #[test]
    fn value_suffixes() {
        let close = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap();
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "{tok}: {v} vs {expect}"
            );
        };
        close("4.7k", 4.7e3);
        close("2meg", 2e6);
        close("3g", 3e9);
        close("1t", 1e12);
        close("10m", 10e-3);
        close("5u", 5e-6);
        close("2n", 2e-9);
        close("100p", 100e-12);
        close("20f", 20e-15);
        close("1e-9", 1e-9);
        close("-0.5", -0.5);
        assert!(parse_value("abc").is_err());
        assert!(parse_value("1.2.3k").is_err());
    }

    #[test]
    fn divider_parses_and_solves() {
        let src = "\
* simple divider
V1 in 0 DC 2.0
R1 in out 1k
R2 out gnd 1k
.end
this garbage after .end is ignored
";
        let parsed = parse(src).unwrap();
        let out = parsed.node("out").unwrap();
        let op = DcAnalysis::default().solve(&parsed.circuit).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
        assert!(parsed.vsources.contains_key("V1"));
    }

    #[test]
    fn mosfet_amplifier_parses_with_parameters() {
        let src = "\
V1 vdd 0 1.2
V2 in 0 DC 0.6 AC 1.0
R1 vdd out 20k
M1 out in 0 NMOS W=1u L=100n VTH=0.4 KP=200u LAMBDA=0.05
";
        let parsed = parse(src).unwrap();
        let m = parsed.mosfets["M1"];
        let p = parsed.circuit.mosfet_params(m);
        assert_eq!(p.mos_type, MosType::Nmos);
        assert!((p.w - 1e-6).abs() < 1e-18);
        assert!((p.vth0 - 0.4).abs() < 1e-12);
        // It actually amplifies.
        let op = DcAnalysis::default().solve(&parsed.circuit).unwrap();
        let out = parsed.node("out").unwrap();
        let sweep = AcAnalysis::default()
            .sweep(&parsed.circuit, &op, &[100.0])
            .unwrap();
        assert!(sweep.magnitude(out)[0] > 1.0, "no gain");
    }

    #[test]
    fn rlc_and_vccs_parse() {
        let src = "\
I1 0 a 1m
R1 a 0 1k
L1 a b 10n
C1 b 0 1p
G1 b 0 a 0 2m
";
        let parsed = parse(src).unwrap();
        assert_eq!(parsed.circuit.num_inductors(), 1);
        assert!(parsed.inductors.contains_key("L1"));
        assert!(DcAnalysis::default().solve(&parsed.circuit).is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("R1 a 0\n", "line 1"),
            ("R1 a 0 1k\nR1 b 0 2k\n", "line 2: duplicate"),
            ("X1 a 0 1k\n", "unsupported element"),
            ("R1 a 0 -5\n", "must be positive"),
            ("C1 a 0 1e308k\n", "must be positive and finite"),
            ("V1 a 0 DC\n", "missing DC"),
            (".tran 1n 1u\n", "unsupported dot-card"),
            ("M1 d g s BJT\n", "unknown model"),
            ("M1 d g s NMOS Q=1\n", "unknown MOSFET parameter"),
            ("M1 d g s NMOS W\n", "KEY=VALUE"),
        ];
        for (src, needle) in cases {
            match parse(src) {
                Err(SpiceError::BadNetlist(msg)) => {
                    assert!(msg.contains(needle), "'{msg}' lacks '{needle}' for {src:?}")
                }
                other => panic!("expected BadNetlist for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn gnd_aliases_to_node_zero() {
        let src = "V1 a gnd 1.0\nR1 a 0 1k\n";
        let parsed = parse(src).unwrap();
        let op = DcAnalysis::default().solve(&parsed.circuit).unwrap();
        let a = parsed.node("a").unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_node_lookup_errors() {
        let parsed = parse("R1 a 0 1k\n").unwrap();
        assert!(parsed.node("nope").is_err());
        assert!(parsed.node("a").is_ok());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "\n* header\n\nR1 a 0 1k\n* mid comment\nV1 a 0 1\n\n";
        let parsed = parse(src).unwrap();
        assert_eq!(parsed.circuit.num_vsources(), 1);
    }
}
