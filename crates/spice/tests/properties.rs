//! Property-based tests of the circuit simulator over randomized
//! (but physically valid) circuits.

use proptest::prelude::*;
use rsm_spice::netlist::Circuit;
use rsm_spice::{ac, dc};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random resistor ladder from a source to ground: every internal
    /// node voltage lies between the rails and decreases monotonically
    /// along the ladder.
    #[test]
    fn resistor_ladder_voltages_monotone(
        rs in proptest::collection::vec(1.0f64..1e6, 2..10),
        vin in 0.1f64..10.0,
    ) {
        let mut ckt = Circuit::new();
        let top = ckt.node("in");
        ckt.vsource(top, Circuit::GROUND, vin);
        let mut prev = top;
        let mut nodes = vec![top];
        for (i, &r) in rs.iter().enumerate() {
            let nxt = if i + 1 == rs.len() {
                Circuit::GROUND
            } else {
                ckt.node(&format!("n{i}"))
            };
            ckt.resistor(prev, nxt, r);
            if nxt != Circuit::GROUND {
                nodes.push(nxt);
            }
            prev = nxt;
        }
        let op = dc::solve(&ckt).unwrap();
        let mut last = vin + 1e-9;
        for &n in &nodes {
            let v = op.voltage(n);
            prop_assert!(v >= -1e-9 && v <= last, "v = {v}, prev = {last}");
            last = v;
        }
    }

    /// DC superposition: doubling the source doubles every node voltage
    /// in a linear circuit.
    #[test]
    fn linear_circuit_scales_with_source(
        rs in proptest::collection::vec(10.0f64..1e5, 3..8),
        vin in 0.1f64..5.0,
    ) {
        let build = |v: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.vsource(a, Circuit::GROUND, v);
            for (i, &r) in rs.iter().enumerate() {
                // Alternate series/shunt pattern keeps the topology valid.
                if i % 2 == 0 {
                    ckt.resistor(a, b, r);
                } else {
                    ckt.resistor(b, Circuit::GROUND, r);
                }
            }
            (ckt, b)
        };
        let (c1, b1) = build(vin);
        let (c2, b2) = build(2.0 * vin);
        let v1 = dc::solve(&c1).unwrap().voltage(b1);
        let v2 = dc::solve(&c2).unwrap().voltage(b2);
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-9 * (1.0 + v1.abs()));
    }

    /// AC magnitude of an RC divider never exceeds the source magnitude
    /// (passivity) and decreases with frequency (single-pole lowpass).
    #[test]
    fn rc_lowpass_passive_and_monotone(
        r in 10.0f64..1e6,
        c in 1e-15f64..1e-6,
    ) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource_ac(vin, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor(vin, out, r);
        ckt.capacitor(out, Circuit::GROUND, c);
        let op = dc::solve(&ckt).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let freqs = [fc / 100.0, fc / 3.0, fc, fc * 3.0, fc * 100.0];
        let sweep = ac::sweep(&ckt, &op, &freqs).unwrap();
        let mag = sweep.magnitude(out);
        let mut last = 1.0 + 1e-9;
        for &m in &mag {
            prop_assert!(m <= last + 1e-12, "not monotone: {mag:?}");
            prop_assert!(m <= 1.0 + 1e-9, "active gain from a passive network");
            last = m;
        }
    }
}
