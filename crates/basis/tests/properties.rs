//! Property-based tests of the Hermite bases and dictionaries.

use proptest::prelude::*;
use rsm_basis::hermite::{gauss_hermite, psi, psi_all};
use rsm_basis::{Dictionary, DictionaryKind, Term};
use rsm_linalg::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hermite_recurrence_holds(x in -4.0f64..4.0, n in 1usize..12) {
        // ψ_{n+1}·√(n+1) = x·ψ_n − √n·ψ_{n−1}
        let lhs = psi(n + 1, x) * ((n + 1) as f64).sqrt();
        let rhs = x * psi(n, x) - (n as f64).sqrt() * psi(n - 1, x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn hermite_parity(x in -3.0f64..3.0, n in 0usize..10) {
        // ψ_n(−x) = (−1)ⁿ ψ_n(x)
        let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
        prop_assert!((psi(n, -x) - sign * psi(n, x)).abs() < 1e-10 * (1.0 + psi(n, x).abs()));
    }

    #[test]
    fn psi_all_consistent(x in -4.0f64..4.0) {
        let mut buf = vec![0.0; 10];
        psi_all(x, &mut buf);
        for (n, &b) in buf.iter().enumerate() {
            prop_assert!((b - psi(n, x)).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn quadrature_exact_for_low_polynomials(k in 0usize..8) {
        // An n-point rule integrates x^k exactly for k ≤ 2n−1;
        // moments of N(0,1): 0 for odd k, (k−1)!! for even k.
        let (nodes, weights) = gauss_hermite(8);
        let integral: f64 = nodes.iter().zip(&weights).map(|(&x, &w)| w * x.powi(k as i32)).sum();
        let expect = match k {
            0 => 1.0,
            2 => 1.0,
            4 => 3.0,
            6 => 15.0,
            _ if k % 2 == 1 => 0.0,
            _ => unreachable!(),
        };
        prop_assert!((integral - expect).abs() < 1e-9, "k={k}: {integral} vs {expect}");
    }

    #[test]
    fn term_eval_multiplicative(
        v1 in 0usize..4, d1 in 1u32..4,
        v2 in 4usize..8, d2 in 1u32..4,
        ys in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        let t1 = Term::new(vec![(v1, d1)]);
        let t2 = Term::new(vec![(v2, d2)]);
        let combined = Term::new(vec![(v1, d1), (v2, d2)]);
        prop_assert!((combined.eval(&ys) - t1.eval(&ys) * t2.eval(&ys)).abs() < 1e-10);
    }

    #[test]
    fn dictionary_index_roundtrip(n in 2usize..40) {
        // Every index maps to a term whose evaluation matches eval_term.
        let d = Dictionary::new(n, DictionaryKind::Quadratic);
        let ys: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64 - 8.0) / 5.0).collect();
        // Probe a spread of indices rather than all O(n²).
        for m in (0..d.len()).step_by(1 + d.len() / 37) {
            let via_term = d.term(m).eval(&ys);
            let direct = d.eval_term(m, &ys);
            prop_assert!((via_term - direct).abs() < 1e-11);
        }
    }

    #[test]
    fn dictionary_sizes_are_consistent(n in 1usize..300) {
        let lin = Dictionary::new(n, DictionaryKind::Linear);
        prop_assert_eq!(lin.len(), n + 1);
        let quad = Dictionary::new(n, DictionaryKind::Quadratic);
        prop_assert_eq!(quad.len(), 1 + 2 * n + n * (n - 1) / 2);
    }

    #[test]
    fn design_matrix_row_matches_point_eval(
        n in 2usize..6,
        samples in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        let k = samples.len() / n;
        prop_assume!(k > 0);
        let data = Matrix::from_vec(k, n, samples[..k * n].to_vec()).unwrap();
        let d = Dictionary::new(n, DictionaryKind::Quadratic);
        let g = d.design_matrix(&data);
        let mut row = vec![0.0; d.len()];
        for r in 0..k {
            d.eval_point_into(data.row(r), &mut row);
            for (c, &v) in row.iter().enumerate() {
                prop_assert!((g[(r, c)] - v).abs() < 1e-12);
            }
        }
    }
}
