//! Property-based tests of the dictionaries.

use proptest::prelude::*;
use rsm_basis::{Atom, Dictionary, DictionaryKind};
use rsm_linalg::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dictionary_index_roundtrip(n in 2usize..40) {
        // Every index decodes to the atom the nested-loop layout puts
        // there: the constant, the linear and pure-quadratic runs, then
        // the cross pairs in lexicographic order.
        let d = Dictionary::new(n, DictionaryKind::Quadratic);
        let mut layout = vec![Atom::Constant];
        layout.extend((0..n).map(Atom::Linear));
        layout.extend((0..n).map(Atom::PureQuadratic));
        layout.extend((0..n).flat_map(|i| (i + 1..n).map(move |j| Atom::Cross(i, j))));
        prop_assert_eq!(layout.len(), d.len());
        for (m, &want) in layout.iter().enumerate() {
            prop_assert_eq!(d.atom(m), want, "m={}", m);
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
