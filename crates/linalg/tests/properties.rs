//! Property-based tests of the linear-algebra kernels.

use proptest::prelude::*;
use rsm_linalg::cholesky::GrowingCholesky;
use rsm_linalg::lu::LuDecomposition;
use rsm_linalg::qr::{IncrementalQr, QrDecomposition};
use rsm_linalg::vec_ops;
use rsm_linalg::Matrix;

/// Strategy: a `rows × cols` matrix with entries in [-1, 1].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

/// Strategy: a well-conditioned SPD matrix (Gram + ridge).
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n + 3, n).prop_map(move |b| {
        let mut g = b.gram();
        for i in 0..n {
            g[(i, i)] += 1.0 + n as f64 * 0.1;
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstructs(a in matrix(9, 5)) {
        let qr = QrDecomposition::new(&a).unwrap();
        let rec = qr.q_thin().matmul(&qr.r()).unwrap();
        prop_assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn qr_q_orthonormal(a in matrix(10, 4)) {
        let qr = QrDecomposition::new(&a).unwrap();
        let qtq = qr.q_thin().gram();
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(4)).unwrap() < 1e-10);
    }

    #[test]
    fn lu_solve_roundtrip(a in spd(6), x in proptest::collection::vec(-2.0f64..2.0, 6)) {
        let b = a.matvec(&x).unwrap();
        let sol = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
        for (s, t) in sol.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-8, "{s} vs {t}");
        }
    }

    #[test]
    fn growing_cholesky_solves_the_gram_system(a in spd(6), b in proptest::collection::vec(-1.0f64..1.0, 6)) {
        let mut g = GrowingCholesky::new();
        for p in 0..6 {
            let cross: Vec<f64> = (0..p).map(|i| a[(i, p)]).collect();
            g.push(&cross, a[(p, p)]).unwrap();
        }
        let ax = a.matvec(&g.solve(&b).unwrap()).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-12, "A·x = {u}, b = {v}");
        }
    }

    #[test]
    fn incremental_qr_least_squares_optimal(
        a in matrix(12, 4),
        b in proptest::collection::vec(-1.0f64..1.0, 12),
    ) {
        let mut inc = IncrementalQr::new(12);
        let mut used = Vec::new();
        for j in 0..4 {
            if inc.push_column(&a.col(j)).is_ok() {
                used.push(j);
            }
        }
        prop_assume!(!used.is_empty());
        let x = inc.solve_least_squares(&b).unwrap();
        // Optimality: residual orthogonal to every used column.
        let r = inc.residual(&b).unwrap();
        for &j in &used {
            prop_assert!(vec_ops::dot(&a.col(j), &r).abs() < 1e-8);
        }
        prop_assert_eq!(x.len(), used.len());
    }

    #[test]
    fn matmul_associative(a in matrix(4, 3), b in matrix(3, 5), c in matrix(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right).unwrap() < 1e-12);
    }

    #[test]
    fn transpose_product_identity(a in matrix(5, 3), b in matrix(3, 4)) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-12);
    }

    #[test]
    fn norm_triangle_inequality(
        x in proptest::collection::vec(-10.0f64..10.0, 16),
        y in proptest::collection::vec(-10.0f64..10.0, 16),
    ) {
        let s: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(vec_ops::norm2(&s) <= vec_ops::norm2(&x) + vec_ops::norm2(&y) + 1e-12);
    }

    #[test]
    fn cauchy_schwarz(
        x in proptest::collection::vec(-10.0f64..10.0, 12),
        y in proptest::collection::vec(-10.0f64..10.0, 12),
    ) {
        let lhs = vec_ops::dot(&x, &y).abs();
        let rhs = vec_ops::norm2(&x) * vec_ops::norm2(&y);
        prop_assert!(lhs <= rhs * (1.0 + 1e-12) + 1e-12);
    }
}
