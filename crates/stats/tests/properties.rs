//! Property-based tests of the statistics substrate.

use proptest::prelude::*;
use rsm_stats::{describe, metrics, NormalSampler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relative_error_scale_invariant(
        pred in proptest::collection::vec(-5.0f64..5.0, 10),
        truth in proptest::collection::vec(-5.0f64..5.0, 10),
        scale in 0.1f64..100.0,
    ) {
        let e1 = metrics::relative_error(&pred, &truth);
        let pred_s: Vec<f64> = pred.iter().map(|v| v * scale).collect();
        let truth_s: Vec<f64> = truth.iter().map(|v| v * scale).collect();
        let e2 = metrics::relative_error(&pred_s, &truth_s);
        if e1.is_finite() {
            prop_assert!((e1 - e2).abs() < 1e-9 * (1.0 + e1));
        }
    }

    #[test]
    fn relative_error_shift_invariant_in_truth_mean(
        pred in proptest::collection::vec(-5.0f64..5.0, 10),
        truth in proptest::collection::vec(-5.0f64..5.0, 10),
        shift in -50.0f64..50.0,
    ) {
        // Shifting BOTH by a constant leaves the error unchanged
        // (numerator is a difference; denominator is mean-centered).
        let e1 = metrics::relative_error(&pred, &truth);
        let ps: Vec<f64> = pred.iter().map(|v| v + shift).collect();
        let ts: Vec<f64> = truth.iter().map(|v| v + shift).collect();
        let e2 = metrics::relative_error(&ps, &ts);
        if e1.is_finite() {
            prop_assert!((e1 - e2).abs() < 1e-7 * (1.0 + e1));
        }
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(
        xs in proptest::collection::vec(-100.0f64..100.0, 3..50),
        shift in -1e3f64..1e3,
    ) {
        let v = describe::variance(&xs);
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((describe::variance(&shifted) - v).abs() < 1e-6 * (1.0 + v));
    }

    #[test]
    fn quantile_monotone(
        xs in proptest::collection::vec(-10.0f64..10.0, 2..40),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(describe::quantile(&xs, lo) <= describe::quantile(&xs, hi) + 1e-12);
    }

    #[test]
    fn sampler_reproducible(seed in 0u64..1_000_000) {
        let mut a = NormalSampler::seed_from_u64(seed);
        let mut b = NormalSampler::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }
}
