//! The modeling-error metric.
//!
//! The paper reports "modeling error" as a percentage (e.g. 4.09% for
//! the SRAM read delay in Table IV). We follow the standard convention
//! of that literature: the L2 norm of the prediction residual on an
//! independent testing set, normalized by the L2 norm of the *variation*
//! of the true response (its deviation from the mean), so that a model
//! predicting only the mean scores 100%.

use crate::describe;
use rsm_linalg::tol;

/// Relative root-mean-square error against the variation magnitude:
///
/// `ε = ‖pred − truth‖₂ / ‖truth − mean(truth)‖₂`
///
/// This is the paper's "modeling error". Returns `f64::INFINITY` when
/// the true response has no variation but the residual is nonzero, and
/// `0.0` when both are zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn relative_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "relative_error: length mismatch");
    let m = describe::mean(truth);
    let mut num = 0.0;
    let mut den = 0.0;
    for (p, t) in pred.iter().zip(truth) {
        num += (p - t) * (p - t);
        den += (t - m) * (t - m);
    }
    if tol::exactly_zero(den) {
        if tol::exactly_zero(num) {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_zero_error() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(relative_error(&t, &t), 0.0);
    }

    #[test]
    fn mean_only_model_scores_one() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        let pred = [2.5; 4];
        assert!((relative_error(&pred, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_truth() {
        let truth = [5.0, 5.0];
        assert_eq!(relative_error(&truth, &truth), 0.0);
        assert!(relative_error(&[5.0, 6.0], &truth).is_infinite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = relative_error(&[1.0], &[1.0, 2.0]);
    }
}
