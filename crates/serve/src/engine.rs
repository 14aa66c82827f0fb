//! The compute half of the server: a pure function from request frame
//! to response frame.
//!
//! [`PredictEngine`] owns a loaded [`ModelBundle`] and its
//! reconstructed dictionary, and scores the decoded points in place
//! through [`SparseModel::predict_rows`](rsm_core::SparseModel::predict_rows)
//! — the evaluator behind `rsm predict` too, so wire predictions are
//! bit-identical to offline ones. Everything here is infallible by
//! construction: invalid requests map to [`Frame::Error`] values, never
//! panics, which is what keeps the request loop alive across abusive
//! clients (and the crate clean under its `clippy::unwrap_used`,
//! `expect_used` and `panic` denials).

use crate::frame::{ErrorCode, Frame};
use rsm_basis::Dictionary;
use rsm_core::{CoreError, ModelBundle};

/// A loaded model ready to score batches.
#[derive(Debug, Clone)]
pub struct PredictEngine {
    bundle: ModelBundle,
    dict: Dictionary,
}

impl PredictEngine {
    /// Builds an engine from a loaded bundle, validating that the
    /// bundle is internally consistent (basis name, coefficient count,
    /// support indices), so no request can reach a term the dictionary
    /// does not have.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelBundle::dictionary`] failures.
    pub fn new(bundle: ModelBundle) -> Result<PredictEngine, CoreError> {
        let dict = bundle.dictionary()?;
        Ok(PredictEngine { bundle, dict })
    }

    /// The bundle this engine serves.
    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }

    /// Input arity every point in a batch must have.
    pub fn num_vars(&self) -> usize {
        self.dict.num_vars()
    }

    /// Scores one batch: `points` is row-major with `num_vars`
    /// coordinates per point (the decoded predict payload).
    ///
    /// Returns a [`Frame::Predictions`] on success and a structured
    /// [`Frame::Error`] for wrong arity, non-finite coordinates, or an
    /// internal evaluator failure. Never panics.
    pub fn predict(&self, num_vars: usize, points: &[f64]) -> Frame {
        if num_vars != self.dict.num_vars() {
            return Frame::Error {
                code: ErrorCode::WrongArity,
                message: format!(
                    "batch has {num_vars} coordinates per point but model '{}' expects {}",
                    self.bundle.response,
                    self.dict.num_vars()
                ),
            };
        }
        let scored = if points.len().is_multiple_of(num_vars) {
            self.bundle.model.predict_rows(&self.dict, points)
        } else {
            // The decoder never yields a ragged batch, so only a direct
            // caller reaches this scan; a non-finite coordinate still
            // wins over the shape.
            match points.iter().position(|v| !v.is_finite()) {
                Some(pos) => Err(CoreError::NonFinite {
                    point: pos / num_vars,
                    coordinate: pos % num_vars,
                }),
                None => {
                    return Frame::Error {
                        code: ErrorCode::Malformed,
                        message: "points length is not a multiple of num_vars".to_string(),
                    }
                }
            }
        };
        match scored {
            Ok(values) => Frame::Predictions { values },
            Err(e @ CoreError::NonFinite { .. }) => Frame::Error {
                code: ErrorCode::NonFinite,
                message: e.to_string(),
            },
            Err(e) => Frame::Error {
                code: ErrorCode::Internal,
                message: format!("evaluator failure: {e}"),
            },
        }
    }

    /// Maps any client frame to its response frame. Response kinds
    /// arriving at the server are protocol errors, answered as such.
    pub fn handle(&self, frame: &Frame) -> Frame {
        match frame {
            Frame::Predict { num_vars, points } => self.predict(*num_vars, points),
            Frame::Predictions { .. } => Frame::Error {
                code: ErrorCode::BadKind,
                message: "a predictions frame is a response, not a request".to_string(),
            },
            Frame::Error { .. } => Frame::Error {
                code: ErrorCode::BadKind,
                message: "an error frame is a response, not a request".to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::SparseModel;

    fn engine() -> PredictEngine {
        let bundle = ModelBundle {
            input_columns: vec!["a".into(), "b".into(), "c".into()],
            response: "delay".into(),
            basis: "quadratic".into(),
            method: "LAR".into(),
            lambda: 3,
            train_error: 0.01,
            // M = 10 for 3 quadratic inputs.
            model: SparseModel::new(10, vec![(0, 1.25), (2, -0.5), (9, 3.0)]),
        };
        PredictEngine::new(bundle).unwrap()
    }

    #[test]
    fn predictions_match_predict_point_bitwise() {
        let e = engine();
        let dict = e.bundle().dictionary().unwrap();
        // A tail alone, one block, a block and a tail, and many blocks
        // with a tail.
        for k in [1, 2, 8, 9, 4_099] {
            let pts: Vec<f64> = (0..k * 3).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
            match e.predict(3, &pts) {
                Frame::Predictions { values } => {
                    assert_eq!(values.len(), k);
                    for (i, v) in values.iter().enumerate() {
                        let expect = e
                            .bundle()
                            .model
                            .predict_point(&dict, &pts[i * 3..(i + 1) * 3]);
                        assert_eq!(v.to_bits(), expect.to_bits(), "point {i} of {k}");
                    }
                }
                other => panic!("expected predictions, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_arity_is_a_structured_error() {
        let e = engine();
        match e.predict(2, &[1.0, 2.0]) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::WrongArity);
                assert!(message.contains("expects 3"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_coordinates_are_rejected_with_position() {
        let e = engine();
        let k = 4_099;
        // The first coordinate, the last of an 8-point block, the first
        // of the next block, the tail, and past point 4 096.
        for (point, coordinate) in [(0, 0), (7, 2), (8, 0), (4_097, 1), (4_098, 2)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut pts = vec![0.5; k * 3];
                pts[point * 3 + coordinate] = bad;
                match e.predict(3, &pts) {
                    Frame::Error { code, message } => {
                        assert_eq!(code, ErrorCode::NonFinite);
                        assert_eq!(
                            message,
                            format!("coordinate {coordinate} of point {point} is not finite")
                        );
                    }
                    other => panic!("expected error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_ragged_direct_call_answers_non_finite_before_malformed() {
        let e = engine();
        match e.predict(3, &[0.0, 1.0, 2.0, f64::NAN]) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::NonFinite);
                assert_eq!(message, "coordinate 0 of point 1 is not finite");
            }
            other => panic!("expected error, got {other:?}"),
        }
        match e.predict(3, &[0.0, 1.0, 2.0, 3.0]) {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn response_kinds_are_rejected_as_requests() {
        let e = engine();
        for f in [
            Frame::Predictions { values: vec![] },
            Frame::Error {
                code: ErrorCode::Internal,
                message: String::new(),
            },
        ] {
            match e.handle(&f) {
                Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadKind),
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_predictions() {
        let e = engine();
        match e.predict(3, &[]) {
            Frame::Predictions { values } => assert!(values.is_empty()),
            other => panic!("expected predictions, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_bundle_is_rejected_at_construction() {
        let bundle = ModelBundle {
            input_columns: vec!["a".into()],
            response: "y".into(),
            basis: "nope".into(),
            method: "LAR".into(),
            lambda: 1,
            train_error: 0.0,
            model: SparseModel::zero(2),
        };
        assert!(PredictEngine::new(bundle).is_err());
    }

    #[test]
    fn support_outside_the_dictionary_is_rejected_at_construction() {
        // Deserialized coefficients skip `SparseModel::new`'s index
        // check; the engine must refuse the bundle instead of panicking
        // on the first predict request.
        let mut text = engine().bundle().to_json().unwrap();
        let coeffs = text.find("\"coeffs\"").unwrap();
        text.replace_range(coeffs.., "\"coeffs\": [[99, 1.0]]\n  }\n}\n");
        let bundle = ModelBundle::from_json(&text).unwrap();
        match PredictEngine::new(bundle) {
            Err(CoreError::BadConfig(msg)) => assert!(msg.contains("term index 99"), "{msg}"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }
}
