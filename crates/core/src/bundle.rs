//! The persisted model bundle shared by `rsm fit`, `rsm predict`,
//! `rsm info`, and `rsm serve`.
//!
//! A bundle is everything needed to score new sample points: the input
//! column names (order defines the model's input arity), the basis
//! family, and the sparse coefficient vector. `rsm fit` writes one as
//! JSON; the offline scorer (`rsm predict`) and the serving path
//! (`rsm serve` / `rsm-serve`) both reconstruct the dictionary from it
//! and evaluate through [`SparseModel::predict_rows`] (the CSV path by
//! way of [`SparseModel::predict_batch`]), so there is exactly one
//! scoring code path regardless of transport.
//!
//! The JSON encoding is pinned by the golden-bundle regression test
//! (`tests/golden_bundle.rs` at the workspace root): a committed bundle
//! must load and re-serialize byte-identically, so format drift between
//! the fitting and serving halves of the system is caught at test time.

use crate::{CoreError, SparseModel};
use rsm_basis::{Dictionary, DictionaryKind};
use serde::{Deserialize, Serialize};

/// A fitted model bundle as persisted by `rsm fit` (JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Input column names, in the order the model expects.
    pub input_columns: Vec<String>,
    /// Response column name.
    pub response: String,
    /// Basis family: `"linear"` or `"quadratic"`.
    pub basis: String,
    /// Method used.
    pub method: String,
    /// Chosen model order.
    pub lambda: usize,
    /// In-sample relative error.
    pub train_error: f64,
    /// The sparse coefficients.
    pub model: SparseModel,
}

impl ModelBundle {
    /// Reconstructs the dictionary this bundle was fit over.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an unknown basis name, when
    /// the coefficient vector does not match the dictionary size implied
    /// by the input columns, or when the support is not strictly
    /// increasing indices inside that dictionary — each means the bundle
    /// was corrupted or produced by an incompatible writer. A bundle
    /// that passes can be scored and described without panicking.
    pub fn dictionary(&self) -> Result<Dictionary, CoreError> {
        let kind = match self.basis.as_str() {
            "linear" => DictionaryKind::Linear,
            "quadratic" => DictionaryKind::Quadratic,
            other => {
                return Err(CoreError::BadConfig(format!(
                    "unknown basis '{other}' in model file"
                )))
            }
        };
        if self.input_columns.is_empty() {
            return Err(CoreError::BadConfig(
                "model file lists no input columns".to_string(),
            ));
        }
        let dict = Dictionary::new(self.input_columns.len(), kind);
        if dict.len() != self.model.num_bases() {
            return Err(CoreError::BadConfig(format!(
                "model has {} coefficients but a {} basis over {} inputs has {}",
                self.model.num_bases(),
                self.basis,
                self.input_columns.len(),
                dict.len()
            )));
        }
        // Deserializing skips `SparseModel::new`'s checks; scoring
        // decodes each support index as a dictionary term, and
        // `coefficient` binary-searches the support.
        let terms = self.model.coefficients();
        if let Some(&(j, _)) = terms.iter().find(|&&(j, _)| j >= dict.len()) {
            return Err(CoreError::BadConfig(format!(
                "model term index {j} is out of range for a {} basis of {} terms",
                self.basis,
                dict.len()
            )));
        }
        if terms.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(CoreError::BadConfig(
                "model term indices are not strictly increasing".to_string(),
            ));
        }
        Ok(dict)
    }

    /// Serializes the canonical on-disk encoding: pretty JSON with a
    /// trailing newline. `rsm fit` writes exactly this, and the
    /// golden-bundle test pins it byte for byte — route every bundle
    /// write through here so the format cannot fork.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] if serialization fails (a non-finite
    /// `train_error` is the only realistic cause).
    pub fn to_json(&self) -> Result<String, CoreError> {
        let mut text = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::BadConfig(format!("cannot serialize model bundle: {e}")))?;
        text.push('\n');
        Ok(text)
    }

    /// Parses a bundle from its JSON encoding.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] with the parser's message.
    pub fn from_json(text: &str) -> Result<ModelBundle, CoreError> {
        serde_json::from_str(text)
            .map_err(|e| CoreError::BadConfig(format!("malformed model file: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(basis: &str, n_inputs: usize, num_bases: usize) -> ModelBundle {
        ModelBundle {
            input_columns: (0..n_inputs).map(|i| format!("x{i}")).collect(),
            response: "delay".to_string(),
            basis: basis.to_string(),
            method: "OMP".to_string(),
            lambda: 2,
            train_error: 0.01,
            model: SparseModel::new(num_bases, vec![(0, 1.0), (1, -0.5)]),
        }
    }

    #[test]
    fn dictionary_roundtrip_linear_and_quadratic() {
        let b = bundle("linear", 3, 4);
        assert_eq!(b.dictionary().unwrap().len(), 4);
        let q = bundle("quadratic", 3, 10);
        assert_eq!(q.dictionary().unwrap().len(), 10);
    }

    #[test]
    fn unknown_basis_is_rejected() {
        let b = bundle("cubic", 3, 4);
        let err = b.dictionary().unwrap_err();
        assert!(err.to_string().contains("unknown basis 'cubic'"), "{err}");
    }

    #[test]
    fn size_mismatch_is_rejected() {
        // 3 linear inputs imply M = 4, not 7.
        let b = bundle("linear", 3, 7);
        let err = b.dictionary().unwrap_err();
        assert!(err.to_string().contains("7 coefficients"), "{err}");
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let b = ModelBundle {
            input_columns: Vec::new(),
            ..bundle("linear", 1, 2)
        };
        assert!(b.dictionary().is_err());
    }

    /// A quadratic bundle over 3 inputs (M = 10) with the given
    /// `coeffs` JSON, parsed the way `rsm` loads a model file.
    fn parsed_quadratic(coeffs: &str) -> ModelBundle {
        let mut b = bundle("quadratic", 3, 10);
        b.model = SparseModel::zero(10);
        let text = b
            .to_json()
            .unwrap()
            .replace("\"coeffs\": []", &format!("\"coeffs\": {coeffs}"));
        ModelBundle::from_json(&text).unwrap()
    }

    #[test]
    fn out_of_range_support_is_rejected() {
        let b = parsed_quadratic("[[99, 1.0]]");
        let err = b.dictionary().unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(_)), "{err:?}");
        assert!(err.to_string().contains("term index 99"), "{err}");
    }

    #[test]
    fn unsorted_or_repeated_support_is_rejected() {
        for coeffs in ["[[5, 1.0], [2, -0.5]]", "[[2, 1.0], [2, -0.5]]"] {
            let err = parsed_quadratic(coeffs).dictionary().unwrap_err();
            assert!(err.to_string().contains("strictly increasing"), "{err}");
        }
        assert!(parsed_quadratic("[[2, 1.0], [5, -0.5]]")
            .dictionary()
            .is_ok());
    }

    #[test]
    fn serde_roundtrip_preserves_fields() {
        let b = bundle("quadratic", 2, 6);
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: ModelBundle = serde_json::from_str(&json).unwrap();
        assert_eq!(back.input_columns, b.input_columns);
        assert_eq!(back.basis, "quadratic");
        assert_eq!(back.model, b.model);
        // Re-serialization is byte-stable (the golden-bundle contract).
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn canonical_json_roundtrips_and_ends_with_newline() {
        let b = bundle("linear", 3, 4);
        let text = b.to_json().unwrap();
        assert!(text.ends_with('\n'));
        assert!(!text.ends_with("\n\n"));
        let back = ModelBundle::from_json(&text).unwrap();
        assert_eq!(back.model, b.model);
        assert_eq!(back.to_json().unwrap(), text);
        let err = ModelBundle::from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("malformed model file"), "{err}");
    }
}
