//! Golden-bundle regression: a committed `ModelBundle` JSON must load,
//! re-serialize **byte-identically**, and produce pinned prediction
//! bits. This pins the persistence format and the evaluator at once —
//! if either drifts, the diff shows up here before any served model
//! silently changes its answers.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! RSM_BLESS=1 cargo test --test golden_bundle -- --nocapture
//! ```
//!
//! then copy the printed bit constants into `EXPECTED_BITS` below and
//! commit the rewritten `tests/golden/bundle_v1.json` alongside.

use sparse_rsm::core::{ModelBundle, SparseModel};
use sparse_rsm::linalg::Matrix;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bundle_v1.json");

/// The in-code twin of the committed JSON. Every value is exactly
/// representable in binary64, so serialization is trivially lossless —
/// the test is about byte stability, not rounding.
fn golden_bundle() -> ModelBundle {
    ModelBundle {
        input_columns: vec!["vth".to_string(), "tox".to_string(), "leff".to_string()],
        response: "delay".to_string(),
        basis: "quadratic".to_string(),
        method: "LAR".to_string(),
        lambda: 4,
        train_error: 0.015625,
        model: SparseModel::new(10, vec![(0, 1.25), (2, -0.5), (5, 0.375), (9, 3.0)]),
    }
}

/// Probe points covering the support: constants, linear, and
/// second-order terms all contribute.
const PROBE_POINTS: [[f64; 3]; 4] = [
    [0.5, -1.25, 2.0],
    [0.0, 0.25, -0.75],
    [-1.0, 1.0, 1.0],
    [2.0, 0.0, -2.0],
];

/// `predict_point` output bits for each probe point, pinned.
const EXPECTED_BITS: [u64; 4] = [
    0xc015e743d2cc252c, // -5.475844663343462
    0x3fd417109fee89f4, // 0.3139077722391044
    0x400e000000000000, // 3.75
    0x3fef83c499904993, // 0.9848349570550446
];

#[expect(
    clippy::disallowed_methods,
    reason = "RSM_BLESS is the explicit opt-in to rewrite the golden file; it never changes what the tests assert"
)]
fn maybe_bless(json_with_newline: &str, bundle: &ModelBundle) {
    if std::env::var("RSM_BLESS").is_err() {
        return;
    }
    std::fs::write(GOLDEN_PATH, json_with_newline).expect("write golden bundle");
    let dict = bundle.dictionary().expect("dictionary rebuilds");
    println!("blessed {GOLDEN_PATH}; EXPECTED_BITS:");
    for p in &PROBE_POINTS {
        let v = bundle.model.predict_point(&dict, p);
        println!("    {:#018x}, // {v}", v.to_bits());
    }
}

#[test]
fn golden_bundle_reserializes_byte_identically() {
    let bundle = golden_bundle();
    let pretty = bundle.to_json().expect("serializes");
    maybe_bless(&pretty, &bundle);

    let committed = std::fs::read_to_string(GOLDEN_PATH).expect("golden bundle is committed");
    let reloaded = ModelBundle::from_json(&committed).expect("golden bundle still parses");
    let rewritten = reloaded.to_json().expect("re-serializes");
    assert_eq!(
        committed, rewritten,
        "golden bundle did not re-serialize byte-identically — the \
         persistence format drifted (bless intentionally, see module docs)"
    );
    // And the reload equals the in-code twin field by field.
    assert_eq!(reloaded.input_columns, bundle.input_columns);
    assert_eq!(reloaded.basis, bundle.basis);
    assert_eq!(reloaded.lambda, bundle.lambda);
    assert_eq!(reloaded.train_error.to_bits(), bundle.train_error.to_bits());
    assert_eq!(reloaded.model, bundle.model);
}

#[test]
fn golden_bundle_predictions_match_pinned_bits() {
    let committed = std::fs::read_to_string(GOLDEN_PATH).expect("golden bundle is committed");
    let bundle = ModelBundle::from_json(&committed).expect("parses");
    let dict = bundle.dictionary().expect("dictionary rebuilds");

    let mut flat = Vec::new();
    for (p, &bits) in PROBE_POINTS.iter().zip(&EXPECTED_BITS) {
        let v = bundle.model.predict_point(&dict, p);
        assert_eq!(
            v.to_bits(),
            bits,
            "evaluator drift at point {p:?}: got {v} ({:#018x})",
            v.to_bits()
        );
        flat.extend_from_slice(p);
    }
    // The batch path must land on the same bits as the per-point path.
    let batch = Matrix::from_vec(PROBE_POINTS.len(), 3, flat).expect("shapes");
    let values = bundle
        .model
        .predict_batch(&dict, &batch)
        .expect("evaluates");
    for (v, &bits) in values.iter().zip(&EXPECTED_BITS) {
        assert_eq!(v.to_bits(), bits);
    }
}
