//! Inputs `rsm` must refuse: the real binary exits 1 with a message
//! naming the problem, never 101 from a panic and never 0 with a
//! model or predictions built from unusable numbers. Also the rule by
//! which `rsm predict` finds a model's inputs in a file: by name under
//! a header, by position without one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsm_cli_rejected_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn rsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsm"))
        .args(args)
        .output()
        .expect("run rsm")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Asserts `out` is a clean failure: exit code 1 and `needle` on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

/// 40 rows of inputs `a,b,c` and response `y`. `Some((row, field))`
/// writes `field` as the `b` value of data row `row` (0-based).
fn samples_csv(bad: Option<(usize, &str)>) -> String {
    let mut csv = String::from("a,b,c,y\n");
    for r in 0..40 {
        let t = r as f64 / 40.0;
        let (a, b, c) = (2.0 * t - 1.0, (7.0 * t).sin(), (3.0 * t).cos());
        let y = 1.0 + 2.0 * a - 0.7 * b + 0.3 * c + 0.5 * a * b;
        let b = match bad {
            Some((row, field)) if row == r => field.to_string(),
            _ => format!("{b:.12}"),
        };
        csv.push_str(&format!("{a:.12},{b},{c:.12},{y:.12}\n"));
    }
    csv
}

/// `rsm fit` of `input` to a quadratic basis at λ = 4.
fn fit(input: &Path, method: &str, model: &Path) -> Output {
    rsm(&[
        "fit",
        "--input",
        path_str(input),
        "--response",
        "y",
        "--method",
        method,
        "--basis",
        "quadratic",
        "--lambda",
        "4",
        "--model",
        path_str(model),
    ])
}

#[test]
fn fit_and_predict_reject_non_finite_fields_naming_line_and_column() {
    let dir = temp_dir("fit");
    let clean = dir.join("clean.csv");
    std::fs::write(&clean, samples_csv(None)).expect("write csv");
    let model = dir.join("model.json");
    let out = fit(&clean, "omp", &model);
    assert!(out.status.success(), "{out:?}");
    for field in ["nan", "inf"] {
        // Data row 12 is line 14: the header is line 1.
        let needle = format!("line 14, column 1: '{field}' is not finite");
        let bad = dir.join(format!("bad_{field}.csv"));
        std::fs::write(&bad, samples_csv(Some((12, field)))).expect("write csv");
        for method in ["omp", "lar"] {
            assert_rejected(&fit(&bad, method, &dir.join("unused.json")), &needle);
        }
        let out = rsm(&[
            "predict",
            "--model",
            path_str(&model),
            "--input",
            path_str(&bad),
        ]);
        assert_rejected(&out, &needle);
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn predict_and_info_reject_a_support_outside_the_dictionary() {
    // A quadratic bundle over 3 inputs has M = 10 terms; index 99 is
    // not one of them.
    let dir = temp_dir("bundle");
    let model = dir.join("model.json");
    std::fs::write(
        &model,
        r#"{
  "input_columns": ["a", "b", "c"],
  "response": "y",
  "basis": "quadratic",
  "method": "LAR",
  "lambda": 1,
  "train_error": 0.0,
  "model": {"num_bases": 10, "coeffs": [[99, 1.0]]}
}
"#,
    )
    .expect("write model");
    let points = dir.join("points.csv");
    std::fs::write(&points, "a,b,c\n0.5,-1.0,2.0\n").expect("write points");
    let needle = "model term index 99 is out of range";
    let out = rsm(&[
        "predict",
        "--model",
        path_str(&model),
        "--input",
        path_str(&points),
    ]);
    assert_rejected(&out, needle);
    assert_rejected(&rsm(&["info", "--model", path_str(&model)]), needle);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn predict_selects_inputs_by_name_under_any_header() {
    // A header that names none of the model's inputs is rejected,
    // whatever its names start with; it is never read by position.
    let dir = temp_dir("header");
    let clean = dir.join("clean.csv");
    std::fs::write(&clean, samples_csv(None)).expect("write csv");
    let model = dir.join("model.json");
    assert!(fit(&clean, "omp", &model).status.success());
    for header in ["cload,vdd,temp", "load,vdd,temp"] {
        let points = dir.join("points.csv");
        std::fs::write(&points, format!("{header}\n0.5,-1.0,2.0\n")).expect("write points");
        let out = rsm(&[
            "predict",
            "--model",
            path_str(&model),
            "--input",
            path_str(&points),
        ]);
        assert_rejected(&out, "no column named 'a'");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn predict_reads_a_headerless_file_by_position() {
    // Fit from a headerless file whose response is column 1: the model
    // inputs are c0, c2 and c3. A headerless file of exactly those
    // three columns scores like the same points under a c0,c2,c3
    // header; one of another width is rejected.
    let dir = temp_dir("headerless");
    let mut train = String::new();
    let (mut points, mut named) = (String::new(), String::from("c0,c2,c3\n"));
    for line in samples_csv(None).lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        train.push_str(&format!("{},{},{},{}\n", f[0], f[3], f[1], f[2]));
        let inputs = format!("{},{},{}\n", f[0], f[1], f[2]);
        points.push_str(&inputs);
        named.push_str(&inputs);
    }
    let (train_csv, model) = (dir.join("train.csv"), dir.join("model.json"));
    std::fs::write(&train_csv, &train).expect("write csv");
    let out = rsm(&[
        "fit",
        "--input",
        path_str(&train_csv),
        "--response",
        "c1",
        "--lambda",
        "3",
        "--model",
        path_str(&model),
    ]);
    assert!(out.status.success(), "{out:?}");
    let predict = |text: &str, tag: &str| {
        let input = dir.join(tag);
        std::fs::write(&input, text).expect("write points");
        rsm(&[
            "predict",
            "--model",
            path_str(&model),
            "--input",
            path_str(&input),
        ])
    };
    let by_position = predict(&points, "points.csv");
    assert!(by_position.status.success(), "{by_position:?}");
    assert_eq!(by_position.stdout, predict(&named, "named.csv").stdout);
    assert_rejected(
        &predict(&train, "wide.csv"),
        "expected 3 input columns, found 4",
    );
    std::fs::remove_dir_all(dir).ok();
}
