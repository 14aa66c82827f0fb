//! Regression tests for the R1 determinism fixes: two identical runs of
//! the CLI must produce byte-identical JSON model bundles and CSV
//! prediction output, regardless of thread count. Before the
//! HashMap→BTreeMap migration, flag/netlist iteration order could vary
//! between processes and leak into serialized output.

use std::path::{Path, PathBuf};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Deterministic pseudo-random stream (no rand dependency).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Writes a small synthetic sample table: 3 inputs, quadratic-ish response.
fn write_samples(path: &Path) {
    let mut csv = String::from("vth,tox,leff,delay\n");
    let mut seed = 0x5eed_cafe_u64;
    for _ in 0..40 {
        let a = lcg(&mut seed) * 2.0 - 1.0;
        let b = lcg(&mut seed) * 2.0 - 1.0;
        let c = lcg(&mut seed) * 2.0 - 1.0;
        let y = 1.0 + 2.0 * a - 0.7 * b + 0.3 * c + 0.5 * a * b;
        csv.push_str(&format!("{a:.12},{b:.12},{c:.12},{y:.12}\n"));
    }
    std::fs::write(path, csv).expect("write samples");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rsm_cli_determinism_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn fit_and_predict_are_byte_identical_across_runs_and_threads() {
    let dir = temp_dir("fit");
    let samples = dir.join("samples.csv");
    write_samples(&samples);
    let samples = samples.to_str().expect("utf-8 path");

    let mut bundles = Vec::new();
    let mut predictions = Vec::new();
    let mut stdouts = Vec::new();
    // Two identical runs at 1 thread, then one at 4 threads: all three
    // must agree byte-for-byte (PR 1's thread-count-invariance
    // guarantee, now extended through serialization order).
    for (tag, threads) in [("a", "1"), ("b", "1"), ("c", "4")] {
        let model = dir.join(format!("model_{tag}.json"));
        let model = model.to_str().expect("utf-8 path");
        let out = rsm_cli::run(&args(&[
            "fit",
            "--input",
            samples,
            "--response",
            "delay",
            "--method",
            "lar",
            "--basis",
            "quadratic",
            "--lambda",
            "5",
            "--model",
            model,
            "--threads",
            threads,
        ]))
        .expect("fit succeeds");
        // Keep only the fit summary — later lines embed the per-run
        // output path.
        stdouts.push(out.lines().next().unwrap_or_default().to_string());
        bundles.push(std::fs::read(model).expect("model written"));

        let pred = dir.join(format!("pred_{tag}.csv"));
        let pred_s = pred.to_str().expect("utf-8 path");
        rsm_cli::run(&args(&[
            "predict",
            "--model",
            model,
            "--input",
            samples,
            "--output",
            pred_s,
            "--threads",
            threads,
        ]))
        .expect("predict succeeds");
        predictions.push(std::fs::read(&pred).expect("prediction written"));
    }

    assert_eq!(
        bundles[0], bundles[1],
        "identical runs diverged (model JSON)"
    );
    assert_eq!(
        bundles[0], bundles[2],
        "thread count leaked into model JSON"
    );
    assert_eq!(
        predictions[0], predictions[1],
        "identical runs diverged (CSV)"
    );
    assert_eq!(
        predictions[0], predictions[2],
        "thread count leaked into CSV"
    );
    assert_eq!(stdouts[0], stdouts[1], "identical runs diverged (stdout)");
    assert_eq!(stdouts[0], stdouts[2], "thread count leaked into stdout");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerouted_predict_is_byte_identical_across_threads_on_multi_chunk_batches() {
    // `rsm predict` runs through SparseModel::predict_batch, which
    // scores 8 points at a time and the last 700 mod 8 = 4 one at a
    // time. The CSV must be byte-identical at 1 and 4 threads, and
    // identical to the per-point evaluation it replaced.
    let dir = temp_dir("predict_batch");
    let samples = dir.join("samples.csv");
    write_samples(&samples);
    let samples_s = samples.to_str().expect("utf-8 path");
    let model = dir.join("model.json");
    let model_s = model.to_str().expect("utf-8 path");
    rsm_cli::run(&args(&[
        "fit",
        "--input",
        samples_s,
        "--response",
        "delay",
        "--basis",
        "quadratic",
        "--lambda",
        "5",
        "--model",
        model_s,
    ]))
    .expect("fit succeeds");

    // A 700-row input file (3 columns, no response needed for predict
    // with named columns — reuse the header so columns match).
    let big = dir.join("big.csv");
    let mut csv = String::from("vth,tox,leff\n");
    let mut seed = 0xb16_b00b5_u64;
    let mut rows: Vec<[f64; 3]> = Vec::new();
    for _ in 0..700 {
        // Round through the CSV encoding so the in-process reference
        // sees exactly the values the CLI will parse.
        let p = [
            lcg(&mut seed) * 2.0 - 1.0,
            lcg(&mut seed) * 2.0 - 1.0,
            lcg(&mut seed) * 2.0 - 1.0,
        ]
        .map(|v| format!("{v:.12}").parse::<f64>().expect("roundtrips"));
        csv.push_str(&format!("{:.12},{:.12},{:.12}\n", p[0], p[1], p[2]));
        rows.push(p);
    }
    std::fs::write(&big, csv).expect("write big csv");
    let big_s = big.to_str().expect("utf-8 path");

    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let pred = dir.join(format!("pred_{threads}.csv"));
        let pred_s = pred.to_str().expect("utf-8 path");
        rsm_cli::run(&args(&[
            "predict",
            "--model",
            model_s,
            "--input",
            big_s,
            "--output",
            pred_s,
            "--threads",
            threads,
        ]))
        .expect("predict succeeds");
        outputs.push(std::fs::read_to_string(&pred).expect("prediction written"));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "thread count leaked into predict output"
    );

    // Cross-check against the serial per-point loop the command used
    // to contain: the CSV values must be the shortest-roundtrip
    // prints of exactly those bits.
    let bundle =
        rsm_cli::ModelBundle::from_json(&std::fs::read_to_string(&model).expect("model readable"))
            .expect("bundle parses");
    let dict = bundle.dictionary().expect("dictionary rebuilds");
    let body = outputs[0]
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect::<Vec<_>>();
    assert_eq!(body.len(), 700);
    for (p, line) in rows.iter().zip(&body) {
        let serial = bundle.model.predict_point(&dict, p);
        let printed: f64 = line.parse().expect("csv cell parses");
        assert_eq!(
            printed.to_bits(),
            serial.to_bits(),
            "batch path diverged from the per-point loop at {p:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emitted_c_source_is_byte_identical_across_runs() {
    let dir = temp_dir("emit");
    let samples = dir.join("samples.csv");
    write_samples(&samples);
    let samples = samples.to_str().expect("utf-8 path");

    let mut sources = Vec::new();
    for tag in ["a", "b"] {
        let c_out = dir.join(format!("model_{tag}.c"));
        let c_out_s = c_out.to_str().expect("utf-8 path");
        rsm_cli::run(&args(&[
            "fit",
            "--input",
            samples,
            "--response",
            "delay",
            "--method",
            "omp",
            "--lambda",
            "4",
            "--emit-c",
            c_out_s,
            "--threads",
            "2",
        ]))
        .expect("fit succeeds");
        sources.push(std::fs::read(&c_out).expect("C source written"));
    }
    assert_eq!(
        sources[0], sources[1],
        "identical runs diverged (emitted C)"
    );

    std::fs::remove_dir_all(&dir).ok();
}
