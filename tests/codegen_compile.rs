//! End-to-end codegen validation: the emitted C source must compile
//! with the system compiler and produce values identical to the Rust
//! model. Skipped (with a note) when no C compiler is installed.

use sparse_rsm::basis::{Atom, Dictionary, DictionaryKind};
use sparse_rsm::core::{codegen, SparseModel};
use sparse_rsm::stats::NormalSampler;
use std::process::Command;

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[test]
fn emitted_c_compiles_and_matches_rust_predictions() {
    if !have_cc() {
        eprintln!("skipping: no `cc` on PATH");
        return;
    }
    let dict = Dictionary::new(6, DictionaryKind::Quadratic);
    let mut rng = NormalSampler::seed_from_u64(9);
    // A model touching every term kind.
    let cross = (0..dict.len())
        .find(|&i| dict.atom(i) == Atom::Cross(1, 4))
        .unwrap();
    let model = SparseModel::new(
        dict.len(),
        vec![(0, 1.25), (3, -0.75), (8, 2.5), (cross, 0.5)],
    );
    let c_src = codegen::to_c(&model, &dict, "rsm_model").unwrap();

    // Test points + expected outputs, baked into a main().
    let points: Vec<Vec<f64>> = (0..8).map(|_| rng.sample_vec(6)).collect();
    let expected: Vec<f64> = points
        .iter()
        .map(|p| model.predict_point(&dict, p))
        .collect();
    let mut main_src = String::from("#include <stdio.h>\n#include <math.h>\n");
    main_src.push_str(&c_src);
    main_src.push_str("int main(void) {\n");
    for (i, p) in points.iter().enumerate() {
        let vals: Vec<String> = p.iter().map(|v| format!("{v:.17e}")).collect();
        main_src.push_str(&format!(
            "    {{ const double dy[6] = {{{}}};\n      if (fabs(rsm_model(dy) - ({:.17e})) > 1e-12) {{ printf(\"MISMATCH {i}\\n\"); return 1; }} }}\n",
            vals.join(", "),
            expected[i]
        ));
    }
    main_src.push_str("    printf(\"OK\\n\");\n    return 0;\n}\n");

    let dir = std::env::temp_dir().join("rsm_codegen_cc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join("model_test.c");
    let bin_path = dir.join("model_test");
    std::fs::write(&c_path, &main_src).unwrap();
    let compile = Command::new("cc")
        .args([
            "-O2",
            "-std=c99",
            "-o",
            bin_path.to_str().unwrap(),
            c_path.to_str().unwrap(),
            "-lm",
        ])
        .output()
        .expect("spawn cc");
    assert!(
        compile.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&compile.stderr)
    );
    let run = Command::new(&bin_path)
        .output()
        .expect("run compiled model");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success() && stdout.contains("OK"), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}
