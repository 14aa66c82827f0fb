//! Code generation: export a fitted [`SparseModel`] as a standalone
//! C function or a Verilog-A analog block.
//!
//! Response surface models earn their keep *outside* the fitting tool:
//! inside yield optimizers, testbenches and behavioural simulations.
//! These emitters produce dependency-free source with one term per
//! line, so the generated artifact is reviewable and diffable.
//!
//! Every [`Atom`] of the paper's linear and quadratic families has an
//! expression: the constant, `y`, the pure quadratic
//! `ψ₂(y) = (y² − 1)/√2` and the pairwise cross term.

use crate::model::SparseModel;
use crate::{CoreError, Result};
use rsm_basis::{Atom, Dictionary};
use std::fmt::Write as _;

/// 1/√2, spelled out in the generated code.
const FRAC_1_SQRT_2: &str = "0.7071067811865476";

/// Renders one basis function as a C/Verilog-A expression over `var(i)`
/// access strings produced by `var`.
fn term_expr(atom: Atom, var: &dyn Fn(usize) -> String) -> String {
    match atom {
        Atom::Constant => "1.0".to_string(),
        Atom::Linear(v) => var(v),
        Atom::PureQuadratic(v) => {
            let x = var(v);
            format!("({FRAC_1_SQRT_2} * ({x} * {x} - 1.0))")
        }
        Atom::Cross(i, j) => format!("{} * {}", var(i), var(j)),
    }
}

/// Emits a C99 function `double <name>(const double *dy)` evaluating
/// the model at a variation vector of length `dict.num_vars()`.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] if the model and dictionary sizes
///   disagree;
/// - [`CoreError::BadConfig`] for an invalid identifier.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]
pub fn to_c(model: &SparseModel, dict: &Dictionary, name: &str) -> Result<String> {
    check(model, dict, name)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Sparse response-surface model: {} of {} coefficients non-zero. */",
        model.num_nonzeros(),
        dict.len()
    );
    let _ = writeln!(
        out,
        "/* Input: dy[0..{}] — independent N(0,1) variation variables. */",
        dict.num_vars() - 1
    );
    let _ = writeln!(out, "double {name}(const double *dy) {{");
    let _ = writeln!(out, "    double acc = 0.0;");
    let var = |i: usize| format!("dy[{i}]");
    for &(m, c) in model.coefficients() {
        let expr = term_expr(dict.atom(m), &var);
        let _ = writeln!(out, "    acc += {c:.17e} * {expr};");
    }
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    Ok(out)
}

/// Emits a Verilog-A analog function `analog function real <name>`
/// taking a flat `dy` array parameter, for behavioural use inside an
/// AMS testbench.
///
/// # Errors
///
/// As [`to_c`].
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]
pub fn to_veriloga(model: &SparseModel, dict: &Dictionary, name: &str) -> Result<String> {
    check(model, dict, name)?;
    let n = dict.num_vars();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Sparse response-surface model ({} non-zero terms).",
        model.num_nonzeros()
    );
    let _ = writeln!(out, "analog function real {name};");
    let _ = writeln!(out, "    input dy;");
    let _ = writeln!(out, "    real dy[0:{}];", n - 1);
    let _ = writeln!(out, "    real acc;");
    let _ = writeln!(out, "    begin");
    let _ = writeln!(out, "        acc = 0.0;");
    let var = |i: usize| format!("dy[{i}]");
    for &(m, c) in model.coefficients() {
        let expr = term_expr(dict.atom(m), &var);
        let _ = writeln!(out, "        acc = acc + {c:.17e} * {expr};");
    }
    let _ = writeln!(out, "        {name} = acc;");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "endfunction");
    Ok(out)
}

fn check(model: &SparseModel, dict: &Dictionary, name: &str) -> Result<()> {
    if model.num_bases() != dict.len() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("model over {} bases", dict.len()),
            found: format!("{} bases", model.num_bases()),
        });
    }
    let valid = !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !valid {
        return Err(CoreError::BadConfig(format!(
            "'{name}' is not a valid C/Verilog-A identifier"
        )));
    }
    Ok(())
}

/// A tiny interpreter for the emitted arithmetic, used by the tests to
/// prove the generated code computes exactly what the model predicts
/// (without needing a C compiler in CI).
#[cfg(test)]
fn interpret_c_body(src: &str, dy: &[f64]) -> f64 {
    let mut acc = 0.0;
    for line in src.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("acc += ") else {
            continue;
        };
        let rest = rest.trim_end_matches(';');
        // Split on top-level " * " only (quadratic factors contain
        // nested products inside parentheses).
        let mut product = 1.0;
        let mut depth = 0i32;
        let mut start = 0usize;
        let bytes = rest.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                b'*' if depth == 0
                    && i > 0
                    && bytes[i - 1] == b' '
                    && i + 1 < bytes.len()
                    && bytes[i + 1] == b' ' =>
                {
                    product *= eval_factor(rest[start..i - 1].trim(), dy);
                    start = i + 2;
                }
                _ => {}
            }
            i += 1;
        }
        product *= eval_factor(rest[start..].trim(), dy);
        acc += product;
    }
    acc
}

#[cfg(test)]
fn eval_factor(f: &str, dy: &[f64]) -> f64 {
    // Forms: "<float>", "dy[i]", "(<c> * (dy[i] * dy[i] - 1.0))".
    if let Some(inner) = f.strip_prefix("(0.7071067811865476 * (") {
        let inner = inner
            .strip_suffix("- 1.0))")
            .expect("quadratic factor shape");
        let idx: usize = inner
            .split("dy[")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .and_then(|s| s.parse().ok())
            .expect("index");
        return std::f64::consts::FRAC_1_SQRT_2 * (dy[idx] * dy[idx] - 1.0);
    }
    if let Some(idx) = f.strip_prefix("dy[").and_then(|s| s.strip_suffix(']')) {
        return dy[idx.parse::<usize>().expect("index")];
    }
    f.parse::<f64>().expect("numeric literal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_basis::DictionaryKind;

    fn setup() -> (Dictionary, SparseModel) {
        let dict = Dictionary::new(4, DictionaryKind::Quadratic);
        // constant + y1 + ψ2(y0) + y2·y3
        let cross23 = (0..dict.len())
            .find(|&i| dict.atom(i) == Atom::Cross(2, 3))
            .unwrap();
        let model = SparseModel::new(
            dict.len(),
            vec![(0, 1.5), (2, -2.0), (5, 0.75), (cross23, 0.3)],
        );
        (dict, model)
    }

    #[test]
    fn c_output_structure() {
        let (dict, model) = setup();
        let src = to_c(&model, &dict, "read_delay_model").unwrap();
        assert!(src.contains("double read_delay_model(const double *dy)"));
        assert!(src.contains("4 of 15 coefficients non-zero"));
        assert!(src.contains("dy[1]"));
        assert!(src.contains("dy[2] * dy[3]"));
        assert!(src.contains("0.7071067811865476"));
        assert!(src.ends_with("}\n"));
    }

    #[test]
    fn generated_c_matches_model_predictions() {
        let (dict, model) = setup();
        let src = to_c(&model, &dict, "m").unwrap();
        for seed in 0..20 {
            let dy: Vec<f64> = (0..4)
                .map(|i| ((seed * 7 + i * 13) as f64 * 0.37).sin() * 2.0)
                .collect();
            let direct = model.predict_point(&dict, &dy);
            let emitted = interpret_c_body(&src, &dy);
            assert!(
                (direct - emitted).abs() < 1e-12 * (1.0 + direct.abs()),
                "seed {seed}: {direct} vs {emitted}"
            );
        }
    }

    #[test]
    fn veriloga_output_structure() {
        let (dict, model) = setup();
        let src = to_veriloga(&model, &dict, "rsm_delay").unwrap();
        assert!(src.contains("analog function real rsm_delay;"));
        assert!(src.contains("real dy[0:3];"));
        assert!(src.contains("endfunction"));
        assert!(src.contains("rsm_delay = acc;"));
    }

    #[test]
    fn invalid_identifiers_rejected() {
        let (dict, model) = setup();
        for bad in ["", "1abc", "has space", "semi;colon"] {
            assert!(to_c(&model, &dict, bad).is_err(), "accepted '{bad}'");
        }
        assert!(to_c(&model, &dict, "_ok_123").is_ok());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (dict, _) = setup();
        let wrong = SparseModel::new(3, vec![(1, 1.0)]);
        assert!(matches!(
            to_c(&wrong, &dict, "f"),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zero_model_emits_trivial_function() {
        let dict = Dictionary::new(3, DictionaryKind::Linear);
        let model = SparseModel::zero(dict.len());
        let src = to_c(&model, &dict, "zero").unwrap();
        assert!(src.contains("return acc;"));
        assert!(interpret_c_body(&src, &[1.0, 2.0, 3.0]).abs() < 1e-300);
    }
}
