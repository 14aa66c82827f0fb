//! Fig. 6: magnitude of the SRAM read-delay linear model coefficients
//! estimated by OMP — of the 21 311 candidate basis functions, only a
//! few dozen carry non-zero coefficients, spanning roughly two orders
//! of magnitude.
//!
//! Run: `cargo run --release -p rsm-bench --bin fig6 [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{report, RunOptions};
use rsm_circuits::{sampling, PerformanceCircuit, SramReadPath};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Record {
    dict_size: usize,
    lambda: usize,
    /// `(basis index, |coefficient|)` sorted by decreasing magnitude.
    coefficients: Vec<(usize, f64)>,
}

fn main() {
    let opts = RunOptions::from_args();
    let sram = if opts.quick {
        SramReadPath::with_geometry(32, 8, 8)
    } else {
        SramReadPath::paper_scale()
    };
    let k = opts.pick(1000, 400);
    let lambda_max = opts.pick(80, 30);

    eprintln!("sampling {k} points of the {}-var SRAM …", sram.num_vars());
    let train = sampling::sample(&sram, k, 31);
    let dict = Dictionary::new(sram.num_vars(), DictionaryKind::Linear);
    let g = dict.design_matrix(&train.inputs);
    let f = train.metric(0);
    let rep = solver::fit(
        &g,
        &f,
        Method::Omp,
        &ModelOrder::CrossValidated(CvConfig::new(lambda_max)),
    )
    .expect("OMP fit");

    let mut coeffs: Vec<(usize, f64)> = rep
        .model
        .coefficients()
        .iter()
        .map(|&(i, c)| (i, c.abs()))
        .collect();
    coeffs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite coefficients"));

    println!("\n=== Fig. 6 — SRAM read-delay model coefficients (OMP) ===");
    println!(
        "dictionary size M = {}, selected non-zeros = {} (λ* by 4-fold CV)",
        dict.len(),
        coeffs.len()
    );
    let max = coeffs.first().map(|c| c.1).unwrap_or(1.0);
    println!("{:<8}{:>10}{:>14}   log-scale", "rank", "basis", "|coef|");
    for (rank, &(idx, mag)) in coeffs.iter().enumerate() {
        let bar_len = if mag > 0.0 {
            // 50 chars span 3 decades below the max.
            (50.0 * (1.0 + (mag / max).log10() / 3.0)).max(1.0) as usize
        } else {
            0
        };
        let term = dict.atom(idx);
        println!(
            "{:<8}{:>10}{:>14.3e}   {} {}",
            rank + 1,
            idx,
            mag,
            "#".repeat(bar_len.min(50)),
            term
        );
    }
    if let (Some(first), Some(last)) = (coeffs.first(), coeffs.last()) {
        println!(
            "\ncoefficient magnitudes span {:.1} decades; {} of {} bases are exactly zero",
            (first.1 / last.1).log10(),
            dict.len() - coeffs.len(),
            dict.len()
        );
    }
    let record = Fig6Record {
        dict_size: dict.len(),
        lambda: rep.lambda,
        coefficients: coeffs,
    };
    report("fig6", &record);
}
