//! EXT-D: ring-oscillator frequency modeling — a stress test of the
//! paper's sparsity assumption.
//!
//! Ring frequency aggregates *every* device and parasitic in the loop
//! with comparable weight: the true coefficient vector is dense, the
//! opposite of the SRAM's 26-of-21 311 profile. The sparse solvers'
//! advantage should therefore collapse: errors stay high until K
//! approaches N + 1 = 129, at which point plain LS becomes available
//! and competitive. A reproduction of the *limits* the paper's Section
//! III states ("the sparse structure … is the necessary condition").
//!
//! Run: `cargo run --release -p rsm-bench --bin ext_ring [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{print_series_table, report, timed, RunOptions};
use rsm_circuits::{sampling, PerformanceCircuit, RingOscillator};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_stats::metrics::relative_error;
use serde::Serialize;

#[derive(Serialize)]
struct ExtRingRecord {
    method: String,
    samples: Vec<usize>,
    errors: Vec<f64>,
    lambdas: Vec<usize>,
}

fn main() {
    let opts = RunOptions::from_args();
    let ring = RingOscillator::new();
    let ks: Vec<usize> = if opts.quick {
        vec![40, 80]
    } else {
        vec![40, 80, 150, 250, 400]
    };
    let k_test = opts.pick(600, 150);
    let lambda_max = opts.pick(120, 15);
    let k_pool = *ks.last().unwrap();

    eprintln!(
        "transient-sampling {} + {} ring oscillators ({} vars each) …",
        k_pool,
        k_test,
        ring.num_vars()
    );
    let (pool, secs) = timed(|| sampling::sample(&ring, k_pool, 81));
    eprintln!("{:.1} ms per transient sample", secs / k_pool as f64 * 1e3);
    let test = sampling::sample(&ring, k_test, 82);
    let dict = Dictionary::new(ring.num_vars(), DictionaryKind::Linear);
    let g_test = dict.design_matrix(&test.inputs);
    let f_test = test.metric(0);

    let mut records = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut owned = Vec::new();
    for method in [Method::Star, Method::Lar, Method::Omp] {
        let mut errs = Vec::new();
        let mut lambdas = Vec::new();
        for &k in &ks {
            let tr = pool.truncated(k);
            let g = dict.design_matrix(&tr.inputs);
            let order = ModelOrder::CrossValidated(CvConfig::new(lambda_max.min(k / 3)));
            let rep = solver::fit(&g, &tr.metric(0), method, &order).expect("fit");
            errs.push(relative_error(&rep.model.predict_matrix(&g_test), &f_test));
            lambdas.push(rep.lambda);
        }
        records.push(ExtRingRecord {
            method: method.name().to_string(),
            samples: ks.clone(),
            errors: errs.clone(),
            lambdas,
        });
        owned.push((method.name(), errs));
    }
    // LS wherever K ≥ M = N + 1.
    let m = dict.len();
    let mut ls_errs = Vec::new();
    for &k in &ks {
        if k < m {
            ls_errs.push(f64::NAN);
            continue;
        }
        let tr = pool.truncated(k);
        let g = dict.design_matrix(&tr.inputs);
        let rep = solver::fit(&g, &tr.metric(0), Method::Ls, &ModelOrder::Fixed(0)).expect("LS");
        ls_errs.push(relative_error(&rep.model.predict_matrix(&g_test), &f_test));
    }
    records.push(ExtRingRecord {
        method: "LS".into(),
        samples: ks.clone(),
        errors: ls_errs.clone(),
        lambdas: vec![m; ks.len()],
    });
    owned.push(("LS", ls_errs));
    for (name, errs) in &owned {
        series.push((name, errs.clone()));
    }
    print_series_table(
        "EXT-D — ring-oscillator frequency: linear modeling error vs samples",
        "K",
        &ks,
        &series,
    );
    println!(
        "Reading: a DENSE truth — every device and parasitic matters with\n\
         comparable weight — so sparsity buys little: errors stay high at\n\
         K << N and LS (available once K > {}) catches up or wins. This is\n\
         the boundary of the paper's method, stated in its Section III:\n\
         sparsity of the true coefficients is the necessary condition.",
        dict.len()
    );
    report("ext_ring", &records);
}
