//! Fig. 4 (a–d): linear modeling error of the OpAmp's four performance
//! metrics as a function of the number of training samples, for LS,
//! STAR, LAR and OMP.
//!
//! Expected shape (paper): all errors decrease with more samples; the
//! sparse solvers reach a given accuracy with far fewer samples than
//! LS (which needs `K ≥ M = 631` to exist at all); OMP ≤ LAR < STAR at
//! matched `K` for most metrics.
//!
//! Run: `cargo run --release -p rsm-bench --bin fig4 [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{print_series_table, report, RunOptions};
use rsm_circuits::{sampling, OpAmp, PerformanceCircuit};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_stats::metrics::relative_error;
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Record {
    metric: String,
    method: String,
    samples: Vec<usize>,
    errors: Vec<Option<f64>>,
}

fn main() {
    let opts = RunOptions::from_args();
    let amp = OpAmp::new();
    let m = amp.num_vars() + 1;

    let sparse_ks: Vec<usize> = if opts.quick {
        vec![100, 200, 400]
    } else {
        vec![100, 200, 300, 400, 600, 800, 1000, 1200]
    };
    let ls_ks: Vec<usize> = if opts.quick {
        vec![700]
    } else {
        vec![700, 800, 1000, 1200]
    };
    let k_test = opts.pick(5000, 800);
    let lambda_max = opts.pick(80, 25);
    let k_pool = *sparse_ks.last().unwrap().max(ls_ks.last().unwrap());

    eprintln!("sampling {k_pool} training + {k_test} testing points …");
    let pool = sampling::sample(&amp, k_pool, 2009);
    let test = sampling::sample(&amp, k_test, 777);
    let dict = Dictionary::new(amp.num_vars(), DictionaryKind::Linear);
    let g_test = dict.design_matrix(&test.inputs);

    let mut records = Vec::new();
    for (mi, metric) in amp.metric_names().iter().enumerate() {
        let f_test = test.metric(mi);
        let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
        // Sparse methods over the full K sweep.
        for method in [Method::Star, Method::Lar, Method::Omp] {
            let mut errs = Vec::new();
            for &k in &sparse_ks {
                let tr = pool.truncated(k);
                let g = dict.design_matrix(&tr.inputs);
                let f = tr.metric(mi);
                let order = ModelOrder::CrossValidated(CvConfig::new(lambda_max.min(k / 2)));
                let rep = solver::fit(&g, &f, method, &order).expect("sparse fit");
                errs.push(relative_error(&rep.model.predict_matrix(&g_test), &f_test));
            }
            records.push(Fig4Record {
                metric: metric.to_string(),
                method: method.name().to_string(),
                samples: sparse_ks.clone(),
                errors: errs.iter().map(|&e| Some(e)).collect(),
            });
            series.push((method.name(), errs));
        }
        // LS wherever K ≥ M.
        let mut ls_errs = Vec::new();
        for &k in &ls_ks {
            if k < m {
                ls_errs.push(f64::NAN);
                continue;
            }
            let tr = pool.truncated(k);
            let g = dict.design_matrix(&tr.inputs);
            let f = tr.metric(mi);
            let rep = solver::fit(&g, &f, Method::Ls, &ModelOrder::Fixed(0)).expect("LS fit");
            ls_errs.push(relative_error(&rep.model.predict_matrix(&g_test), &f_test));
        }
        records.push(Fig4Record {
            metric: metric.to_string(),
            method: "LS".to_string(),
            samples: ls_ks.clone(),
            errors: ls_errs
                .iter()
                .map(|&e| e.is_finite().then_some(e))
                .collect(),
        });

        print_series_table(
            &format!("Fig. 4 — {metric}: linear modeling error vs training samples"),
            "K",
            &sparse_ks,
            &series,
        );
        println!("LS (needs K ≥ {m}):");
        for (&k, &e) in ls_ks.iter().zip(&ls_errs) {
            if e.is_finite() {
                println!("    K = {k:>5}:  {:.2}%", e * 100.0);
            }
        }
    }
    report("fig4", &records);
}
