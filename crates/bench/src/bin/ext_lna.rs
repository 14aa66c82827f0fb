//! EXT-B: RF extension experiment — sparse variability modeling of the
//! 2.4 GHz cascode LNA (220 variables, 4 RF metrics), in the style of
//! the paper's Fig. 4 error-vs-samples sweep.
//!
//! Run: `cargo run --release -p rsm-bench --bin ext_lna [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{print_series_table, report, RunOptions};
use rsm_circuits::{sampling, Lna, PerformanceCircuit};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_stats::metrics::relative_error;
use serde::Serialize;

#[derive(Serialize)]
struct ExtLnaRecord {
    metric: String,
    method: String,
    samples: Vec<usize>,
    errors: Vec<f64>,
}

fn main() {
    let opts = RunOptions::from_args();
    let lna = Lna::new();
    let ks: Vec<usize> = if opts.quick {
        vec![60, 120]
    } else {
        vec![60, 120, 200, 300, 450]
    };
    let k_test = opts.pick(1500, 500);
    let lambda_max = opts.pick(40, 20);
    let k_pool = *ks.last().unwrap();

    eprintln!("sampling {k_pool} + {k_test} LNA points …");
    let pool = sampling::sample(&lna, k_pool, 71);
    let test = sampling::sample(&lna, k_test, 72);
    let dict = Dictionary::new(lna.num_vars(), DictionaryKind::Linear);
    let g_test = dict.design_matrix(&test.inputs);

    let mut records = Vec::new();
    for (mi, metric) in lna.metric_names().iter().enumerate() {
        let f_test = test.metric(mi);
        let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
        let mut owned = Vec::new();
        for method in [Method::Star, Method::Lar, Method::Omp] {
            let mut errs = Vec::new();
            for &k in &ks {
                let tr = pool.truncated(k);
                let g = dict.design_matrix(&tr.inputs);
                let order = ModelOrder::CrossValidated(CvConfig::new(lambda_max.min(k / 3)));
                let rep = solver::fit(&g, &tr.metric(mi), method, &order).expect("fit");
                errs.push(relative_error(&rep.model.predict_matrix(&g_test), &f_test));
            }
            records.push(ExtLnaRecord {
                metric: metric.to_string(),
                method: method.name().to_string(),
                samples: ks.clone(),
                errors: errs.clone(),
            });
            owned.push((method.name(), errs));
        }
        for (name, errs) in &owned {
            series.push((name, errs.clone()));
        }
        print_series_table(
            &format!("EXT-B — LNA {metric}: linear modeling error vs samples"),
            "K",
            &ks,
            &series,
        );
    }
    report("ext_lna", &records);
}
