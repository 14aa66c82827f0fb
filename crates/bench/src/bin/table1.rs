//! Table I: linear performance modeling cost for the operational
//! amplifier.
//!
//! The paper's operating points: LS trains on 1200 samples (it needs
//! `K ≥ M = 631`); STAR/LAR/OMP train on 600. The fitting cost covers
//! all four performance metrics (including cross-validation for the
//! sparse solvers). Simulation cost dominates, so the sparse methods'
//! ~2× total-cost advantage comes from halving the sample count.
//!
//! Run: `cargo run --release -p rsm-bench --bin table1 [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{print_cost_table, report, timed, CostRow, RunOptions, SPECTRE_SECONDS_OPAMP};
use rsm_circuits::{sampling, OpAmp, PerformanceCircuit};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_stats::metrics::relative_error;

fn main() {
    let opts = RunOptions::from_args();
    let amp = OpAmp::new();
    let k_ls = opts.pick(1200, 700);
    let k_sparse = opts.pick(600, 300);
    let k_test = opts.pick(5000, 800);
    let lambda_max = opts.pick(80, 25);

    eprintln!("sampling …");
    let (pool, sim_secs_pool) = timed(|| sampling::sample(&amp, k_ls, 2009));
    let test = sampling::sample(&amp, k_test, 777);
    let dict = Dictionary::new(amp.num_vars(), DictionaryKind::Linear);
    let g_test = dict.design_matrix(&test.inputs);
    let per_sample = sim_secs_pool / k_ls as f64;

    let mut rows = Vec::new();
    for method in Method::all() {
        let k = if method == Method::Ls { k_ls } else { k_sparse };
        let tr = pool.truncated(k);
        let g = dict.design_matrix(&tr.inputs);
        let mut fit_secs = 0.0;
        let mut worst_err = 0.0f64;
        for mi in 0..amp.num_metrics() {
            let f = tr.metric(mi);
            let order = match method {
                Method::Ls => ModelOrder::Fixed(0),
                _ => ModelOrder::CrossValidated(CvConfig::new(lambda_max)),
            };
            let rep = solver::fit(&g, &f, method, &order).expect("fit");
            fit_secs += rep.fit_seconds;
            let err = relative_error(&rep.model.predict_matrix(&g_test), &test.metric(mi));
            worst_err = worst_err.max(err);
        }
        rows.push(CostRow {
            method: method.name().to_string(),
            error: Some(worst_err),
            samples: k,
            sim_cost_paper_s: k as f64 * SPECTRE_SECONDS_OPAMP,
            sim_cost_measured_s: k as f64 * per_sample,
            fit_cost_s: fit_secs,
            extrapolated: false,
        });
    }
    print_cost_table(
        "Table I — linear performance modeling cost (OpAmp; error = worst of 4 metrics)",
        &rows,
    );
    report("table1", &rows);
}
