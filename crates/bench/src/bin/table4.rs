//! Table IV: linear performance modeling error and cost for the SRAM
//! read path — `N = 21 310` variation variables, `M = 21 311` basis
//! functions, 1000 training samples for the sparse solvers.
//!
//! The paper's LS point (25 000 samples, 13 856 s of fitting) cannot be
//! run directly (K·M² ≈ 10¹³ flops); LS instead runs on a reduced SRAM
//! geometry and its paper-scale fitting cost is extrapolated with the
//! QR cost law (marked `*` in the output).
//!
//! Expected shape: OMP most accurate; OMP/LAR/STAR total cost ~25×
//! below LS (the sample count dominates).
//!
//! Run: `cargo run --release -p rsm-bench --bin table4 [-- --quick]`

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_bench::{
    ls_cost_scale, print_cost_table, report, test_error, timed, CostRow, RunOptions,
    SPECTRE_SECONDS_SRAM,
};
use rsm_circuits::{sampling, PerformanceCircuit, SramReadPath};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_stats::metrics::relative_error;

fn main() {
    let opts = RunOptions::from_args();
    let sram = if opts.quick {
        SramReadPath::with_geometry(32, 8, 8)
    } else {
        SramReadPath::paper_scale()
    };
    let k_sparse = opts.pick(1000, 400);
    let k_test = opts.pick(3000, 600);
    let lambda_max = opts.pick(80, 30);
    let k_paper_ls = 25_000;
    let m_paper = 21_311;

    eprintln!(
        "SRAM geometry: {} vars; sampling {k_sparse} + {k_test} points …",
        sram.num_vars()
    );
    let (train, sim_secs) = timed(|| sampling::sample(&sram, k_sparse, 31));
    let per_sample = sim_secs / k_sparse as f64;
    let test = sampling::sample(&sram, k_test, 32);
    let dict = Dictionary::new(sram.num_vars(), DictionaryKind::Linear);
    let g_train = dict.design_matrix(&train.inputs);
    let f_train = train.metric(0);
    let f_test = test.metric(0);

    let mut rows = Vec::new();

    // LS on a reduced geometry + cost extrapolation.
    {
        let small = SramReadPath::with_geometry(16, 6, 8);
        let m_small = small.num_vars() + 1;
        let k_small = m_small * 3;
        eprintln!(
            "LS reduced geometry: N = {}, M = {m_small}, K = {k_small}",
            small.num_vars()
        );
        let ls_train = sampling::sample(&small, k_small, 33);
        let ls_test = sampling::sample(&small, k_test, 34);
        let sdict = Dictionary::new(small.num_vars(), DictionaryKind::Linear);
        let g = sdict.design_matrix(&ls_train.inputs);
        let (model, secs) = timed(|| rsm_core::ls::fit(&g, &ls_train.metric(0)));
        let model = model.expect("reduced LS fit");
        let g_t = sdict.design_matrix(&ls_test.inputs);
        let err = relative_error(&model.predict_matrix(&g_t), &ls_test.metric(0));
        rows.push(CostRow {
            method: "LS".into(),
            error: Some(err),
            samples: k_paper_ls,
            sim_cost_paper_s: k_paper_ls as f64 * SPECTRE_SECONDS_SRAM,
            sim_cost_measured_s: k_paper_ls as f64 * per_sample,
            fit_cost_s: secs * ls_cost_scale(k_small, m_small, k_paper_ls, m_paper),
            extrapolated: true,
        });
    }

    for method in [Method::Star, Method::Lar, Method::Omp] {
        let order = ModelOrder::CrossValidated(CvConfig::new(lambda_max));
        let (rep, secs) = timed(|| solver::fit(&g_train, &f_train, method, &order));
        let rep = rep.expect("sparse fit");
        // Scored point by point: no 3000×21311 test matrix.
        let err = test_error(&rep.model, &dict, &test.inputs, &f_test);
        eprintln!(
            "{}: err {:.2}%, λ = {}, fit {:.1}s",
            method.name(),
            err * 100.0,
            rep.lambda,
            secs
        );
        rows.push(CostRow {
            method: method.name().into(),
            error: Some(err),
            samples: k_sparse,
            sim_cost_paper_s: k_sparse as f64 * SPECTRE_SECONDS_SRAM,
            sim_cost_measured_s: sim_secs,
            fit_cost_s: secs,
            extrapolated: false,
        });
    }

    print_cost_table(
        "Table IV — SRAM read path: linear modeling error and cost",
        &rows,
    );
    println!(
        "(LS error measured on a reduced SRAM geometry — see EXPERIMENTS.md; \
         sparse methods run at the full N = {} scale)",
        sram.num_vars()
    );
    report("table4", &rows);
}
