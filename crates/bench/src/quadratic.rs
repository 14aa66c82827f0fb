//! Shared implementation of the quadratic OpAmp experiment behind
//! Tables II and III.
//!
//! Workflow (Section V-A.2 of the paper):
//!
//! 1. fit a linear model and rank the variation variables by the
//!    magnitude of their linear coefficients;
//! 2. keep the top 200 variables and span the full quadratic dictionary
//!    over them — `M = 20 301` basis functions;
//! 3. fit STAR / LAR / OMP from `K = 1000` samples (with 4-fold CV);
//! 4. fit the LS baseline. At the paper's scale LS needs 25 000 samples
//!    and ~10¹³ flops, so it runs at a reduced size (top 60 variables,
//!    `M = 1891`, `K = 2400`) and its paper-scale fitting cost is
//!    extrapolated with the QR cost law `K·M²` (marked in the output).

use crate::{ls_cost_scale, test_error, timed, CostRow, RunOptions, SPECTRE_SECONDS_OPAMP};
use rsm_basis::{Dictionary, DictionaryKind};
use rsm_circuits::{sampling, OpAmp, PerformanceCircuit};
use rsm_core::select::CvConfig;
use rsm_core::{solver, Method, ModelOrder};
use rsm_linalg::Matrix;
use serde::Serialize;

/// Per-metric, per-method error entry (Table II).
#[derive(Debug, Clone, Serialize)]
pub struct ErrorRow {
    /// Metric name.
    pub metric: String,
    /// Method name.
    pub method: String,
    /// Testing-set relative error.
    pub error: f64,
    /// Number of selected basis functions.
    pub lambda: usize,
}

/// Full outcome of the quadratic experiment.
#[derive(Debug, Clone, Serialize)]
pub struct QuadraticOutcome {
    /// Table II content.
    pub errors: Vec<ErrorRow>,
    /// Table III content.
    pub costs: Vec<CostRow>,
    /// Variables kept for the sparse quadratic dictionary.
    pub top_vars: usize,
    /// Quadratic dictionary size for the sparse solvers.
    pub dict_size: usize,
}

/// Ranks variables by the magnitude of their linear-model coefficients
/// for the given metric and returns the indices of the `top` largest.
pub fn rank_variables(g_linear: &Matrix, f: &[f64], num_vars: usize, top: usize) -> Vec<usize> {
    let rep = solver::fit(
        g_linear,
        f,
        Method::Omp,
        &ModelOrder::Fixed(top.min(g_linear.rows() / 2)),
    )
    .expect("linear ranking fit");
    // Linear dictionary layout: index 0 constant, 1..=N the variables.
    let mut weight = vec![0.0f64; num_vars];
    for &(idx, c) in rep.model.coefficients() {
        if idx >= 1 && idx <= num_vars {
            weight[idx - 1] = c.abs();
        }
    }
    let mut order: Vec<usize> = (0..num_vars).collect();
    order.sort_by(|&a, &b| weight[b].partial_cmp(&weight[a]).expect("finite weights"));
    order.truncate(top);
    order.sort_unstable();
    order
}

/// Runs the full quadratic experiment.
pub fn run(opts: &RunOptions) -> QuadraticOutcome {
    let amp = OpAmp::new();
    let top = opts.pick(200, 60);
    let top_ls = opts.pick(60, 25);
    let k_sparse = opts.pick(1000, 400);
    let k_ls = |m: usize| (m * 5 / 4).max(m + 50); // modest oversampling
    let k_test = opts.pick(5000, 800);
    let lambda_max = opts.pick(120, 30);
    let k_paper_ls = 25_000;
    let m_paper = 20_301;

    eprintln!("sampling …");
    let (pool, pool_secs) = timed(|| sampling::sample(&amp, k_sparse, 41));
    let per_sample = pool_secs / k_sparse as f64;
    let test = sampling::sample(&amp, k_test, 4242);
    let lin_dict = Dictionary::new(amp.num_vars(), DictionaryKind::Linear);
    let g_linear = lin_dict.design_matrix(&pool.inputs);

    let mut errors = Vec::new();
    let mut fit_secs_sparse = [0.0f64; 3];
    let mut ls_fit_secs_extrapolated = 0.0;
    let mut dict_size = 0;

    for (mi, metric) in amp.metric_names().iter().enumerate() {
        eprintln!("metric {metric}: ranking variables …");
        let f_pool = pool.metric(mi);
        let f_test = test.metric(mi);
        let vars = rank_variables(&g_linear, &f_pool, amp.num_vars(), top);
        let quad_dict = Dictionary::new(vars.len(), DictionaryKind::Quadratic);
        dict_size = quad_dict.len();
        let reduced_inputs = pool.inputs.select_cols(&vars);
        let reduced_test = test.inputs.select_cols(&vars);
        eprintln!(
            "metric {metric}: quadratic dictionary M = {} over {} vars",
            quad_dict.len(),
            vars.len()
        );
        let g_quad = quad_dict.design_matrix(&reduced_inputs);
        for (si, method) in [Method::Star, Method::Lar, Method::Omp]
            .into_iter()
            .enumerate()
        {
            let order = ModelOrder::CrossValidated(CvConfig::new(lambda_max));
            let (rep, secs) = timed(|| solver::fit(&g_quad, &f_pool, method, &order));
            let rep = rep.expect("sparse quadratic fit");
            let err = test_error(&rep.model, &quad_dict, &reduced_test, &f_test);
            fit_secs_sparse[si] += secs;
            errors.push(ErrorRow {
                metric: metric.to_string(),
                method: method.name().to_string(),
                error: err,
                lambda: rep.lambda,
            });
        }

        // LS at reduced scale: top `top_ls` variables, oversampled.
        let ls_vars = rank_variables(&g_linear, &f_pool, amp.num_vars(), top_ls);
        let ls_dict = Dictionary::new(ls_vars.len(), DictionaryKind::Quadratic);
        let m_ls = ls_dict.len();
        let k_for_ls = k_ls(m_ls);
        let ls_pool = sampling::sample(&amp, k_for_ls, 900 + mi as u64);
        let ls_inputs = ls_pool.inputs.select_cols(&ls_vars);
        let g_ls = ls_dict.design_matrix(&ls_inputs);
        let f_ls = ls_pool.metric(mi);
        let (ls_model, secs) = timed(|| rsm_core::ls::fit(&g_ls, &f_ls));
        let ls_model = ls_model.expect("reduced LS fit");
        let ls_test_inputs = test.inputs.select_cols(&ls_vars);
        let err = test_error(&ls_model, &ls_dict, &ls_test_inputs, &f_test);
        ls_fit_secs_extrapolated += secs * ls_cost_scale(k_for_ls, m_ls, k_paper_ls, m_paper);
        errors.push(ErrorRow {
            metric: metric.to_string(),
            method: "LS".to_string(),
            error: err,
            lambda: m_ls,
        });
        eprintln!("metric {metric}: LS reduced scale M = {m_ls}, K = {k_for_ls}, {secs:.1}s");
    }

    let costs = vec![
        CostRow {
            method: "LS".into(),
            error: None,
            samples: k_paper_ls,
            sim_cost_paper_s: k_paper_ls as f64 * SPECTRE_SECONDS_OPAMP,
            sim_cost_measured_s: k_paper_ls as f64 * per_sample,
            fit_cost_s: ls_fit_secs_extrapolated,
            extrapolated: true,
        },
        CostRow {
            method: "STAR".into(),
            error: None,
            samples: k_sparse,
            sim_cost_paper_s: k_sparse as f64 * SPECTRE_SECONDS_OPAMP,
            sim_cost_measured_s: pool_secs,
            fit_cost_s: fit_secs_sparse[0],
            extrapolated: false,
        },
        CostRow {
            method: "LAR".into(),
            error: None,
            samples: k_sparse,
            sim_cost_paper_s: k_sparse as f64 * SPECTRE_SECONDS_OPAMP,
            sim_cost_measured_s: pool_secs,
            fit_cost_s: fit_secs_sparse[1],
            extrapolated: false,
        },
        CostRow {
            method: "OMP".into(),
            error: None,
            samples: k_sparse,
            sim_cost_paper_s: k_sparse as f64 * SPECTRE_SECONDS_OPAMP,
            sim_cost_measured_s: pool_secs,
            fit_cost_s: fit_secs_sparse[2],
            extrapolated: false,
        },
    ];
    QuadraticOutcome {
        errors,
        costs,
        top_vars: top,
        dict_size,
    }
}

/// Renders the Table II error grid.
pub fn print_error_table(out: &QuadraticOutcome) {
    println!(
        "\n=== Table II — quadratic modeling error (top {} vars, M = {}) ===",
        out.top_vars, out.dict_size
    );
    let methods = ["LS", "STAR", "LAR", "OMP"];
    print!("{:<12}", "");
    for m in methods {
        print!("{m:>10}");
    }
    println!("{:>14}", "(λ: S/L/O)");
    let metrics: Vec<String> = {
        let mut v: Vec<String> = out.errors.iter().map(|e| e.metric.clone()).collect();
        v.dedup();
        v
    };
    for metric in metrics {
        print!("{metric:<12}");
        let mut lambdas = Vec::new();
        for m in methods {
            let row = out
                .errors
                .iter()
                .find(|e| e.metric == metric && e.method == m)
                .expect("complete grid");
            print!("{:>9.2}%", row.error * 100.0);
            if m != "LS" {
                lambdas.push(row.lambda.to_string());
            }
        }
        println!("{:>14}", lambdas.join("/"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::NormalSampler;

    #[test]
    fn rank_variables_puts_informative_vars_first() {
        let mut rng = NormalSampler::seed_from_u64(3);
        let n = 30;
        let k = 120;
        let samples = Matrix::from_fn(k, n, |_, _| rng.sample());
        let dict = Dictionary::new(n, DictionaryKind::Linear);
        let g = dict.design_matrix(&samples);
        // Response driven by variables 4 and 17 only.
        let f: Vec<f64> = (0..k)
            .map(|r| 5.0 * samples[(r, 4)] - 3.0 * samples[(r, 17)] + 0.01 * rng.sample())
            .collect();
        let top = rank_variables(&g, &f, n, 5);
        assert!(top.contains(&4), "{top:?}");
        assert!(top.contains(&17), "{top:?}");
        assert_eq!(top.len(), 5);
        // Output is sorted for stable dictionary construction.
        let mut sorted = top.clone();
        sorted.sort_unstable();
        assert_eq!(top, sorted);
    }
}
