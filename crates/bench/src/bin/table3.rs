//! Table III: quadratic performance modeling cost for the operational
//! amplifier. Simulation cost uses the paper's 13.45 s/sample Spectre
//! figure; fitting cost is measured for the sparse solvers and
//! extrapolated (K·M² QR law) for LS at the paper's 25 000 × 20 301
//! scale.
//!
//! Expected shape: total cost dominated by simulation; OMP/LAR/STAR
//! ~25× below LS.
//!
//! Run: `cargo run --release -p rsm-bench --bin table3 [-- --quick]`

use rsm_bench::quadratic;
use rsm_bench::{print_cost_table, report, RunOptions};

fn main() {
    let opts = RunOptions::from_args();
    let out = quadratic::run(&opts);
    print_cost_table(
        "Table III — quadratic performance modeling cost (OpAmp, all 4 metrics)",
        &out.costs,
    );
    report("table3", &out.costs);
}
