//! Table II: quadratic performance modeling error for the operational
//! amplifier — the top-200 variables by linear coefficient magnitude
//! span a 20 301-term quadratic dictionary; STAR/LAR/OMP fit it from
//! 1000 samples, LS from a reduced-size run (see EXPERIMENTS.md).
//!
//! Expected shape: OMP error within ~1.5× of LS; STAR worst
//! (1.5–5× above OMP); LAR between.
//!
//! Run: `cargo run --release -p rsm-bench --bin table2 [-- --quick]`

use rsm_bench::quadratic;
use rsm_bench::{report, RunOptions};

fn main() {
    let opts = RunOptions::from_args();
    let out = quadratic::run(&opts);
    quadratic::print_error_table(&out);
    report("table2", &out);
}
