//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it:
//!
//! | paper artifact | binary | notes |
//! |---|---|---|
//! | Fig. 4 (a–d)   | `fig4`   | linear error vs training-set size, OpAmp |
//! | Table I        | `table1` | linear modeling cost, OpAmp |
//! | Table II       | `table2` | quadratic modeling error, OpAmp |
//! | Table III      | `table3` | quadratic modeling cost, OpAmp |
//! | Table IV       | `table4` | SRAM read-path error and cost |
//! | Fig. 6         | `fig6`   | sorted |α| of the SRAM delay model |
//! | ablations      | `ablation` | OMP-vs-STAR re-fit, LAR-vs-lasso, atom normalization |
//!
//! Each binary accepts `--quick` (reduced sample counts, for smoke
//! runs) and `--threads N` (worker thread count; results are
//! bit-identical for any value — see the README's "Parallelism &
//! determinism" section), and writes a JSON record under `results/`.
//! Every record is wrapped in an envelope that notes the thread count
//! the run used.

pub mod quadratic;

use rsm_basis::Dictionary;
use rsm_core::{CoreError, SparseModel};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// The paper's reported transistor-level simulation cost per sampling
/// point for the OpAmp testbench (Table I: 16 140 s / 1200 samples).
pub const SPECTRE_SECONDS_OPAMP: f64 = 13.45;
/// The paper's per-sample cost for the SRAM read path
/// (Table IV: 728 250 s / 25 000 samples).
pub const SPECTRE_SECONDS_SRAM: f64 = 29.13;

/// Experiment-wide run options parsed from `std::env::args`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Reduced sample counts for a fast smoke run.
    pub quick: bool,
    /// Resolved worker thread count for this run (after applying any
    /// `--threads` flag; otherwise `RSM_THREADS`, else all cores).
    pub threads: usize,
}

impl RunOptions {
    /// Parses `--quick` and `--threads N` from the command line and
    /// applies the thread count via [`rsm_runtime::set_threads`].
    ///
    /// Exits with status 2 on a malformed `--threads` value — the
    /// experiment binaries have no other argument errors to report.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::parse(&args) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Pure parsing core of [`RunOptions::from_args`]; also applies the
    /// thread count so that `threads` reflects what the run will use.
    fn parse(args: &[String]) -> Result<Self, String> {
        let quick = args.iter().any(|a| a == "--quick");
        if let Some(i) = args.iter().position(|a| a == "--threads") {
            let n = args
                .get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .ok_or("--threads must be followed by a positive integer")?;
            rsm_runtime::set_threads(n);
        }
        Ok(RunOptions {
            quick,
            threads: rsm_runtime::threads(),
        })
    }

    /// Picks between the full and the quick value.
    pub fn pick(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Measures the wall-clock seconds of a closure alongside its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident-set size of this process in MB, read from
/// `/proc/self/status` (`VmHWM`, the kernel's high-water mark).
///
/// Returns `None` when the file or field is unavailable (non-Linux
/// platforms), after noting the fallback once on stderr so a memory
/// column silently full of `-` is explained. Note the value is
/// cumulative over the process lifetime: in a multi-experiment binary
/// it bounds the *largest* phase so far, not the current one.
pub fn peak_rss_mb() -> Option<f64> {
    static FALLBACK_NOTE: std::sync::Once = std::sync::Once::new();
    let mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vmhwm_mb(&text));
    if mb.is_none() {
        FALLBACK_NOTE.call_once(|| {
            eprintln!(
                "note: peak RSS unavailable (/proc/self/status has no parseable VmHWM); \
                 memory columns will be omitted"
            );
        });
    }
    mb
}

/// Extracts `VmHWM` from `/proc/self/status` text and converts the
/// kernel's kB figure to MB. Split out from [`peak_rss_mb`] so the
/// parsing is testable on a canned status snippet.
fn parse_vmhwm_mb(status_text: &str) -> Option<f64> {
    let line = status_text.lines().find(|l| l.starts_with("VmHWM"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Relative modeling error of a fitted model on the raw sample points
/// `points` (one per row) with responses `f`.
///
/// Each point is scored by [`SparseModel::predict_point`], which
/// evaluates only the selected atoms, so no `K × M` design matrix is
/// built (a 5000 × 20 301 test matrix would be ~0.8 GB).
pub fn test_error(model: &SparseModel, dict: &Dictionary, points: &Matrix, f: &[f64]) -> f64 {
    let pred: Vec<f64> = (0..points.rows())
        .map(|r| model.predict_point(dict, points.row(r)))
        .collect();
    relative_error(&pred, f)
}

/// FNV-1a-64, byte by byte over little-endian words, of the numbers an
/// experiment reports. No thread count or sweep kernel moves a bit of
/// those numbers, so a run's digest is the same on every host; CI
/// compares each binary's `--quick` digest with
/// `crates/bench/quick-digests.txt`.
#[derive(Debug, Clone, Copy)]
pub struct OutputDigest(u64);

impl Default for OutputDigest {
    /// The digest of nothing: the FNV-1a offset basis.
    fn default() -> Self {
        OutputDigest(0xcbf2_9ce4_8422_2325)
    }
}

/// [`CostRow`] fields that hold wall-clock measurements, which
/// [`OutputDigest::eat_value`] leaves out.
const TIMING_FIELDS: [&str; 2] = ["sim_cost_measured_s", "fit_cost_s"];

impl OutputDigest {
    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    fn eat_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one 64-bit word.
    pub fn eat(&mut self, word: u64) {
        self.eat_bytes(&word.to_le_bytes());
    }

    /// Folds in one reported model: its order, support and train and
    /// held-out errors.
    pub fn eat_fit(&mut self, lambda: usize, model: &SparseModel, train: f64, test: f64) {
        self.eat(lambda as u64);
        let support = model.support();
        self.eat(support.len() as u64);
        for j in support {
            self.eat(j as u64);
        }
        self.eat(train.to_bits());
        self.eat(test.to_bits());
    }

    /// Folds in a serialized record: every number's bits, every string
    /// and field name, and every length, in order, except the fields
    /// that hold timings.
    pub fn eat_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.eat(0),
            Value::Bool(b) => self.eat(1 + u64::from(*b)),
            Value::Num(x) => self.eat(x.to_bits()),
            Value::Str(s) => {
                self.eat(s.len() as u64);
                self.eat_bytes(s.as_bytes());
            }
            Value::Arr(items) => {
                self.eat(items.len() as u64);
                items.iter().for_each(|v| self.eat_value(v));
            }
            Value::Obj(fields) => {
                for (name, v) in fields
                    .iter()
                    .filter(|(n, _)| !TIMING_FIELDS.contains(&n.as_str()))
                {
                    self.eat_bytes(name.as_bytes());
                    self.eat_value(v);
                }
            }
        }
    }
}

/// Ends an experiment: writes `results/{name}.json` with [`save_json`]
/// (a failure is reported on stderr, not fatal) and prints
/// `outputs digest: 0x…`, the [`OutputDigest`] of `record` without its
/// timings.
pub fn report<T: Serialize>(name: &str, record: &T) {
    match save_json(name, record) {
        Ok(p) => eprintln!("\nresults written to {}", p.display()),
        Err(e) => eprintln!("\nwarning: could not persist results: {e}"),
    }
    let mut digest = OutputDigest::default();
    digest.eat_value(&record.to_value());
    println!("outputs digest: {:#018x}", digest.value());
}

/// One row of a cost table (Tables I, III, IV of the paper).
#[derive(Debug, Clone, Serialize)]
pub struct CostRow {
    /// Method name ("LS", "STAR", "LAR", "OMP").
    pub method: String,
    /// Modeling error on the testing set (fraction, not %).
    pub error: Option<f64>,
    /// Number of training samples.
    pub samples: usize,
    /// Projected simulation cost at the paper's per-sample Spectre
    /// seconds (reproduces the tables' "simulation cost" row).
    pub sim_cost_paper_s: f64,
    /// Measured simulation cost on our substrate simulator (s).
    pub sim_cost_measured_s: f64,
    /// Measured fitting cost (s); `extrapolated = true` marks values
    /// projected from a smaller run by a scaling law.
    pub fit_cost_s: f64,
    /// Whether `fit_cost_s` is a scaling-law extrapolation.
    pub extrapolated: bool,
}

impl CostRow {
    /// The "total cost" the paper reports: paper-scale simulation cost
    /// plus fitting cost.
    pub fn total_paper_s(&self) -> f64 {
        self.sim_cost_paper_s + self.fit_cost_s
    }
}

/// Renders a cost table in the layout of the paper's Tables I/III/IV.
pub fn print_cost_table(title: &str, rows: &[CostRow]) {
    println!("\n=== {title} ===");
    print!("{:<28}", "");
    for r in rows {
        print!("{:>14}", r.method);
    }
    println!();
    if rows.iter().any(|r| r.error.is_some()) {
        print!("{:<28}", "Modeling error");
        for r in rows {
            match r.error {
                Some(e) => print!("{:>13.2}%", e * 100.0),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
    print!("{:<28}", "# of training samples");
    for r in rows {
        print!("{:>14}", r.samples);
    }
    println!();
    print!("{:<28}", "Simulation cost (paper s)");
    for r in rows {
        print!("{:>14.0}", r.sim_cost_paper_s);
    }
    println!();
    print!("{:<28}", "Simulation cost (ours, s)");
    for r in rows {
        print!("{:>14.2}", r.sim_cost_measured_s);
    }
    println!();
    print!("{:<28}", "Fitting cost (s)");
    for r in rows {
        if r.extrapolated {
            print!("{:>13.0}*", r.fit_cost_s);
        } else {
            print!("{:>14.2}", r.fit_cost_s);
        }
    }
    println!();
    print!("{:<28}", "Total cost (paper s)");
    for r in rows {
        print!("{:>14.0}", r.total_paper_s());
    }
    println!();
    if rows.iter().any(|r| r.extrapolated) {
        println!("(* fitting cost extrapolated from a reduced-size run; see EXPERIMENTS.md)");
    }
    if let Some(ls) = rows.iter().find(|r| r.method == "LS") {
        for r in rows.iter().filter(|r| r.method != "LS") {
            println!(
                "speedup vs LS ({}): {:.1}x",
                r.method,
                ls.total_paper_s() / r.total_paper_s()
            );
        }
    }
}

/// Writes a serializable result record to `results/<name>.json`.
///
/// The record is wrapped in a `{ "threads": N, "record": ... }`
/// envelope so every emitted result notes the worker thread count it
/// was produced with. The thread count only affects wall-clock
/// numbers; fitted models and errors are bit-identical for any value.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] wrapping any I/O failure (the
/// experiment itself has succeeded; callers may choose to ignore).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Result<PathBuf, CoreError> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)
        .map_err(|e| CoreError::BadConfig(format!("cannot create results dir: {e}")))?;
    let path = dir.join(format!("{name}.json"));
    let envelope = Value::Obj(vec![
        ("threads".into(), Value::Num(rsm_runtime::threads() as f64)),
        ("record".into(), value.to_value()),
    ]);
    let json = serde_json::to_string_pretty(&envelope)
        .map_err(|e| CoreError::BadConfig(format!("serialize: {e}")))?;
    std::fs::write(&path, json)
        .map_err(|e| CoreError::BadConfig(format!("write {path:?}: {e}")))?;
    Ok(path)
}

/// An ASCII line plot: one labelled series of `(x, y)` points rendered
/// as rows of `y` values (the terminal stand-in for the paper's
/// figures).
pub fn print_series_table(title: &str, xlabel: &str, xs: &[usize], series: &[(&str, Vec<f64>)]) {
    println!("\n=== {title} ===");
    print!("{xlabel:>10}");
    for (name, _) in series {
        print!("{name:>12}");
    }
    println!();
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for (_, ys) in series {
            match ys.get(i) {
                Some(y) if y.is_finite() => print!("{:>11.2}%", y * 100.0),
                _ => print!("{:>12}", "-"),
            }
        }
        println!();
    }
}

/// The factor by which a least-squares fit's cost grows from a `k × m`
/// design to a `k_target × m_target` one, under the QR cost law
/// `cost ∝ K·M²`.
///
/// LS cannot run at the paper's scale (~10¹³ flops), so Tables III and
/// IV time it on a reduced design and report the measured seconds
/// times this factor.
pub fn ls_cost_scale(k: usize, m: usize, k_target: usize, m_target: usize) -> f64 {
    (k_target as f64 / k as f64) * (m_target as f64 / m as f64).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_row_total() {
        let r = CostRow {
            method: "OMP".into(),
            error: Some(0.04),
            samples: 1000,
            sim_cost_paper_s: 29_130.0,
            sim_cost_measured_s: 4.0,
            fit_cost_s: 170.0,
            extrapolated: false,
        };
        assert!((r.total_paper_s() - 29_300.0).abs() < 1e-9);
    }

    #[test]
    fn output_digest_leaves_out_timings_only() {
        let row = |error: f64, fit_cost_s: f64| CostRow {
            method: "OMP".into(),
            error: Some(error),
            samples: 1000,
            sim_cost_paper_s: 13_450.0,
            sim_cost_measured_s: fit_cost_s / 2.0,
            fit_cost_s,
            extrapolated: false,
        };
        let digest = |rows: &[CostRow]| {
            let mut d = OutputDigest::default();
            d.eat_value(&rows.to_value());
            d.value()
        };
        let base = digest(&[row(0.04, 1.0)]);
        assert_eq!(base, digest(&[row(0.04, 7.5)]));
        assert_ne!(base, digest(&[row(0.04 + f64::EPSILON, 1.0)]));
        assert_ne!(base, digest(&[row(0.04, 1.0), row(0.04, 1.0)]));
        assert_ne!(OutputDigest::default().value(), base);
    }

    #[test]
    fn ls_extrapolation_scales_cubically() {
        // K x10 and M x10 → x1000 scale factor: linear in K, quadratic in M.
        assert!((ls_cost_scale(40, 10, 400, 100) - 1000.0).abs() < 1e-9);
        assert!((ls_cost_scale(40, 10, 400, 10) - 10.0).abs() < 1e-12);
        assert!((ls_cost_scale(40, 10, 40, 100) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn run_options_pick() {
        let quick = RunOptions {
            quick: true,
            threads: 1,
        };
        let full = RunOptions {
            quick: false,
            threads: 1,
        };
        assert_eq!(quick.pick(1000, 10), 10);
        assert_eq!(full.pick(1000, 10), 1000);
    }

    /// Serializes the tests that touch the process-global thread
    /// override (and the cwd), which the test harness otherwise runs
    /// concurrently.
    static GLOBAL_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn run_options_parse_threads_flag() {
        let _guard = GLOBAL_STATE.lock().unwrap();
        let args: Vec<String> = ["bench", "--quick", "--threads", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = RunOptions::parse(&args).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.threads, 3);
        assert_eq!(rsm_runtime::threads(), 3);
        rsm_runtime::set_threads(0);

        for bad in [
            &["bench", "--threads"][..],
            &["bench", "--threads", "0"],
            &["bench", "--threads", "x"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(RunOptions::parse(&args).is_err(), "{bad:?} should fail");
        }
        rsm_runtime::set_threads(0);
    }

    #[test]
    fn save_json_envelope_records_thread_count() {
        let _guard = GLOBAL_STATE.lock().unwrap();
        rsm_runtime::set_threads(2);
        let dir = std::env::temp_dir().join("rsm-bench-save-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let saved = save_json("envelope_test", &vec![1.5f64, 2.5]);
        std::env::set_current_dir(prev).unwrap();
        rsm_runtime::set_threads(0);
        // `save_json` returns a path relative to the (restored) cwd.
        let path = dir.join(saved.unwrap());
        let text = std::fs::read_to_string(path).unwrap();
        let v = serde_json::parse(&text).unwrap();
        assert_eq!(v.get("threads"), Some(&serde::Value::Num(2.0)));
        assert!(matches!(v.get("record"), Some(serde::Value::Arr(a)) if a.len() == 2));
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0, "VmHWM parsed as {mb}");
        }
    }

    #[test]
    fn parse_vmhwm_from_canned_status() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        let mb = parse_vmhwm_mb(status).unwrap();
        assert!(
            (mb - 120.5625).abs() < 1e-12,
            "123456 kB should be 120.5625 MB, got {mb}"
        );
        // Missing or malformed field → None, not a panic.
        assert_eq!(parse_vmhwm_mb("Name:\tbench\nVmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tnot-a-number kB\n"), None);
        assert_eq!(parse_vmhwm_mb(""), None);
    }
}
