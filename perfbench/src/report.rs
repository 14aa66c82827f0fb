//! Metric names, the statistics behind them, and the result line.
//!
//! The tables below are the benchmark's schema: `BENCHMARK.json` lists
//! exactly these names and units (a test checks it), every workload
//! reports every end-to-end metric in an untraced run and every
//! per-layer metric in a traced run.

use crate::trace::{Tracer, GATHER_SPANS, SOURCE_SPANS};

/// End-to-end metrics, measured with tracing off: `(name, unit)`. An
/// op is one `solver::fit` call (fit workloads) or one request round
/// trip (serve workloads).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, measured by a traced run: `(name, unit)`. The
/// `source` and `solver` numbers are per traced `solver::fit` call; the
/// `serve` ones per request on the traced connection, or per request of
/// the in-process replay (`*.us_per_req` of decode, handle, encode and
/// `predict_batch`, medians).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("source.correlate.calls", "count"),
    ("source.correlate.rows", "count"),
    ("source.correlate.atom_evals", "count"),
    ("source.correlate.busy_s", "s"),
    ("source.correlate.ns_per_atom", "ns"),
    ("source.gather.calls", "count"),
    ("source.gather.entries", "count"),
    ("source.gather.busy_s", "s"),
    ("source.row.calls", "count"),
    ("source.sq_norms.calls", "count"),
    ("source.sq_norms.busy_s", "s"),
    ("source.share", "ratio"),
    ("solver.fit_s", "s"),
    ("solver.self_s", "s"),
    ("solver.steps", "count"),
    ("solver.sweeps_per_step", "ratio"),
    ("solver.lambda_explored", "count"),
    ("model.predict_batch.us_per_req", "us"),
    ("model.predict_batch.ns_per_point", "ns"),
    ("serve.decode.us_per_req", "us"),
    ("serve.handle.us_per_req", "us"),
    ("serve.encode.us_per_req", "us"),
    ("serve.read.us_per_req", "us"),
    ("serve.write.us_per_req", "us"),
    ("serve.compute.us_per_req", "us"),
    ("serve.bytes_in_per_req", "bytes"),
    ("serve.bytes_out_per_req", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// Whether a timed loop started at `start` may begin another op: not if
/// the op, taking as long as the last one, would end more than half an
/// op past the `seconds` budget.
pub fn time_left(start: std::time::Instant, ops: &Latencies, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + ops.last / 2.0 < seconds
}

/// Op latencies kept in fixed memory, so that a run of half a million
/// requests does not grow the process it measures: every full window
/// of [`Latencies::WINDOW`] ops is reduced to its median and p99.
#[derive(Debug, Default)]
pub struct Latencies {
    window: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Ops recorded.
    pub count: usize,
    /// Seconds of the latest op.
    pub last: f64,
}

impl Latencies {
    pub const WINDOW: usize = 1000;

    pub fn push(&mut self, seconds: f64) {
        self.count += 1;
        self.last = seconds;
        self.window.push(seconds);
        if self.window.len() == Self::WINDOW {
            self.p50s.push(median(&self.window));
            self.p99s.push(percentile(&self.window, 0.99));
            self.window.clear();
        }
    }

    /// Median op time: the median of the window medians, or of every op
    /// when no window filled. A partial last window is left out.
    pub fn p50(&self) -> f64 {
        if self.p50s.is_empty() {
            median(&self.window)
        } else {
            median(&self.p50s)
        }
    }

    /// The median of the window p99s (each with ten ops beyond it), when
    /// a window filled.
    pub fn p99(&self) -> Option<f64> {
        (!self.p99s.is_empty()).then(|| median(&self.p99s))
    }
}

/// Median of the samples (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `p` of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quartiles `(q1, q2, q3)` by the exclusive method of Python's
/// `statistics.quantiles(data, n=4)`. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// FNV-1a over the support indices and coefficient bits of a model.
pub fn model_digest(model: &rsm_core::SparseModel) -> u64 {
    let mut h = Fnv::new();
    for &(j, c) in model.coefficients() {
        h.write(&(j as u64).to_le_bytes());
        h.write(&c.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Folds per-instance digests, in order, into one.
pub fn combine_digests(ds: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in ds {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations performed and checked (fits, or served requests).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Checks that failed outside any single operation.
    pub problems: Vec<String>,
    /// Digest of every model the run fitted or served.
    pub digest: u64,
    /// `(name, value, unit)` printed for the reader, outside the schema.
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// `(name, value)`; units come from the schema tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Timings of an untraced run, turned into the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub ops: Latencies,
    pub loop_s: f64,
    pub test_err: Vec<f64>,
}

impl EndToEnd {
    /// Records the end-to-end metrics, plus lines printed for the reader
    /// only: the sample counts, the throughput, the p99 when a window of
    /// ops filled, and the held-out error every op was checked against.
    pub fn finish(self, out: &mut Outcome) {
        let ops = &self.ops;
        out.info.push(("ops", ops.count as f64, "count"));
        out.info
            .push(("setups", self.setup_s.len() as f64, "count"));
        out.info
            .push(("ops_per_s", ops.count as f64 / self.loop_s, "1/s"));
        if let Some(p99) = ops.p99() {
            out.info.push(("op_p99_ms", p99 * 1e3, "ms"));
        }
        out.info
            .push(("test_err_pct", 100.0 * median(&self.test_err), "%"));
        out.metrics = vec![
            ("setup_s", median(&self.setup_s)),
            ("op_p50_ms", ops.p50() * 1e3),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
        ];
    }
}

/// Solver-side tallies of the traced `solver::fit` calls.
#[derive(Debug, Default)]
pub struct SolverTally {
    pub fits: u64,
    /// `folds × λ_explored + λ`, summed over fits.
    pub steps: u64,
    pub lambda_explored: u64,
}

impl SolverTally {
    pub fn add(&mut self, report: &rsm_core::FitReport) {
        self.fits += 1;
        let lambda = report.lambda as u64;
        match &report.cv {
            Some(cv) => {
                // `solver::fit` cross-validates with `CvConfig::new`, so
                // four folds, each walking the whole explored range.
                let explored = cv.errors.len() as u64;
                self.steps += 4 * explored + lambda;
                self.lambda_explored += explored;
            }
            None => {
                self.steps += lambda;
                self.lambda_explored += lambda;
            }
        }
    }
}

/// The per-layer metrics of a traced run. `points_per_req` is the mean
/// batch size of the replayed requests.
pub fn per_layer(
    t: &Tracer,
    solver: &SolverTally,
    points_per_req: f64,
    overhead_pct: f64,
) -> Vec<(&'static str, f64)> {
    let fits = solver.fits as f64;
    let fit_s = t.total_s("fit");
    let source_s = t.busy_s(&SOURCE_SPANS);
    let correlate_s = t.busy_s(&["source.correlate"]);
    let atom_evals = t.counter("source.correlate.atom_evals") as f64;
    let per_fit = |name| t.counter(name) as f64 / fits;
    let predict = t.durations_s("model.predict_batch");
    let us = |span: &str| median(&t.durations_s(span)) * 1e6;
    let reqs = t.durations_s("serve.request").len() as f64;
    let read_s = t.total_s("serve.read");
    let write_s = t.total_s("serve.write");
    let compute_s = t.total_s("serve.conn") - t.total_s("serve.accept") - read_s - write_s;
    vec![
        ("source.correlate.calls", per_fit("source.correlate.calls")),
        ("source.correlate.rows", per_fit("source.correlate.rows")),
        ("source.correlate.atom_evals", atom_evals / fits),
        ("source.correlate.busy_s", correlate_s / fits),
        (
            "source.correlate.ns_per_atom",
            correlate_s * 1e9 / atom_evals,
        ),
        ("source.gather.calls", per_fit("source.gather.calls")),
        ("source.gather.entries", per_fit("source.gather.entries")),
        ("source.gather.busy_s", t.busy_s(&GATHER_SPANS) / fits),
        ("source.row.calls", per_fit("source.row.calls")),
        ("source.sq_norms.calls", per_fit("source.sq_norms.calls")),
        (
            "source.sq_norms.busy_s",
            t.busy_s(&["source.column_sq_norms"]) / fits,
        ),
        ("source.share", source_s / fit_s),
        ("solver.fit_s", fit_s / fits),
        ("solver.self_s", (fit_s - source_s) / fits),
        ("solver.steps", solver.steps as f64 / fits),
        (
            "solver.sweeps_per_step",
            t.counter("source.correlate.calls") as f64 / solver.steps as f64,
        ),
        (
            "solver.lambda_explored",
            solver.lambda_explored as f64 / fits,
        ),
        ("model.predict_batch.us_per_req", median(&predict) * 1e6),
        (
            "model.predict_batch.ns_per_point",
            median(&predict) * 1e9 / points_per_req,
        ),
        ("serve.decode.us_per_req", us("serve.decode")),
        ("serve.handle.us_per_req", us("serve.handle")),
        ("serve.encode.us_per_req", us("serve.encode")),
        ("serve.read.us_per_req", read_s * 1e6 / reqs),
        ("serve.write.us_per_req", write_s * 1e6 / reqs),
        ("serve.compute.us_per_req", compute_s * 1e6 / reqs),
        (
            "serve.bytes_in_per_req",
            t.counter("serve.bytes_in") as f64 / reqs,
        ),
        (
            "serve.bytes_out_per_req",
            t.counter("serve.bytes_out") as f64 / reqs,
        ),
        ("trace.overhead_pct", overhead_pct),
    ]
}

/// The sample counts behind the per-layer metrics, printed for the
/// reader.
pub fn trace_info(t: &Tracer, solver: &SolverTally) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("trace.fits", solver.fits as f64, "count"),
        (
            "trace.requests",
            t.durations_s("serve.request").len() as f64,
            "count",
        ),
        (
            "trace.replayed",
            t.durations_s("model.predict_batch").len() as f64,
            "count",
        ),
        ("trace.spans", t.span_count() as f64, "count"),
    ]
}

/// Prints `name value unit` per metric, the digest, and — last — the
/// one-line JSON result.
pub fn print(outcome: &Outcome, schema: &[(&str, &str)]) {
    for (name, value, unit) in &outcome.info {
        println!("info.{name} {value} {unit}");
    }
    let mut json = Vec::new();
    for &(name, unit) in schema {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        println!("{name} {value} {unit}");
        // JSON has no NaN or infinity; a metric that failed to measure
        // reads as null and the run as incorrect.
        let shown = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
        ));
    }
    let all_finite = schema.iter().all(|&(name, _)| {
        outcome
            .metrics
            .iter()
            .any(|&(n, v)| n == name && v.is_finite())
    });
    println!("model_digest {:#018x}", outcome.digest);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct() && all_finite,
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn latencies_reduce_full_windows_and_drop_the_partial_one() {
        let mut few = Latencies::default();
        for s in [3.0, 1.0, 2.0] {
            few.push(s);
        }
        assert_eq!(
            (few.count, few.p50(), few.p99(), few.last),
            (3, 2.0, None, 2.0)
        );
        // Window 1 holds 1..=1000, window 2 holds 1001..=2000, and the
        // partial third window (which would pull the median up) is left out.
        let mut many = Latencies::default();
        for i in 1..=2600 {
            many.push(f64::from(i));
        }
        assert_eq!(many.count, 2600);
        assert_eq!(many.p50(), 500.0);
        assert_eq!(many.p99(), Some(990.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), 100.0);
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_sees_every_coefficient_bit() {
        let a = rsm_core::SparseModel::new(10, vec![(1, 0.5), (7, -2.0)]);
        let b = rsm_core::SparseModel::new(
            10,
            vec![(1, 0.5), (7, f64::from_bits((-2.0f64).to_bits() + 1))],
        );
        let c = rsm_core::SparseModel::new(10, vec![(2, 0.5), (7, -2.0)]);
        assert_ne!(model_digest(&a), model_digest(&b));
        assert_ne!(model_digest(&a), model_digest(&c));
        assert_eq!(model_digest(&a), model_digest(&a.clone()));
        assert_ne!(combine_digests(&[1, 2]), combine_digests(&[2, 1]));
    }
}
