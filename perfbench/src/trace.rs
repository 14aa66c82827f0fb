//! Outside-in tracing: spans and counts recorded by the benchmark around
//! the calls it makes into each layer of the library.
//!
//! Nothing inside the library is instrumented. Two wrappers that the
//! public API already admits carry the probes:
//!
//! - [`ProbedSource`] wraps any [`AtomSource`] and forwards all nine
//!   trait methods, timing each call (the `source` layer; everything else
//!   inside `solver::fit` is `solver` self time);
//! - [`TimedListener`] is an `rsm_serve` transport whose streams time
//!   every `read` and `write` the server loop makes.
//!
//! Spans stay in memory and are written as Chrome trace-event JSON on
//! request ([`Tracer::write_chrome`]).

use rsm_core::source::AtomSource;
use rsm_linalg::{tol, Matrix};
use rsm_serve::server::Transport;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-process thread number (1 = the first thread that traced).
    pub thread: u64,
    /// The `solver::fit` call the span belongs to (0 = none).
    pub fit: u32,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span and counter store shared by every probe of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    fits: AtomicU32,
    fit: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a traced thread panicked while recording")
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            fits: AtomicU32::new(0),
            fit: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            name,
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
            fit: self.fit.load(Ordering::Relaxed),
        };
        lock(&self.spans).push(span);
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *lock(&self.counts).entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counts).get(name).copied().unwrap_or(0)
    }

    /// Runs one `solver::fit` call inside a `fit` span; spans recorded
    /// meanwhile, on any thread, carry the fit's number.
    pub fn in_fit<T>(&self, f: impl FnOnce() -> T) -> T {
        let id = self.fits.fetch_add(1, Ordering::Relaxed) + 1;
        self.fit.store(id, Ordering::Relaxed);
        let out = self.span("fit", f);
        self.fit.store(0, Ordering::Relaxed);
        out
    }

    pub fn span_count(&self) -> usize {
        lock(&self.spans).len()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        lock(&self.spans)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Wall time, in seconds, during which at least one span whose name
    /// is in `names` was open, on any thread.
    pub fn busy_s(&self, names: &[&str]) -> f64 {
        let intervals: Vec<(u64, u64)> = lock(&self.spans)
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        union_ns(intervals) as f64 * 1e-9
    }

    /// Writes every span as Chrome trace-event JSON (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let spans = lock(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"fit\":{}}}}}{sep}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.fit
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Length of the union of half-open `[start, end)` intervals. Self time
/// must use the union: parallel cross-validation folds overlap their
/// source calls, so summed durations can exceed the wall time.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Span names of the `source` layer that materialize design-matrix
/// entries (columns or rows) rather than sweep them.
pub const GATHER_SPANS: [&str; 5] = [
    "source.column_into",
    "source.columns_into",
    "source.column_block_into",
    "source.gram_active",
    "source.row_into",
];
/// Every `source` span name.
pub const SOURCE_SPANS: [&str; 7] = [
    "source.correlate",
    "source.column_sq_norms",
    "source.column_into",
    "source.columns_into",
    "source.column_block_into",
    "source.gram_active",
    "source.row_into",
];

/// An [`AtomSource`] that forwards every call to `inner` inside a span,
/// counting the work each call asks for.
#[derive(Debug)]
pub struct ProbedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
}

impl<'t, S: AtomSource> ProbedSource<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        ProbedSource { inner, tracer }
    }

    fn gather(&self, entries: usize) {
        self.tracer.count("source.gather.calls", 1);
        self.tracer.count("source.gather.entries", entries as u64);
    }
}

impl<S: AtomSource> AtomSource for ProbedSource<'_, S> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn num_atoms(&self) -> usize {
        self.inner.num_atoms()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        // Rows whose residual is exactly zero are skipped by the
        // streaming source (that is how fold views exclude rows).
        let rows = res.iter().filter(|&&r| !tol::exactly_zero(r)).count() as u64;
        let t = self.tracer;
        t.count("source.correlate.calls", 1);
        t.count("source.correlate.rows", rows);
        t.count(
            "source.correlate.atom_evals",
            rows * self.inner.num_atoms() as u64,
        );
        t.span("source.correlate", || self.inner.correlate(res))
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        self.gather(out.len());
        self.tracer
            .span("source.column_into", || self.inner.column_into(j, out));
    }

    fn columns_into(&self, js: &[usize], out: &mut Matrix) {
        self.gather(js.len() * self.inner.num_rows());
        self.tracer
            .span("source.columns_into", || self.inner.columns_into(js, out));
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.gather(out.len());
        self.tracer.count("source.row.calls", 1);
        self.tracer
            .span("source.row_into", || self.inner.row_into(k, out));
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        self.tracer.count("source.sq_norms.calls", 1);
        self.tracer
            .span("source.column_sq_norms", || self.inner.column_sq_norms())
    }

    fn column_block_into(&self, col_start: usize, out: &mut Matrix) {
        self.gather(out.rows() * out.cols());
        self.tracer.span("source.column_block_into", || {
            self.inner.column_block_into(col_start, out)
        });
    }

    fn gram_active(&self, js: &[usize]) -> Matrix {
        self.gather(js.len() * self.inner.num_rows());
        self.tracer
            .span("source.gram_active", || self.inner.gram_active(js))
    }
}

/// A TCP transport whose accepted streams time every read and write.
#[derive(Debug)]
pub struct TimedListener {
    pub inner: TcpListener,
    pub tracer: Arc<Tracer>,
}

/// A TCP stream that records a span per `read` / `write` call.
#[derive(Debug)]
pub struct TimedStream {
    inner: TcpStream,
    tracer: Arc<Tracer>,
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.tracer.span("serve.read", || self.inner.read(buf))?;
        self.tracer.count("serve.bytes_in", n as u64);
        Ok(n)
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.tracer.span("serve.write", || self.inner.write(buf))?;
        self.tracer.count("serve.bytes_out", n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for TimedListener {
    type Stream = TimedStream;

    fn accept_conn(&self) -> io::Result<TimedStream> {
        let (inner, _) = self.tracer.span("serve.accept", || self.inner.accept())?;
        Ok(TimedStream {
            inner,
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn clone_stream(stream: &TimedStream) -> io::Result<TimedStream> {
        Ok(TimedStream {
            inner: stream.inner.try_clone()?,
            tracer: Arc::clone(&stream.tracer),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_across_threads() {
        // Thread A: [0, 10) and [20, 30); thread B overlaps both and the
        // gap: [5, 25). Union = [0, 30) = 30, while the summed
        // durations are 40.
        let t = Tracer::new();
        let spans = [(1, 0, 10), (1, 20, 30), (2, 5, 25)];
        {
            let mut all = lock(&t.spans);
            for (thread, start_ns, end_ns) in spans {
                all.push(Span {
                    name: "source.correlate",
                    start_ns,
                    end_ns,
                    thread,
                    fit: 1,
                });
            }
        }
        assert!((t.busy_s(&["source.correlate"]) - 30e-9).abs() < 1e-18);
        assert!((t.total_s("source.correlate") - 40e-9).abs() < 1e-18);
        // Disjoint, nested, touching and duplicate intervals.
        assert_eq!(union_ns(vec![(0, 5), (10, 12)]), 7);
        assert_eq!(union_ns(vec![(0, 50), (10, 12), (20, 30)]), 50);
        assert_eq!(union_ns(vec![(0, 5), (5, 9)]), 9);
        assert_eq!(union_ns(vec![(3, 8), (3, 8)]), 5);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn busy_time_filters_by_span_name() {
        let t = Tracer::new();
        t.span("source.correlate", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("serve.read", || ());
        assert!(t.busy_s(&["source.correlate"]) >= 2e-3);
        assert!(t.busy_s(&["source.row_into"]) == 0.0);
        assert_eq!(t.durations_s("serve.read").len(), 1);
        assert_eq!(t.span_count(), 2);
    }
}
