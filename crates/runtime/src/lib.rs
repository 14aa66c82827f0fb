//! Deterministic data-parallel runtime for the sparse-rsm workspace.
//!
//! The solvers' hot loops (ξ = Gᵀ·r correlation, dense matrix kernels,
//! Q-fold cross-validation) are embarrassingly parallel, but naive
//! parallel reductions change floating-point summation order with the
//! number of workers, so the *same* fit would select different atoms
//! on a 4-core laptop and a 64-core server. This crate provides the
//! primitives the workspace parallelizes with, built on
//! `std::thread::scope` (no dependencies), with one invariant:
//!
//! > **Results are bit-identical for every thread count**, including 1.
//!
//! The invariant holds because nothing observable depends on how many
//! workers run:
//!
//! - **Chunk boundaries are a function of problem size only.** A
//!   caller states the chunk length; the chunk grid never adapts to
//!   [`threads()`].
//! - **Reduction order is fixed.** [`par_chunks_reduce`] and its
//!   in-place form [`par_chunks_mut_reduce`] hand chunk partials to the
//!   caller's `fold` in ascending chunk order, however the workers were
//!   scheduled; [`par_map_indexed`] places each result at its own
//!   index.
//! - **One thread runs the same algorithm.** With a single worker the
//!   same chunk grid is walked in the same order inline, so serial and
//!   parallel runs perform the identical floating-point op sequence.
//!
//! The worker count is resolved per call by [`threads()`]:
//! a process-wide [`set_threads`] override (used by the CLI `--threads`
//! flag and the equivalence tests), else the `RSM_THREADS` environment
//! variable, else [`std::thread::available_parallelism`] as read on the
//! first call.
//!
//! A parallel call with `w` workers spawns `w − 1` scoped threads; the
//! calling thread is the last worker, claiming chunks beside them and
//! folding the partials that are ready between its own chunks. So a
//! fork/join costs one thread spawn at 2 workers, and nothing waits on
//! a channel. Each partial waits in its chunk's slot until it is
//! folded, so results that are large are written in place
//! ([`par_chunks_mut_reduce`]) rather than returned.
//!
//! Nested calls (e.g. a parallel cross-validation fold whose solver
//! calls a parallel correlation) do not oversubscribe: a primitive
//! invoked from inside a worker — the calling thread included, while it
//! maps one of its chunks — runs its chunk grid inline, which by the
//! invariant above produces the same bits.

// Library code reports failures as structured errors, compares floats
// exactly only through `rsm_linalg::tol`, and never drops a `Result`
// silently: each exception is a reasoned `#[expect]`. Tests may panic
// (clippy.toml), assert bit-exact results and discard cleanup errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside a worker spawned by this crate, and on the calling
    /// thread while it maps one of its own chunks — used to run nested
    /// parallel calls inline instead of spawning a second pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker count for every subsequent parallel call in
/// this process; `0` clears the override.
///
/// Takes precedence over the `RSM_THREADS` environment variable. The
/// setting changes only wall-clock behavior, never results: all
/// primitives in this crate are thread-count-invariant.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// [`std::thread::available_parallelism`] as first read by [`threads`].
static AVAILABLE: OnceLock<usize> = OnceLock::new();

/// The worker count parallel calls will use right now.
///
/// Resolution order: [`set_threads`] override, then a positive integer
/// in `RSM_THREADS`, then [`std::thread::available_parallelism`]
/// (falling back to 1 if that is unavailable). The override and the
/// variable are read on every call; the CPU count is read once per
/// process, because the query costs microseconds. So a CPU quota or
/// affinity mask changed while the process runs is not seen.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned RSM_THREADS knob: thread count only affects speed, never results (tests/parallel_equivalence.rs)"
)]
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("RSM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    *AVAILABLE.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits `0..len` into the fixed chunk grid used by
/// [`par_chunks_reduce`]: `ceil(len / chunk_len)` chunks of `chunk_len`
/// elements, the last one possibly shorter. The grid depends only on
/// `len` and `chunk_len` — never on the thread count.
fn chunk_range(len: usize, chunk_len: usize, idx: usize) -> Range<usize> {
    let start = idx * chunk_len;
    start..len.min(start + chunk_len)
}

fn num_chunks(len: usize, chunk_len: usize) -> usize {
    assert!(chunk_len > 0, "chunk_len must be positive");
    len.div_ceil(chunk_len)
}

/// Maps fixed chunks of `0..len` in parallel and folds the partials
/// **in ascending chunk order**.
///
/// `map` is called once per chunk with that chunk's index range and
/// may run on any worker; `fold` runs on the calling thread and
/// receives every partial in chunk order, so a non-commutative
/// reduction (floating-point accumulation) gives the same result for
/// every thread count. With one worker the chunks are mapped and
/// folded inline in the same order — the identical op sequence.
///
/// With `w` workers the call spawns `w − 1` scoped threads, and the
/// calling thread is the `w`-th: it claims chunks beside them, and
/// between its own chunks it folds the partials that are ready in
/// chunk order; the rest are folded after the join. Each partial waits
/// in its chunk's slot until it is folded, so a reduction whose
/// partials are large should write its result in place through
/// [`par_chunks_mut_reduce`] and fold only small values.
///
/// # Examples
///
/// Each chunk returns its partial; only `fold` touches shared state:
///
/// ```
/// let xs: Vec<f64> = (0..100).map(f64::from).collect();
/// let mut total = 0.0;
/// rsm_runtime::par_chunks_reduce(xs.len(), 16, |r| xs[r].iter().sum::<f64>(), |p| total += p);
/// assert_eq!(total, 4950.0);
/// ```
///
/// `map` is `Fn + Sync`, so a worker cannot write into captured state,
/// whose final value would depend on the order the workers ran in.
/// Accumulating into an outer binding from the worker does not compile:
///
/// ```compile_fail,E0594
/// let xs: Vec<f64> = (0..100).map(f64::from).collect();
/// let mut total = 0.0;
/// rsm_runtime::par_chunks_reduce(
///     xs.len(),
///     16,
///     |r| {
///         for i in r {
///             total += xs[i];
///         }
///     },
///     |()| {},
/// );
/// ```
///
/// # Panics
///
/// Panics if `chunk_len` is zero, or propagates a panic from `map`.
pub fn par_chunks_reduce<T, M, F>(len: usize, chunk_len: usize, map: M, mut fold: F)
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(T),
{
    let chunks = num_chunks(len, chunk_len);
    let workers = effective_workers(chunks);
    if workers <= 1 {
        for idx in 0..chunks {
            fold(map(chunk_range(len, chunk_len, idx)));
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    // Maps the next unclaimed chunk into its slot; false once every
    // chunk is claimed. Chunks are claimed in ascending order. The
    // counter only hands out indices (`Relaxed`); each partial is
    // published to the folding thread through its slot's mutex.
    let map_next = || {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= chunks {
            return false;
        }
        let partial = map(chunk_range(len, chunk_len, idx));
        *lock(&slots[idx]) = Some(partial);
        true
    };
    let mut folded = 0;
    thread::scope(|scope| {
        let map_next = &map_next;
        for _ in 1..workers {
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                while map_next() {}
            });
        }
        while as_worker(map_next) {
            while let Some(partial) = slots.get(folded).and_then(|slot| lock(slot).take()) {
                fold(partial);
                folded += 1;
            }
        }
    });
    // The join has made every partial ready; a worker's panic has
    // already propagated out of the scope.
    for slot in &slots[folded..] {
        let Some(partial) = lock(slot).take() else {
            unreachable!("every chunk is mapped before the join");
        };
        fold(partial);
    }
}

/// Locks a slot. Nothing panics while a slot is locked, but a poisoned
/// one would still hold a valid `Option`.
fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the calling thread marked as a worker, as the calling
/// thread of a parallel call maps each of its chunks: calls nested in
/// its `map` then run inline, as they do on the spawned workers.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    let _mark = WorkerMark::enter();
    f()
}

/// The worker mark of [`as_worker`]. It is cleared on drop, also when
/// `f` panics, so the thread's later calls fan out again.
struct WorkerMark;

impl WorkerMark {
    fn enter() -> Self {
        IN_WORKER.with(|w| w.set(true));
        WorkerMark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

/// Mutable data that [`par_chunks_mut_reduce`] cuts into chunks: a
/// slice, or a triple of equally long slices cut at the same indices.
pub trait SplitMut: Default + Send {
    /// Number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the slices of a triple differ in length.
    fn elements(&self) -> usize;

    /// The first `mid` elements and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<X: Send> SplitMut for &mut [X] {
    fn elements(&self) -> usize {
        self.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: SplitMut, B: SplitMut, C: SplitMut> SplitMut for (A, B, C) {
    fn elements(&self) -> usize {
        let n = self.0.elements();
        assert!(
            self.1.elements() == n && self.2.elements() == n,
            "split slices differ in length"
        );
        n
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_at(mid);
        let (b, b_rest) = self.1.split_at(mid);
        let (c, c_rest) = self.2.split_at(mid);
        ((a, b, c), (a_rest, b_rest, c_rest))
    }
}

/// [`par_chunks_reduce`] for a `map` that writes its chunk in place.
///
/// `data` is cut on the same fixed grid of `chunk_len` elements, and
/// `map` receives each chunk's index range together with that chunk of
/// `data`, its own `&mut` borrow. It runs through [`par_chunks_reduce`]
/// — the same workers, the same fold in ascending chunk order — so an
/// element-wise update plus an order-sensitive reduction gives the same
/// bits at every thread count.
///
/// # Examples
///
/// Doubling every element while summing the result:
///
/// ```
/// let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
/// let mut total = 0.0;
/// rsm_runtime::par_chunks_mut_reduce(
///     &mut xs[..],
///     16,
///     |_, chunk| {
///         chunk.iter_mut().for_each(|x| *x *= 2.0);
///         chunk.iter().sum::<f64>()
///     },
///     |p| total += p,
/// );
/// assert_eq!((xs[99], total), (198.0, 9900.0));
/// ```
///
/// `map` is still `Fn + Sync`: the chunk it is handed is the only
/// thing it can write.
///
/// ```compile_fail,E0594
/// let mut xs = vec![1.0; 100];
/// let mut total = 0.0;
/// rsm_runtime::par_chunks_mut_reduce(&mut xs[..], 16, |_, chunk| total += chunk[0], |()| {});
/// ```
///
/// # Panics
///
/// Panics if `chunk_len` is zero or the slices of a triple differ in
/// length, or propagates a panic from `map`.
pub fn par_chunks_mut_reduce<D, T, M, F>(data: D, chunk_len: usize, map: M, fold: F)
where
    D: SplitMut,
    T: Send,
    M: Fn(Range<usize>, D) -> T + Sync,
    F: FnMut(T),
{
    let len = data.elements();
    let mut rest = data;
    // Cut on the grid up front. Each piece waits in its chunk's slot
    // for the one `map` call of that chunk, so no slot is contended.
    let slots: Vec<Mutex<Option<D>>> = (0..num_chunks(len, chunk_len))
        .map(|idx| {
            let (piece, tail) =
                std::mem::take(&mut rest).split_at(chunk_range(len, chunk_len, idx).len());
            rest = tail;
            Mutex::new(Some(piece))
        })
        .collect();
    par_chunks_reduce(
        len,
        chunk_len,
        |range| {
            // `map` runs after the lock is released, so a panic in it
            // cannot poison a slot.
            let piece = lock(&slots[range.start / chunk_len]).take();
            let Some(piece) = piece else {
                unreachable!("every chunk is mapped once");
            };
            map(range, piece)
        },
        fold,
    );
}

/// Computes `f(0)..f(n-1)` in parallel, returning the results in index
/// order.
///
/// This is [`par_chunks_reduce`] over chunks of one element, folded
/// into a vector in chunk order, so the output is identical for every
/// thread count. Intended for coarse tasks (cross-validation folds,
/// row blocks); each element waits in a slot of its own until it is
/// pushed.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    par_chunks_reduce(n, 1, |r| f(r.start), |v| out.push(v));
    out
}

/// Worker count for a job with `tasks` independent units: the resolved
/// [`threads()`], capped by the task count, and 1 inside a worker
/// (nested calls run inline rather than oversubscribing).
fn effective_workers(tasks: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    threads().min(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread override is process-global and `cargo test` runs
    /// tests in parallel, so every test that sets it holds this lock.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    fn lock_threads() -> std::sync::MutexGuard<'static, ()> {
        THREADS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sum_chunked(len: usize, chunk_len: usize, xs: &[f64]) -> f64 {
        let mut total = 0.0;
        par_chunks_reduce(
            len,
            chunk_len,
            |r| xs[r].iter().sum::<f64>(),
            |p: f64| total += p,
        );
        total
    }

    #[test]
    fn reduce_is_thread_count_invariant() {
        let _guard = lock_threads();
        let xs: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64 * 0.3).collect();
        set_threads(1);
        let s1 = sum_chunked(xs.len(), 64, &xs);
        for t in [2, 3, 4, 7, 16] {
            set_threads(t);
            let st = sum_chunked(xs.len(), 64, &xs);
            assert_eq!(s1.to_bits(), st.to_bits(), "threads = {t}");
        }
        set_threads(0);
    }

    #[test]
    fn reduce_handles_empty_and_ragged() {
        let _guard = lock_threads();
        set_threads(4);
        let mut calls = 0;
        par_chunks_reduce(0, 8, |_| 1usize, |_| calls += 1);
        assert_eq!(calls, 0);
        // 10 elements in chunks of 4: ranges 0..4, 4..8, 8..10.
        let mut ranges = Vec::new();
        par_chunks_reduce(10, 4, |r| r, |r| ranges.push(r));
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        set_threads(0);
    }

    #[test]
    fn map_indexed_preserves_order() {
        let _guard = lock_threads();
        for t in [1, 2, 5] {
            set_threads(t);
            let out = par_map_indexed(100, |i| i * i);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
        set_threads(0);
        assert!(par_map_indexed(0, |i| i).is_empty());
    }

    thread_local! {
        /// Set on a test's own thread, the calling thread of the
        /// parallel calls under test (`thread::current` is disallowed).
        static ON_CALLER: Cell<bool> = const { Cell::new(false) };
    }

    /// How long a rendezvous waits before a test gives up on it: far
    /// beyond any scheduling delay, so a timeout means the chunks did
    /// not run at once.
    const RENDEZVOUS: std::time::Duration = std::time::Duration::from_secs(10);

    /// A condition shared by the chunks of one call.
    #[derive(Default)]
    struct Rendezvous<S> {
        state: Mutex<S>,
        changed: std::sync::Condvar,
    }

    impl<S> Rendezvous<S> {
        /// Applies `update` to the state and wakes every waiter.
        fn update(&self, update: impl FnOnce(&mut S)) {
            update(&mut self.state.lock().unwrap());
            self.changed.notify_all();
        }

        /// Waits until `done` holds, for at most [`RENDEZVOUS`]; false
        /// on timeout.
        fn wait(&self, mut done: impl FnMut(&S) -> bool) -> bool {
            let state = self.state.lock().unwrap();
            let waited = self
                .changed
                .wait_timeout_while(state, RENDEZVOUS, |s| !done(s));
            !waited.unwrap().1.timed_out()
        }
    }

    #[test]
    fn nested_calls_run_inline_and_match() {
        let _guard = lock_threads();
        ON_CALLER.with(|c| c.set(true));
        // Each outer chunk reports its sum, whether the calling thread
        // mapped it, and whether a call nested in it would run inline.
        let compute = || {
            let caller_mapped = Rendezvous::<bool>::default();
            par_map_indexed(6, |i| {
                if ON_CALLER.with(Cell::get) {
                    caller_mapped.update(|m| *m = true);
                } else {
                    // Spawned workers wait until the calling thread has
                    // mapped an outer chunk, so one nests in it.
                    assert!(caller_mapped.wait(|&m| m), "the caller mapped no chunk");
                }
                let mut s = 0.0;
                par_chunks_reduce(
                    50,
                    7,
                    |r| r.map(|k| ((i * 50 + k) as f64).sqrt()).sum::<f64>(),
                    |p: f64| s += p,
                );
                (s, ON_CALLER.with(Cell::get), effective_workers(8) == 1)
            })
        };
        set_threads(1);
        let serial = compute();
        set_threads(4);
        let nested = compute();
        set_threads(0);
        ON_CALLER.with(|c| c.set(false));
        let same = serial
            .iter()
            .zip(&nested)
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits());
        assert!(same, "{serial:?} vs {nested:?}");
        assert!(nested.iter().any(|&(_, on_caller, _)| on_caller));
        assert!(
            nested.iter().all(|&(_, _, inline)| inline),
            "a nested call would fan out: {nested:?}"
        );
        // Outside a call the calling thread fans out again.
        set_threads(4);
        assert_eq!(effective_workers(8), 4);
        set_threads(0);
    }

    #[test]
    fn a_panic_in_the_callers_own_chunk_leaves_it_fanning_out() {
        let _guard = lock_threads();
        set_threads(2);
        ON_CALLER.with(|c| c.set(true));
        // The worker's chunk waits until the calling thread has taken
        // the other one, whose `map` then panics.
        let started = Rendezvous::<bool>::default();
        let outcome = std::panic::catch_unwind(|| {
            par_chunks_reduce(
                2,
                1,
                |_| {
                    if ON_CALLER.with(Cell::get) {
                        started.update(|s| *s = true);
                        panic!("the caller's chunk fails");
                    }
                    assert!(started.wait(|&s| s), "the caller took no chunk");
                },
                |()| {},
            );
        });
        assert!(outcome.is_err());
        // The next call must still run its two chunks at once: each
        // waits for the other, which times out if they run in turn on
        // a thread still marked as a worker.
        let arrived = Rendezvous::<usize>::default();
        let mut met = Vec::new();
        par_chunks_reduce(
            2,
            1,
            |_| {
                arrived.update(|n| *n += 1);
                arrived.wait(|&n| n == 2)
            },
            |m| met.push(m),
        );
        ON_CALLER.with(|c| c.set(false));
        set_threads(0);
        assert_eq!(met, [true, true]);
    }

    #[test]
    fn partials_fold_in_order_when_the_callers_chunk_is_slowest() {
        #[derive(Default)]
        struct Progress {
            worker_started: bool,
            caller_second: bool,
            mapped: usize,
        }
        let _guard = lock_threads();
        ON_CALLER.with(|c| c.set(true));
        for t in [2, 4] {
            set_threads(t);
            let chunks = 3 * t;
            let progress = Rendezvous::<Progress>::default();
            let caller_calls = std::sync::atomic::AtomicUsize::new(0);
            let mut order = Vec::new();
            // Every worker's first chunk waits until the calling thread
            // has started its second, and that one waits until every
            // other chunk is mapped. So it is the slowest, and a chunk
            // below it is still unfolded when it ends.
            par_chunks_reduce(
                chunks,
                1,
                |r| {
                    if !ON_CALLER.with(Cell::get) {
                        progress.update(|p| p.worker_started = true);
                        assert!(progress.wait(|p| p.caller_second));
                    } else if caller_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                        assert!(progress.wait(|p| p.worker_started));
                    } else {
                        progress.update(|p| p.caller_second = true);
                        assert!(progress.wait(|p| p.mapped == chunks - 1));
                    }
                    progress.update(|p| p.mapped += 1);
                    r.start
                },
                |idx| order.push(idx),
            );
            assert_eq!(caller_calls.into_inner(), 2, "threads = {t}");
            assert_eq!(order, (0..chunks).collect::<Vec<_>>(), "threads = {t}");
        }
        ON_CALLER.with(|c| c.set(false));
        set_threads(0);
    }

    /// Writes `i · 0.1` into element `i` of a chunked slice and sums
    /// each chunk's squares.
    fn fill_and_sum(len: usize, chunk_len: usize) -> (Vec<f64>, f64) {
        let mut xs = vec![f64::NAN; len];
        let mut total = 0.0;
        par_chunks_mut_reduce(
            &mut xs[..],
            chunk_len,
            |range, chunk: &mut [f64]| {
                assert_eq!(range.len(), chunk.len());
                for (x, i) in chunk.iter_mut().zip(range) {
                    *x = i as f64 * 0.1;
                }
                chunk.iter().map(|x| x * x).sum::<f64>()
            },
            |p: f64| total += p,
        );
        (xs, total)
    }

    #[test]
    fn in_place_writes_land_in_their_own_chunk() {
        let _guard = lock_threads();
        for t in [1, 2, 4] {
            set_threads(t);
            let (xs, _) = fill_and_sum(1000, 64);
            assert!(xs.iter().enumerate().all(|(i, &x)| x == i as f64 * 0.1));
            // A triple is cut at the same indices in every slice.
            let (mut a, mut b, mut c) = (vec![0usize; 10], vec![0.0f64; 10], vec![0u8; 10]);
            par_chunks_mut_reduce(
                (&mut a[..], &mut b[..], &mut c[..]),
                4,
                |range, (a, b, c): (&mut [usize], &mut [f64], &mut [u8])| {
                    for (i, j) in range.enumerate() {
                        (a[i], b[i], c[i]) = (j, j as f64, j as u8);
                    }
                },
                |()| {},
            );
            assert_eq!(a, (0..10).collect::<Vec<_>>());
            assert!(b.iter().enumerate().all(|(j, &v)| v == j as f64));
            assert_eq!(c, (0..10).collect::<Vec<u8>>());
        }
        set_threads(0);
    }

    #[test]
    fn in_place_partials_fold_in_chunk_order() {
        let _guard = lock_threads();
        for t in [1, 3, 4] {
            set_threads(t);
            let mut xs = [0u32; 10];
            let mut ranges = Vec::new();
            par_chunks_mut_reduce(&mut xs[..], 4, |r, _: &mut [u32]| r, |r| ranges.push(r));
            assert_eq!(ranges, vec![0..4, 4..8, 8..10], "threads = {t}");
            let mut calls = 0;
            par_chunks_mut_reduce(&mut xs[..0], 4, |_, _: &mut [u32]| (), |()| calls += 1);
            assert_eq!(calls, 0);
        }
        set_threads(0);
    }

    #[test]
    fn in_place_results_are_thread_count_invariant() {
        let _guard = lock_threads();
        set_threads(1);
        let (xs1, s1) = fill_and_sum(10_000, 64);
        for t in 2..=16 {
            set_threads(t);
            let (xs, st) = fill_and_sum(10_000, 64);
            assert_eq!(s1.to_bits(), st.to_bits(), "threads = {t}");
            assert!(xs.iter().zip(&xs1).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        set_threads(0);
    }

    #[test]
    fn nested_in_place_calls_run_inline_and_match() {
        let _guard = lock_threads();
        let compute = || {
            par_map_indexed(6, |i| {
                let (_, s) = fill_and_sum(50 + i, 7);
                s
            })
        };
        set_threads(1);
        let serial = compute();
        set_threads(4);
        let nested = compute();
        set_threads(0);
        let same = serial
            .iter()
            .zip(&nested)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{serial:?} vs {nested:?}");
    }

    #[test]
    fn a_panic_in_an_in_place_map_propagates() {
        let _guard = lock_threads();
        for t in [1, 4] {
            set_threads(t);
            let outcome = std::panic::catch_unwind(|| {
                let mut xs = vec![0.0f64; 100];
                par_chunks_mut_reduce(
                    &mut xs[..],
                    10,
                    |r, _: &mut [f64]| assert!(r.start != 50, "chunk 5 fails"),
                    |()| {},
                );
            });
            assert!(outcome.is_err(), "threads = {t}");
        }
        set_threads(0);
    }

    #[test]
    fn override_beats_env() {
        let _guard = lock_threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
