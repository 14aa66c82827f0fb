//! Property tests of the runtime's determinism contract: for arbitrary
//! problem lengths, chunk lengths, and thread counts — including empty
//! and single-element inputs — the parallel primitives must reproduce
//! a plain serial fold bit for bit.
//!
//! `set_threads` is process-global, so every test restores the default
//! (0 = no override) before returning; the harness may still interleave
//! tests, which is safe here because each property only compares runs
//! it performs itself under explicitly set counts.

use proptest::prelude::*;
use rsm_runtime::{par_chunks_reduce, par_map_indexed, set_threads};

/// Serial reference: fold the same fixed chunk grid in order.
fn serial_chunk_sum(xs: &[f64], chunk_len: usize) -> f64 {
    let mut total = 0.0;
    let mut start = 0;
    while start < xs.len() {
        let end = xs.len().min(start + chunk_len);
        total += xs[start..end].iter().sum::<f64>();
        start = end;
    }
    total
}

fn parallel_chunk_sum(xs: &[f64], chunk_len: usize) -> f64 {
    let mut total = 0.0;
    par_chunks_reduce(
        xs.len(),
        chunk_len,
        |r| xs[r].iter().sum::<f64>(),
        |p: f64| total += p,
    );
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_reduce_equals_serial_fold(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..400),
        chunk_len in 1usize..64,
        threads in 1usize..9,
    ) {
        let reference = serial_chunk_sum(&xs, chunk_len);
        set_threads(threads);
        let parallel = parallel_chunk_sum(&xs, chunk_len);
        set_threads(0);
        prop_assert_eq!(reference.to_bits(), parallel.to_bits());
    }

    #[test]
    fn reduce_invariant_across_thread_counts(
        xs in proptest::collection::vec(-1.0f64..1.0, 1..600),
        chunk_len in 1usize..40,
    ) {
        set_threads(1);
        let base = parallel_chunk_sum(&xs, chunk_len);
        for t in [2usize, 3, 4, 7, 13] {
            set_threads(t);
            let other = parallel_chunk_sum(&xs, chunk_len);
            set_threads(0);
            prop_assert_eq!(base.to_bits(), other.to_bits(), "threads = {}", t);
        }
        set_threads(0);
    }

    #[test]
    fn reduce_visits_each_chunk_once_in_order(
        len in 0usize..500,
        chunk_len in 1usize..50,
        threads in 1usize..9,
    ) {
        set_threads(threads);
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        par_chunks_reduce(len, chunk_len, |r| r, |r| ranges.push(r));
        set_threads(0);
        // The folded ranges tile 0..len exactly, in ascending order.
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > r.start && r.end - r.start <= chunk_len);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, len);
    }

    #[test]
    fn map_indexed_matches_serial_map(
        n in 0usize..300,
        scale in -2.0f64..2.0,
        threads in 1usize..9,
    ) {
        let reference: Vec<f64> = (0..n).map(|i| (i as f64 * scale).sin()).collect();
        set_threads(threads);
        let parallel = par_map_indexed(n, |i| (i as f64 * scale).sin());
        set_threads(0);
        prop_assert_eq!(reference.len(), parallel.len());
        for (a, b) in reference.iter().zip(&parallel) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_element_and_single_chunk_degenerate_cases(
        x in -1e6f64..1e6,
        threads in 1usize..9,
    ) {
        set_threads(threads);
        let one = parallel_chunk_sum(&[x], 1);
        let whole = parallel_chunk_sum(&[x], 1000);
        let mapped = par_map_indexed(1, |_| x);
        set_threads(0);
        prop_assert_eq!(one.to_bits(), x.to_bits());
        prop_assert_eq!(whole.to_bits(), x.to_bits());
        prop_assert_eq!(mapped[0].to_bits(), x.to_bits());
    }
}
