//! **Algorithm 1 — Parallel Merge** (paper, §III).
//!
//! Each of the `p` workers independently:
//!
//! 1. computes its starting diagonal `d_k = ⌊k·(|A|+|B|)/p⌋`,
//! 2. binary-searches the intersection of the merge path with that diagonal
//!    ([`crate::diagonal::co_rank_by`]), and
//! 3. executes `(|A|+|B|)/p` steps of sequential merge, writing to output
//!    positions `d_k ..`.
//!
//! Workers write to disjoint output ranges and need no synchronization
//! beyond the final join — the algorithm is lock-free and communication-free
//! (the paper's Remark after Algorithm 1). The only shared reads are the few
//! `O(log N)` probes of the partition searches.
//!
//! Time `O(N/p + log N)`; work `O(N + p·log N)` — optimal for
//! `p ≤ N / log N`.
//!
//! Execution happens on the process-wide persistent worker pool
//! ([`crate::executor::global`]), mirroring the OpenMP runtime used in
//! §VI: `threads` is the *logical* processor count `p` of the algorithm
//! (the number of Merge Path segments), scheduled as `p` shares over the
//! pool. Output is bitwise identical regardless of the pool's physical
//! size.
//!
//! One share of the algorithm is [`merge_share`]: the batched round
//! ([`crate::merge::batch`]) and the segmented merge's windows
//! ([`crate::merge::segmented`]) run the same routine, and every segment
//! merge goes through [`merge_segment`]'s traced/untraced fork. The cuts
//! `⌊k·n/p⌋` hand every share at most `⌈n/p⌉` outputs (Thm 14); stability
//! comes from the tie rule of the co-rank search, whichever segment kernel
//! merges the share.

use core::cell::Cell;
use core::cmp::Ordering;

use mergepath_telemetry::{span, CounterKind, NoRecorder, Recorder, SpanKind};

use crate::diagonal::{co_rank_by, co_rank_counted};
use crate::error::MergeError;
use crate::executor::{self, SendPtr};
use crate::merge::adaptive::{adaptive_merge_into_by, adaptive_merge_into_counted};
use crate::merge::simd::natural_cmp;
use crate::partition::segment_boundary;

/// Stable parallel merge of `a` and `b` into `out` with `threads` workers,
/// using the natural order of `T`.
///
/// Produces output bitwise identical to
/// [`merge_into`](crate::merge::sequential::merge_into).
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()` or `threads == 0`.
///
/// # Examples
/// ```
/// use mergepath::merge::parallel::parallel_merge_into;
/// let a: Vec<u32> = (0..100).map(|x| 2 * x).collect();
/// let b: Vec<u32> = (0..100).map(|x| 2 * x + 1).collect();
/// let mut out = vec![0; 200];
/// parallel_merge_into(&a, &b, &mut out, 4);
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn parallel_merge_into<T>(a: &[T], b: &[T], out: &mut [T], threads: usize)
where
    T: Ord + Clone + Send + Sync,
{
    parallel_merge_into_by(a, b, out, threads, &natural_cmp);
}

/// [`parallel_merge_into`] with a caller-supplied comparator.
///
/// Ties take from `a` first (stable).
pub fn parallel_merge_into_by<T, F>(a: &[T], b: &[T], out: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    parallel_merge_into_recorded(a, b, out, threads, cmp, &NoRecorder);
}

/// [`parallel_merge_into_by`] reporting spans, counters and per-worker
/// element counts into `rec`.
///
/// With [`NoRecorder`] every instrumented site is guarded by the
/// compile-time `R::ACTIVE` flag, so the instantiation is exactly the
/// untraced kernel (the public entry point above delegates here).
pub fn parallel_merge_into_recorded<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    threads: usize,
    cmp: &F,
    rec: &R,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
    R: Recorder,
{
    let n = a.len() + b.len();
    assert!(
        out.len() == n,
        "output buffer length mismatch: expected {n}, got {}",
        out.len()
    );
    assert!(threads > 0, "thread count must be at least 1");

    // Never more shares than outputs, so every share holds at least one
    // (Thm 14's ⌈n/p⌉ cap then also holds when `threads > n`). A single
    // share runs inline: a sequential merge, no fork overhead.
    let p = threads.min(n);
    if p <= 1 {
        executor::note_write_range(out);
        merge_segment(a, b, out, cmp, rec, 0);
        if R::ACTIVE {
            rec.worker_items(0, n as u64);
        }
        return;
    }

    let base = SendPtr::new(out.as_mut_ptr());
    executor::global().run_indexed_recorded(p, rec, &|k| {
        // Step 1 of Algorithm 1: the share's cut diagonals.
        let cut = (segment_boundary(n, p, k), segment_boundary(n, p, k + 1));
        // SAFETY: segment boundaries are monotone, so the `cut` ranges are
        // pairwise disjoint across shares and lie within `out`
        // (`cut.1 <= n == out.len()`); the pool's end barrier orders all
        // writes before `run_indexed_recorded` returns to this frame, which
        // still holds the unique borrow of `out`.
        unsafe { merge_share(a, b, &base, cut, cmp, rec, k) };
        if R::ACTIVE {
            rec.worker_items(k, (cut.1 - cut.0) as u64);
        }
    });
}

/// One share of Algorithm 1: merges output ranks `d_lo..d_hi` of the
/// stable merge of `a` and `b` into the same ranks of the buffer at `out`.
///
/// Step 2 co-ranks both cut diagonals ([`co_rank_by`]; traced, each search
/// is a `DiagonalSearch` span inside one `Partition` span, and its probes
/// count into `DiagonalProbeSteps` and `Comparisons` on `worker`). Step 3
/// reports the two read ranges and merges the private segment through
/// [`merge_segment`]. The share needs nothing from any other share.
///
/// # Safety
/// `out` must point to a live buffer of `a.len() + b.len()` elements, and
/// no other reference may touch its ranks `d_lo..d_hi` (with
/// `d_lo <= d_hi <= a.len() + b.len()`) until this call returns.
pub(crate) unsafe fn merge_share<T, F, R>(
    a: &[T],
    b: &[T],
    out: &SendPtr<T>,
    (d_lo, d_hi): (usize, usize),
    cmp: &F,
    rec: &R,
    worker: usize,
) where
    T: Clone,
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    // Injected partition-boundary fault for the mutation self-test
    // (`cargo xtask verify-schedules` builds with `--cfg mergepath_mutate`):
    // worker 0's upper cut is off by one, so its write range overlaps the
    // next share's first element — exactly the bug class Thm 9 rules out,
    // which the CREW checker must report.
    #[cfg(mergepath_mutate)]
    let d_hi = if worker == 0 && d_hi < a.len() + b.len() {
        d_hi + 1
    } else {
        d_hi
    };
    let (i_lo, i_hi) = if R::ACTIVE {
        let _partition = span(rec, worker, SpanKind::Partition);
        let (i_lo, c_lo) = {
            let _search = span(rec, worker, SpanKind::DiagonalSearch);
            co_rank_counted(d_lo, a, b, cmp)
        };
        let (i_hi, c_hi) = {
            let _search = span(rec, worker, SpanKind::DiagonalSearch);
            co_rank_counted(d_hi, a, b, cmp)
        };
        let probes = (c_lo + c_hi) as u64;
        rec.counter_add(worker, CounterKind::DiagonalProbeSteps, probes);
        rec.counter_add(worker, CounterKind::Comparisons, probes);
        (i_lo, i_hi)
    } else {
        (co_rank_by(d_lo, a, b, cmp), co_rank_by(d_hi, a, b, cmp))
    };
    let (sa, sb) = (&a[i_lo..i_hi], &b[d_lo - i_lo..d_hi - i_hi]);
    executor::note_read_range(sa);
    executor::note_read_range(sb);
    // SAFETY: `d_lo..d_hi` lies within the buffer and is exclusive to this
    // call, per this function's contract.
    let chunk = unsafe { out.slice_mut(d_lo, d_hi - d_lo) };
    merge_segment(sa, sb, chunk, cmp, rec, worker);
}

/// Merges one segment through the adaptive kernel
/// ([`adaptive_merge_into_by`]). Traced, the merge runs inside a
/// `SegmentMerge` span on `worker` with a counted comparator, and the
/// kernel choice and comparison count are attributed to `worker`.
pub(crate) fn merge_segment<T, F, R>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    cmp: &F,
    rec: &R,
    worker: usize,
) where
    T: Clone,
    F: Fn(&T, &T) -> Ordering,
    R: Recorder,
{
    if R::ACTIVE {
        let hits = Cell::new(0u64);
        let kernel = {
            let _merge = span(rec, worker, SpanKind::SegmentMerge);
            adaptive_merge_into_counted(a, b, out, cmp, &hits)
        };
        rec.counter_add(worker, kernel.counter(), 1);
        rec.counter_add(worker, CounterKind::Comparisons, hits.get());
    } else {
        adaptive_merge_into_by(a, b, out, cmp);
    }
}

/// Convenience wrapper that allocates and returns the merged vector.
pub fn parallel_merge<T>(a: &[T], b: &[T], threads: usize) -> Vec<T>
where
    T: Ord + Clone + Send + Sync + Default,
{
    let mut out = vec![T::default(); a.len() + b.len()];
    parallel_merge_into(a, b, &mut out, threads);
    out
}

/// Fallible variant of [`parallel_merge_into_by`].
pub fn try_parallel_merge_into_by<T, F>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    threads: usize,
    cmp: &F,
) -> Result<(), MergeError>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if out.len() != a.len() + b.len() {
        return Err(MergeError::OutputLenMismatch {
            expected: a.len() + b.len(),
            actual: out.len(),
        });
    }
    if threads == 0 {
        return Err(MergeError::ZeroThreads);
    }
    parallel_merge_into_by(a, b, out, threads, cmp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::sequential::merge_into_by;
    use mergepath_telemetry::{Telemetry, TimelineRecorder};
    use proptest::prelude::*;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut out = vec![0; a.len() + b.len()];
        merge_into_by(a, b, &mut out, &|x, y| x.cmp(y));
        out
    }

    #[test]
    fn matches_sequential_on_interleaved_input() {
        let a: Vec<i64> = (0..10_000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..10_000).map(|x| x * 2 + 1).collect();
        let expect = oracle(&a, &b);
        for threads in [1, 2, 3, 4, 7, 12] {
            let mut out = vec![0; 20_000];
            parallel_merge_into(&a, &b, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn adversarial_all_a_greater() {
        let a: Vec<i64> = (1_000_000..1_001_000).collect();
        let b: Vec<i64> = (0..1000).collect();
        let expect = oracle(&a, &b);
        let mut out = vec![0; 2000];
        parallel_merge_into(&a, &b, &mut out, 8);
        assert_eq!(out, expect);
    }

    #[test]
    fn asymmetric_sizes() {
        let a: Vec<i64> = (0..10).collect();
        let b: Vec<i64> = (0..100_000).map(|x| x - 50_000).collect();
        let expect = oracle(&a, &b);
        let mut out = vec![0; expect.len()];
        parallel_merge_into(&a, &b, &mut out, 6);
        assert_eq!(out, expect);
    }

    #[test]
    fn more_threads_than_elements() {
        let a = [5i64];
        let b = [3i64, 7];
        let mut out = [0i64; 3];
        parallel_merge_into(&a, &b, &mut out, 64);
        assert_eq!(out, [3, 5, 7]);
    }

    #[test]
    fn empty_inputs() {
        let a: [i64; 0] = [];
        let mut out: [i64; 0] = [];
        parallel_merge_into(&a, &a, &mut out, 4);
        let b = [1i64, 2];
        let mut out2 = [0i64; 2];
        parallel_merge_into(&a, &b, &mut out2, 4);
        assert_eq!(out2, [1, 2]);
    }

    #[test]
    fn parallel_merge_is_stable() {
        // Values paired with provenance; comparator looks only at the value.
        let a: Vec<(i32, u32)> = (0..64).map(|i| (i / 8, i as u32)).collect();
        let b: Vec<(i32, u32)> = (0..64).map(|i| (i / 8, 1000 + i as u32)).collect();
        let mut out = vec![(0, 0); 128];
        parallel_merge_into_by(&a, &b, &mut out, 5, &|x, y| x.0.cmp(&y.0));
        let mut expect = vec![(0, 0); 128];
        merge_into_by(&a, &b, &mut expect, &|x, y| x.0.cmp(&y.0));
        assert_eq!(out, expect);
        // Within each tie class, A's provenance (< 1000) precedes B's.
        for w in out.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 >= 1000 {
                assert!(w[1].1 >= 1000, "B element overtook an A element: {w:?}");
            }
        }
    }

    #[test]
    fn try_variant_reports_errors() {
        let a = [1i64, 2];
        let b = [3i64];
        let mut bad = [0i64; 4];
        let cmp = |x: &i64, y: &i64| x.cmp(y);
        assert!(matches!(
            try_parallel_merge_into_by(&a, &b, &mut bad, 2, &cmp),
            Err(MergeError::OutputLenMismatch { .. })
        ));
        let mut ok = [0i64; 3];
        assert!(matches!(
            try_parallel_merge_into_by(&a, &b, &mut ok, 0, &cmp),
            Err(MergeError::ZeroThreads)
        ));
        assert!(try_parallel_merge_into_by(&a, &b, &mut ok, 2, &cmp).is_ok());
        assert_eq!(ok, [1, 2, 3]);
    }

    /// Traced merge: the output plus what the recorder saw.
    fn traced(a: &[i64], b: &[i64], threads: usize) -> (Vec<i64>, Telemetry) {
        let mut out = vec![0; a.len() + b.len()];
        let rec = TimelineRecorder::new();
        parallel_merge_into_recorded(a, b, &mut out, threads, &|x, y| x.cmp(y), &rec);
        (out, rec.finish())
    }

    #[test]
    fn telemetry_shows_perfect_balance() {
        let a: Vec<i64> = (0..6000).map(|x| x * 2).collect();
        let b: Vec<i64> = (0..6000).map(|x| x * 2 + 1).collect();
        let (out, telemetry) = traced(&a, &b, 8);
        let report = telemetry.load_balance(12_000, 8);
        assert_eq!(report.per_worker_items.len(), 8);
        // Corollary 7: equisized segments.
        assert!(report.thm14_exact);
        assert_eq!((report.max_items, report.min_items), (1500, 1500));
        // Theorem 14: every partition search is logarithmic.
        let bound = 2 * ((6000f64).log2().ceil() as u64 + 1);
        for c in &telemetry.counters {
            if c.kind == CounterKind::DiagonalProbeSteps {
                assert!(c.total <= bound, "worker {}: {} probes", c.worker, c.total);
            }
        }
        assert_eq!(out, oracle(&a, &b));
    }

    #[test]
    fn all_equal_elements() {
        let a = vec![7i64; 1000];
        let b = vec![7i64; 1500];
        let mut out = vec![0; 2500];
        parallel_merge_into(&a, &b, &mut out, 6);
        assert!(out.iter().all(|&x| x == 7));
    }

    proptest! {
        #[test]
        fn parallel_equals_sequential(
            a in proptest::collection::vec(-1000i64..1000, 0..300).prop_map(sorted),
            b in proptest::collection::vec(-1000i64..1000, 0..300).prop_map(sorted),
            threads in 1usize..16,
        ) {
            let expect = oracle(&a, &b);
            let mut out = vec![0; expect.len()];
            parallel_merge_into(&a, &b, &mut out, threads);
            prop_assert_eq!(out, expect);
        }

        #[test]
        fn telemetry_balance_invariant(
            a in proptest::collection::vec(-1000i64..1000, 0..300).prop_map(sorted),
            b in proptest::collection::vec(-1000i64..1000, 0..300).prop_map(sorted),
            threads in 1usize..12,
        ) {
            let (out, telemetry) = traced(&a, &b, threads);
            let report = telemetry.load_balance(out.len() as u64, threads);
            prop_assert!(report.thm14_exact);
            // Workers that got no share merged nothing.
            let min = if report.per_worker_items.len() < threads { 0 } else { report.min_items };
            let max = report.max_items;
            prop_assert!(max - min <= 1, "max={} min={}", max, min);
            prop_assert_eq!(out, oracle(&a, &b));
        }
    }
}
