//! sort_keyed: `parallel_merge_sort_by` of 2^22 `(key, payload)` records
//! whose keys are duplicate-heavy (n/64 distinct) and whose payload is the
//! input position. The comparator reads the key only, so any stability
//! break changes a payload and fails the check against std's stable sort.

use std::cmp::Ordering;
use std::time::Instant;

use mergepath::merge::adaptive::SegmentKernel;
use mergepath::merge::sequential::merge_into_by;
use mergepath::partition::segment_boundary;
use mergepath::sort::parallel::{parallel_merge_sort_by, parallel_merge_sort_recorded};
use mergepath::telemetry::{SpanKind, Telemetry};
use mergepath_workloads::{unsorted_keys, SortWorkload};

use crate::layers::{self, ns_since, span_ns};
use crate::stats::{median, median_ns};
use crate::{calls, env, nproc, repeat_for, setup, Checker, Opts, Report};

/// A keyed record: `(key, input position)`.
type Rec = (u32, u32);

/// Timed ops a run makes at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

fn by_key(x: &Rec, y: &Rec) -> Ordering {
    x.0.cmp(&y.0)
}

/// The unsorted input, the oracle's answer and the buffer sorted in place.
struct Bench {
    input: Vec<Rec>,
    oracle: Vec<Rec>,
    work: Vec<Rec>,
    threads: usize,
}

impl Bench {
    /// Pairs `keys` with their positions and computes the oracle.
    fn new(keys: Vec<u32>) -> Self {
        let input: Vec<Rec> = keys.into_iter().zip(0u32..).collect();
        let mut oracle = input.clone();
        oracle.sort_by_key(|r| r.0);
        Bench {
            work: input.clone(),
            input,
            oracle,
            threads: nproc(),
        }
    }

    fn len(&self) -> usize {
        self.input.len()
    }

    /// One op: the unsorted copy is restored untimed, the sort is timed,
    /// the check is not.
    fn op(&mut self, checker: &Checker) -> u64 {
        self.work.copy_from_slice(&self.input);
        let t = Instant::now();
        parallel_merge_sort_by(&mut self.work, self.threads, &by_key);
        let ns = ns_since(t);
        checker.check(&mut self.work, &self.oracle);
        ns
    }

    /// One op through the library's recorded entry point, untimed but
    /// checked; returns its wall ns and what the library recorded.
    fn recorded_op(&mut self, checker: &Checker) -> (u64, Telemetry) {
        self.work.copy_from_slice(&self.input);
        let (work, threads) = (&mut self.work, self.threads);
        let done = layers::record(|rec| parallel_merge_sort_recorded(work, threads, &by_key, rec));
        checker.check(&mut self.work, &self.oracle);
        done
    }
}

/// One set-up in a fresh process (see [`setup`]): from the first pool use
/// through `warmup_ops` ops; returns the seconds.
pub fn set_up(inputs: Vec<Vec<u32>>, warmup_ops: usize, checker: &Checker) -> f64 {
    let [keys] = <[Vec<u32>; 1]>::try_from(inputs).expect("one key vector");
    let mut bench = Bench::new(keys);
    (0..warmup_ops).map(|_| bench.op(checker)).sum::<u64>() as f64 / 1e9
}

/// Runs sort_keyed.
pub fn run(opts: &Opts) -> Report {
    let keys = unsorted_keys(SortWorkload::DuplicateHeavy, opts.scale.sort_len, opts.seed);
    let checker = Checker::new(opts.corrupt);

    if !opts.trace {
        let mut setups = setup::in_fresh_processes(opts, &[&keys], &checker);
        let mut bench = Bench::new(keys);
        let n = bench.len();
        let mut op_ns = Vec::new();
        repeat_for(opts.seconds, MIN_OPS, || op_ns.push(bench.op(&checker)));
        // Which kernels the adaptive probe picked for this seed's merge
        // segments: co_rank is not chosen for every seed.
        let (_, tel) = bench.recorded_op(&checker);
        let co_rank = layers::kernel_shares(&[tel])
            .into_iter()
            .find(|k| k.0 == SegmentKernel::CoRank)
            .map_or(0.0, |k| k.1);
        let mut r = Report::new(&checker);
        r.metric("setup_s", median(&mut setups), "s");
        calls::report(&mut r, n, &op_ns);
        r.metric("peak_rss_mib", env::peak_rss_mib(), "MiB");
        r.detail("setups", setups.len() as f64);
        r.detail("kernel_share_co_rank", co_rank);
        return r;
    }

    // Traced: warm up, then half the time on the plain op and half on the
    // same sort through the library's recorded entry point.
    let mut bench = Bench::new(keys);
    let (n, threads) = (bench.len(), bench.threads);
    for _ in 0..opts.scale.warmup_ops {
        bench.op(&checker);
    }
    let steals = layers::steal_stats();
    let mut plain = Vec::new();
    repeat_for(opts.seconds / 2.0, MIN_OPS, || {
        plain.push(bench.op(&checker))
    });
    let plain_ops = plain.len() as u64;
    let steals_after_plain = layers::steal_stats();

    let mut ops = Vec::new();
    let mut traced_wall = Vec::new();
    repeat_for(opts.seconds / 2.0, MIN_OPS, || {
        let (ns, tel) = bench.recorded_op(&checker);
        traced_wall.push(ns);
        ops.push(tel);
    });
    let mut r = Report::new(&checker);
    let rounds = report_sort(&mut r, &ops, &bench.input, threads, &by_key);

    // The T1 floor on the same chunks: one thread's sequential merge of
    // the sorted chunks the first merge round takes.
    let bounds: Vec<usize> = (0..=threads)
        .map(|k| segment_boundary(n, threads, k))
        .collect();
    let mut chunks = bench.input.clone();
    for w in bounds.windows(2) {
        chunks[w[0]..w[1]].sort_by(by_key);
    }
    let mut seq_per_elem = Vec::new();
    let mut seq_out = vec![Rec::default(); n];
    for _ in 0..3 {
        for pair in bounds.windows(3).step_by(2) {
            let (lo, mid, hi) = (pair[0], pair[1], pair[2]);
            let t = Instant::now();
            merge_into_by(
                &chunks[lo..mid],
                &chunks[mid..hi],
                &mut seq_out[lo..hi],
                &by_key,
            );
            seq_per_elem.push(ns_since(t) as f64 / (hi - lo) as f64);
        }
    }
    let round_ns = layers::executor_round_ns(threads, 2000);

    // The blocking path of one op: the slowest phase-1 chunk sort, the
    // merge rounds, and the phase-1 pool round (each merge round's span
    // holds its own pool round).
    let parts = median_ns(
        &rounds
            .iter()
            .map(|s| s.phase1_max_ns() + s.merge_ns.iter().sum::<u64>())
            .collect::<Vec<_>>(),
    ) + round_ns;
    let e2e = median_ns(&plain);

    layers::report_diagonal(&mut r, &ops);
    layers::report_kernel(&mut r, &ops);
    r.metric("kernel.seq_ns_per_elem", median(&mut seq_per_elem), "ns");
    r.metric("executor.round_ns", round_ns, "ns");
    layers::report_skew(&mut r, &ops);
    layers::report_steals(&mut r, steals, steals_after_plain, plain_ops);
    layers::report_not_on_path(&mut r, &layers::SERVE_LAYER);
    layers::report_not_on_path(&mut r, &layers::NET_LAYER);
    layers::report_residual(&mut r, e2e, parts);
    layers::report_overhead(&mut r, median_ns(&traced_wall), e2e);
    r.detail("plain_ops", plain_ops as f64);
    r.detail("traced_ops", ops.len() as f64);
    r.detail("e2e_op_ns", e2e);
    r
}

/// Adds the sort layer's metrics for `ops`, each a recorded
/// `parallel_merge_sort_recorded` of `input` at `threads`:
/// `sort.phase1_ns_per_elem`, `sort.round_ns_per_elem` and `sort.rounds`
/// from their `SortRound` spans, and the floor
/// `sort.std_stable_ns_per_elem`, std's stable sort of the same phase-1
/// chunks. Returns each op's phases.
pub fn report_sort<T: Clone>(
    r: &mut Report,
    ops: &[Telemetry],
    input: &[T],
    threads: usize,
    cmp: &impl Fn(&T, &T) -> Ordering,
) -> Vec<SortRounds> {
    let n = input.len();
    let rounds: Vec<SortRounds> = ops.iter().map(|t| SortRounds::of(t, n, threads)).collect();
    let mut std_per_elem = Vec::new();
    for _ in 0..3 {
        let mut chunks = input.to_vec();
        for k in 0..threads {
            let chunk =
                &mut chunks[segment_boundary(n, threads, k)..segment_boundary(n, threads, k + 1)];
            let t = Instant::now();
            chunk.sort_by(cmp);
            std_per_elem.push(ns_since(t) as f64 / chunk.len().max(1) as f64);
        }
    }
    let mut phase1: Vec<f64> = rounds
        .iter()
        .flat_map(|s| s.phase1_ns_per_elem.iter().copied())
        .collect();
    r.metric("sort.phase1_ns_per_elem", median(&mut phase1), "ns");
    r.metric(
        "sort.std_stable_ns_per_elem",
        median(&mut std_per_elem),
        "ns",
    );
    let mut merge_per_elem: Vec<f64> = rounds
        .iter()
        .flat_map(|s| s.merge_ns.iter().map(|&ns| ns as f64 / n as f64))
        .collect();
    r.metric("sort.round_ns_per_elem", median(&mut merge_per_elem), "ns");
    let mut round_counts: Vec<f64> = rounds.iter().map(|s| s.merge_ns.len() as f64).collect();
    r.metric("sort.rounds", median(&mut round_counts), "count");
    rounds
}

/// One recorded sort's `SortRound` spans, split into its phases.
#[derive(Debug, Clone)]
pub struct SortRounds {
    /// Phase 1: each chunk sort's ns, and its ns per record.
    phase1_ns: Vec<u64>,
    phase1_ns_per_elem: Vec<f64>,
    /// Each merge round's ns.
    merge_ns: Vec<u64>,
}

impl SortRounds {
    /// Phase-1 spans are the chunk sorts, which end before the first
    /// segment merge begins; the rest are merge rounds (top-level spans
    /// that hold the round's pool round).
    fn of(tel: &Telemetry, n: usize, threads: usize) -> Self {
        let first_merge = layers::spans(tel, SpanKind::SegmentMerge)
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(u64::MAX);
        let mut rounds = SortRounds {
            phase1_ns: Vec::new(),
            phase1_ns_per_elem: Vec::new(),
            merge_ns: Vec::new(),
        };
        for s in layers::spans(tel, SpanKind::SortRound) {
            if s.end_ns <= first_merge {
                let len = segment_boundary(n, threads, s.worker + 1)
                    - segment_boundary(n, threads, s.worker);
                rounds.phase1_ns.push(span_ns(s));
                rounds
                    .phase1_ns_per_elem
                    .push(span_ns(s) as f64 / len.max(1) as f64);
            } else if s.depth == 0 {
                rounds.merge_ns.push(span_ns(s));
            }
        }
        rounds
    }

    fn phase1_max_ns(&self) -> u64 {
        self.phase1_ns.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_sort_splits_into_its_phases() {
        for threads in [2, 3, 4, 5] {
            let mut bench = Bench::new(unsorted_keys(SortWorkload::DuplicateHeavy, 3000, 7));
            bench.threads = threads;
            let checker = Checker::new(false);
            let (_, tel) = bench.recorded_op(&checker);
            assert!(checker.failed() == 0 && checker.attempted() == 1);
            let rounds = SortRounds::of(&tel, 3000, threads);
            assert_eq!(rounds.phase1_ns.len(), threads, "threads={threads}");
            assert_eq!(
                rounds.merge_ns.len(),
                threads.next_power_of_two().trailing_zeros() as usize,
                "threads={threads}"
            );
        }
    }
}
