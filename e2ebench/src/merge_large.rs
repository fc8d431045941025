//! merge_large: `parallel_merge_into` of two 2^25-element sorted uniform
//! `u32` arrays into a 2^26-element output, one caller thread, closed loop.
//! The working set (512 MiB) is several times the last-level cache, so the
//! segment kernel and memory traffic dominate each op.

use std::time::Instant;

use mergepath::merge::parallel::{parallel_merge_into, parallel_merge_into_recorded};
use mergepath::merge::sequential::{merge_into, merge_into_by};
use mergepath::merge::simd::natural_cmp;
use mergepath::telemetry::SpanKind;
use mergepath_workloads::{merge_pair, MergeWorkload};

use crate::layers::{self, ns_since};
use crate::stats::{median, median_ns};
use crate::{calls, env, nproc, repeat_for, setup, Checker, Opts, Report};

/// Timed ops a run makes at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

/// The inputs, the oracle's answer and the output buffer.
struct Bench {
    a: Vec<u32>,
    b: Vec<u32>,
    oracle: Vec<u32>,
    out: Vec<u32>,
    threads: usize,
}

impl Bench {
    /// Computes the oracle and allocates and first touches the output.
    fn new(a: Vec<u32>, b: Vec<u32>) -> Self {
        let n = a.len() + b.len();
        let mut oracle = vec![0u32; n];
        merge_into(&a, &b, &mut oracle);
        Bench {
            a,
            b,
            oracle,
            out: vec![u32::MAX; n],
            threads: nproc(),
        }
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    /// One op: the merge is timed; the check and the re-poisoning of the
    /// output (so a merge that writes nothing fails) are not.
    fn op(&mut self, checker: &Checker) -> u64 {
        let t = Instant::now();
        parallel_merge_into(&self.a, &self.b, &mut self.out, self.threads);
        let ns = ns_since(t);
        self.check(checker);
        ns
    }

    fn check(&mut self, checker: &Checker) {
        checker.check(&mut self.out, &self.oracle);
        self.out.fill(0);
    }
}

/// One set-up in a fresh process (see [`setup`]): from the first pool use
/// through `warmup_ops` ops; returns the seconds.
pub fn set_up(inputs: Vec<Vec<u32>>, warmup_ops: usize, checker: &Checker) -> f64 {
    let [a, b] = <[Vec<u32>; 2]>::try_from(inputs).expect("two merge inputs");
    let mut bench = Bench::new(a, b);
    (0..warmup_ops).map(|_| bench.op(checker)).sum::<u64>() as f64 / 1e9
}

/// Runs merge_large.
pub fn run(opts: &Opts) -> Report {
    let (a, b) = merge_pair(MergeWorkload::Uniform, opts.scale.merge_side, opts.seed);
    let checker = Checker::new(opts.corrupt);

    if !opts.trace {
        // The set-ups run before this process allocates its oracle and
        // output, so a child's memory does not add to them.
        let mut setups = setup::in_fresh_processes(opts, &[&a, &b], &checker);
        let mut bench = Bench::new(a, b);
        let n = bench.len();
        let mut op_ns = Vec::new();
        repeat_for(opts.seconds, MIN_OPS, || op_ns.push(bench.op(&checker)));
        let mut r = Report::new(&checker);
        r.metric("setup_s", median(&mut setups), "s");
        calls::report(&mut r, n, &op_ns);
        r.metric("peak_rss_mib", env::peak_rss_mib(), "MiB");
        r.detail("setups", setups.len() as f64);
        return r;
    }

    // Traced: warm up, then half the time on the plain op (the untraced
    // reference) and half on the same merge through the library's
    // recorded entry point, whose spans, counters and share windows give
    // the layers.
    let mut bench = Bench::new(a, b);
    let n = bench.len();
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
        let Bench {
            a, b, out, threads, ..
        } = &mut bench;
        let (ns, tel) = layers::record(|rec| {
            parallel_merge_into_recorded(a, b, out, *threads, &natural_cmp, rec)
        });
        bench.check(&checker);
        traced_wall.push(ns);
        ops.push(tel);
    });

    // The T1 floor: one thread, the plain sequential merge.
    let mut seq = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        merge_into_by(&bench.a, &bench.b, &mut bench.out, &natural_cmp);
        seq.push(ns_since(t) as f64 / n as f64);
        bench.check(&checker);
    }
    let round_ns = layers::executor_round_ns(bench.threads, 2000);

    // The blocking path of one op: the slowest share's own diagonal
    // searches and segment merge, plus one pool round.
    let slowest = median_ns(
        &ops.iter()
            .map(|t| layers::slowest_worker_ns(t, &[SpanKind::Partition, SpanKind::SegmentMerge]))
            .collect::<Vec<_>>(),
    );
    let e2e = median_ns(&plain);

    let mut r = Report::new(&checker);
    layers::report_diagonal(&mut r, &ops);
    layers::report_kernel(&mut r, &ops);
    r.metric("kernel.seq_ns_per_elem", median(&mut seq), "ns");
    r.metric("executor.round_ns", round_ns, "ns");
    layers::report_skew(&mut r, &ops);
    // Steals of the plain ops only, the program as it runs untraced.
    layers::report_steals(&mut r, steals, steals_after_plain, plain_ops);
    layers::report_not_on_path(&mut r, &layers::SORT_LAYER);
    layers::report_not_on_path(&mut r, &layers::SERVE_LAYER);
    layers::report_not_on_path(&mut r, &layers::NET_LAYER);
    layers::report_residual(&mut r, e2e, slowest + round_ns);
    layers::report_overhead(&mut r, median_ns(&traced_wall), e2e);
    r.detail("plain_ops", plain_ops as f64);
    r.detail("traced_ops", ops.len() as f64);
    r.detail("e2e_op_ns", e2e);
    r
}
