//! Per-layer measurements shared by the workloads.
//!
//! The diagonal, kernel, sort and executor figures come from the library's
//! own instrumented entry points (`parallel_merge_into_recorded`,
//! `parallel_merge_sort_recorded`, the serving daemon's recorder) run with
//! the telemetry crate's `TimelineRecorder`. They describe the spans,
//! counters and share windows of the path the program really takes; this
//! file only reads them.

use std::time::Instant;

use mergepath::executor::{self, StealStats};
use mergepath::merge::adaptive::SegmentKernel;
use mergepath::telemetry::{CounterKind, SpanKind, SpanRecord, Telemetry, TimelineRecorder};

use crate::report::Report;
use crate::stats::{median, median_ns};

/// The sort layer's metrics, with their units.
pub const SORT_LAYER: [(&str, &str); 4] = [
    ("sort.phase1_ns_per_elem", "ns"),
    ("sort.std_stable_ns_per_elem", "ns"),
    ("sort.round_ns_per_elem", "ns"),
    ("sort.rounds", "count"),
];

/// The serve layer's metrics, with their units.
pub const SERVE_LAYER: [(&str, &str); 7] = [
    ("serve.queue_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.emit_us", "us"),
    ("serve.batch_width", "req/round"),
    ("serve.queue_depth_peak", "count"),
    ("serve.inflight_peak", "count"),
];

/// The net layer's metrics, with their units.
pub const NET_LAYER: [(&str, &str); 4] = [
    ("net.request_codec_ns", "ns"),
    ("net.response_codec_ns", "ns"),
    ("net.wire_us", "us"),
    ("net.protocol_errors", "count"),
];

/// Adds `layer`'s metrics as 0 for a workload whose ops never call into
/// that layer: the layer costs them nothing. The detail line names each.
pub fn report_not_on_path(r: &mut Report, layer: &[(&str, &'static str)]) {
    for &(name, unit) in layer {
        r.metric(name, 0.0, unit);
        r.not_on_path.push(name.to_string());
    }
}

/// Elapsed nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs `op` with a fresh recorder; returns its wall nanoseconds and what
/// the library recorded during it.
pub fn record(op: impl FnOnce(&TimelineRecorder)) -> (u64, Telemetry) {
    let rec = TimelineRecorder::new();
    let t = Instant::now();
    op(&rec);
    let ns = ns_since(t);
    (ns, rec.finish())
}

/// The closed spans of `kind`.
pub fn spans(tel: &Telemetry, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
    tel.spans.iter().filter(move |s| s.kind == kind)
}

/// A span's duration, ns.
pub fn span_ns(s: &SpanRecord) -> u64 {
    s.end_ns - s.start_ns
}

/// Counter `kind` summed over every worker.
pub fn counter(tel: &Telemetry, kind: CounterKind) -> u64 {
    tel.counters
        .iter()
        .filter(|c| c.kind == kind)
        .map(|c| c.total)
        .sum()
}

/// The diagonal searches the library made: how many, and their total ns.
pub fn searches(tel: &Telemetry) -> (usize, u64) {
    spans(tel, SpanKind::DiagonalSearch).fold((0, 0), |(n, ns), s| (n + 1, ns + span_ns(s)))
}

/// Median nanoseconds of an empty `threads`-share round on the global pool.
pub fn executor_round_ns(threads: usize, rounds: usize) -> f64 {
    let pool = executor::global();
    let job = |_: usize| {};
    for _ in 0..rounds / 10 + 1 {
        pool.run_indexed(threads, &job);
    }
    let samples: Vec<u64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            pool.run_indexed(threads, &job);
            ns_since(t)
        })
        .collect();
    median_ns(&samples)
}

/// The global pool's steal counters, for deltas around a measured window.
pub fn steal_stats() -> StealStats {
    executor::global().steal_stats()
}

/// Adds `executor.steals_per_op` and `executor.stolen_shares_per_op` for
/// the window between the `before` and `after` counters, which ran `ops`
/// ops.
pub fn report_steals(r: &mut Report, before: StealStats, after: StealStats, ops: u64) {
    let ops = ops.max(1) as f64;
    r.metric(
        "executor.steals_per_op",
        (after.steals - before.steals) as f64 / ops,
        "count",
    );
    r.metric(
        "executor.stolen_shares_per_op",
        (after.stolen_shares - before.stolen_shares) as f64 / ops,
        "count",
    );
}

/// Adds `diagonal.search_ns` (median over ops of the mean ns per search)
/// and `diagonal.searches_per_op` (median over ops of the searches made).
/// Each share searches both of its cut diagonals, so the count includes
/// the trivial searches at diagonals 0 and n.
pub fn report_diagonal(r: &mut Report, ops: &[Telemetry]) {
    let per_op: Vec<(usize, u64)> = ops.iter().map(searches).collect();
    let mut ns: Vec<f64> = per_op
        .iter()
        .filter(|s| s.0 > 0)
        .map(|&(n, ns)| ns as f64 / n as f64)
        .collect();
    let mut count: Vec<f64> = per_op.iter().map(|s| s.0 as f64).collect();
    r.metric(
        "diagonal.search_ns",
        if ns.is_empty() { 0.0 } else { median(&mut ns) },
        "ns",
    );
    r.metric("diagonal.searches_per_op", median(&mut count), "count");
    let mut probes: Vec<f64> = ops
        .iter()
        .map(|t| counter(t, CounterKind::DiagonalProbeSteps) as f64)
        .collect();
    r.detail("diagonal_probe_steps_per_op", median(&mut probes));
}

/// Segment merge self time per output element, one value per logical
/// worker that merged anything: its `SegmentMerge` spans over its items.
fn kernel_ns_per_elem(tel: &Telemetry) -> impl Iterator<Item = f64> + '_ {
    tel.worker_items
        .iter()
        .filter(|w| w.items > 0)
        .map(move |w| {
            let ns: u64 = spans(tel, SpanKind::SegmentMerge)
                .filter(|s| s.worker == w.worker)
                .map(span_ns)
                .sum();
            ns as f64 / w.items as f64
        })
}

/// The fraction of segments each kernel took, from the library's
/// per-kernel segment counters.
pub fn kernel_shares(ops: &[Telemetry]) -> Vec<(SegmentKernel, f64)> {
    let counts: Vec<u64> = SegmentKernel::ALL
        .iter()
        .map(|k| ops.iter().map(|t| counter(t, k.counter())).sum())
        .collect();
    let total = counts.iter().sum::<u64>().max(1) as f64;
    SegmentKernel::ALL
        .into_iter()
        .zip(counts)
        .map(|(k, n)| (k, n as f64 / total))
        .collect()
}

/// Adds the kernel-layer metrics over `ops`: `kernel.ns_per_elem` (median
/// over shares of segment merge self ns per output element) and the share
/// of segments each kernel took.
pub fn report_kernel(r: &mut Report, ops: &[Telemetry]) {
    let mut per_elem: Vec<f64> = ops.iter().flat_map(kernel_ns_per_elem).collect();
    r.metric("kernel.ns_per_elem", median(&mut per_elem), "ns");
    for (kernel, share) in kernel_shares(ops) {
        r.metric(
            &format!("kernel.share.{}", kernel.name()),
            share,
            "fraction",
        );
    }
}

/// One op's share skew: over its pool rounds, the summed busy time of each
/// round's slowest share over the summed mean share busy time. A share
/// belongs to the first round that ended after it.
pub fn share_skew(tel: &Telemetry) -> f64 {
    let mut ends: Vec<u64> = tel.rounds.iter().map(|r| r.end_ns).collect();
    ends.sort_unstable();
    let mut rounds = vec![(0u64, 0u64, 0u64); ends.len()];
    for s in &tel.shares {
        let i = ends.partition_point(|&e| e < s.end_ns);
        if let Some((max, sum, n)) = rounds.get_mut(i) {
            let busy = s.end_ns - s.start_ns;
            *max = (*max).max(busy);
            *sum += busy;
            *n += 1;
        }
    }
    let slowest: u64 = rounds.iter().map(|r| r.0).sum();
    let mean: f64 = rounds
        .iter()
        .filter(|r| r.2 > 0)
        .map(|r| r.1 as f64 / r.2 as f64)
        .sum();
    if mean > 0.0 {
        slowest as f64 / mean
    } else {
        1.0
    }
}

/// Adds `executor.share_skew`: the median over ops of [`share_skew`].
pub fn report_skew(r: &mut Report, ops: &[Telemetry]) {
    let mut skews: Vec<f64> = ops.iter().map(share_skew).collect();
    r.metric("executor.share_skew", median(&mut skews), "ratio");
}

/// The slowest logical worker's time in spans of `kinds`: the share on
/// the blocking path of a one-round op.
pub fn slowest_worker_ns(tel: &Telemetry, kinds: &[SpanKind]) -> u64 {
    let mut per_worker = std::collections::BTreeMap::<usize, u64>::new();
    for s in tel.spans.iter().filter(|s| kinds.contains(&s.kind)) {
        *per_worker.entry(s.worker).or_default() += span_ns(s);
    }
    per_worker.into_values().max().unwrap_or(0)
}

/// `trace.residual_pct`: how far the layer parts on the blocking path
/// (`parts_ns`) miss the end-to-end median (`e2e_ns`), percent.
pub fn report_residual(r: &mut Report, e2e_ns: f64, parts_ns: f64) {
    r.metric(
        "trace.residual_pct",
        100.0 * (e2e_ns - parts_ns).abs() / e2e_ns,
        "%",
    );
}

/// `trace.overhead_pct`: the traced median against the untraced one,
/// percent (negative when the traced run happened to be faster).
pub fn report_overhead(r: &mut Report, traced_ns: f64, untraced_ns: f64) {
    r.metric(
        "trace.overhead_pct",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::merge::parallel::parallel_merge_into_recorded;
    use mergepath::merge::simd::natural_cmp;

    #[test]
    fn a_recorded_merge_yields_every_layer() {
        let a: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..700).map(|x| x * 5).collect();
        let mut want = vec![0; a.len() + b.len()];
        mergepath::merge::sequential::merge_into(&a, &b, &mut want);
        let mut got = vec![0; want.len()];
        let (_, tel) =
            record(|rec| parallel_merge_into_recorded(&a, &b, &mut got, 3, &natural_cmp, rec));
        assert_eq!(got, want);
        // Each of the three shares searches both of its cut diagonals.
        assert_eq!(searches(&tel).0, 6);
        assert_eq!(spans(&tel, SpanKind::SegmentMerge).count(), 3);
        assert_eq!(kernel_ns_per_elem(&tel).count(), 3);
        let shares = kernel_shares(std::slice::from_ref(&tel));
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(share_skew(&tel) >= 1.0);
        assert!(slowest_worker_ns(&tel, &[SpanKind::SegmentMerge]) > 0);
    }
}
