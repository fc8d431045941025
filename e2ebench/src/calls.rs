//! End-to-end metrics of merge_large and sort_keyed, whose op is one call
//! into the library from one caller thread, closed loop.
//!
//! A call is the request of these workloads: `rps` counts calls per second
//! of timed wall, and `p50_us` / `p99_us` are call-latency percentiles. With
//! one fixed-size call they describe the same op times as `elems_per_s`
//! from other angles (the mean, the median and the tail), so a change that
//! moves one moves the others; `p99_us` alone shows a tail that the
//! median hides.
//!
//! A run makes only 60 to 110 calls, so the p99 of all of them is its
//! slowest call, which one stray disturbance of the host sets. `p99_us` is
//! therefore taken as the TCP workloads take theirs: per window of
//! consecutive calls, median over the windows.

use crate::stats::{median, percentile};
use crate::Report;

/// Windows of consecutive calls that `p99_us` is the median over.
const TAIL_WINDOWS: usize = 10;

/// Adds `elems_per_s` (median over calls of `elems` over the call's wall
/// time), `rps`, `p50_us` (over all calls) and `p99_us` (per window of
/// consecutive calls, median over [`TAIL_WINDOWS`] windows) for the calls
/// timed in `op_ns`, in the order they ran.
pub fn report(r: &mut Report, elems: usize, op_ns: &[u64]) {
    let mut rates: Vec<f64> = op_ns
        .iter()
        .map(|&ns| elems as f64 * 1e9 / ns as f64)
        .collect();
    r.metric("elems_per_s", median(&mut rates), "elem/s");
    let total_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    r.metric("rps", op_ns.len() as f64 / total_s, "1/s");
    let mut us: Vec<f64> = op_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    r.metric("p50_us", percentile(&us, 0.50), "us");
    r.metric("p99_us", windowed_p99_us(op_ns), "us");
    r.detail("timed_ops", op_ns.len() as f64);
    r.detail("tail_windows", TAIL_WINDOWS.min(op_ns.len()) as f64);
}

/// Nearest-rank p99 of each of up to [`TAIL_WINDOWS`] windows of
/// consecutive calls (their lengths differ by at most one call), median
/// over the windows, us.
fn windowed_p99_us(op_ns: &[u64]) -> f64 {
    let windows = TAIL_WINDOWS.min(op_ns.len());
    let mut tails: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (op_ns.len() * w / windows, op_ns.len() * (w + 1) / windows);
            let mut us: Vec<f64> = op_ns[lo..hi].iter().map(|&ns| ns as f64 / 1e3).collect();
            us.sort_by(f64::total_cmp);
            percentile(&us, 0.99)
        })
        .collect();
    median(&mut tails)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;

    #[test]
    fn four_metrics_from_the_call_times() {
        let mut r = Report::new(&Checker::new(false));
        report(&mut r, 1000, &[1_000_000, 2_000_000, 3_000_000, 4_000_000]);
        let median_rate = (500_000.0 + 1e12 / 3e6) / 2.0;
        assert!((r.get("elems_per_s").unwrap().value - median_rate).abs() < 1e-6);
        assert_eq!(r.get("rps").unwrap().value, 4.0 / 0.01);
        assert_eq!(r.get("p50_us").unwrap().value, 2000.0);
        // Four windows of one call each: the median call.
        assert_eq!(r.get("p99_us").unwrap().value, 2500.0);
    }

    #[test]
    fn one_slow_call_does_not_set_the_tail() {
        let mut ns = vec![1_000_000; 100];
        for (i, x) in ns.iter_mut().enumerate() {
            *x += i as u64 * 1000;
        }
        ns[37] = 50_000_000;
        // Ten windows of ten calls; each window's slowest call, and the
        // median of those, not the one slow call.
        let tail = windowed_p99_us(&ns);
        assert_eq!(tail, (1_000.0 + 59.0 + 1_000.0 + 69.0) / 2.0);
    }
}
