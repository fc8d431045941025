//! Order statistics over samples.

/// Sorts `v` and returns its median (the mean of the two middle values for
/// an even count). Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q`: the count a
/// tail percentile rests on.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= p)
}

/// Median of nanosecond samples, in `f64` nanoseconds.
pub fn median_ns(v: &[u64]) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
