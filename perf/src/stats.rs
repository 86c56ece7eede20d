//! Small order-statistics helpers shared by every workload.

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile a sample of `n` supports: the largest of
/// 50, 90, 99, 99.9, 99.99 with at least ten samples strictly beyond it
/// (a tail estimated from fewer points is noise, not a measurement).
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Integer arithmetic in parts per 10 000: `n × (1 − p)` in floating
    // point lands just under 10 at exactly the sample sizes that matter.
    [(9_000, 90.0), (9_900, 99.0), (9_990, 99.9), (9_999, 99.99)]
        .into_iter()
        .rev()
        .find(|(per_10k, _)| n * (10_000 - per_10k) >= 100_000)
        .map_or(50.0, |(_, p)| p)
}

/// Median of an unsorted `f64` sample (mean of the middle pair when
/// even). Panics on an empty sample — every caller measures at least
/// once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest and largest value of a sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
