//! Order statistics the benchmark reports: medians, quartiles, and the tail
//! percentile a sample is large enough to support.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest value: the *fastest* of a set of timings. Other tenants of a
/// shared host only ever add time to a repetition of fixed work, so the
/// fastest repetition is the steadiest estimate of what the code can do: over
/// ten runs on the reference machine it spread less than the median
/// repetition on every workload (README.md, "Repeatability").
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    extremes(values).0
}

/// Smallest and largest value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn extremes(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "extremes of no values");
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the spread
/// this benchmark prints is the one its acceptance check computes. Fewer than
/// two values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// `(max − min) ÷ median`.
pub fn range_share(values: &[f64]) -> f64 {
    let (min, max) = extremes(values);
    (max - min) / median(values).abs()
}

/// The `p`-th percentile (nearest rank), `0 < p < 1`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let sorted = sorted(values);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency may be quoted at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// Whether a sample of `n` values has at least ten values beyond its `p`-th
/// percentile — the condition for quoting that percentile at all.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // `1.0 - 0.9` is a hair under a tenth; the epsilon keeps 100 × 0.1 at 10.
    (n as f64 * (1.0 - p) + 1e-9).floor() >= 10.0
}

/// The highest percentile of [`PERCENTILE_LADDER`] that `n` samples support,
/// `None` when even the median has fewer than ten values beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| percentile_supported(n, p))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("benchmark values are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow repetition does not move it.
        assert_eq!(median(&[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0]), 2.0);
        // Half the repetitions disturbed: the median moves, the fastest not.
        assert_eq!(median(&[2.0, 2.6, 2.0, 2.7, 2.5, 2.0, 2.8]), 2.5);
        assert_eq!(fastest(&[2.0, 2.6, 2.0, 2.7, 2.5, 2.0, 2.8]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert!((range_share(&ten) - 9.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(7), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(320), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert!(percentile_supported(640, 0.95));
        assert!(!percentile_supported(640, 0.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.999), 100.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
    }
}
