//! Order statistics for the report: percentiles of job latencies and the
//! quartile spread the benchmark's steadiness is judged by.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, interpolating
/// linearly between the two nearest ranks. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `values` lie strictly above `threshold` — a percentile is
/// only reported as valid with at least ten samples beyond it.
pub fn beyond(values: &[f64], threshold: f64) -> usize {
    values.iter().filter(|&&v| v > threshold).count()
}

/// The `n − 1` cut points dividing `values` into `n` equal groups, as
/// Python's `statistics.quantiles(values, n=n)` computes them with its
/// default (exclusive) method. Needs at least two values.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles: n must be at least 1");
    assert!(values.len() >= 2, "quantiles: need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// The distance between the first and third quartile as a share of the
/// median — the spread a metric's bound is compared against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    let mid = q[1];
    if mid == 0.0 {
        return 0.0;
    }
    (q[2] - q[0]) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 100.0), 4.0));
        assert!(close(percentile(&v, 50.0), 2.5));
        assert!(close(percentile(&v, 90.0), 3.7));
        assert!(close(median(&[7.0]), 7.0));
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn beyond_counts_strictly_greater_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0);
        assert!(close(p90, 90.1));
        assert_eq!(beyond(&v, p90), 10);
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quantiles(&v, 4);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quantiles(&[16.0, 1.0, 8.0, 2.0, 4.0], 4);
        assert!(close(q[0], 1.5) && close(q[1], 4.0) && close(q[2], 12.0));
        // Two values: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quantiles(&[1.0, 2.0], 4);
        assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25));
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quartile_spread(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(quartile_spread(&[3.0; 6]), 0.0);
    }
}
