//! Order statistics the harness reports: median, MAD, nearest-rank
//! percentiles with the "ten samples beyond" admissibility rule, and the
//! quartile spread the A/A calibration uses.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation: the median of `|x - median(values)|`.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9990: the product comes out
    // a few ulps above the integer and would otherwise round up.
    (((p * n as f64 / 100.0) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; fewer and it is one outlier's value, not a percentile.
const MIN_BEYOND: usize = 10;

/// The highest of the customary tail percentiles with at least
/// [`MIN_BEYOND`] samples beyond it at `n` samples: p95 from 200 samples,
/// p99 from 1000. `None` below 100 samples, where not even p90 qualifies.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread the acceptance check uses.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // deviations from the median 3: 2 1 0 1 997 -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [16.0, 1.0, 8.0, 2.0, 4.0];
        assert!((quartile_spread(&w) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
