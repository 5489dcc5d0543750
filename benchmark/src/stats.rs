//! Order statistics for latency samples and for the run-to-run self-check.

/// Sort a sample in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `p`-quantile (`0 < p ≤ 1`) of an ascending sample by nearest rank:
/// the smallest value with at least `p` of the sample at or below it.  No
/// interpolation, so a window of one five-query pass reads its p95 off the
/// slowest query instead of blending the two slowest.  Zero for an empty
/// sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the middle value, or the mean of the two middle values.
/// Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of the smallest `share` of the values (at least one of them).
/// Zero for an empty sample.
pub fn mean_of_fastest(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let kept = ((share * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[..kept].iter().sum::<f64>() / kept as f64
}

/// How many of `n` samples lie strictly beyond the `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p)).floor() as usize
}

/// A percentile is worth reporting only with at least ten samples beyond
/// it (so p95 needs 200 samples, p99 needs 1000).
pub fn percentile_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), which is what the driver uses for its
/// spread check.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the driver's spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_the_median_is_the_middle() {
        let sorted: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.95), 5.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&sorted, 0.01), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_slowest_quarter_is_left_out_of_the_mean() {
        assert_eq!(mean_of_fastest(&[4.0, 1.0, 3.0, 100.0], 0.75), 8.0 / 3.0);
        // Three values: three quarters of them round up to all three.
        assert_eq!(mean_of_fastest(&[2.0, 1.0, 3.0], 0.75), 2.0);
        assert_eq!(mean_of_fastest(&[7.0], 0.75), 7.0);
        assert_eq!(mean_of_fastest(&[], 0.75), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!percentile_is_supported(199, 0.95));
        assert!(percentile_is_supported(200, 0.95));
        assert!(!percentile_is_supported(999, 0.99));
        assert!(percentile_is_supported(1000, 0.99));
        assert!(percentile_is_supported(20, 0.5));
        assert!(!percentile_is_supported(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((iqr_share(&values) - 1.0).abs() < 1e-12);
    }
}
