//! Order statistics for the ledger's samples: medians, nearest-rank
//! percentiles, the tail rule and geometric means.

/// The percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Median of a sample (mean of the two middle values when the count is
/// even).  Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least a `q` share of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples of an `n`-sample lie strictly beyond the
/// nearest-rank `q` percentile's rank.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that has at
/// least ten samples beyond it, with its value; `None` when the sample is
/// too small for any of them.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&q| beyond(sorted.len(), q) >= 10)
        .map(|&q| (q, percentile(sorted, q)))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty() && values.iter().all(|&v| v > 0.0),
        "geomean needs positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (for ratios, which may be zero).
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "rank is at least one");
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let sample = |n: usize| sorted(&(1..=n).map(|i| i as f64).collect::<Vec<_>>());
        // 10 samples: even p75 leaves only 2 beyond.
        assert_eq!(tail(&sample(10)), None);
        // 40 samples: p75 is rank 30 with exactly 10 beyond; p90 has 4.
        assert_eq!(tail(&sample(40)), Some((0.75, 30.0)));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&sample(100)), Some((0.9, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&sample(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&sample(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[0.0, 1.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }
}
