//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

/// The highest candidate percentile that still has at least ten samples
/// beyond it, with its value (nearest-rank); `None` when even p75 has fewer.
/// A tail read from fewer samples is one or two outliers, not a percentile.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = (n * p as usize).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) — the spread
/// the acceptance check applies. `None` below four samples.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    if xs.len() < 4 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let quartile = |q: usize| {
        let pos = q * (v.len() + 1);
        let j = (pos / 4).clamp(1, v.len() - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves ten beyond it, p95 only five.
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((75, 30.0)));
        // 39 samples: p75 is rank 30, nine beyond.
        assert_eq!(tail_percentile(&xs[..39]), None);
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&xs).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), None);
    }
}
