//! Verification metrics for DA experiments.
//!
//! The paper's headline accuracy figure (Fig. 4) is RMSE of the analysis
//! ensemble mean against the nature run; we also provide bias and pattern
//! correlation. Ensemble calibration (rank histogram, χ², spread–skill)
//! lives in [`crate::diagnostics`].

/// Root-mean-square error between two fields.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    assert!(!a.is_empty(), "rmse: empty input");
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

/// Mean error (bias) `mean(a - b)`.
pub fn bias(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "bias: length mismatch");
    assert!(!a.is_empty(), "bias: empty input");
    a.iter().zip(b).map(|(x, y)| x - y).sum::<f64>() / a.len() as f64
}

/// Centered anomaly (Pearson) correlation between two fields.
/// Returns 0 when either field is constant.
pub fn pattern_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pattern_correlation: length mismatch");
    assert!(!a.is_empty());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut da2 = 0.0;
    let mut db2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        let dx = x - ma;
        let dy = y - mb;
        num += dx * dy;
        da2 += dx * dx;
        db2 += dy * dy;
    }
    if da2 == 0.0 || db2 == 0.0 { // lint: allow(float-exact-compare, reason="exactly-zero variance is the degenerate-input sentinel")
        0.0
    } else {
        num / (da2.sqrt() * db2.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_identical_is_zero() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(rmse(&x, &x), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        // errors: 1, -1 -> rmse = 1
        assert!((rmse(&[1.0, 2.0], &[0.0, 3.0]) - 1.0).abs() < 1e-15);
        // errors: 3, 4 -> rmse = sqrt(12.5)
        assert!((rmse(&[3.0, 4.0], &[0.0, 0.0]) - 12.5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn bias_known_value() {
        assert!((bias(&[2.0, 4.0], &[1.0, 1.0]) - 2.0).abs() < 1e-15);
        // opposite errors cancel
        assert_eq!(bias(&[1.0, -1.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn correlation_bounds_and_signs() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pattern_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pattern_correlation(&a, &c) + 1.0).abs() < 1e-12);
        let flat = vec![5.0; 4];
        assert_eq!(pattern_correlation(&a, &flat), 0.0);
    }

    #[test]
    #[should_panic]
    fn rmse_length_mismatch_panics() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }
}
