//! Numerically stable softmax / log-sum-exp over slices.
//!
//! The EnSF Monte-Carlo score is a softmax over scaled squared distances
//! whose raw exponents are O(−10⁴) in high dimension; both entry points use
//! the max-shift (log-sum-exp) trick so weights neither overflow nor turn
//! into a 0/0.

/// Log of the sum of exponentials, `ln Σ exp(x_i)`, computed with the
/// max-shift trick. Returns `-inf` for an empty slice.
// lint: allow(dead-pub, reason="the reference for softmax_in_place's log-normalizer in softmax_normalizes_and_returns_log_normalizer")
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &x in xs {
        if x > max {
            max = x;
        }
    }
    if !max.is_finite() {
        return max;
    }
    let mut total = 0.0;
    for &x in xs {
        total += (x - max).exp();
    }
    max + total.ln()
}

/// Converts log-weights to normalized weights in place and returns the
/// log-normalizer `ln Σ exp(x_i)`.
///
/// Entries whose shifted exponent underflows become exactly `0.0`, matching
/// the reference EnSF score path (which skips such members). All reductions
/// run in ascending index order, so the result is deterministic and
/// independent of any outer parallel decomposition.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn softmax_in_place(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let mut max = f64::NEG_INFINITY;
    for &x in xs.iter() {
        if x > max {
            max = x;
        }
    }
    let mut total = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        total += *x;
    }
    let inv_total = 1.0 / total;
    for x in xs.iter_mut() {
        *x *= inv_total;
    }
    max + total.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_in_safe_range() {
        let xs = [0.3, -1.2, 2.0, 0.0];
        let naive: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_survives_extreme_exponents() {
        let lse = log_sum_exp(&[-1e5, -1e5 + 1.0]);
        assert!(lse.is_finite());
        let want = -1e5 + 1.0 + (-1.0f64).exp().ln_1p();
        assert!((lse - want).abs() < 1e-9);
        let empty: [f64; 0] = [];
        assert_eq!(log_sum_exp(&empty), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_normalizes_and_returns_log_normalizer() {
        let mut xs = [1.0, 2.0, 3.0];
        let lse = softmax_in_place(&mut xs);
        let sum: f64 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
        assert!((lse - log_sum_exp(&[1.0, 2.0, 3.0])).abs() < 1e-12);
    }

    #[test]
    fn softmax_underflow_yields_exact_zeros() {
        let mut xs = [0.0, -800.0];
        softmax_in_place(&mut xs);
        assert_eq!(xs[1], 0.0, "distant member must underflow to an exact zero");
        assert!((xs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_softmax_rejected() {
        softmax_in_place(&mut []);
    }
}
