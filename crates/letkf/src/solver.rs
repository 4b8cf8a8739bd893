//! The local ETKF transform (Hunt et al. 2007).
//!
//! Everything happens in the `m`-dimensional ensemble space. For one local
//! domain with `p` (localized) observations:
//!
//! ```text
//! A  = (m − 1) I + Yᵀ R̃⁻¹ Y          (m × m, R̃ = R-localized errors)
//! P̃ = A⁻¹                            (analysis covariance in ensemble space)
//! w̄  = P̃ Yᵀ R̃⁻¹ d                   (mean update weights; d = y − ȳ_b)
//! W  = √(m − 1) · A^{−1/2}            (symmetric square root transform)
//! ```
//!
//! Analysis member `i` at a state variable with forecast anomalies `x'`:
//! `x̄ + x'ᵀ (w̄ + W·e_i)`.

use linalg::{Matrix, SymEig};

/// Result of one local ensemble-space solve.
#[derive(Debug, Clone)]
pub struct LocalTransform {
    /// Mean-update weight vector `w̄` (length m).
    pub w_mean: Vec<f64>,
    /// Square-root transform `W` (m × m, symmetric).
    pub w_pert: Matrix,
}

/// Solves the local ETKF given
/// * `yb` — observation-space anomalies, `p x m` (rows = obs, cols = members),
/// * `innov` — innovation `y − ȳ_b` (length p),
/// * `inv_r` — effective inverse observation-error variances (length p),
///   i.e. `ρ_j / σ_j²` with the Gaspari–Cohn weight folded in (R-localization).
///
/// Observations with `inv_r == 0` contribute nothing and may be pre-filtered
/// by the caller for speed.
pub fn solve_local(yb: &Matrix, innov: &[f64], inv_r: &[f64]) -> LocalTransform {
    let (p, m) = yb.shape();
    assert_eq!(innov.len(), p, "innovation length mismatch");
    assert_eq!(inv_r.len(), p, "R length mismatch");
    assert!(m >= 2, "need at least two members");

    // C = Yᵀ R̃⁻¹ as an m x p action folded directly into the two products
    // we need: A = (m-1)I + Yᵀ R̃⁻¹ Y and g = Yᵀ R̃⁻¹ d.
    let mut a = Matrix::identity(m);
    a.scale_mut((m - 1) as f64);
    let mut g = vec![0.0; m];
    for j in 0..p {
        let w = inv_r[j];
        if w == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero weight skip is a bitwise no-op")
            continue;
        }
        let row = yb.row(j);
        for i in 0..m {
            let wi = w * row[i];
            if wi == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero weight skip is a bitwise no-op")
                continue;
            }
            g[i] += wi * innov[j];
            for k in 0..m {
                a[(i, k)] += wi * row[k];
            }
        }
    }

    // Symmetric eigensolve of A (SPD by construction).
    let eig = SymEig::new(&a);
    let p_tilde = eig.apply_fn(|w| 1.0 / w.max(1e-300));
    let w_mean = linalg::gemm::matvec(&p_tilde, &g);
    let sqrt_m1 = ((m - 1) as f64).sqrt();
    let w_pert = eig.apply_fn(|w| sqrt_m1 / w.max(1e-300).sqrt());

    LocalTransform { w_mean, w_pert }
}

/// Applies a transform to scalar forecast data at one state variable:
/// given the member values `x` (length m) at that variable, returns the m
/// analysis values.
pub fn apply_transform(x: &[f64], t: &LocalTransform) -> Vec<f64> {
    let m = x.len();
    assert_eq!(t.w_mean.len(), m);
    let mean = x.iter().sum::<f64>() / m as f64;
    let anom: Vec<f64> = x.iter().map(|v| v - mean).collect();
    // x̄ + x'·w̄ + x'·W column i
    let shift: f64 = anom.iter().zip(&t.w_mean).map(|(a, w)| a * w).sum();
    (0..m)
        .map(|i| {
            let pert: f64 = (0..m).map(|k| anom[k] * t.w_pert[(k, i)]).sum();
            mean + shift + pert
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar case against the exact Kalman filter: one variable, identity
    /// obs, m members. The ETKF must reproduce the KF mean and variance.
    #[test]
    fn matches_scalar_kalman_filter() {
        // Forecast members (mean 1, some spread).
        let x = vec![0.5, 0.8, 1.0, 1.2, 1.5];
        let m = x.len();
        let mean_b: f64 = x.iter().sum::<f64>() / m as f64;
        let var_b: f64 =
            x.iter().map(|v| (v - mean_b) * (v - mean_b)).sum::<f64>() / (m - 1) as f64;
        let y = 2.0;
        let sigma2 = 0.25;

        // Exact KF.
        let gain = var_b / (var_b + sigma2);
        let mean_a_kf = mean_b + gain * (y - mean_b);
        let var_a_kf = (1.0 - gain) * var_b;

        // ETKF.
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let yb = Matrix::from_vec(1, m, anom);
        let t = solve_local(&yb, &[y - mean_b], &[1.0 / sigma2]);
        let xa = apply_transform(&x, &t);
        let mean_a: f64 = xa.iter().sum::<f64>() / m as f64;
        let var_a: f64 =
            xa.iter().map(|v| (v - mean_a) * (v - mean_a)).sum::<f64>() / (m - 1) as f64;

        assert!((mean_a - mean_a_kf).abs() < 1e-10, "{mean_a} vs {mean_a_kf}");
        assert!((var_a - var_a_kf).abs() < 1e-10, "{var_a} vs {var_a_kf}");
    }

    #[test]
    fn no_observations_is_identity() {
        let x = vec![1.0, 2.0, 3.0];
        let yb = Matrix::zeros(0, 3);
        let t = solve_local(&yb, &[], &[]);
        let xa = apply_transform(&x, &t);
        for (a, b) in xa.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10, "no-obs transform must be identity");
        }
    }

    #[test]
    fn zero_weight_obs_equivalent_to_absent() {
        let x = vec![0.5, 1.0, 1.5, 2.0];
        let mean_b: f64 = x.iter().sum::<f64>() / 4.0;
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let yb1 = Matrix::from_vec(1, 4, anom.clone());
        let t1 = solve_local(&yb1, &[1.0], &[0.0]); // weight zero
        let yb0 = Matrix::zeros(0, 4);
        let t0 = solve_local(&yb0, &[], &[]);
        let a1 = apply_transform(&x, &t1);
        let a0 = apply_transform(&x, &t0);
        for (p, q) in a1.iter().zip(&a0) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn analysis_variance_never_exceeds_forecast() {
        let x = vec![-1.0, -0.2, 0.1, 0.4, 1.1, 0.6];
        let m = x.len();
        let mean_b: f64 = x.iter().sum::<f64>() / m as f64;
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let var_b: f64 = anom.iter().map(|a| a * a).sum::<f64>() / (m - 1) as f64;
        for sigma2 in [0.01, 0.1, 1.0, 10.0] {
            let yb = Matrix::from_vec(1, m, anom.clone());
            let t = solve_local(&yb, &[0.7], &[1.0 / sigma2]);
            let xa = apply_transform(&x, &t);
            let mean_a: f64 = xa.iter().sum::<f64>() / m as f64;
            let var_a: f64 =
                xa.iter().map(|v| (v - mean_a) * (v - mean_a)).sum::<f64>() / (m - 1) as f64;
            assert!(var_a <= var_b + 1e-12, "sigma2={sigma2}: {var_a} > {var_b}");
        }
    }

    #[test]
    fn tight_obs_pull_harder() {
        let x = vec![0.0, 0.5, 1.0, 1.5, 2.0];
        let m = x.len();
        let mean_b = 1.0;
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let y_innov = 3.0 - mean_b;
        let yb = Matrix::from_vec(1, m, anom.clone());
        let t_tight = solve_local(&yb, &[y_innov], &[1.0 / 0.01]);
        let t_loose = solve_local(&yb, &[y_innov], &[1.0 / 10.0]);
        let ma_tight: f64 = apply_transform(&x, &t_tight).iter().sum::<f64>() / m as f64;
        let ma_loose: f64 = apply_transform(&x, &t_loose).iter().sum::<f64>() / m as f64;
        assert!(ma_tight > ma_loose, "{ma_tight} vs {ma_loose}");
        assert!(ma_tight <= 3.0 + 1e-9, "cannot overshoot the observation");
    }

    #[test]
    fn transform_is_symmetric_square_root() {
        // W must be symmetric (the ETKF's symmetric square root ensures the
        // analysis ensemble stays centered).
        let x = vec![0.1, 0.3, -0.2, 0.5];
        let mean_b: f64 = x.iter().sum::<f64>() / 4.0;
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let yb = Matrix::from_vec(1, 4, anom.clone());
        let t = solve_local(&yb, &[0.2], &[2.0]);
        assert!(t.w_pert.sub(&t.w_pert.transpose()).norm_max() < 1e-12);
        // Analysis anomalies must sum to ~0 (mean preserved by W).
        let xa = apply_transform(&x, &t);
        let mean_a: f64 = xa.iter().sum::<f64>() / 4.0;
        let mean_shift: f64 = mean_b
            + anom.iter().zip(&t.w_mean).map(|(a, w)| a * w).sum::<f64>();
        assert!((mean_a - mean_shift).abs() < 1e-9);
    }

    /// Multiple observations of the same variable behave like one obs with
    /// combined precision.
    #[test]
    fn multiple_obs_combine_precision() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let m = x.len();
        let mean_b: f64 = x.iter().sum::<f64>() / m as f64;
        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();

        // Two obs of the same thing with variance 0.5 each == one with 0.25.
        let mut yb2 = Matrix::zeros(2, m);
        for i in 0..m {
            yb2[(0, i)] = anom[i];
            yb2[(1, i)] = anom[i];
        }
        let innov = 2.5 - mean_b;
        let t2 = solve_local(&yb2, &[innov, innov], &[2.0, 2.0]);
        let yb1 = Matrix::from_vec(1, m, anom.clone());
        let t1 = solve_local(&yb1, &[innov], &[4.0]);
        let a2 = apply_transform(&x, &t2);
        let a1 = apply_transform(&x, &t1);
        for (p, q) in a2.iter().zip(&a1) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
    }
}
