//! Posterior covariance inflation.
//!
//! LETKF needs inflation to compensate for sampling error and model error;
//! the paper tunes **RTPS** (relaxation to prior spread, Whitaker & Hamill
//! 2012) with an optimal factor of 0.3 for the SQG twin experiment.

use stats::Ensemble;

/// Relaxation-to-prior-spread: per variable, the analysis std is blended
/// back toward the forecast std,
/// `σ_new = σ_a + α (σ_b − σ_a)`, by rescaling analysis anomalies.
///
/// `alpha = 0` leaves the analysis untouched; `alpha = 1` restores the full
/// forecast spread.
pub fn rtps(analysis: &mut Ensemble, forecast: &Ensemble, alpha: f64) {
    assert!((0.0..=1.0).contains(&alpha), "RTPS alpha must be in [0,1]");
    assert_eq!(analysis.dim(), forecast.dim());
    assert_eq!(analysis.members(), forecast.members());
    if alpha == 0.0 { // lint: allow(float-exact-compare, reason="alpha = 0 is the documented exact no-op sentinel")
        return;
    }
    let var_a = analysis.variance();
    let var_b = forecast.variance();
    let mean = analysis.mean();
    let dim = analysis.dim();
    let mut scale = vec![1.0; dim];
    for i in 0..dim {
        let sa = var_a[i].sqrt();
        let sb = var_b[i].sqrt();
        if sa > 1e-300 {
            scale[i] = (sa + alpha * (sb - sa)) / sa;
        }
    }
    for member in analysis.iter_mut() {
        for ((x, mu), s) in member.iter_mut().zip(&mean).zip(&scale) {
            *x = mu + (*x - mu) * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ens(values: &[&[f64]]) -> Ensemble {
        Ensemble::from_members(&values.iter().map(|v| v.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn rtps_zero_is_identity() {
        let fc = ens(&[&[0.0, 0.0], &[2.0, 4.0]]);
        let mut an = ens(&[&[0.5, 1.0], &[1.5, 3.0]]);
        let before = an.clone();
        rtps(&mut an, &fc, 0.0);
        assert_eq!(an, before);
    }

    #[test]
    fn rtps_one_restores_forecast_spread() {
        let fc = ens(&[&[0.0, 0.0], &[2.0, 4.0], &[4.0, 8.0]]);
        let mut an = ens(&[&[0.9, 1.9], &[1.0, 2.0], &[1.1, 2.1]]);
        let mean_before = an.mean();
        rtps(&mut an, &fc, 1.0);
        let va = an.variance();
        let vf = fc.variance();
        for (a, b) in va.iter().zip(&vf) {
            assert!((a.sqrt() - b.sqrt()).abs() < 1e-12);
        }
        // Mean unchanged.
        for (a, b) in an.mean().iter().zip(&mean_before) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rtps_intermediate_blends() {
        let fc = ens(&[&[0.0], &[4.0]]); // std = 2·sqrt(2)... variance 8
        let mut an = ens(&[&[1.0], &[3.0]]); // variance 2
        rtps(&mut an, &fc, 0.5);
        let sa = an.variance()[0].sqrt();
        let want = 2f64.sqrt() + 0.5 * (8f64.sqrt() - 2f64.sqrt());
        assert!((sa - want).abs() < 1e-12, "{sa} vs {want}");
    }

    #[test]
    fn rtps_handles_collapsed_analysis() {
        let fc = ens(&[&[0.0], &[2.0]]);
        let mut an = ens(&[&[1.0], &[1.0]]); // zero spread
        rtps(&mut an, &fc, 0.5);
        // Guarded: cannot resurrect zero anomalies, but must not NaN.
        assert!(an.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn rtps_alpha_out_of_range_panics() {
        let fc = ens(&[&[0.0], &[1.0]]);
        let mut an = fc.clone();
        rtps(&mut an, &fc, 1.5);
    }
}
