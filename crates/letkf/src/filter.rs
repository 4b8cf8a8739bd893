//! The full gridded LETKF analysis.
//!
//! Embarrassingly parallel over grid points (the property that makes LETKF
//! the operational choice, §IV-A of the paper): every state variable gets
//! its own local ensemble-space solve using only observations within the
//! Gaspari–Cohn support, with R-localization and RTPS inflation.

use crate::inflation::rtps;
use crate::localization::{gaspari_cohn, GridGeometry};
use crate::solver::{apply_transform, solve_local, LocalTransform};
use linalg::Matrix;
use stats::Ensemble;

/// A point observation of one state variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointObs {
    /// Flat state index observed (point measurements, `h = e_i`).
    pub state_index: usize,
    /// Observed value.
    pub value: f64,
    /// Observation error standard deviation.
    pub sigma: f64,
}

/// LETKF configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LetkfConfig {
    /// Gaspari–Cohn cutoff: correlations reach zero at this distance [m]
    /// (the GC length scale is `cutoff / 2`).
    pub cutoff: f64,
    /// RTPS relaxation factor (paper's tuned value: 0.3).
    pub rtps_alpha: f64,
}

impl Default for LetkfConfig {
    fn default() -> Self {
        LetkfConfig { cutoff: 2.0e6, rtps_alpha: 0.3 }
    }
}

/// The Local Ensemble Transform Kalman Filter.
#[derive(Debug, Clone)]
pub struct Letkf {
    config: LetkfConfig,
    geometry: GridGeometry,
}

impl Letkf {
    /// Creates a filter for the given grid geometry.
    pub fn new(config: LetkfConfig, geometry: GridGeometry) -> Self {
        assert!(config.cutoff > 0.0, "cutoff must be positive");
        assert!((0.0..=1.0).contains(&config.rtps_alpha), "rtps_alpha in [0,1]");
        Letkf { config, geometry }
    }

    /// The active configuration.
    pub fn config(&self) -> &LetkfConfig {
        &self.config
    }

    /// One analysis step: assimilates `obs` into `forecast`.
    ///
    /// # Panics
    /// Panics if ensemble dimension does not match the geometry, or any
    /// observation indexes out of range.
    pub fn analyze(&self, forecast: &Ensemble, obs: &[PointObs]) -> Ensemble {
        let _span = telemetry::span!("letkf.analysis");
        let dim = forecast.dim();
        let members = forecast.members();
        assert_eq!(dim, self.geometry.state_dim(), "ensemble/geometry mismatch");
        assert!(members >= 2, "need at least two members");
        for o in obs {
            assert!(o.state_index < dim, "observation index out of range");
            assert!(o.sigma > 0.0, "observation sigma must be positive");
        }

        // Precompute observation-space forecast: for point obs this is just
        // a gather of member values at the observed indices.
        let fc_mean = forecast.mean();
        // yb_anom[j][i]: anomaly of member i at obs j.
        let yb_anom: Vec<Vec<f64>> = obs
            .iter()
            .map(|o| {
                (0..members)
                    .map(|m| forecast.member(m)[o.state_index] - fc_mean[o.state_index])
                    .collect()
            })
            .collect();
        let innov_all: Vec<f64> =
            obs.iter().map(|o| o.value - fc_mean[o.state_index]).collect();

        let cutoff = self.config.cutoff;
        let half = cutoff / 2.0; // GC length scale

        // Per-grid-point local solves, parallel over state variables.
        let mut analysis = Ensemble::zeros(members, dim);
        let columns: Vec<Vec<f64>> = par::map(dim, |g| {
            // Gather local observations.
            let mut rows: Vec<&[f64]> = Vec::new();
            let mut innov = Vec::new();
            let mut inv_r = Vec::new();
            for (j, o) in obs.iter().enumerate() {
                let d = self.geometry.distance(g, o.state_index);
                if d >= cutoff {
                    continue;
                }
                let rho = gaspari_cohn(d / half);
                if rho <= 0.0 {
                    continue;
                }
                rows.push(&yb_anom[j]);
                innov.push(innov_all[j]);
                inv_r.push(rho / (o.sigma * o.sigma));
            }

            let x: Vec<f64> = (0..members).map(|m| forecast.member(m)[g]).collect();
            if rows.is_empty() {
                return x; // no information: analysis = forecast
            }
            let p = rows.len();
            let mut yb = Matrix::zeros(p, members);
            for (r, row) in rows.iter().enumerate() {
                yb.row_mut(r).copy_from_slice(row);
            }
            let t: LocalTransform = solve_local(&yb, &innov, &inv_r);
            apply_transform(&x, &t)
        });

        for (g, col) in columns.into_iter().enumerate() {
            for (m, v) in col.into_iter().enumerate() {
                analysis.member_mut(m)[g] = v;
            }
        }

        rtps(&mut analysis, forecast, self.config.rtps_alpha);
        analysis
    }

    /// Generates the identity observation network for this geometry:
    /// one observation per state variable with error `sigma`, taking values
    /// from `truth_obs` (typically truth + noise).
    pub fn identity_network(&self, truth_obs: &[f64], sigma: f64) -> Vec<PointObs> {
        assert_eq!(truth_obs.len(), self.geometry.state_dim());
        truth_obs
            .iter()
            .enumerate()
            .map(|(i, &v)| PointObs { state_index: i, value: v, sigma })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::gaussian::standard_normal;
    use stats::rng::seeded;

    fn geometry(n: usize) -> GridGeometry {
        GridGeometry::new(n, 2, n as f64 * 1.0e5, 1.0e5)
    }

    fn random_ensemble(members: usize, dim: usize, mean: f64, sd: f64, seed: u64) -> Ensemble {
        let mut rng = seeded(seed);
        let mut e = Ensemble::zeros(members, dim);
        for m in 0..members {
            for x in e.member_mut(m) {
                *x = mean + sd * standard_normal(&mut rng);
            }
        }
        e
    }

    #[test]
    fn no_obs_returns_forecast_up_to_inflation() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig { rtps_alpha: 0.0, ..Default::default() }, geo);
        let fc = random_ensemble(6, 32, 0.0, 1.0, 1);
        let an = letkf.analyze(&fc, &[]);
        for (a, b) in an.as_slice().iter().zip(fc.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn analysis_mean_moves_toward_dense_obs() {
        let geo = geometry(4);
        let letkf = Letkf::new(
            LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.0 },
            geo,
        );
        let fc = random_ensemble(20, 32, 0.0, 1.0, 2);
        let obs: Vec<PointObs> = (0..32)
            .map(|i| PointObs { state_index: i, value: 2.0, sigma: 0.2 })
            .collect();
        let an = letkf.analyze(&fc, &obs);
        let am = an.mean();
        let avg = am.iter().sum::<f64>() / am.len() as f64;
        assert!(avg > 1.2, "LETKF mean should approach obs: {avg}");
        assert!(avg < 2.3, "must not overshoot: {avg}");
    }

    #[test]
    fn analysis_reduces_error_against_truth() {
        let geo = geometry(4);
        let letkf =
            Letkf::new(LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.0 }, geo);
        let mut rng = seeded(7);
        let truth: Vec<f64> = (0..32).map(|_| standard_normal(&mut rng)).collect();
        let fc = random_ensemble(20, 32, 0.5, 1.0, 3);
        let obs: Vec<PointObs> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| PointObs {
                state_index: i,
                value: t + 0.2 * standard_normal(&mut rng),
                sigma: 0.2,
            })
            .collect();
        let an = letkf.analyze(&fc, &obs);
        let rmse_fc = stats::metrics::rmse(&fc.mean(), &truth);
        let rmse_an = stats::metrics::rmse(&an.mean(), &truth);
        assert!(
            rmse_an < 0.6 * rmse_fc,
            "analysis must improve on forecast: {rmse_an} vs {rmse_fc}"
        );
    }

    #[test]
    fn localization_limits_remote_influence() {
        // A single observation far from a grid point must leave it unchanged.
        let geo = geometry(8); // 8x8x2, dx = 1e5
        let letkf = Letkf::new(
            LetkfConfig { cutoff: 1.5e5, rtps_alpha: 0.0 },
            geo,
        );
        let fc = random_ensemble(10, 128, 0.0, 1.0, 4);
        // Observe index 0 (corner of level 0).
        let obs = vec![PointObs { state_index: 0, value: 3.0, sigma: 0.1 }];
        let an = letkf.analyze(&fc, &obs);
        // Index at (4,4) level 0 is ~5.6e5 away: beyond cutoff.
        let far = 4 * 8 + 4;
        for m in 0..10 {
            assert!(
                (an.member(m)[far] - fc.member(m)[far]).abs() < 1e-12,
                "remote point must be untouched"
            );
        }
        // Observed point itself must move.
        let d0: f64 = (an.member(0)[0] - fc.member(0)[0]).abs();
        assert!(d0 > 1e-6, "observed point must be updated");
    }

    #[test]
    fn rtps_preserves_mean_changes_spread() {
        let geo = geometry(4);
        let no_rtps =
            Letkf::new(LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.0 }, geo.clone());
        let with_rtps =
            Letkf::new(LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.8 }, geo);
        let fc = random_ensemble(12, 32, 0.0, 1.0, 5);
        let obs: Vec<PointObs> =
            (0..32).map(|i| PointObs { state_index: i, value: 1.0, sigma: 0.3 }).collect();
        let a0 = no_rtps.analyze(&fc, &obs);
        let a1 = with_rtps.analyze(&fc, &obs);
        // Means identical (RTPS only rescales anomalies).
        for (x, y) in a0.mean().iter().zip(a1.mean()) {
            assert!((x - y).abs() < 1e-9);
        }
        // RTPS analysis keeps more spread.
        assert!(a1.spread() > a0.spread());
    }

    #[test]
    fn deterministic() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig::default(), geo);
        let fc = random_ensemble(8, 32, 0.0, 1.0, 6);
        let obs: Vec<PointObs> =
            (0..32).map(|i| PointObs { state_index: i, value: 0.5, sigma: 0.5 }).collect();
        let a = letkf.analyze(&fc, &obs);
        let b = letkf.analyze(&fc, &obs);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn identity_network_covers_state() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig::default(), geo);
        let vals: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let net = letkf.identity_network(&vals, 0.7);
        assert_eq!(net.len(), 32);
        assert_eq!(net[5].state_index, 5);
        assert_eq!(net[5].value, 5.0);
        assert_eq!(net[5].sigma, 0.7);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig::default(), geo);
        let fc = random_ensemble(8, 10, 0.0, 1.0, 6);
        let _ = letkf.analyze(&fc, &[]);
    }
}
