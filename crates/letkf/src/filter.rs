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

    /// One analysis step: assimilates `y`, observed at the state indices
    /// `observed` with error std `sigma`. `hx` holds the members' `H(x_m)`
    /// (`M × p`); anomalies and innovations are taken about its member
    /// mean, which handles a nonlinear `H` (Hunt et al. 2007, §2.3). Row `j`
    /// is localized at `observed[j]`. A point whose local rows hold a
    /// non-finite `H(x_m)` analyses to NaN.
    ///
    /// # Panics
    /// Panics if a shape disagrees, an index is out of range, or `sigma` is
    /// not positive.
    pub fn analyze(
        &self,
        forecast: &Ensemble,
        observed: &[usize],
        hx: &Ensemble,
        y: &[f64],
        sigma: f64,
    ) -> Ensemble {
        let _span = telemetry::span!("letkf.analysis");
        let (dim, members, p) = (forecast.dim(), forecast.members(), observed.len());
        assert_eq!(dim, self.geometry.state_dim(), "ensemble/geometry mismatch");
        assert!(members >= 2, "need at least two members");
        assert!(
            y.len() == p && hx.dim() == p && hx.members() == members,
            "observation shapes disagree"
        );
        assert!(observed.iter().all(|&i| i < dim), "observation index out of range");
        assert!(sigma > 0.0, "observation sigma must be positive");

        let hx_mean = hx.mean();
        // yb_anom[j][i]: anomaly of member i at obs j.
        let yb_anom: Vec<Vec<f64>> = (0..p)
            .map(|j| (0..members).map(|m| hx.member(m)[j] - hx_mean[j]).collect())
            .collect();
        // A row with a non-finite `H(x_m)` (a diverged member) would fail the
        // local eigensolve: the points that see one analyse to NaN instead.
        let finite: Vec<bool> = yb_anom.iter().map(|r| r.iter().all(|v| v.is_finite())).collect();

        let cutoff = self.config.cutoff;
        let half = cutoff / 2.0; // GC length scale

        // Per-grid-point local solves, parallel over state variables.
        let mut analysis = Ensemble::zeros(members, dim);
        let columns: Vec<Vec<f64>> = par::map(dim, |g| {
            // Gather local observations.
            let mut rows: Vec<usize> = Vec::new();
            let mut inv_r = Vec::new();
            for (j, &i) in observed.iter().enumerate() {
                let d = self.geometry.distance(g, i);
                if d >= cutoff {
                    continue;
                }
                let rho = gaspari_cohn(d / half);
                if rho <= 0.0 {
                    continue;
                }
                rows.push(j);
                inv_r.push(rho / (sigma * sigma));
            }

            let x: Vec<f64> = (0..members).map(|m| forecast.member(m)[g]).collect();
            if rows.is_empty() {
                return x; // no information: analysis = forecast
            }
            if rows.iter().any(|&j| !finite[j]) {
                return vec![f64::NAN; members];
            }
            let mut yb = Matrix::zeros(rows.len(), members);
            for (r, &j) in rows.iter().enumerate() {
                yb.row_mut(r).copy_from_slice(&yb_anom[j]);
            }
            let innov: Vec<f64> = rows.iter().map(|&j| y[j] - hx_mean[j]).collect();
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

    /// The members' values at `observed`, through the componentwise `h`.
    fn project(fc: &Ensemble, observed: &[usize], h: impl Fn(f64) -> f64) -> Ensemble {
        let rows: Vec<Vec<f64>> =
            fc.iter().map(|x| observed.iter().map(|&i| h(x[i])).collect()).collect();
        Ensemble::from_members(&rows)
    }

    /// Point observations (`h = I`) of `y` at `observed`.
    fn point_obs(letkf: &Letkf, fc: &Ensemble, obs: &[usize], y: &[f64], sigma: f64) -> Ensemble {
        letkf.analyze(fc, obs, &project(fc, obs, |v| v), y, sigma)
    }

    fn every(dim: usize) -> Vec<usize> {
        (0..dim).collect()
    }

    #[test]
    fn no_obs_returns_forecast_up_to_inflation() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig { rtps_alpha: 0.0, ..Default::default() }, geo);
        let fc = random_ensemble(6, 32, 0.0, 1.0, 1);
        let an = letkf.analyze(&fc, &[], &Ensemble::zeros(6, 0), &[], 1.0);
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
        let an = point_obs(&letkf, &fc, &every(32), &[2.0; 32], 0.2);
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
        let y: Vec<f64> = truth.iter().map(|&t| t + 0.2 * standard_normal(&mut rng)).collect();
        let an = point_obs(&letkf, &fc, &every(32), &y, 0.2);
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
        let an = point_obs(&letkf, &fc, &[0], &[3.0], 0.1);
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
        let a0 = point_obs(&no_rtps, &fc, &every(32), &[1.0; 32], 0.3);
        let a1 = point_obs(&with_rtps, &fc, &every(32), &[1.0; 32], 0.3);
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
        let a = point_obs(&letkf, &fc, &every(32), &[0.5; 32], 0.5);
        let b = point_obs(&letkf, &fc, &every(32), &[0.5; 32], 0.5);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    /// The ETKF is invariant to rescaling observation space, so LETKF
    /// through `arctan(γx)` with `(y, σ)` is LETKF through `h = I` with
    /// `(y/γ, σ/γ)` up to the cubic term `(γx)³/3`. On states of amplitude
    /// at most `A` that term is at most `A (γA)²/3` in state units, and the
    /// analyses agree to within it (measured: a quarter of it at both gains,
    /// so the error scales as `γ²`).
    #[test]
    fn arctan_linearizes_to_scaled_identity() {
        let letkf = Letkf::new(LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.3 }, geometry(8));
        let amp = 0.05;
        let fc = random_ensemble(10, 128, 0.0, amp / 3.0, 8);
        let mut rng = seeded(9);
        let truth: Vec<f64> = (0..128).map(|_| amp / 3.0 * standard_normal(&mut rng)).collect();
        let big = fc.as_slice().iter().chain(&truth).fold(0.0f64, |a, v| a.max(v.abs()));
        let observed = every(128);
        for gain in [0.1, 1.0] {
            let sigma = 0.3 * gain * amp;
            let y: Vec<f64> = truth.iter().map(|&t| (gain * t).atan()).collect();
            let hx = project(&fc, &observed, |v| (gain * v).atan());
            let nonlinear = letkf.analyze(&fc, &observed, &hx, &y, sigma);
            let y_lin: Vec<f64> = y.iter().map(|v| v / gain).collect();
            let linear = point_obs(&letkf, &fc, &observed, &y_lin, sigma / gain);
            let tol = big * (gain * big).powi(2) / 3.0;
            let mut err = 0.0f64;
            let mut moved = 0.0f64;
            let pairs = nonlinear.as_slice().iter().zip(linear.as_slice());
            for ((a, b), f) in pairs.zip(fc.as_slice()) {
                err = err.max((a - b).abs());
                moved = moved.max((b - f).abs());
            }
            assert!(err < tol, "γ = {gain}: {err:e} ≥ {tol:e}");
            assert!(moved > 10.0 * tol, "γ = {gain}: the update ({moved:e}) must dwarf the bound");
        }
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let geo = geometry(4);
        let letkf = Letkf::new(LetkfConfig::default(), geo);
        let fc = random_ensemble(8, 10, 0.0, 1.0, 6);
        let _ = letkf.analyze(&fc, &[], &Ensemble::zeros(8, 0), &[], 1.0);
    }

    #[test]
    fn a_diverged_member_analyses_to_nan_near_it() {
        let letkf = Letkf::new(LetkfConfig { cutoff: 1.5e5, rtps_alpha: 0.0 }, geometry(8));
        let mut fc = random_ensemble(6, 128, 0.0, 1.0, 10);
        fc.member_mut(2)[0] = f64::NAN;
        let an = point_obs(&letkf, &fc, &every(128), &[0.0; 128], 0.5);
        assert!(an.mean()[0].is_nan(), "the diverged point stays diverged");
        // (4, 4) on level 0 sees no observation of state 0.
        assert!(an.mean()[4 * 8 + 4].is_finite(), "points out of its reach still analyse");
    }
}
