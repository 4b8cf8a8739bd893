//! Reverse-time SDE integration (Eq. 7).
//!
//! Samples from the target distribution are produced by integrating
//!
//! ```text
//! dZ = [ b(t) Z − σ²(t) s(Z, t) ] dt + σ(t) dW̄
//! ```
//!
//! backwards from `t = 1` (standard Gaussian) to `t = 0` (target).
//!
//! ## Discretization
//!
//! The drift `b(t) = −1/(1 − t)` is stiff near `t = 1`: explicit Euler with
//! uniform steps requires `Δt ≲ (1 − t)` and otherwise amplifies particles
//! catastrophically. Two standard remedies are combined here:
//!
//! 1. a **log-spaced time grid** in `u = 1 − t`, so every step satisfies
//!    `Δt / (1 − t) = const ≈ ln(1/eps)/n` regardless of `n`;
//! 2. an **exponential integrator** for the linear part: over one step the
//!    homogeneous solution is exactly `z ← (α(t′)/α(t)) z`, so only the
//!    score term is treated with Euler.
//!
//! A uniform grid remains available for ablation studies
//! ([`TimeGrid::Uniform`]); the benches show where it breaks.

use crate::schedule::DiffusionSchedule;
use rand::Rng;
use stats::gaussian::standard_normal;

/// Pseudo-time discretization for the reverse SDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeGrid {
    /// Steps log-spaced in `1 − t`: uniformly stable (default).
    #[default]
    LogSpaced,
    /// Uniform steps in `t`: simple but unstable for small `eps`.
    Uniform,
}

impl TimeGrid {
    /// Returns the descending sequence of pseudo-times
    /// `1 − eps = t_0 > t_1 > … > t_n = 0` (n + 1 points).
    pub fn points(self, schedule: &DiffusionSchedule, n_steps: usize) -> Vec<f64> {
        assert!(n_steps >= 1, "need at least one Euler step");
        let eps = schedule.eps;
        match self {
            TimeGrid::Uniform => (0..=n_steps)
                .map(|i| (1.0 - eps) * (1.0 - i as f64 / n_steps as f64))
                .collect(),
            TimeGrid::LogSpaced => {
                // Two-sided geometric refinement: the reverse dynamics are
                // stiff at both endpoints (drift ~ 1/(1-t) at t = 1, score
                // scale 1/beta^2 = 1/t at t = 0), so steps shrink toward
                // both. Upper half: u = 1 - t geometric in [eps, 1/2];
                // lower half: t geometric in [eps, 1/2]; final point t = 0.
                let n_hi = n_steps / 2;
                let n_lo = n_steps - n_hi;
                let mut pts = Vec::with_capacity(n_steps + 1);
                if n_hi == 0 {
                    pts.push(1.0 - eps);
                } else {
                    let ratio = (0.5f64 / eps).ln() / n_hi as f64;
                    for i in 0..=n_hi {
                        let u = eps * (ratio * i as f64).exp();
                        pts.push(1.0 - u);
                    }
                }
                // Lower half: from t = 0.5 down to eps geometrically, then 0.
                if n_lo >= 2 {
                    let ratio = (0.5f64 / eps).ln() / (n_lo - 1) as f64;
                    for i in 1..n_lo {
                        let t = 0.5 * (-(ratio * i as f64)).exp();
                        pts.push(t);
                    }
                }
                pts.push(0.0);
                pts
            }
        }
    }
}

/// Integrates one particle of the reverse-time SDE in place.
///
/// * `z` — on entry a sample of `N(0, I)`; on exit a sample of the target.
/// * `n_steps` — number of (non-uniform) steps over `[0, 1]`.
/// * `score` — callback `(z, t, out)` writing the (posterior) score at
///   `(z, t)` into `out`.
/// * `rng` — source for the backward Brownian increments. Noise is omitted
///   on the final step so the sample lands on the target manifold.
pub fn reverse_sde_euler<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    n_steps: usize,
    score: impl FnMut(&[f64], f64, &mut [f64]),
    rng: &mut R,
) {
    reverse_sde_with_grid(z, schedule, n_steps, TimeGrid::LogSpaced, score, rng);
}

/// [`reverse_sde_euler`] with an explicit time-grid choice.
pub fn reverse_sde_with_grid<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    n_steps: usize,
    grid: TimeGrid,
    score: impl FnMut(&[f64], f64, &mut [f64]),
    rng: &mut R,
) {
    reverse_sde_stiff(z, schedule, n_steps, grid, 0.0, score, rng);
}

/// Stability factor: per (sub)step the explicit score contribution
/// `σ²(t)·Δt·L` (with `L` the score's Lipschitz scale) is kept below this.
const MAX_STEP_GAIN: f64 = 0.8;
/// Hard cap on substeps per grid interval (guards pathological hints).
const MAX_SUBSTEPS: usize = 256;

/// Reverse-SDE integrator with a stiffness hint for the score.
///
/// The prior score has Lipschitz scale `1/β_t²` (handled by the two-sided
/// grid); a damped likelihood score adds up to `h(t) · lik_stiffness`, where
/// for Gaussian observation error the natural hint is
/// `lik_stiffness = 1/σ_obs²` (times the squared operator norm of the
/// observation Jacobian, ≈ 1 for (sub)identity operators). Each grid
/// interval is subdivided so the explicit update stays contractive even for
/// very precise observations.
#[allow(clippy::too_many_arguments)]
pub fn reverse_sde_stiff<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    n_steps: usize,
    grid: TimeGrid,
    lik_stiffness: f64,
    mut score: impl FnMut(&[f64], f64, &mut [f64]),
    rng: &mut R,
) {
    assert!(lik_stiffness >= 0.0, "stiffness hint must be nonnegative");
    let dim = z.len();
    let times = grid.points(schedule, n_steps);
    let mut s = vec![0.0; dim];

    for w in times.windows(2) {
        let t_hi = w[0];
        let t_lo = w[1]; // t_lo < t_hi (integrating backwards)
        let dt_full = t_hi - t_lo;

        // Stiffness at the interval's start (largest σ² of the interval).
        let lipschitz = 1.0 / schedule.beta_sq(t_hi)
            + lik_stiffness * schedule.damping(t_lo);
        let gain = schedule.sigma_sq(t_hi) * dt_full * lipschitz;
        let n_sub = ((gain / MAX_STEP_GAIN).ceil() as usize).clamp(1, MAX_SUBSTEPS);
        telemetry::counter_add("ensf.sde.euler_steps", n_sub as u64);
        let dt = dt_full / n_sub as f64;

        for k in 0..n_sub {
            let t = t_hi - k as f64 * dt;
            let t_next = t - dt;
            let sig2 = schedule.sigma_sq(t);
            let sig = sig2.sqrt();

            score(z, t, &mut s);

            // Exponential step for the linear drift b(t) z: the homogeneous
            // reverse flow is z(t') = alpha(t')/alpha(t) z(t) exactly.
            let decay = schedule.alpha(t_next) / schedule.alpha(t);
            let is_final = t_next <= 1e-300;
            let noise_amp = if is_final { 0.0 } else { sig * dt.sqrt() };
            for (zi, si) in z.iter_mut().zip(&s) {
                *zi = decay * *zi + sig2 * si * dt;
                if noise_amp != 0.0 { // lint: allow(float-exact-compare, reason="noise_amp is set to exactly 0.0 on the final step")
                    *zi += noise_amp * standard_normal(rng);
                }
            }
        }
    }
}

/// Reverse-SDE sampler for the *posterior*: the prior score is integrated
/// explicitly (two-sided grid + exponential linear step), while the damped
/// likelihood pull is applied with a locally linearized exponential
/// integrator. The sub-flow `dz = σ²(t) h(t) ∇log p(y|z) dt` has local
/// relaxation rate `λ_i = σ²(t) h(t) J_i² / σ_obs²` per component (with
/// `J_i²` the squared observation-Jacobian row norm), so the per-step
/// update multiplies the raw explicit increment by `(1 − e^{−c_i})/c_i`
/// with `c_i = λ_i Δt`: exact for linear (identity) observations, the plain
/// explicit step where the flow is slow (e.g. a saturated arctan), and
/// unconditionally stable for arbitrarily precise observations — where any
/// uniformly substepped explicit treatment diverges.
#[allow(clippy::too_many_arguments)]
pub fn reverse_sde_assimilate<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    n_steps: usize,
    grid: TimeGrid,
    mut prior_score: impl FnMut(&[f64], f64, &mut [f64]),
    obs: &impl crate::obs::ObservationOperator,
    y: &[f64],
    rng: &mut R,
) {
    let dim = z.len();
    let times = grid.points(schedule, n_steps);
    // One add covers the whole particle: keeps the hot loop untouched.
    telemetry::counter_add("ensf.sde.euler_steps", (times.len() - 1) as u64);
    let mut s = vec![0.0; dim];
    let mut lik = vec![0.0; dim];
    let mut jsq = vec![1.0; dim];
    let sigma_obs_sq = obs.sigma() * obs.sigma();

    for w in times.windows(2) {
        let t = w[0];
        let t_next = w[1];
        let dt = t - t_next;
        let sig2 = schedule.sigma_sq(t);
        let sig = sig2.sqrt();

        // Prior part: exponential linear step + explicit score (the
        // two-sided grid keeps sigma^2 * dt / beta^2 bounded).
        prior_score(z, t, &mut s);
        let decay = schedule.alpha(t_next) / schedule.alpha(t);
        let is_final = t_next <= 1e-300;
        let noise_amp = if is_final { 0.0 } else { sig * dt.sqrt() };
        for (zi, si) in z.iter_mut().zip(&s) {
            *zi = decay * *zi + sig2 * si * dt;
            if noise_amp != 0.0 { // lint: allow(float-exact-compare, reason="noise_amp is set to exactly 0.0 on the final step")
                *zi += noise_amp * standard_normal(rng);
            }
        }

        // Likelihood part: raw explicit increment, damped per component by
        // the local relaxation factor (1 - e^{-c_i}) / c_i.
        let gain = sig2 * schedule.damping(t) * dt;
        if gain > 0.0 {
            lik.fill(0.0);
            obs.add_likelihood_score(z, y, gain, &mut lik);
            obs.jacobian_sq(z, &mut jsq);
            for ((zi, li), ji) in z.iter_mut().zip(&lik).zip(&jsq) {
                let c = gain * ji / sigma_obs_sq;
                let factor = if c > 1e-8 { (1.0 - (-c).exp()) / c } else { 1.0 };
                *zi += factor * li;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::rng::seeded;

    /// Reverse diffusion with the *analytic* score of N(m, v) must transport
    /// N(0, I) samples to N(m, v): the classic sanity check for the sampler.
    #[test]
    fn recovers_gaussian_target() {
        let sch = DiffusionSchedule::new(1e-4);
        let m = 3.0f64;
        let v = 0.25f64;
        let mut rng = seeded(9);
        let n = 4000;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let mut z = vec![standard_normal(&mut rng)];
            reverse_sde_euler(
                &mut z,
                &sch,
                120,
                |z, t, out| {
                    // Marginal at pseudo-time t: N(alpha m, alpha^2 v + beta^2).
                    let a = sch.alpha(t);
                    let var = a * a * v + sch.beta_sq(t);
                    out[0] = -(z[0] - a * m) / var;
                },
                &mut rng,
            );
            samples.push(z[0]);
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - m).abs() < 0.05, "mean {mean}");
        assert!((var - v).abs() < 0.08, "var {var}");
    }

    /// Log-spaced grid: monotone descending, endpoints right, stable ratio.
    #[test]
    fn log_grid_structure() {
        let sch = DiffusionSchedule::new(1e-3);
        let pts = TimeGrid::LogSpaced.points(&sch, 40);
        assert_eq!(pts.len(), 41);
        assert!((pts[0] - (1.0 - 1e-3)).abs() < 1e-12);
        assert!(pts[40].abs() < 1e-12);
        for w in pts.windows(2) {
            assert!(w[1] < w[0], "grid must descend");
            // Stability: dt bounded by the distance to the nearest singular
            // endpoint (floored at eps for the final step to t = 0).
            let dt = w[0] - w[1];
            let margin = w[0].min(1.0 - w[0]).max(1e-3);
            assert!(dt / margin <= 1.0 + 1e-9, "step too large at t = {}", w[0]);
        }
    }

    #[test]
    fn uniform_grid_structure() {
        let sch = DiffusionSchedule::new(1e-3);
        let pts = TimeGrid::Uniform.points(&sch, 10);
        assert_eq!(pts.len(), 11);
        assert!((pts[0] - (1.0 - 1e-3)).abs() < 1e-12);
        assert!(pts[10].abs() < 1e-12);
        let d0 = pts[0] - pts[1];
        let d9 = pts[9] - pts[10];
        assert!((d0 - d9).abs() < 1e-12, "uniform grid must have equal steps");
    }

    /// With a zero score the integrator contracts the Gaussian start toward
    /// zero (alpha(0-end)/alpha(1-start) is tiny) and stays finite.
    #[test]
    fn zero_score_stays_finite() {
        let sch = DiffusionSchedule::default();
        let mut rng = seeded(3);
        let mut z = vec![0.5, -0.5, 1.0];
        reverse_sde_euler(&mut z, &sch, 50, |_, _, out| out.fill(0.0), &mut rng);
        assert!(z.iter().all(|x| x.is_finite()));
    }

    /// The sampler is deterministic given the RNG stream.
    #[test]
    fn deterministic_given_seed() {
        let sch = DiffusionSchedule::default();
        let run = || {
            let mut rng = seeded(17);
            let mut z = vec![standard_normal(&mut rng), standard_normal(&mut rng)];
            reverse_sde_euler(
                &mut z,
                &sch,
                30,
                |z, t, out| {
                    let a = sch.alpha(t);
                    let var = a * a + sch.beta_sq(t);
                    for (o, zi) in out.iter_mut().zip(z) {
                        *o = -(zi - a) / var;
                    }
                },
                &mut rng,
            );
            z
        };
        assert_eq!(run(), run());
    }

    /// More steps reduce discretization bias for a tight, offset target.
    #[test]
    fn refinement_improves_accuracy() {
        let sch = DiffusionSchedule::new(1e-4);
        let m = -2.0f64;
        let v = 0.04f64;
        let bias_for = |steps: usize| {
            let mut rng = seeded(11);
            let n = 800;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_euler(
                    &mut z,
                    &sch,
                    steps,
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a * v + sch.beta_sq(t);
                        out[0] = -(z[0] - a * m) / var;
                    },
                    &mut rng,
                );
                mean += z[0];
            }
            (mean / n as f64 - m).abs()
        };
        let coarse = bias_for(6);
        let fine = bias_for(150);
        assert!(fine <= coarse + 0.02, "coarse {coarse}, fine {fine}");
        assert!(fine < 0.1, "fine bias too large: {fine}");
    }

    /// The log-spaced grid stays accurate in a stiff regime (few steps,
    /// tiny eps); the uniform grid (with the same substepping safeguards)
    /// must at least remain finite. Stability ablation.
    #[test]
    fn log_grid_beats_uniform_when_stiff() {
        let sch = DiffusionSchedule::new(1e-6);
        let m = 1.0f64;
        let v = 0.09f64;
        let err_for = |grid: TimeGrid| {
            let mut rng = seeded(23);
            let n = 400;
            let mut mean = 0.0;
            let mut worst: f64 = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_with_grid(
                    &mut z,
                    &sch,
                    25,
                    grid,
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a * v + sch.beta_sq(t);
                        out[0] = -(z[0] - a * m) / var;
                    },
                    &mut rng,
                );
                mean += z[0];
                worst = worst.max(z[0].abs());
            }
            ((mean / n as f64 - m).abs(), worst)
        };
        let (log_bias, log_worst) = err_for(TimeGrid::LogSpaced);
        let (uni_bias, uni_worst) = err_for(TimeGrid::Uniform);
        assert!(log_bias < 0.2, "log-grid bias {log_bias}");
        assert!(log_worst < 10.0, "log-grid produced outliers: {log_worst}");
        assert!(uni_worst.is_finite() && uni_bias.is_finite());
        assert!(
            log_bias <= uni_bias + 0.05,
            "log grid should not be less accurate: log {log_bias} vs uniform {uni_bias}"
        );
    }

    /// Posterior sampler: with an essentially exact observation the
    /// analysis must land on it; with an uninformative one it must stay on
    /// the prior — across six orders of magnitude of observation precision,
    /// without a single NaN (the stability property the exponential
    /// likelihood integrator buys).
    #[test]
    fn assimilate_stable_for_tight_observations() {
        use crate::obs::MaskedObs;
        let sch = DiffusionSchedule::default();
        let m_prior = 0.0f64;
        let v_prior = 1.0f64;
        let y = vec![2.0];
        for sigma_obs in [1e-4, 1e-2, 1.0, 1e2] {
            let obs = MaskedObs::identity(1, sigma_obs);
            let mut rng = seeded(31);
            let n = 400;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_assimilate(
                    &mut z,
                    &sch,
                    40,
                    TimeGrid::LogSpaced,
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a * v_prior + sch.beta_sq(t);
                        out[0] = -(z[0] - a * m_prior) / var;
                    },
                    &obs,
                    &y,
                    &mut rng,
                );
                assert!(z[0].is_finite(), "NaN at sigma_obs = {sigma_obs}");
                mean += z[0];
            }
            mean /= n as f64;
            if sigma_obs <= 1e-2 {
                assert!((mean - 2.0).abs() < 0.2, "tight obs: mean {mean} at {sigma_obs}");
            }
            if sigma_obs >= 1e2 {
                assert!(mean.abs() < 0.3, "loose obs: mean {mean} at {sigma_obs}");
            }
        }
    }

    /// The damped posterior mean interpolates monotonically between prior
    /// and observation as the observation tightens.
    #[test]
    fn assimilate_monotone_in_precision() {
        use crate::obs::MaskedObs;
        let sch = DiffusionSchedule::default();
        let y = vec![1.0];
        let mean_for = |sigma_obs: f64| {
            let obs = MaskedObs::identity(1, sigma_obs);
            let mut rng = seeded(13);
            let n = 500;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_assimilate(
                    &mut z,
                    &sch,
                    40,
                    TimeGrid::LogSpaced,
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a + sch.beta_sq(t);
                        out[0] = -(z[0] - a * 0.0) / var;
                    },
                    &obs,
                    &y,
                    &mut rng,
                );
                mean += z[0];
            }
            mean / n as f64
        };
        let tight = mean_for(0.05);
        let medium = mean_for(0.5);
        let loose = mean_for(5.0);
        assert!(tight > medium && medium > loose, "{tight} > {medium} > {loose} violated");
    }

    #[test]
    #[should_panic]
    fn zero_steps_rejected() {
        let sch = DiffusionSchedule::default();
        let mut rng = seeded(1);
        let mut z = vec![0.0];
        reverse_sde_euler(&mut z, &sch, 0, |_, _, out| out.fill(0.0), &mut rng);
    }

    #[test]
    fn single_step_grids_span_the_whole_interval() {
        // n_steps = 1 is the degenerate discretization: both grids must
        // still produce exactly [1 − eps, 0] (the LogSpaced upper half is
        // empty, n_hi = 0, and the lower half has too few points to refine).
        let sch = DiffusionSchedule::default();
        for grid in [TimeGrid::LogSpaced, TimeGrid::Uniform] {
            let pts = grid.points(&sch, 1);
            assert_eq!(pts.len(), 2, "{grid:?}");
            assert_eq!(pts[0].to_bits(), (1.0 - sch.eps).to_bits(), "{grid:?} start");
            assert_eq!(pts[1].to_bits(), 0.0f64.to_bits(), "{grid:?} end");
        }
    }

    #[test]
    fn single_step_assimilation_is_noise_free_and_finite() {
        // With one Euler step the only step is the final one, where the
        // Brownian increment is omitted — so the result cannot depend on
        // the RNG at all, for any of the integration entry points.
        let sch = DiffusionSchedule::default();
        let obs = crate::obs::MaskedObs::identity(3, 0.5);
        let y = vec![1.0, -2.0, 0.5];
        let run = |seed: u64| {
            let mut rng = seeded(seed);
            let mut z = vec![0.3, -0.7, 1.9];
            reverse_sde_assimilate(
                &mut z,
                &sch,
                1,
                TimeGrid::LogSpaced,
                |_, _, out| out.fill(0.0),
                &obs,
                &y,
                &mut rng,
            );
            z
        };
        let a = run(1);
        let b = run(999);
        assert!(a.iter().all(|v| v.is_finite()));
        assert_eq!(a, b, "single-step result leaked RNG state");
    }

    #[test]
    fn single_step_survives_near_zero_variance_observations() {
        // sigma → 0 sends the likelihood relaxation rate c = γ J²/σ² to
        // ~1e24; the exponential integrator's (1 − e^{−c})/c factor must
        // tame it into a bounded pull toward y instead of a 1e24-sized
        // explicit Euler overshoot.
        let sch = DiffusionSchedule::default();
        let obs = crate::obs::MaskedObs::identity(2, 1e-12);
        let y = vec![2.0, -1.0];
        let mut rng = seeded(3);
        let mut z = vec![-10.0, 10.0];
        reverse_sde_assimilate(
            &mut z,
            &sch,
            1,
            TimeGrid::LogSpaced,
            |_, _, out| out.fill(0.0),
            &obs,
            &y,
            &mut rng,
        );
        for (zi, yi) in z.iter().zip(&y) {
            assert!(zi.is_finite(), "blow-up at sigma = 1e-12");
            assert!((zi - yi).abs() < 12.0, "overshot past the observation: {zi} vs {yi}");
        }
    }
}
