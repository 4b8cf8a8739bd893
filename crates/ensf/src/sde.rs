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

use crate::obs::ObsOperator;
use crate::schedule::DiffusionSchedule;
use rand::Rng;
use stats::gaussian::standard_normal;

/// The descending pseudo-time grid `1 − eps = t_0 > t_1 > … > t_n = 0`
/// (n + 1 points) every integrator steps through.
///
/// Two-sided geometric refinement: the reverse dynamics are stiff at both
/// endpoints (drift ~ 1/(1-t) at t = 1, score scale 1/beta^2 = 1/t at
/// t = 0), so steps shrink toward both. Upper half: u = 1 - t geometric in
/// [eps, 1/2]; lower half: t geometric in [eps, 1/2]; final point t = 0.
pub fn time_grid(schedule: &DiffusionSchedule, n_steps: usize) -> Vec<f64> {
    assert!(n_steps >= 1, "need at least one Euler step");
    let eps = schedule.eps;
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
pub fn reverse_sde_assimilate<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    n_steps: usize,
    mut prior_score: impl FnMut(&[f64], f64, &mut [f64]),
    obs: &ObsOperator,
    y: &[f64],
    rng: &mut R,
) {
    let dim = z.len();
    let times = time_grid(schedule, n_steps);
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
            obs.likelihood_score_into(z, y, gain, &mut lik);
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
        // An observation too loose to pull: the target is the prior.
        let uninformative = ObsOperator::identity(1e6);
        let mut rng = seeded(9);
        let n = 4000;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let mut z = vec![standard_normal(&mut rng)];
            reverse_sde_assimilate(
                &mut z,
                &sch,
                120,
                |z, t, out| {
                    // Marginal at pseudo-time t: N(alpha m, alpha^2 v + beta^2).
                    let a = sch.alpha(t);
                    let var = a * a * v + sch.beta_sq(t);
                    out[0] = -(z[0] - a * m) / var;
                },
                &uninformative,
                &[0.0],
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
        let pts = time_grid(&sch, 40);
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

    /// Posterior sampler: with an essentially exact observation the
    /// analysis must land on it; with an uninformative one it must stay on
    /// the prior — across six orders of magnitude of observation precision,
    /// without a single NaN (the stability property the exponential
    /// likelihood integrator buys).
    #[test]
    fn assimilate_stable_for_tight_observations() {
        let sch = DiffusionSchedule::default();
        let m_prior = 0.0f64;
        let v_prior = 1.0f64;
        let y = vec![2.0];
        for sigma_obs in [1e-4, 1e-2, 1.0, 1e2] {
            let obs = ObsOperator::identity(sigma_obs);
            let mut rng = seeded(31);
            let n = 400;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_assimilate(
                    &mut z,
                    &sch,
                    40,
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
        let sch = DiffusionSchedule::default();
        let y = vec![1.0];
        let mean_for = |sigma_obs: f64| {
            let obs = ObsOperator::identity(sigma_obs);
            let mut rng = seeded(13);
            let n = 500;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                reverse_sde_assimilate(
                    &mut z,
                    &sch,
                    40,
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
        let _ = time_grid(&DiffusionSchedule::default(), 0);
    }

    #[test]
    fn single_step_grids_span_the_whole_interval() {
        // n_steps = 1 is the degenerate discretization: the grid must still
        // be exactly [1 − eps, 0] (the upper half is empty, n_hi = 0, and
        // the lower half has too few points to refine).
        let sch = DiffusionSchedule::default();
        let pts = time_grid(&sch, 1);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].to_bits(), (1.0 - sch.eps).to_bits(), "start");
        assert_eq!(pts[1].to_bits(), 0.0f64.to_bits(), "end");
    }

    #[test]
    fn single_step_assimilation_is_noise_free_and_finite() {
        // With one Euler step the only step is the final one, where the
        // Brownian increment is omitted — so the result cannot depend on
        // the RNG at all, for any of the integration entry points.
        let sch = DiffusionSchedule::default();
        let obs = ObsOperator::identity(0.5);
        let y = vec![1.0, -2.0, 0.5];
        let run = |seed: u64| {
            let mut rng = seeded(seed);
            let mut z = vec![0.3, -0.7, 1.9];
            reverse_sde_assimilate(
                &mut z,
                &sch,
                1,
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
        let obs = ObsOperator::identity(1e-12);
        let y = vec![2.0, -1.0];
        let mut rng = seeded(3);
        let mut z = vec![-10.0, 10.0];
        reverse_sde_assimilate(
            &mut z,
            &sch,
            1,
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
