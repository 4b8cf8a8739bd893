//! The per-particle oracle of the EnSF analysis.
//!
//! [`analyze`] computes what [`crate::Ensf::analyze`] computes, one
//! particle at a time: each particle's prior score is [`ScoreEstimator`]'s
//! strided sweep over the forecast ensemble, integrated by
//! [`reverse_sde_assimilate`] or [`probability_flow_assimilate`]. It takes
//! everything else from the filter — [`BlockAnalysis::prepare`]'s
//! mini-batch, flow prior variance, time grid and particle streams, the
//! filter's particle blocks over the machine's cores, and its spread
//! relaxation — so the two differ only by floating-point reassociation.
//! The equivalence tests hold the filter to it at 1e-10 relative. It is
//! not a filter a run can select, and it records no telemetry.
//!
//! ## The training-free prior score (Eqs. 12–16)
//!
//! For the schedule's conditional `Q(z_t | z_0) = N(α_t z_0, β_t² I)` and
//! a forecast ensemble `{x_j}`, the marginal score at `(z, t)` is the
//! weight-averaged conditional score
//!
//! ```text
//! ŝ(z, t) = Σ_j −(z − α_t x_j)/β_t² · ŵ_j,
//! ŵ_j ∝ exp(−‖z − α_t x_j‖² / 2β_t²),  Σ_j ŵ_j = 1,
//! ```
//!
//! i.e. a softmax over (scaled) squared distances, which [`ScoreEstimator`]
//! evaluates with the log-sum-exp trick — in 8192 dimensions the raw
//! exponents are O(−10⁴) and would underflow to a 0/0 without it.

use crate::filter::{AnalysisMethod, EnsfConfig};
use crate::flow::{flow_step, FlowStep};
use crate::obs::ObsOperator;
use crate::parallel::{assemble, BlockAnalysis, RankPlan};
use crate::schedule::DiffusionSchedule;
use rand::Rng;
use stats::gaussian::{fill_standard_normal, standard_normal};
use stats::rng::member_rng;
use stats::Ensemble;

/// Analysis number `cycle` of `forecast` against the dense observation
/// vector `y` under `obs`, computed by the oracle: the ensemble
/// [`crate::Ensf::analyze`] returns on its call number `cycle`, to
/// floating-point reassociation.
///
/// # Panics
/// As [`BlockAnalysis::prepare`].
pub fn analyze(
    config: &EnsfConfig,
    cycle: u64,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsOperator,
) -> Ensemble {
    let prepared = BlockAnalysis::prepare(config, cycle, forecast, y, obs);
    let (members, dim, schedule) = (forecast.members(), forecast.dim(), &config.schedule);
    let estimator = ScoreEstimator::new(forecast.as_slice(), members, dim, config.schedule)
        .with_batch(prepared.batch.clone());
    assemble(config, &RankPlan::over_cores(members), forecast, |particles| {
        let mut block = vec![0.0; particles.len() * dim];
        let mut weights = vec![0.0; estimator.batch_len()];
        for (z, m) in block.chunks_exact_mut(dim).zip(particles) {
            let mut rng = member_rng(prepared.cycle_seed, m);
            fill_standard_normal(&mut rng, z);
            let prior =
                |z: &[f64], t: f64, s: &mut [f64]| estimator.score_into(z, t, s, &mut weights);
            match config.method {
                AnalysisMethod::ReverseSde => {
                    reverse_sde_assimilate(z, schedule, &prepared.times, prior, obs, y, &mut rng)
                }
                AnalysisMethod::FlowMatching => {
                    let var = &prepared.prior_var;
                    probability_flow_assimilate(z, schedule, &prepared.times, var, prior, obs, y)
                }
            }
        }
        block
    })
}

/// Estimator of the prior score from a fixed forecast ensemble, one
/// particle at a time: the oracle [`crate::BatchedScore`] is held to.
///
/// Borrows the (member-major) forecast ensemble; one estimator is shared
/// read-only across all reverse-SDE particles, which is what makes the
/// filter embarrassingly parallel over particles.
// lint: allow(dead-pub, reason="the per-particle score of oracle::analyze, which batch_equiv and flow_equiv hold the filter to; ensf/tests/prop.rs checks it directly")
pub struct ScoreEstimator<'a> {
    ensemble: &'a [f64],
    members: usize,
    dim: usize,
    schedule: DiffusionSchedule,
    /// Indices of the mini-batch used in the MC sums (Eq. 15's `m_j`).
    batch: Vec<usize>,
}

impl<'a> ScoreEstimator<'a> {
    /// Creates an estimator over `members` vectors of length `dim` stored
    /// member-major in `ensemble`, using all members in the Monte-Carlo sum.
    pub fn new(
        ensemble: &'a [f64],
        members: usize,
        dim: usize,
        schedule: DiffusionSchedule,
    ) -> Self {
        assert_eq!(ensemble.len(), members * dim, "ensemble buffer shape mismatch");
        assert!(members >= 1, "need at least one member");
        ScoreEstimator { ensemble, members, dim, schedule, batch: (0..members).collect() }
    }

    /// Restricts the Monte-Carlo sum to the mini-batch `indices` (Eq. 15).
    ///
    /// # Panics
    /// Panics if any index is out of range or the batch is empty.
    fn with_batch(mut self, indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "mini-batch must be nonempty");
        assert!(indices.iter().all(|&i| i < self.members), "batch index out of range");
        self.batch = indices;
        self
    }

    /// Number of members in the Monte-Carlo batch.
    pub fn batch_len(&self) -> usize {
        self.batch.len()
    }

    /// Evaluates the estimated prior score at `(z, t)`, writing into `out`.
    ///
    /// `scratch` must have length `batch_len()` and is overwritten with the
    /// final weights.
    fn score_into(&self, z: &[f64], t: f64, out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(z.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        assert_eq!(scratch.len(), self.batch.len());

        let alpha = self.schedule.alpha(t);
        let beta_sq = self.schedule.beta_sq(t);
        let inv_2b2 = 0.5 / beta_sq;

        // Log-weights: −‖z − α x_j‖² / 2β².
        let mut max_lw = f64::NEG_INFINITY;
        for (slot, &j) in scratch.iter_mut().zip(&self.batch) {
            let xj = &self.ensemble[j * self.dim..(j + 1) * self.dim];
            let mut d2 = 0.0;
            for (zi, xi) in z.iter().zip(xj) {
                let d = zi - alpha * xi;
                d2 += d * d;
            }
            let lw = -d2 * inv_2b2;
            *slot = lw;
            if lw > max_lw {
                max_lw = lw;
            }
        }

        // Softmax with log-sum-exp.
        let mut total = 0.0;
        for w in scratch.iter_mut() {
            *w = (*w - max_lw).exp();
            total += *w;
        }
        let inv_total = 1.0 / total;

        // Weighted conditional scores: −(z − α x_j)/β².
        out.fill(0.0);
        let inv_b2 = 1.0 / beta_sq;
        for (w, &j) in scratch.iter().zip(&self.batch) {
            let wj = w * inv_total;
            if wj == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero softmax weight skip is a bitwise no-op")
                continue;
            }
            let xj = &self.ensemble[j * self.dim..(j + 1) * self.dim];
            for ((o, zi), xi) in out.iter_mut().zip(z).zip(xj) {
                *o -= wj * (zi - alpha * xi) * inv_b2;
            }
        }
    }

    /// Convenience wrapper allocating the output.
    pub fn score(&self, z: &[f64], t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        let mut scratch = vec![0.0; self.batch.len()];
        self.score_into(z, t, &mut out, &mut scratch);
        out
    }
}

/// Integrates one particle of the reverse-time SDE in place: the oracle of
/// [`crate::reverse_sde_assimilate_batched`].
///
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
///
/// `times` is the descending pseudo-time grid ([`crate::time_grid`]).
fn reverse_sde_assimilate<R: Rng + ?Sized>(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    times: &[f64],
    mut prior_score: impl FnMut(&[f64], f64, &mut [f64]),
    obs: &ObsOperator,
    y: &[f64],
    rng: &mut R,
) {
    let dim = z.len();
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

/// Integrates one particle of the probability-flow ODE in place: the
/// oracle of [`crate::probability_flow_assimilate_batched`].
///
/// Deterministic counterpart of [`reverse_sde_assimilate`]: same grid and
/// exponential linear step, with the denoised-estimate guidance
/// of [`crate::flow`] in place of the SDE's damped likelihood pull — no
/// RNG parameter because the flow consumes no noise.
///
/// * `z` — on entry a sample of `N(0, I)`; on exit a posterior sample.
/// * `times` — the descending pseudo-time grid ([`crate::time_grid`]).
/// * `prior_var` — per-component prior ensemble variance `v_i`
///   ([`crate::batch_variance`] over the same members the score uses).
/// * `prior_score` — callback `(z, t, out)` writing the prior score.
/// * `obs`, `y` — observation operator and observation vector.
///
/// # Panics
/// Panics when `prior_var` does not match the state dimension.
fn probability_flow_assimilate(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    times: &[f64],
    prior_var: &[f64],
    mut prior_score: impl FnMut(&[f64], f64, &mut [f64]),
    obs: &ObsOperator,
    y: &[f64],
) {
    let dim = z.len();
    assert_eq!(prior_var.len(), dim, "prior variance shape mismatch");
    let mut s = vec![0.0; dim];
    let mut xh = vec![0.0; dim];
    let mut lik = vec![0.0; dim];
    let mut jsq = vec![1.0; dim];
    let r = obs.sigma() * obs.sigma();

    for w in times.windows(2) {
        let t = w[0];
        let t_next = w[1];
        prior_score(z, t, &mut s);
        let step = FlowStep::new(schedule, t, t_next);
        flow_step(z, &s, &mut xh, &mut lik, &mut jsq, prior_var, obs, y, r, &step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchScratch, BatchedScore};
    use crate::flow::{batch_variance, probability_flow_assimilate_batched};
    use crate::time_grid;
    use stats::rng::seeded;

    /// For a single-member "ensemble" the marginal is the conditional:
    /// score(z) = −(z − α x)/β², exactly.
    #[test]
    fn single_member_score_is_analytic() {
        let x = vec![1.0, -2.0, 0.5];
        let sch = DiffusionSchedule::default();
        let est = ScoreEstimator::new(&x, 1, 3, sch);
        let z = vec![0.0, 0.0, 0.0];
        let t = 0.4;
        let got = est.score(&z, t);
        let a = sch.alpha(t);
        let b2 = sch.beta_sq(t);
        for i in 0..3 {
            let want = -(z[i] - a * x[i]) / b2;
            assert!((got[i] - want).abs() < 1e-12);
        }
    }

    /// For a Gaussian ensemble the estimated score should roughly match the
    /// analytic Gaussian score of the diffused marginal
    /// N(α μ, α²σ² + β²): s(z) = −(z − αμ)/(α²σ² + β²).
    #[test]
    fn gaussian_ensemble_score_approximates_analytic() {
        use rand::Rng;
        let mut rng = stats::rng::seeded(5);
        let members = 4000;
        let dim = 1;
        let mu = 2.0;
        let sd = 0.5;
        let ens: Vec<f64> = (0..members)
            .map(|_| mu + sd * stats::gaussian::standard_normal(&mut rng))
            .collect();
        let sch = DiffusionSchedule::default();
        let est = ScoreEstimator::new(&ens, members, dim, sch);
        let t = 0.5;
        let a = sch.alpha(t);
        let b2 = sch.beta_sq(t);
        let var = a * a * sd * sd + b2;
        for _ in 0..20 {
            let z = a * mu + var.sqrt() * (rng.random::<f64>() * 2.0 - 1.0);
            let got = est.score(&[z], t)[0];
            let want = -(z - a * mu) / var;
            assert!(
                (got - want).abs() < 0.15 * (1.0 + want.abs()),
                "z={z}: got {got}, want {want}"
            );
        }
    }

    /// The score must point toward the data: moving z slightly along the
    /// score increases the (empirical) marginal log-density.
    #[test]
    fn score_points_uphill() {
        let ens = vec![1.0, 1.2, 0.8, 1.1, 0.9];
        let sch = DiffusionSchedule::default();
        let est = ScoreEstimator::new(&ens, 5, 1, sch);
        let t = 0.3;
        // z below the data cloud: score should be positive (push up).
        assert!(est.score(&[-1.0], t)[0] > 0.0);
        // z above: negative.
        assert!(est.score(&[3.0], t)[0] < 0.0);
    }

    /// No NaN/underflow in high dimension where raw weights are ~exp(−1e4).
    #[test]
    fn high_dimension_is_stable() {
        let dim = 4096;
        let members = 8;
        let mut ens = vec![0.0; members * dim];
        for (i, e) in ens.iter_mut().enumerate() {
            *e = ((i % 97) as f64 - 48.0) / 10.0;
        }
        let sch = DiffusionSchedule::default();
        let est = ScoreEstimator::new(&ens, members, dim, sch);
        let z = vec![0.1; dim];
        let s = est.score(&z, 0.01);
        assert!(s.iter().all(|v| v.is_finite()), "score must stay finite");
        let mag: f64 = s.iter().map(|v| v.abs()).sum();
        assert!(mag > 0.0);
    }

    /// Weights collapse onto the nearest member as t → 0: score matches the
    /// nearest member's conditional score.
    #[test]
    fn small_t_selects_nearest_member() {
        let ens = vec![0.0, 10.0]; // two 1-D members
        let sch = DiffusionSchedule::new(1e-6);
        let est = ScoreEstimator::new(&ens, 2, 1, sch);
        let t = 1e-5;
        let z = 0.3; // near member 0
        let got = est.score(&[z], t)[0];
        let a = sch.alpha(t);
        let b2 = sch.beta_sq(t);
        let want = -(z - a * 0.0) / b2;
        assert!((got - want).abs() < 1e-6 * want.abs().max(1.0));
    }

    #[test]
    fn minibatch_restricts_support() {
        let ens = vec![0.0, 100.0, 0.1, 99.9];
        let sch = DiffusionSchedule::default();
        // Batch only the members near 0.
        let est = ScoreEstimator::new(&ens, 4, 1, sch).with_batch(vec![0, 2]);
        assert_eq!(est.batch_len(), 2);
        // At z near 100 the batch still pulls toward ~0.
        let s = est.score(&[100.0], 0.5)[0];
        assert!(s < 0.0, "batched score must pull toward batch members");
    }

    #[test]
    #[should_panic]
    fn empty_batch_rejected() {
        let ens = vec![1.0];
        let _ =
            ScoreEstimator::new(&ens, 1, 1, DiffusionSchedule::default()).with_batch(vec![]);
    }

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
                &time_grid(&sch, 120),
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
                    &time_grid(&sch, 40),
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
                    &time_grid(&sch, 40),
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
                &time_grid(&sch, 1),
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
            &time_grid(&sch, 1),
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

    /// With the *analytic* posterior ingredients (Gaussian prior score +
    /// identity observation) the flow must transport N(0, I) to the
    /// Kalman posterior — in a handful of steps.
    #[test]
    fn few_step_flow_reaches_gaussian_posterior() {
        let sch = DiffusionSchedule::new(1e-4);
        let m_prior = 0.0f64;
        let v_prior = 1.0f64;
        let sigma_obs = 0.5f64;
        let y = vec![1.5];
        let obs = ObsOperator::identity(sigma_obs);
        // Kalman: posterior mean = v/(v+r) * y with r = sigma_obs^2.
        let want_mean = v_prior / (v_prior + sigma_obs * sigma_obs) * y[0];

        for steps in [5, 10] {
            let mut rng = seeded(7);
            let n = 2000;
            let mut mean = 0.0;
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                probability_flow_assimilate(
                    &mut z,
                    &sch,
                    &time_grid(&sch, steps),
                    &[v_prior],
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a * v_prior + sch.beta_sq(t);
                        out[0] = -(z[0] - a * m_prior) / var;
                    },
                    &obs,
                    &y,
                );
                assert!(z[0].is_finite());
                mean += z[0];
            }
            mean /= n as f64;
            assert!(
                (mean - want_mean).abs() < 0.15,
                "{steps}-step flow mean {mean} vs Kalman {want_mean}"
            );
        }
    }

    /// On a fine grid the guided flow recovers the full Kalman posterior:
    /// mean *and* variance, the property the naive damped-likelihood flow
    /// provably lacks (it converges to a biased endpoint).
    #[test]
    fn fine_grid_flow_matches_kalman_posterior() {
        let sch = DiffusionSchedule::new(1e-4);
        let v_prior = 1.0f64;
        let sigma_obs = 0.5f64;
        let y = vec![1.5];
        let obs = ObsOperator::identity(sigma_obs);
        let r = sigma_obs * sigma_obs;
        let want_mean = v_prior / (v_prior + r) * y[0];
        let want_var = v_prior * r / (v_prior + r);

        let mut rng = seeded(11);
        let n = 4000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let mut z = vec![standard_normal(&mut rng)];
            probability_flow_assimilate(
                &mut z,
                &sch,
                &time_grid(&sch, 100),
                &[v_prior],
                |z, t, out| {
                    let a = sch.alpha(t);
                    let var = a * a * v_prior + sch.beta_sq(t);
                    out[0] = -z[0] / var;
                },
                &obs,
                &y,
            );
            sum += z[0];
            sum_sq += z[0] * z[0];
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - want_mean).abs() < 0.05, "flow mean {mean} vs Kalman {want_mean}");
        assert!((var - want_var).abs() < 0.05, "flow var {var} vs Kalman {want_var}");
    }

    /// The flow is a pure function of its inputs: no hidden RNG anywhere.
    #[test]
    fn flow_is_deterministic_without_any_rng() {
        let sch = DiffusionSchedule::default();
        let obs = ObsOperator::identity(0.4);
        let y = vec![0.5, -0.5, 1.0];
        let run = || {
            let mut z = vec![0.3, -0.7, 1.9];
            probability_flow_assimilate(
                &mut z,
                &sch,
                &time_grid(&sch, 8),
                &[1.0, 0.5, 2.0],
                |_, _, out| out.fill(0.0),
                &obs,
                &y,
            );
            z
        };
        assert_eq!(run(), run());
    }

    /// Batched and reference flow integrators agree to reassociation on
    /// identical blocks (the same contract the SDE pair has).
    #[test]
    fn batched_flow_matches_reference_flow() {
        let (members, dim, b, n_steps) = (7, 11, 5, 8);
        let mut rng = seeded(31);
        let mut ens = vec![0.0; members * dim];
        fill_standard_normal(&mut rng, &mut ens);
        let sch = DiffusionSchedule::default();
        let batch: Vec<usize> = (0..members).collect();
        let score = BatchedScore::new(&ens, members, dim, sch, &batch);
        let prior_var = batch_variance(&ens, members, dim, &batch);
        let reference = ScoreEstimator::new(&ens, members, dim, sch);
        let obs = ObsOperator::identity(0.6);
        let y = vec![0.3; dim];

        let mut z0 = vec![0.0; b * dim];
        fill_standard_normal(&mut rng, &mut z0);

        let mut zb = z0.clone();
        let mut scratch = BatchScratch::new(b, members, dim);
        probability_flow_assimilate_batched(
            &mut zb,
            b,
            &sch,
            &time_grid(&sch, n_steps),
            &score,
            &prior_var,
            &obs,
            &y,
            &mut scratch,
        );

        let mut zr = z0;
        for row in zr.chunks_exact_mut(dim) {
            let mut buf = vec![0.0; members];
            probability_flow_assimilate(
                row,
                &sch,
                &time_grid(&sch, n_steps),
                &prior_var,
                |z, t, out| {
                    reference.score_into(z, t, out, &mut buf);
                },
                &obs,
                &y,
            );
        }
        for (a, r) in zb.iter().zip(&zr) {
            assert!((a - r).abs() < 1e-10 * (1.0 + r.abs()), "{a} vs {r}");
        }
    }

    /// Tight observations must not blow up: the relaxation factor keeps the
    /// guidance bounded across twelve orders of magnitude of `σ_obs`.
    #[test]
    fn flow_stable_for_tight_observations() {
        let sch = DiffusionSchedule::default();
        let y = vec![2.0];
        for sigma_obs in [1e-6, 1e-3, 1.0, 1e3] {
            let obs = ObsOperator::identity(sigma_obs);
            let mut z = vec![-5.0];
            probability_flow_assimilate(
                &mut z,
                &sch,
                &time_grid(&sch, 5),
                &[1.0],
                |z, t, out| {
                    let a = sch.alpha(t);
                    let var = a * a + sch.beta_sq(t);
                    out[0] = -z[0] / var;
                },
                &obs,
                &y,
            );
            assert!(z[0].is_finite(), "blow-up at sigma_obs = {sigma_obs}");
            assert!(z[0].abs() < 10.0, "overshoot at sigma_obs = {sigma_obs}: {}", z[0]);
        }
    }

    /// A tight observation actually *pins* the flow endpoint on the
    /// observation (the guidance reaches the full Kalman gain at t → 0).
    #[test]
    fn tight_observation_pins_endpoint() {
        let sch = DiffusionSchedule::new(1e-4);
        let obs = ObsOperator::identity(1e-2);
        let y = vec![2.0];
        let mut rng = seeded(5);
        let n = 500;
        let mut mean = 0.0;
        for _ in 0..n {
            let mut z = vec![standard_normal(&mut rng)];
            probability_flow_assimilate(
                &mut z,
                &sch,
                &time_grid(&sch, 10),
                &[1.0],
                |z, t, out| {
                    let a = sch.alpha(t);
                    let var = a * a + sch.beta_sq(t);
                    out[0] = -z[0] / var;
                },
                &obs,
                &y,
            );
            mean += z[0];
        }
        mean /= n as f64;
        assert!((mean - 2.0).abs() < 0.1, "tight-obs flow mean {mean} should sit on y = 2");
    }

    /// Step refinement converges *in distribution*: the posterior mean is
    /// exact at every step count (the DDIM map solves the linear flow in
    /// closed form), while the sample variance grows monotonically from
    /// the under-dispersed few-step regime toward the Kalman variance.
    #[test]
    fn step_refinement_converges_in_distribution() {
        let sch = DiffusionSchedule::new(1e-4);
        let sigma_obs = 0.7f64;
        let obs = ObsOperator::identity(sigma_obs);
        let y = vec![0.8];
        let r = sigma_obs * sigma_obs;
        let want_mean = 1.0 / (1.0 + r) * y[0];
        let want_var = r / (1.0 + r);

        let moments = |steps: usize| {
            let mut rng = seeded(23);
            let n = 2000;
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for _ in 0..n {
                let mut z = vec![standard_normal(&mut rng)];
                probability_flow_assimilate(
                    &mut z,
                    &sch,
                    &time_grid(&sch, steps),
                    &[1.0],
                    |z, t, out| {
                        let a = sch.alpha(t);
                        let var = a * a + sch.beta_sq(t);
                        out[0] = -z[0] / var;
                    },
                    &obs,
                    &y,
                );
                sum += z[0];
                sum_sq += z[0] * z[0];
            }
            let mean = sum / n as f64;
            (mean, sum_sq / n as f64 - mean * mean)
        };

        let counts = [1usize, 4, 16, 100];
        let mv: Vec<(f64, f64)> = counts.iter().map(|&n| moments(n)).collect();
        for (&steps, &(mean, _)) in counts.iter().zip(&mv) {
            assert!(
                (mean - want_mean).abs() < 0.06,
                "{steps}-step flow mean {mean} vs Kalman {want_mean}"
            );
        }
        for w in mv.windows(2) {
            assert!(w[0].1 <= w[1].1 + 0.02, "variance not monotone: {} then {}", w[0].1, w[1].1);
        }
        let (_, fine_var) = mv[counts.len() - 1];
        assert!((fine_var - want_var).abs() < 0.05, "100-step var {fine_var} vs {want_var}");
    }
}
