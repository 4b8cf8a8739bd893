//! Probability-flow ODE integration: the flow-matching analysis path.
//!
//! The reverse-time SDE (Eq. 7, [`crate::reverse_sde_assimilate_batched`]) and the
//! **probability-flow ODE**
//!
//! ```text
//! dZ = [ b(t) Z − ½ σ²(t) s(Z, t) ] dt
//! ```
//!
//! share the same marginals at every pseudo-time (Song et al.; Transue et
//! al., "Flow Matching for Efficient and Scalable Data Assimilation",
//! arXiv:2508.13313): the ODE transports the same `N(0, I)` start to the
//! same posterior, but *deterministically*. That buys the analysis two
//! things:
//!
//! 1. **Few-step integration.** Without per-step noise injection the only
//!    error source is the drift discretization, so the two-sided log grid
//!    ([`crate::time_grid`]) reaches the accuracy of the 100-step SDE in
//!    ~5–10 steps: each analysis costs proportionally fewer score GEMMs.
//! 2. **A smaller determinism surface.** Particles consume *no* RNG draws
//!    beyond the initial Gaussian fill, so the member-keyed (serial) and
//!    tile-keyed (sharded) stream contracts hold trivially and rank-count
//!    bitwise invariance reduces to the fixed-order score fold that
//!    [`BatchedScore`] and the dist kernel already guarantee.
//!
//! ## Observation guidance: why the flow cannot reuse the SDE's pull
//!
//! The stochastic path adds the *damped analytic likelihood score*
//! `h(t) ∇ log p(y | z)` to the prior score (Eq. 17). That surrogate is
//! **not** the score of the diffused posterior — it evaluates the
//! likelihood at the noisy state `z` instead of the clean state and ramps
//! it with an ad-hoc damping. The SDE tolerates the mismatch because its
//! per-step noise keeps re-mixing the marginal toward the true one; the
//! noiseless ODE integrates the same error *coherently* and converges to a
//! visibly biased posterior even on an infinitely fine grid (Gaussian
//! prior `N(0,1)`, identity obs with `r = 0.25`, `y = 1.5`: Kalman mean
//! 1.20, SDE ≈ 1.20, naive flow ≈ 1.56 — a 30% overshoot that refinement
//! does not cure).
//!
//! The flow therefore derives its pull from the **denoised estimate**
//! (Tweedie's formula), in the style of diffusion-posterior sampling:
//!
//! ```text
//! x̂_i  = (z_i + β²(t) s_i(z, t)) / α(t)     (E[x | z], free given s)
//! V_i  = α² v_i + β²                         (diffused prior variance)
//! v̂_i = v_i β² / V_i                         (Var[x_i | z])
//! x̂⁺_i = x̂_i + v̂_i J_i(x̂) (y_i − h_i(x̂)) / (r + J_i² v̂_i)
//! ```
//!
//! where `v_i` is the per-component prior ensemble variance and
//! `r = σ_obs²`. The correction is a per-component Kalman update of the
//! denoised estimate with the denoiser's residual uncertainty `v̂_i` as
//! the prior: a *convex* move of `h(x̂)` toward `y` in observation space,
//! so it is unconditionally stable — no damping profile, no relaxation
//! factor. `v̂_i` ramps from `v_i` at `t ≈ 1` (full Kalman pull while `x̂`
//! is still mostly prior mean) to `0` at `t = 0` (the endpoint is pinned).
//!
//! ## Discretization
//!
//! The guided denoiser is integrated with the **DDIM map** (the
//! exponential-integrator discretization of the PF-ODE in the
//! `(x̂, noise-direction)` frame):
//!
//! ```text
//! z ← α(t′) x̂⁺ + (β(t′)/β(t)) (z − α(t) x̂⁺)
//! ```
//!
//! For a Gaussian target with the exact score this map reproduces the
//! posterior **mean exactly at any step count** — including a single step
//! — because the flow map of a linear ODE is affine and the DDIM
//! coefficients solve it in closed form. (The naive explicit-Euler score
//! step instead leaves a few percent of the `N(0, I)` start untransported
//! on coarse grids, which swamps a posterior living at scale `10⁻²`.)
//! Few-step analyses are therefore mean-accurate but under-dispersed; the
//! ensemble spread is restored by the same [`crate::relax_spread`]
//! safeguard the SDE path already runs, exactly as the SDE relies on it
//! to undo its own obs-pinning overdispersion correction.

use crate::batch::{integrate, BatchScratch, BatchedScore, WindowStep, WINDOW};
use crate::obs::ObsOperator;
use crate::schedule::DiffusionSchedule;
use linalg::gemm::SqNorm;
use std::ops::Range;

/// Per-component sample variance over `batch` members of a member-major
/// ensemble buffer (divisor `J − 1`; all zeros when the batch has fewer
/// than two members).
///
/// This is the `v_i` the flow-matching guidance needs. The accumulation
/// order is the batch order, so the result is deterministic and — because
/// the batch is shared by every particle block — identical regardless of
/// how particles are partitioned over blocks or ranks.
///
/// # Panics
/// Panics on a shape mismatch or an out-of-range batch index.
pub fn batch_variance(ensemble: &[f64], members: usize, dim: usize, batch: &[usize]) -> Vec<f64> {
    assert_eq!(ensemble.len(), members * dim, "ensemble buffer shape mismatch");
    assert!(batch.iter().all(|&j| j < members), "batch index out of range");
    let j = batch.len();
    let mut var = vec![0.0; dim];
    if j < 2 {
        return var;
    }
    let mut mean = vec![0.0; dim];
    for &m in batch {
        let row = &ensemble[m * dim..(m + 1) * dim];
        for (mu, x) in mean.iter_mut().zip(row) {
            *mu += x;
        }
    }
    let inv = 1.0 / j as f64;
    for mu in &mut mean {
        *mu *= inv;
    }
    for &m in batch {
        let row = &ensemble[m * dim..(m + 1) * dim];
        for ((v, x), mu) in var.iter_mut().zip(row).zip(&mean) {
            let d = x - mu;
            *v += d * d;
        }
    }
    let inv1 = 1.0 / (j - 1) as f64;
    for v in &mut var {
        *v *= inv1;
    }
    var
}

/// Shrinks a per-component variance estimate toward its mean in place:
/// `v_i ← (1 − γ) v_i + γ v̄` with `v̄` the arithmetic mean over `var`.
///
/// With `J` ensemble members the raw per-component sample variance carries
/// `≈ √(2/(J − 1))` relative noise, and that noise feeds straight into the
/// flow-matching Kalman gain `v̂/(r + J² v̂)` — for small ensembles it costs
/// a visible fraction of the analysis accuracy. For statistically
/// homogeneous turbulence the spatial mean estimates the same variance
/// from `d·(J − 1)` samples instead of `J − 1`, so blending toward it
/// (`γ = 1` replaces the estimate outright) trades spatial heterogeneity
/// for estimator noise. The mean is accumulated in slice order, so the
/// result only depends on the slice contents.
///
/// `γ = 0` (the [`crate::EnsfConfig`] default) and an empty slice are
/// exact no-ops.
pub fn smooth_variance(var: &mut [f64], gamma: f64) {
    if gamma <= 0.0 || var.is_empty() {
        return;
    }
    let mean = var.iter().sum::<f64>() / var.len() as f64;
    for v in var.iter_mut() {
        *v = (1.0 - gamma) * *v + gamma * mean;
    }
}

/// One flow step's schedule coefficients, from `t` to `t_next`.
pub(crate) struct FlowStep {
    alpha: f64,
    beta_sq: f64,
    alpha_next: f64,
    /// Noise-direction carry-over β(t′)/β(t) of the DDIM map.
    beta_ratio: f64,
}

impl FlowStep {
    pub(crate) fn new(schedule: &DiffusionSchedule, t: f64, t_next: f64) -> Self {
        let beta_sq = schedule.beta_sq(t);
        FlowStep {
            alpha: schedule.alpha(t),
            beta_sq,
            alpha_next: schedule.alpha(t_next),
            beta_ratio: (schedule.beta_sq(t_next) / beta_sq).sqrt(),
        }
    }
}

/// One flow step for one particle, or for the components of one column
/// window of it: Tweedie denoising, the per-component Kalman correction of
/// the denoised estimate, and the DDIM map to the next grid point. Every
/// component is computed on its own. Shared verbatim by the batched
/// integrator and the oracle's so they agree operation for operation.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn flow_step(
    z: &mut [f64],
    s: &[f64],
    xh: &mut [f64],
    lik: &mut [f64],
    jsq: &mut [f64],
    prior_var: &[f64],
    obs: &ObsOperator,
    y: &[f64],
    r: f64,
    step: &FlowStep,
) {
    let &FlowStep { alpha, beta_sq, alpha_next, beta_ratio } = step;

    // Tweedie denoising: x̂ = E[x | z] = (z + β² s)/α, elementwise from the
    // score already in hand — no extra ensemble pass.
    for ((xi, zi), si) in xh.iter_mut().zip(&*z).zip(s) {
        *xi = (*zi + beta_sq * si) / alpha;
    }
    // `lik_i = J_i(x̂) (y_i − h_i(x̂)) / r`, rescaled per component below to
    // the moment-matched denominator `r + J_i² v̂_i`.
    obs.likelihood_score_into(xh, y, 1.0, lik);
    obs.jacobian_sq(xh, jsq);

    for (k, (zi, xi)) in z.iter_mut().zip(&mut *xh).enumerate() {
        let v = prior_var[k];
        let big_v = alpha * alpha * v + beta_sq;
        let vh = v * beta_sq / big_v; // Var[x | z]: the denoiser's residual spread
        // Kalman update of x̂ toward the observation: a convex move in obs
        // space (|J Δx̂| ≤ |y − h(x̂)|), unconditionally stable.
        *xi += vh * lik[k] * r / (r + jsq[k] * vh);
        // DDIM: re-noise the guided denoised estimate to the next level.
        *zi = alpha_next * *xi + beta_ratio * (*zi - alpha * *xi);
    }
}

/// The probability flow as a [`WindowStep`]: [`flow_step`] on each row's
/// slice of the window, then the row's norm chains over the updated slice.
struct ProbabilityFlow<'a> {
    schedule: &'a DiffusionSchedule,
    prior_var: &'a [f64],
    obs: &'a ObsOperator,
    y: &'a [f64],
    /// `σ_obs²`.
    r: f64,
    /// One window's `x̂`, likelihood score and squared Jacobian.
    rows: [[f64; WINDOW]; 3],
}

impl WindowStep for ProbabilityFlow<'_> {
    type Step = FlowStep;

    fn step(&self, t: f64, t_next: f64) -> FlowStep {
        FlowStep::new(self.schedule, t, t_next)
    }

    // lint: no_alloc
    fn advance(
        &mut self,
        step: &FlowStep,
        z: &mut [f64],
        dim: usize,
        cols: Range<usize>,
        s: &[f64],
        norms: &mut [SqNorm],
    ) {
        let (c0, c1) = (cols.start, cols.end);
        let width = c1 - c0;
        let [xh, lik, jsq] = &mut self.rows;
        let (prior_var, y) = (&self.prior_var[c0..c1], &self.y[c0..c1]);
        for ((row, srow), norm) in z.chunks_exact_mut(dim).zip(s.chunks_exact(width)).zip(norms) {
            let zrow = &mut row[c0..c1];
            let (xh, lik, jsq) = (&mut xh[..width], &mut lik[..width], &mut jsq[..width]);
            flow_step(zrow, srow, xh, lik, jsq, prior_var, self.obs, y, self.r, step);
            for chunk in zrow.chunks_exact(8) {
                let mut x = [0.0; 8];
                x.copy_from_slice(chunk);
                norm.chunk(&x);
            }
        }
    }
}

/// Batched counterpart of [`crate::oracle::probability_flow_assimilate`]:
/// integrates a whole block of `b` particles through the probability-flow
/// ODE step-major, evaluating the prior score for all of them at once via
/// [`BatchedScore`] — the same window sweep the stochastic path uses, minus
/// the noise stream.
///
/// * `z` — `b x dim` row-major block; each row a sample of `N(0, I)` on
///   entry, a posterior sample on exit.
/// * `times` — the descending pseudo-time grid (as produced by
///   [`crate::time_grid`]), owned by the caller so the integration itself
///   never allocates.
/// * `prior_var` — per-component prior variance of the score batch
///   ([`batch_variance`] over the same members `score` gathered).
///
/// Per particle this replicates the oracle's integrator operation for
/// operation, so the two paths agree to floating-point reassociation (the
/// same contract the SDE pair has). No RNG parameter: after the
/// caller's initial fill the integration is a pure function of the block.
// lint: no_alloc
#[allow(clippy::too_many_arguments)]
pub fn probability_flow_assimilate_batched(
    z: &mut [f64],
    b: usize,
    schedule: &DiffusionSchedule,
    times: &[f64],
    score: &BatchedScore,
    prior_var: &[f64],
    obs: &ObsOperator,
    y: &[f64],
    scratch: &mut BatchScratch,
) {
    assert_eq!(prior_var.len(), score.dim(), "prior variance shape mismatch");
    assert_eq!(y.len(), score.dim(), "observation length mismatch");
    let r = obs.sigma() * obs.sigma();
    let mut flow = ProbabilityFlow { schedule, prior_var, obs, y, r, rows: [[0.0; WINDOW]; 3] };
    integrate(z, b, times, score, scratch, &mut flow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsOperatorKind;
    use crate::sde::time_grid;
    use linalg::gemm::row_sq_norms;
    use stats::gaussian::fill_standard_normal;
    use stats::rng::seeded;

    fn block(rows: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = vec![0.0; rows * dim];
        fill_standard_normal(&mut seeded(seed), &mut v);
        v
    }

    /// The flow as whole-block passes: the norms, the prior score of
    /// [`BatchedScore::score_block_into`] over the whole width, then
    /// [`flow_step`] on each whole row.
    #[allow(clippy::too_many_arguments)]
    fn whole_block_reference(
        z: &mut [f64],
        b: usize,
        schedule: &DiffusionSchedule,
        times: &[f64],
        score: &BatchedScore,
        prior_var: &[f64],
        obs: &ObsOperator,
        y: &[f64],
    ) {
        let (dim, j) = (score.dim(), score.batch_len());
        let r = obs.sigma() * obs.sigma();
        let (mut s, mut w, mut znorm) = (vec![0.0; b * dim], vec![0.0; b * j], vec![0.0; b]);
        let (mut xh, mut lik, mut jsq) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
        for pair in times.windows(2) {
            row_sq_norms(z, b, dim, &mut znorm);
            score.score_block_into(z, b, pair[0], &mut s, &mut w, &znorm);
            let step = FlowStep::new(schedule, pair[0], pair[1]);
            for (zrow, srow) in z.chunks_exact_mut(dim).zip(s.chunks_exact(dim)) {
                flow_step(zrow, srow, &mut xh, &mut lik, &mut jsq, prior_var, obs, y, r, &step);
            }
        }
    }

    /// The windowed flow is the whole-block passes bit for bit: one window,
    /// a whole window plus a ragged 8-chunk, and two whole windows plus a
    /// ragged one with a `dim % 8` tail; the identity and the arctan
    /// operator; block heights across the AVX-512 row tiles.
    #[test]
    fn window_sweep_is_the_whole_block_flow_bitwise() {
        let (members, sch) = (6, DiffusionSchedule::default());
        let times = time_grid(&sch, 4);
        for dim in [13, WINDOW + 8, 2 * WINDOW + 67] {
            let ens = block(members, dim, dim as u64);
            let batch: Vec<usize> = (0..members).collect();
            let score = BatchedScore::new(&ens, members, dim, sch, &batch);
            let prior_var = batch_variance(&ens, members, dim, &batch);
            let y: Vec<f64> = (0..dim).map(|i| 0.3 * (i as f64 * 0.7).sin()).collect();
            let arctan = ObsOperatorKind::Arctan { gain: 1.3 };
            for (name, obs) in [("identity", ObsOperator::identity(0.7)), ("arctan", ObsOperator::new(arctan, 0.5))] {
                for b in [1, 3, 10, 11] {
                    let mut want = block(b, dim, 100 + b as u64);
                    let mut got = want.clone();
                    whole_block_reference(&mut want, b, &sch, &times, &score, &prior_var, &obs, &y);
                    let mut scratch = BatchScratch::new(b, members, dim);
                    probability_flow_assimilate_batched(
                        &mut got, b, &sch, &times, &score, &prior_var, &obs, &y, &mut scratch,
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{name} b={b} dim={dim}");
                }
            }
        }
    }

    /// `batch_variance` matches `Ensemble::variance` on the full batch and
    /// restricts correctly to a sub-batch.
    #[test]
    fn batch_variance_matches_ensemble_variance() {
        let (members, dim) = (9, 4);
        let mut rng = seeded(17);
        let mut buf = vec![0.0; members * dim];
        fill_standard_normal(&mut rng, &mut buf);
        let full: Vec<usize> = (0..members).collect();
        let got = batch_variance(&buf, members, dim, &full);
        let members_vec: Vec<Vec<f64>> =
            buf.chunks_exact(dim).map(|r| r.to_vec()).collect();
        let ens = stats::Ensemble::from_members(&members_vec);
        for (a, b) in got.iter().zip(ens.variance()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Sub-batch: only the chosen members contribute.
        let sub = batch_variance(&buf, members, dim, &[0, 2, 5]);
        let sub_members: Vec<Vec<f64>> =
            [0usize, 2, 5].iter().map(|&m| members_vec[m].clone()).collect();
        let sub_ens = stats::Ensemble::from_members(&sub_members);
        for (a, b) in sub.iter().zip(sub_ens.variance()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Degenerate single-member batch: zero variance, no NaN.
        assert!(batch_variance(&buf, members, dim, &[3]).iter().all(|v| *v == 0.0)); // lint: allow(float-exact-compare, reason="degenerate batch must return exact zeros")
    }

    /// `smooth_variance` endpoints: γ = 0 is a bitwise no-op, γ = 1 makes
    /// the estimate uniform at the mean, and intermediate γ blends while
    /// preserving the mean.
    #[test]
    fn smooth_variance_blends_toward_the_mean() {
        let original = vec![1.0, 2.0, 3.0, 6.0];
        let mean = 3.0;

        let mut var = original.clone();
        smooth_variance(&mut var, 0.0);
        assert_eq!(var, original, "gamma=0 must be a no-op");

        let mut var = original.clone();
        smooth_variance(&mut var, 1.0);
        for v in &var {
            assert!((v - mean).abs() < 1e-12, "gamma=1 must be uniform at the mean, got {v}");
        }

        let mut var = original.clone();
        smooth_variance(&mut var, 0.5);
        for (v, o) in var.iter().zip(&original) {
            assert!((v - 0.5 * (o + mean)).abs() < 1e-12);
        }
        let blended_mean = var.iter().sum::<f64>() / var.len() as f64;
        assert!((blended_mean - mean).abs() < 1e-12, "shrinkage preserves the mean");

        // Empty slice: no panic.
        smooth_variance(&mut [], 1.0);
    }
}
