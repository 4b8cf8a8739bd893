//! The Ensemble Score Filter analysis step.
//!
//! One `analyze` call implements the paper's update step (§III-A2):
//!
//! 1. estimate the prior score from the forecast ensemble (training-free
//!    Monte-Carlo, Eqs. 15–16);
//! 2. form the posterior score by adding the damped analytic likelihood
//!    score, `ŝ_post(z, t) = ŝ_prior(z, t) + h(t) ∇ log p(y | z)` (Eq. 17);
//! 3. draw `M` fresh `N(0, I)` samples and push each through the
//!    discretized reverse-time SDE (Eq. 7) with `ŝ_post`;
//! 4. optionally relax the analysis spread toward the forecast spread
//!    (the paper's stability safeguard in lieu of localization/inflation).
//!
//! Particles are independent given the (read-only) forecast ensemble, so
//! step 3 parallelizes embarrassingly: [`crate::parallel`] runs it one
//! particle block at a time, and this filter is that decomposition over
//! the machine's cores.

use crate::obs::ObsOperator;
use crate::schedule::DiffusionSchedule;
use stats::Ensemble;

/// Which dynamics transport the `N(0, I)` start to the posterior.
///
/// Both methods share the diffusion schedule, the time grid, the
/// Monte-Carlo score machinery ([`crate::BatchedScore`]) and the damped
/// likelihood relaxation; they differ only in the integrated equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMethod {
    /// Stochastic reverse-time SDE (Eq. 7), Euler–Maruyama over the full
    /// grid — the paper's formulation, accurate at ~50–100 steps.
    #[default]
    ReverseSde,
    /// Deterministic probability-flow ODE (flow matching, Transue et al.
    /// arXiv:2508.13313): same marginals, no Brownian noise, comparable
    /// accuracy at ~5–10 steps
    /// ([`crate::probability_flow_assimilate_batched`]).
    FlowMatching,
}

/// EnSF configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsfConfig {
    /// Euler steps for the reverse-time SDE (pseudo-time resolution).
    pub n_steps: usize,
    /// Mini-batch size `J` for the Monte-Carlo score (Eq. 15);
    /// `None` uses the whole ensemble.
    pub minibatch: Option<usize>,
    /// Diffusion schedule (endpoint clamp).
    pub schedule: DiffusionSchedule,
    /// Base seed; each analysis cycle and member derives its own stream.
    pub seed: u64,
    /// Spread relaxation weight `r ∈ [0, 1]`: per-variable analysis std is
    /// blended as `(1 − r) σ_a + r σ_f`. The paper relaxes the analysis
    /// spread to the prior to guarantee long-term stability; `1.0`
    /// reproduces that choice.
    pub spread_relaxation: f64,
    /// Transport dynamics: stochastic reverse SDE (default) or the
    /// deterministic few-step probability-flow ODE.
    pub method: AnalysisMethod,
    /// Variance shrinkage weight `γ ∈ [0, 1]` for the flow-matching
    /// guidance: the per-component prior variance is blended as
    /// `(1 − γ) v_i + γ v̄` toward its spatial mean before integration.
    /// With `J` members the raw estimate carries `≈ √(2/(J−1))` relative
    /// noise that feeds straight into the Kalman gain; for statistically
    /// homogeneous fields the spatial mean is a far lower-noise estimate
    /// of the same quantity. Ignored by [`AnalysisMethod::ReverseSde`];
    /// `0.0` (default) keeps the raw per-component estimate.
    pub variance_smoothing: f64,
}

impl Default for EnsfConfig {
    fn default() -> Self {
        EnsfConfig {
            n_steps: 50,
            minibatch: None,
            schedule: DiffusionSchedule::default(),
            seed: 0,
            spread_relaxation: 1.0,
            method: AnalysisMethod::default(),
            variance_smoothing: 0.0,
        }
    }
}

impl EnsfConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_steps == 0 {
            return Err("n_steps must be positive".into());
        }
        let eps = self.schedule.eps;
        if !(eps > 0.0 && eps < 0.5) {
            return Err(format!("schedule.eps must be in (0, 0.5), got {eps}"));
        }
        if let Some(j) = self.minibatch {
            if j == 0 {
                return Err("minibatch must be nonempty".into());
            }
        }
        if !(0.0..=1.0).contains(&self.spread_relaxation) {
            return Err(format!("spread_relaxation must be in [0,1], got {}", self.spread_relaxation));
        }
        if !(0.0..=1.0).contains(&self.variance_smoothing) {
            return Err(format!(
                "variance_smoothing must be in [0,1], got {}",
                self.variance_smoothing
            ));
        }
        Ok(())
    }
}

/// The Ensemble Score Filter.
#[derive(Debug, Clone)]
pub struct Ensf {
    config: EnsfConfig,
    /// Analysis cycle counter: decorrelates RNG streams across cycles.
    cycle: u64,
}

impl Ensf {
    /// Creates a filter with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: EnsfConfig) -> Self {
        config.validate().expect("invalid EnSF configuration");
        Ensf { config, cycle: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> &EnsfConfig {
        &self.config
    }

    /// The analysis-cycle counter (how many `analyze` calls have run).
    /// Together with the seed this pins every internal RNG stream, so
    /// checkpoint/restore can resume cycling bit-identically.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Restores the analysis-cycle counter (checkpoint resume).
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Replaces the base seed, giving all subsequent analyses fresh SDE
    /// noise streams — the retry path after a failed/diverged analysis.
    pub fn reseed(&mut self, seed: u64) {
        self.config.seed = seed;
    }

    /// Performs one analysis: combines the forecast ensemble with the
    /// dense observation vector `y` (one value per state component) under
    /// `obs`, returning the analysis ensemble.
    pub fn analyze(&mut self, forecast: &Ensemble, y: &[f64], obs: &ObsOperator) -> Ensemble {
        let _span = telemetry::span!("ensf.analysis");
        let plan = crate::parallel::RankPlan::over_cores(forecast.members());
        let analysis = crate::parallel::analyze_partitioned(
            &self.config,
            self.cycle,
            &plan,
            forecast,
            y,
            obs,
        );
        self.cycle += 1;
        analysis
    }
}

/// Relaxes the per-variable analysis spread toward the forecast spread:
/// anomalies are rescaled so `σ_new = (1 − r) σ_a + r σ_f`. Applied by
/// [`crate::parallel::analyze_partitioned`] and, replicated on every rank
/// after the particle gather, by the distributed runtime.
///
/// When a variable's analysis spread has (numerically) collapsed — tight
/// observations can pull every member onto the observation to the last bit,
/// leaving `σ_a` at rounding level — rescaling would amplify arbitrary
/// round-off by `σ_f/σ_a` (or silently keep the collapse when `σ_a` is
/// exactly zero). Such degenerate variables instead adopt the *forecast*
/// anomalies scaled by `r`, which realizes the intended `σ_new ≈ r σ_f`
/// deterministically and independently of which score kernel produced the
/// (bit-level) collapse pattern.
pub fn relax_spread(analysis: &mut Ensemble, forecast: &Ensemble, r: f64) {
    /// `σ_a` below this fraction of `σ_f` is treated as fully collapsed.
    const DEGENERATE: f64 = 1e-8;
    let dim = analysis.dim();
    let (mean, var_a) = analysis.mean_and_variance();
    let (fmean, var_f) = forecast.mean_and_variance();
    let mut scale = vec![1.0; dim];
    let mut degenerate = vec![false; dim];
    for i in 0..dim {
        let sa = var_a[i].sqrt();
        let sf = var_f[i].sqrt();
        if sa > DEGENERATE * sf && sa > 1e-300 {
            scale[i] = ((1.0 - r) * sa + r * sf) / sa;
        } else if sf > 1e-300 {
            degenerate[i] = true;
        }
    }
    for m in 0..analysis.members() {
        let fx = forecast.member(m);
        let member = analysis.member_mut(m);
        for (i, x) in member.iter_mut().enumerate() {
            *x = if degenerate[i] {
                mean[i] + r * (fx[i] - fmean[i])
            } else {
                mean[i] + (*x - mean[i]) * scale[i]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsOperatorKind;
    use stats::gaussian::standard_normal;
    use stats::rng::seeded;

    fn gaussian_ensemble(members: usize, dim: usize, mean: f64, sd: f64, seed: u64) -> Ensemble {
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
    fn analysis_moves_toward_observation() {
        // Forecast centered at 0, obs at 2 with tight error: analysis mean
        // should move decisively toward the observation.
        let fc = gaussian_ensemble(40, 4, 0.0, 1.0, 1);
        let obs = ObsOperator::identity(0.3);
        let y = vec![2.0; 4];
        let mut filter = Ensf::new(EnsfConfig { seed: 7, ..Default::default() });
        let an = filter.analyze(&fc, &y, &obs);
        let mean = an.mean();
        let avg = mean.iter().sum::<f64>() / mean.len() as f64;
        assert!(avg > 0.5, "analysis mean {avg} did not move toward obs");
        assert!(avg < 2.4, "analysis mean {avg} overshot");
        for mu in &mean {
            assert!(*mu > -0.5 && *mu < 2.8, "component ran away: {mu}");
        }
    }

    #[test]
    fn loose_observation_changes_little() {
        let fc = gaussian_ensemble(40, 4, 0.0, 0.5, 2);
        let obs = ObsOperator::identity(100.0); // essentially uninformative
        let y = vec![5.0; 4];
        let mut filter = Ensf::new(EnsfConfig { seed: 3, ..Default::default() });
        let an = filter.analyze(&fc, &y, &obs);
        for mu in &an.mean() {
            assert!(mu.abs() < 0.6, "uninformative obs should not move mean much: {mu}");
        }
    }

    #[test]
    fn spread_relaxation_restores_forecast_spread() {
        let fc = gaussian_ensemble(30, 6, 0.0, 1.0, 4);
        let obs = ObsOperator::identity(0.1);
        let y = vec![0.5; 6];
        let mut with = Ensf::new(EnsfConfig { seed: 5, spread_relaxation: 1.0, ..Default::default() });
        let mut without =
            Ensf::new(EnsfConfig { seed: 5, spread_relaxation: 0.0, ..Default::default() });
        let an_with = with.analyze(&fc, &y, &obs);
        let an_without = without.analyze(&fc, &y, &obs);
        // Full relaxation pins the per-variable spread at the forecast's.
        let vf = fc.variance();
        let vw = an_with.variance();
        for (a, b) in vw.iter().zip(&vf) {
            assert!((a.sqrt() - b.sqrt()).abs() < 1e-9, "{a} vs {b}");
        }
        // A tight observation should otherwise shrink the spread.
        assert!(an_without.spread() < an_with.spread());
    }

    #[test]
    fn deterministic_given_seed_and_cycle() {
        let fc = gaussian_ensemble(16, 3, 1.0, 0.5, 6);
        let obs = ObsOperator::identity(0.5);
        let y = vec![1.5; 3];
        let run = || {
            let mut f = Ensf::new(EnsfConfig { seed: 42, ..Default::default() });
            f.analyze(&fc, &y, &obs)
        };
        let a = run();
        let b = run();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn consecutive_cycles_use_fresh_noise() {
        let fc = gaussian_ensemble(16, 3, 1.0, 0.5, 6);
        let obs = ObsOperator::identity(0.5);
        let y = vec![1.5; 3];
        let mut f = Ensf::new(EnsfConfig { seed: 42, ..Default::default() });
        let a = f.analyze(&fc, &y, &obs);
        let b = f.analyze(&fc, &y, &obs);
        assert_ne!(a.as_slice(), b.as_slice(), "cycles must not reuse RNG streams");
    }

    #[test]
    fn minibatch_analysis_still_tracks_observation() {
        let fc = gaussian_ensemble(40, 4, 0.0, 1.0, 8);
        let obs = ObsOperator::identity(0.3);
        let y = vec![1.5; 4];
        let mut f = Ensf::new(EnsfConfig { seed: 1, minibatch: Some(10), ..Default::default() });
        let an = f.analyze(&fc, &y, &obs);
        let mean = an.mean();
        let avg = mean.iter().sum::<f64>() / mean.len() as f64;
        assert!(avg > 0.3, "minibatch analysis mean {avg}");
    }

    #[test]
    fn nonlinear_observation_supported() {
        // Truth at x=1.2 observed through arctan; forecast centered at 0.
        let fc = gaussian_ensemble(60, 2, 0.0, 1.0, 9);
        let obs = ObsOperator::new(ObsOperatorKind::Arctan { gain: 1.0 }, 0.05);
        let truth = [1.2, 1.2];
        let mut y = vec![0.0; 2];
        obs.apply(&truth, &mut y);
        let mut f = Ensf::new(EnsfConfig { seed: 10, ..Default::default() });
        let an = f.analyze(&fc, &y, &obs);
        for mu in &an.mean() {
            assert!((mu - 1.2).abs() < 0.7, "nonlinear obs analysis mean {mu}");
        }
    }

    #[test]
    fn analysis_is_finite_in_high_dim() {
        let fc = gaussian_ensemble(20, 2048, 0.0, 1.0, 11);
        let obs = ObsOperator::identity(1.0);
        let y = vec![0.3; 2048];
        let mut f = Ensf::new(EnsfConfig { seed: 2, n_steps: 20, ..Default::default() });
        let an = f.analyze(&fc, &y, &obs);
        assert!(an.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn reseed_changes_noise_and_cycle_restores_streams() {
        let fc = gaussian_ensemble(16, 3, 1.0, 0.5, 6);
        let obs = ObsOperator::identity(0.5);
        let y = vec![1.5; 3];
        let mut a = Ensf::new(EnsfConfig { seed: 42, ..Default::default() });
        let mut b = Ensf::new(EnsfConfig { seed: 42, ..Default::default() });
        b.reseed(99);
        assert_ne!(
            a.analyze(&fc, &y, &obs).as_slice(),
            b.analyze(&fc, &y, &obs).as_slice(),
            "reseed must change the SDE noise"
        );
        // Restoring (seed, cycle) reproduces the stream bit-identically.
        assert_eq!(a.cycle(), 1);
        let next = a.analyze(&fc, &y, &obs);
        let mut resumed = Ensf::new(EnsfConfig { seed: 42, ..Default::default() });
        resumed.set_cycle(1);
        assert_eq!(resumed.analyze(&fc, &y, &obs).as_slice(), next.as_slice());
    }

    #[test]
    #[should_panic]
    fn wrong_obs_length_panics() {
        let fc = gaussian_ensemble(8, 3, 0.0, 1.0, 1);
        let obs = ObsOperator::identity(1.0);
        let mut f = Ensf::new(EnsfConfig::default());
        let _ = f.analyze(&fc, &[0.0; 2], &obs);
    }

    #[test]
    fn config_validation() {
        assert!(EnsfConfig { n_steps: 0, ..Default::default() }.validate().is_err());
        assert!(EnsfConfig { minibatch: Some(0), ..Default::default() }.validate().is_err());
        for eps in [0.0, 0.5, 0.6, -1e-3, f64::NAN] {
            let schedule = DiffusionSchedule { eps, ..Default::default() };
            assert!(EnsfConfig { schedule, ..Default::default() }.validate().is_err(), "eps {eps}");
        }
        assert!(
            EnsfConfig { spread_relaxation: 1.5, ..Default::default() }.validate().is_err()
        );
        assert!(
            EnsfConfig { variance_smoothing: -0.1, ..Default::default() }.validate().is_err()
        );
        assert!(
            EnsfConfig { variance_smoothing: 1.5, ..Default::default() }.validate().is_err()
        );
        assert!(
            EnsfConfig { variance_smoothing: 1.0, ..Default::default() }.validate().is_ok()
        );
        assert!(EnsfConfig::default().validate().is_ok());
    }
}
