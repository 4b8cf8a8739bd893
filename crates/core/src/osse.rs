//! Observing-system simulation experiment (OSSE) harness.
//!
//! Twin experiments exactly as in §IV-A: a *nature run* of the perfect SQG
//! model provides the truth; synthetic observations are the truth plus
//! Gaussian noise every `obs_interval_hours` (12 h in the paper, `h = I`,
//! `R = σ² I`); the experiment under test forecasts with its own (possibly
//! imperfect, possibly surrogate) model and assimilates with its scheme.

use crate::cycle::{run_cycles_with, Run, SingleProcess};
use crate::model_error::ModelError;
use crate::traits::{Analysis, AnalysisScheme, ForecastModel};
pub use ensf::{MaskKind, ObsOperatorKind, ObsSpec};
use sqg::{SqgModel, SqgParams};
use stats::gaussian::standard_normal;
use stats::rng::seeded;
use stats::Ensemble;

/// OSSE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OsseConfig {
    /// SQG parameters of the nature run (and the DA model's grid).
    pub params: SqgParams,
    /// Number of assimilation cycles.
    pub cycles: usize,
    /// Hours between observations (12 in the paper).
    pub obs_interval_hours: f64,
    /// Observation error standard deviation (in observation units).
    pub obs_sigma: f64,
    /// Observation operator `h` (identity in the paper's baseline).
    pub obs_operator: ObsOperatorKind,
    /// Observing-network mask (full coverage in the paper's baseline).
    /// Non-full masks shrink each cycle's observation vector to the
    /// observed components, in ascending state-index order.
    pub obs_mask: MaskKind,
    /// Ensemble size `M` (20 in the paper).
    pub ens_size: usize,
    /// Initial-condition perturbation std for ensemble generation.
    pub ic_sigma: f64,
    /// Nature-run spin-up steps before cycling starts.
    pub spinup_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for OsseConfig {
    fn default() -> Self {
        OsseConfig {
            params: SqgParams::default(),
            cycles: 50,
            obs_interval_hours: 12.0,
            obs_sigma: 0.01,
            obs_operator: ObsOperatorKind::Identity,
            obs_mask: MaskKind::Full,
            ens_size: 20,
            ic_sigma: 0.02,
            spinup_steps: 500,
            seed: 42,
        }
    }
}

impl OsseConfig {
    /// What this experiment observes, as the one value the nature run, the
    /// analysis schemes, the diagnostics and the guardrails all consume.
    pub fn obs_spec(&self) -> ObsSpec {
        ObsSpec { operator: self.obs_operator, mask: self.obs_mask, sigma: self.obs_sigma }
    }
}

/// Truth states and synthetic observations for every cycle.
#[derive(Debug, Clone)]
pub struct NatureRun {
    /// Truth at each cycle (index 0 = the initial truth before cycling).
    pub truth: Vec<Vec<f64>>,
    /// Observation (truth + noise) at cycles `1..=cycles`.
    pub observations: Vec<Vec<f64>>,
    /// Climatological standard deviation of the truth states (for scaling).
    pub climatology_sd: f64,
}

/// Generates the nature run with the *perfect* SQG model.
pub fn nature_run(config: &OsseConfig) -> NatureRun {
    nature_run_with_error(config, None)
}

/// Generates the nature run, optionally perturbing the *truth* with the
/// stochastic model-error process after every observation interval — the
/// paper's imperfect-model scenario: the real atmosphere is subject to
/// "unexpected errors" the forecast model does not represent, so the DA
/// system's model drifts away from reality between observations.
pub fn nature_run_with_error(
    config: &OsseConfig,
    mut error: Option<ModelError>,
) -> NatureRun {
    let mut model = SqgModel::new(config.params.clone());
    let steps = model.steps_per_hours(config.obs_interval_hours);
    let mut state = model
        .spinup_nature(config.seed, 0.05, config.spinup_steps)
        .to_state_vector();

    let mut rng = seeded(stats::rng::split_seed(config.seed, 0x0B5));
    let spec = config.obs_spec();
    let mut truth = Vec::with_capacity(config.cycles + 1);
    let mut observations = Vec::with_capacity(config.cycles);
    truth.push(state.clone());
    for cycle in 0..config.cycles {
        model.forecast(&mut state, steps);
        if let Some(err) = error.as_mut() {
            err.perturb(&mut state);
        }
        truth.push(state.clone());
        // One normal per *observed* component from the one stream, in
        // ascending state-index order (a full mask draws one per component).
        let obs: Vec<f64> = spec
            .project(&state, cycle as u64)
            .into_iter()
            .map(|hx| hx + spec.sigma * standard_normal(&mut rng))
            .collect();
        observations.push(obs);
    }
    // Climatology: std over all truth states about their global mean.
    let all: Vec<f64> = truth.iter().flatten().copied().collect();
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    let sd =
        (all.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / all.len() as f64).sqrt();
    NatureRun { truth, observations, climatology_sd: sd }
}

/// Builds the initial ensemble: the initial truth plus independent Gaussian
/// perturbations of std `ic_sigma` (a stand-in for the paper's random draws
/// from a long integration, which live on the same attractor).
pub fn initial_ensemble(config: &OsseConfig, truth0: &[f64]) -> Ensemble {
    let mut ens = Ensemble::zeros(config.ens_size, truth0.len());
    for m in 0..config.ens_size {
        let mut rng = stats::rng::member_rng(config.seed ^ 0xE45, m);
        let member = ens.member_mut(m);
        for (x, t) in member.iter_mut().zip(truth0) {
            *x = t + config.ic_sigma * standard_normal(&mut rng);
        }
    }
    ens
}

/// Per-cycle verification series from one experiment.
#[derive(Debug, Clone)]
pub struct CycleSeries {
    /// Experiment label.
    pub label: String,
    /// Simulated time (hours) of each analysis.
    pub hours: Vec<f64>,
    /// Analysis-mean RMSE against the truth.
    pub rmse: Vec<f64>,
    /// Analysis ensemble spread.
    pub spread: Vec<f64>,
    /// Final-cycle analysis mean (Fig. 5 snapshots).
    pub final_mean: Vec<f64>,
}

impl CycleSeries {
    /// Mean RMSE over the last half of the cycles (steady-state skill).
    ///
    /// Degenerate series are handled rather than poisoned: an empty series
    /// returns `0.0` (no cycles, no error) and a single-cycle series
    /// returns that cycle's RMSE.
    pub fn steady_rmse(&self) -> f64 {
        if self.rmse.is_empty() {
            return 0.0;
        }
        let tail = &self.rmse[self.rmse.len() / 2..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Checks that a nature run, configuration, and model agree before cycling,
/// and that the truth and observations the run reads are finite.
pub(crate) fn validate_experiment(
    config: &OsseConfig,
    nature: &NatureRun,
    model: &dyn ForecastModel,
) -> Result<(), crate::OsseError> {
    let Some(truth0) = nature.truth.first() else {
        return Err(crate::OsseError::EmptyNatureRun);
    };
    if model.state_dim() != truth0.len() {
        return Err(crate::OsseError::DimensionMismatch {
            model: model.state_dim(),
            nature: truth0.len(),
        });
    }
    if nature.observations.len() < config.cycles || nature.truth.len() < config.cycles + 1 {
        return Err(crate::OsseError::ObservationShortfall {
            cycles: config.cycles,
            observations: nature.observations.len().min(nature.truth.len().saturating_sub(1)),
        });
    }
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let bad = (0..=config.cycles).find(|&c| {
        !finite(&nature.truth[c]) || (c < config.cycles && !finite(&nature.observations[c]))
    });
    match bad {
        Some(cycle) => Err(crate::OsseError::NonFiniteNature { cycle }),
        None => Ok(()),
    }
}

/// The plain run of `config` on one process with the caller's `scheme` —
/// [`run_cycles_with`] — returning its series. Kept for the benchmark
/// adapter, which names it; everything else describes its filter as an
/// [`Analysis`] and calls [`crate::cycle::run_cycles`].
///
/// # Errors
/// As [`run_cycles_with`].
pub fn run_experiment(
    label: &str,
    config: &OsseConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
) -> Result<CycleSeries, crate::OsseError> {
    // The scheme slot is the caller's, so the run's own analysis is unread.
    let run = Run::new(label, config.clone(), Analysis::None);
    Ok(run_cycles_with(&run, nature, model, scheme, None, &mut SingleProcess, None)?.series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{run_cycles, RunResult};
    use crate::forecast::SqgForecast;

    /// `cfg`'s plain run of `analysis` on one process.
    fn run_plain(
        cfg: &OsseConfig,
        nature: &NatureRun,
        model: &mut dyn ForecastModel,
        analysis: Analysis,
    ) -> Result<RunResult, crate::OsseError> {
        let run = Run::new("plain", cfg.clone(), analysis);
        run_cycles(&run, nature, model, &mut SingleProcess, None)
    }

    fn tiny_config() -> OsseConfig {
        OsseConfig {
            params: SqgParams { n: 16, ..Default::default() },
            cycles: 5,
            obs_sigma: 0.005,
            ens_size: 8,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn nature_run_shapes_and_determinism() {
        let cfg = tiny_config();
        let a = nature_run(&cfg);
        let b = nature_run(&cfg);
        assert_eq!(a.truth.len(), 6);
        assert_eq!(a.observations.len(), 5);
        assert_eq!(a.truth[0].len(), 512);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.observations, b.observations);
        assert!(a.climatology_sd > 0.0);
    }

    #[test]
    fn observations_are_noisy_truth() {
        let cfg = tiny_config();
        let nr = nature_run(&cfg);
        for (obs, truth) in nr.observations.iter().zip(&nr.truth[1..]) {
            let err = stats::metrics::rmse(obs, truth);
            assert!(
                (err - cfg.obs_sigma).abs() < 0.3 * cfg.obs_sigma,
                "obs noise should be ≈{}: {err}",
                cfg.obs_sigma
            );
        }
    }

    #[test]
    fn arctan_operator_observes_saturated_truth() {
        let gain = 40.0;
        let cfg = OsseConfig {
            obs_operator: ObsOperatorKind::Arctan { gain },
            ..tiny_config()
        };
        let nr = nature_run(&cfg);
        for (obs, truth) in nr.observations.iter().zip(&nr.truth[1..]) {
            let h_truth: Vec<f64> = truth.iter().map(|&v| (gain * v).atan()).collect();
            let err = stats::metrics::rmse(obs, &h_truth);
            assert!(
                (err - cfg.obs_sigma).abs() < 0.3 * cfg.obs_sigma,
                "obs noise about h(truth) should be ≈{}: {err}",
                cfg.obs_sigma
            );
            // The saturating operator genuinely moved the observations.
            assert!(stats::metrics::rmse(obs, truth) > 2.0 * cfg.obs_sigma);
        }
        // Identity config stays bitwise what it always was (the golden
        // harness depends on this: the operator is a no-op map).
        let id = nature_run(&tiny_config());
        let id2 = nature_run(&OsseConfig {
            obs_operator: ObsOperatorKind::Identity,
            ..tiny_config()
        });
        assert_eq!(id.observations, id2.observations);
    }

    #[test]
    fn full_mask_nature_run_is_bitwise_unchanged() {
        // The mask plumbing must not perturb the baseline RNG stream.
        let plain = nature_run(&tiny_config());
        let full = nature_run(&OsseConfig { obs_mask: MaskKind::Full, ..tiny_config() });
        assert_eq!(plain.observations, full.observations);
        assert_eq!(plain.truth, full.truth);
    }

    #[test]
    fn block_mask_shrinks_observations_to_observed_components() {
        let mask = MaskKind::Block { start: 128, len: 128 };
        let cfg = OsseConfig { obs_mask: mask, ..tiny_config() };
        let nr = nature_run(&cfg);
        for (cycle, (obs, truth)) in nr.observations.iter().zip(&nr.truth[1..]).enumerate() {
            let idx = mask.observed_indices(truth.len(), cycle as u64);
            assert_eq!(obs.len(), idx.len());
            assert_eq!(obs.len(), 512 - 128);
            let h_truth: Vec<f64> = idx.iter().map(|&i| truth[i]).collect();
            let err = stats::metrics::rmse(obs, &h_truth);
            assert!((err - cfg.obs_sigma).abs() < 0.3 * cfg.obs_sigma, "{err}");
        }
    }

    #[test]
    fn track_mask_moves_with_the_cycle_index() {
        let mask = MaskKind::Track { width: 100, speed: 37 };
        let cfg = OsseConfig { obs_mask: mask, ..tiny_config() };
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut seen: Vec<Vec<usize>> = Vec::new();
        for (cycle, (obs, truth)) in nr.observations.iter().zip(&nr.truth[1..]).enumerate() {
            let idx = mask.observed_indices(dim, cycle as u64);
            assert_eq!(obs.len(), idx.len());
            assert_eq!(obs.len(), 100);
            let h_truth: Vec<f64> = idx.iter().map(|&i| truth[i]).collect();
            assert!(stats::metrics::rmse(obs, &h_truth) < 2.0 * cfg.obs_sigma);
            seen.push(idx);
        }
        assert_ne!(seen[0], seen[1], "the track must move between cycles");
    }

    #[test]
    fn mask_obs_dim_matches_observed_indices() {
        let dim = 512;
        let masks = [
            MaskKind::Full,
            MaskKind::Block { start: 0, len: 64 },
            MaskKind::Block { start: 400, len: 200 }, // clamped at dim
            MaskKind::Strided { stride: 4, phase: 1 },
            MaskKind::Track { width: 77, speed: 13 },
        ];
        for mask in masks {
            for cycle in [0u64, 1, 7, 511, 512] {
                let idx = mask.observed_indices(dim, cycle);
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
            }
        }
    }

    #[test]
    fn initial_ensemble_centered_on_truth() {
        let cfg = tiny_config();
        let nr = nature_run(&cfg);
        let ens = initial_ensemble(&cfg, &nr.truth[0]);
        assert_eq!(ens.members(), 8);
        let err = stats::metrics::rmse(&ens.mean(), &nr.truth[0]);
        assert!(err < cfg.ic_sigma, "mean of perturbations shrinks: {err}");
        assert!((ens.spread() - cfg.ic_sigma).abs() < 0.5 * cfg.ic_sigma);
    }

    #[test]
    fn steady_rmse_handles_degenerate_series() {
        let mut s = CycleSeries {
            label: "empty".to_string(),
            hours: Vec::new(),
            rmse: Vec::new(),
            spread: Vec::new(),
            final_mean: Vec::new(),
        };
        assert_eq!(s.steady_rmse(), 0.0, "empty series must not divide by zero");
        s.rmse = vec![0.25];
        assert_eq!(s.steady_rmse(), 0.25, "single cycle is its own steady state");
        s.rmse = vec![10.0, 2.0, 4.0];
        assert_eq!(s.steady_rmse(), 3.0, "only the last half counts");
    }

    #[test]
    fn dimension_mismatch_is_reported_not_fatal() {
        let cfg = tiny_config();
        let nr = nature_run(&cfg);
        let wrong = SqgParams { n: 8, ..Default::default() };
        let mut model = SqgForecast::perfect(wrong);
        let err = run_plain(&cfg, &nr, &mut model, Analysis::None).unwrap_err();
        assert_eq!(err, crate::OsseError::DimensionMismatch { model: 128, nature: 512 });
    }

    #[test]
    fn non_finite_nature_run_is_refused_at_its_first_bad_cycle() {
        let cfg = tiny_config();
        let clean = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let refused = |nr: &NatureRun, model: &mut SqgForecast| {
            run_plain(&cfg, nr, model, Analysis::None).unwrap_err()
        };
        let mut nr = clean.clone();
        nr.truth[3][7] = f64::NAN;
        nr.observations[4][0] = f64::INFINITY;
        assert_eq!(refused(&nr, &mut model), crate::OsseError::NonFiniteNature { cycle: 3 });
        nr.observations[1][9] = f64::NEG_INFINITY;
        assert_eq!(refused(&nr, &mut model), crate::OsseError::NonFiniteNature { cycle: 1 });
        // The last truth state is read too; entries past `cycles` are not.
        let mut nr = clean.clone();
        nr.truth[cfg.cycles][0] = f64::NAN;
        assert_eq!(
            refused(&nr, &mut model),
            crate::OsseError::NonFiniteNature { cycle: cfg.cycles }
        );
        let mut nr = clean;
        nr.truth.push(vec![f64::NAN; 512]);
        nr.observations.push(vec![f64::NAN; 512]);
        assert!(run_plain(&cfg, &nr, &mut model, Analysis::None).is_ok());
    }

    #[test]
    fn short_nature_run_is_reported() {
        let cfg = tiny_config();
        let mut nr = nature_run(&cfg);
        nr.observations.pop();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let err = run_plain(&cfg, &nr, &mut model, Analysis::None).unwrap_err();
        assert_eq!(err, crate::OsseError::ObservationShortfall { cycles: 5, observations: 4 });

        nr.truth.clear();
        let err = run_plain(&cfg, &nr, &mut model, Analysis::None).unwrap_err();
        assert_eq!(err, crate::OsseError::EmptyNatureRun);
    }

    #[test]
    fn free_run_rmse_grows() {
        let cfg = tiny_config();
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let series = run_plain(&cfg, &nr, &mut model, Analysis::None).unwrap().series;
        assert_eq!(series.rmse.len(), 5);
        // Chaotic growth: the last RMSE exceeds the first.
        assert!(series.rmse[4] > series.rmse[0], "{:?}", series.rmse);
    }

    #[test]
    fn assimilation_beats_free_run() {
        let cfg = OsseConfig { cycles: 8, ..tiny_config() };
        let nr = nature_run(&cfg);

        let mut free_model = SqgForecast::perfect(cfg.params.clone());
        let free_series = run_plain(&cfg, &nr, &mut free_model, Analysis::None).unwrap().series;

        let mut da_model = SqgForecast::perfect(cfg.params.clone());
        let ensf = Analysis::ensf(ensf::EnsfConfig { n_steps: 25, seed: 5, ..Default::default() });
        let da_series = run_plain(&cfg, &nr, &mut da_model, ensf).unwrap().series;

        assert!(
            da_series.steady_rmse() < free_series.steady_rmse(),
            "DA must beat the free run: {} vs {}",
            da_series.steady_rmse(),
            free_series.steady_rmse()
        );
    }

    #[test]
    fn noisy_nature_differs_from_clean() {
        use crate::model_error::{ModelError, ModelErrorConfig};
        let cfg = tiny_config();
        let clean = nature_run(&cfg);
        let noisy = nature_run_with_error(
            &cfg,
            Some(ModelError::new(ModelErrorConfig::default(), 5)),
        );
        // Same initial truth, diverging trajectories.
        assert_eq!(clean.truth[0], noisy.truth[0]);
        let d: f64 = clean
            .truth
            .last()
            .unwrap()
            .iter()
            .zip(noisy.truth.last().unwrap())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-9, "model error must perturb the nature run");
    }

    #[test]
    fn feedback_called_every_cycle() {
        struct Probe {
            dim: usize,
            calls: usize,
        }
        impl crate::traits::ForecastModel for Probe {
            fn state_dim(&self) -> usize {
                self.dim
            }
            fn forecast(&mut self, _state: &mut [f64], _hours: f64) {}
            fn assimilate_feedback(&mut self, _p: &[f64], _c: &[f64]) {
                self.calls += 1;
            }
        }
        let cfg = tiny_config();
        let nr = nature_run(&cfg);
        let mut model = Probe { dim: 512, calls: 0 };
        run_plain(&cfg, &nr, &mut model, Analysis::None).unwrap();
        assert_eq!(model.calls, cfg.cycles);
    }
}
