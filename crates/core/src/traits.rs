//! Framework interfaces: forecast models and analysis schemes.
//!
//! The workflow of Fig. 1 is generic in both slots: the forecast model can
//! be the physics-based SQG, the ViT surrogate, or any AI foundation model;
//! the analysis is EnSF, LETKF, or nothing (free runs), named as plain data
//! by an [`Analysis`] and built into its scheme in one place,
//! [`Analysis::build`].

use crate::inpaint::Completion;
use crate::osse::OsseConfig;
use ensf::{ObsOperatorKind, ObsSpec};
use stats::Ensemble;

/// A forecast model advancing a flat state vector through time.
pub trait ForecastModel {
    /// State dimension.
    fn state_dim(&self) -> usize;

    /// Advances `state` by `hours` of simulated time in place.
    fn forecast(&mut self, state: &mut [f64], hours: f64);

    /// Advances every member of an ensemble (default: member loop).
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        for m in 0..ensemble.members() {
            self.forecast(ensemble.member_mut(m), hours);
        }
    }

    /// Online adaptation hook (Fig. 1): after each analysis the workflow
    /// feeds the analyzed transition back to the model, letting learned
    /// surrogates absorb observational information. Physics models ignore
    /// it (default no-op).
    fn assimilate_feedback(&mut self, _prev_analysis: &[f64], _curr_analysis: &[f64]) {}

    /// Serializes adaptive internal state for checkpointing. Stateless
    /// physics models return `None` (the default): their forecasts are a
    /// pure function of the state vector, so there is nothing to save.
    fn save_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`ForecastModel::save_state`]. Returns
    /// `false` when the blob is unsupported or invalid (default).
    fn load_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

/// An analysis scheme combining a forecast ensemble with one cycle's
/// observations, taken through the experiment's [`ObsSpec`]: its
/// componentwise operator over the observed components of its mask.
pub trait AnalysisScheme {
    /// Human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Produces the analysis ensemble from the forecast ensemble and the
    /// observation vector.
    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble;

    /// `(epoch, seed)` pinning the scheme's internal RNG streams, captured
    /// at checkpoint time. Deterministic/stateless schemes (LETKF, free
    /// runs) return `(0, 0)` (the default).
    fn rng_state(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Puts the scheme at analysis index `epoch` on noise stream `seed`:
    /// a resume replays the uninterrupted run's streams, the cycle loop
    /// aligns every attempt to its cycle, and a retry moves to a fresh
    /// stream (deterministic schemes ignore the seed, so the loop falls
    /// back instead). Default: no-op.
    fn set_rng_state(&mut self, _epoch: u64, _seed: u64) {}

    /// Modelled seconds the next [`AnalysisScheme::analyze`] call would cost,
    /// which [`crate::resilience::decide_rung`] holds against the loop's
    /// budget. `None` (the default) is unpriced: the budget never binds.
    fn modeled_secs(&self) -> Option<f64> {
        None
    }

    /// What the last [`AnalysisScheme::analyze`] call decided besides its
    /// ensemble; the cycle loop drains it after every call. Schemes that
    /// decide nothing (every one in this crate) keep the empty default.
    fn take_report(&mut self) -> AnalysisReport {
        AnalysisReport::default()
    }
}

/// Runtime decisions an analysis took on its own — the sharded analysis
/// shrinks its group around a dead rank — in the terms the cycle loop
/// already keeps for its own guardrails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Recovery events (they degrade the cycle's health state and land in
    /// its record like any guardrail event).
    pub events: Vec<String>,
    /// Reasons for a postmortem, written once the cycle's record is
    /// ([`Run::postmortems`](crate::cycle::Run::postmortems)).
    pub postmortems: Vec<&'static str>,
    /// Set when the analysis failed beyond recovery: the loop stops with
    /// [`crate::OsseError::Unrecoverable`] carrying this reason.
    pub abort: Option<String>,
    /// Set when the group shrank under the call: its ensemble is void, and
    /// the loop decides the cycle's rung again at the new group's prices.
    pub shrunk: bool,
}

/// Which filter a run's analysis is, as plain data. [`Analysis::build`]
/// turns it into the scheme for an experiment's observing network.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// No assimilation: the analysis is the forecast (free runs).
    None,
    /// The EnSF: reverse SDE or probability flow is `config.method`, and
    /// `completion` makes a partial network's vector dense.
    Ensf {
        /// Filter settings.
        config: ensf::EnsfConfig,
        /// How the unobserved components are filled.
        completion: Completion,
    },
    /// The LETKF over the two-level SQG grid.
    Letkf(letkf::LetkfConfig),
}

impl Analysis {
    /// The EnSF with `config`, inpainting a partial network's outage.
    pub fn ensf(config: ensf::EnsfConfig) -> Self {
        Analysis::Ensf { config, completion: Completion::Inpaint }
    }

    /// The scheme that runs this analysis in `osse`'s experiment, observing
    /// through [`OsseConfig::obs_spec`], so it cannot disagree with the
    /// nature run that feeds it.
    pub fn build(&self, osse: &OsseConfig) -> Box<dyn AnalysisScheme> {
        let obs = osse.obs_spec();
        match self {
            Analysis::None => Box::new(NoAssimilation),
            Analysis::Ensf { config, completion } => {
                let dim = osse.params.state_dim();
                Box::new(EnsfScheme::with_obs(config.clone(), dim, obs, *completion))
            }
            Analysis::Letkf(config) => {
                Box::new(LetkfScheme::new(config.clone(), &osse.params, obs))
            }
        }
    }
}

/// The "no assimilation" scheme: analysis = forecast (free run).
#[derive(Debug, Clone, Default)]
pub(crate) struct NoAssimilation;

impl AnalysisScheme for NoAssimilation {
    fn name(&self) -> &str {
        "none"
    }

    fn analyze(&mut self, forecast: &Ensemble, _observation: &[f64]) -> Ensemble {
        forecast.clone()
    }
}

/// The EnSF adapter: one [`ensf::Ensf`] filter behind an [`ObsSpec`].
/// Reverse SDE versus few-step probability-flow ODE is
/// [`ensf::EnsfConfig::method`]; the observation map, network mask and
/// error are the spec; [`Completion`] says how a partial network's vector
/// is made dense before the filter sees it ([`Completion::complete`], the
/// same call the sharded runtime makes).
///
/// The mask's cycle index is the filter's analysis-cycle counter, which
/// the cycle loop sets to the cycle before every attempt through
/// [`AnalysisScheme::set_rng_state`], so a retry analyses the cycle it
/// retries and moving-track masks stay aligned with the OSSE.
pub struct EnsfScheme {
    filter: ensf::Ensf,
    dim: usize,
    obs: ObsSpec,
    completion: Completion,
}

impl EnsfScheme {
    /// The paper's setting: a `dim`-dimensional state fully observed
    /// through `h = I` with error `obs_sigma`.
    pub fn new(config: ensf::EnsfConfig, dim: usize, obs_sigma: f64) -> Self {
        Self::with_obs(config, dim, ObsSpec::identity(obs_sigma), Completion::Inpaint)
    }

    /// Builds the scheme for a `dim`-dimensional state observed as `obs`
    /// says ([`Analysis::build`] passes the experiment's own spec).
    pub(crate) fn with_obs(
        config: ensf::EnsfConfig,
        dim: usize,
        obs: ObsSpec,
        completion: Completion,
    ) -> Self {
        EnsfScheme { filter: ensf::Ensf::new(config), dim, obs, completion }
    }
}

impl AnalysisScheme for EnsfScheme {
    fn name(&self) -> &str {
        let flow = self.filter.config().method == ensf::AnalysisMethod::FlowMatching;
        if self.obs.mask.is_full() {
            match (flow, self.obs.operator) {
                (false, ObsOperatorKind::Identity) => "EnSF",
                (false, ObsOperatorKind::Arctan { .. }) => "EnSF-arctan",
                (true, ObsOperatorKind::Identity) => "FlowEnSF",
                (true, ObsOperatorKind::Arctan { .. }) => "FlowEnSF-arctan",
            }
        } else {
            match (flow, self.completion) {
                (false, Completion::Inpaint) => "EnSF-inpaint",
                (true, Completion::Inpaint) => "FlowEnSF-inpaint",
                (false, Completion::ZeroFill) => "EnSF-ignore",
                (true, Completion::ZeroFill) => "FlowEnSF-ignore",
            }
        }
    }

    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        assert_eq!(forecast.dim(), self.dim, "forecast dimension mismatch");
        let y = self.completion.complete(&self.obs, self.filter.cycle(), forecast, observation);
        self.filter.analyze(forecast, &y, &self.obs.operator())
    }

    fn rng_state(&self) -> (u64, u64) {
        (self.filter.cycle(), self.filter.config().seed)
    }

    fn set_rng_state(&mut self, epoch: u64, seed: u64) {
        self.filter.set_cycle(epoch);
        self.filter.reseed(seed);
    }
}

/// The LETKF adapter over the two-level SQG grid: the filter takes an
/// [`ObsSpec`]'s observed indices and every member's `H(x_m)` (what
/// [`ObsSpec::project`] returns), under any operator, and localization
/// spreads a partial network's information — LETKF's native answer to
/// sensor outages, and the masked baseline the EnSF scenarios are judged
/// against.
/// The analysis-cycle counter that indexes moving masks travels through
/// [`AnalysisScheme::rng_state`]/[`AnalysisScheme::set_rng_state`].
pub(crate) struct LetkfScheme {
    filter: letkf::Letkf,
    obs: ObsSpec,
    cycle: u64,
}

impl LetkfScheme {
    /// The scheme on the `n × n × 2` grid of `params` (Rossby-coupled
    /// vertical localization) for the network `obs` describes.
    fn new(config: letkf::LetkfConfig, params: &sqg::SqgParams, obs: ObsSpec) -> Self {
        let geometry = letkf::GridGeometry::new(
            params.n,
            sqg::LEVELS,
            params.domain,
            params.rossby_radius(),
        );
        LetkfScheme { filter: letkf::Letkf::new(config, geometry), obs, cycle: 0 }
    }
}

impl AnalysisScheme for LetkfScheme {
    fn name(&self) -> &str {
        if self.obs.mask.is_full() {
            "LETKF"
        } else {
            "LETKF-masked"
        }
    }

    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        let observed = self.obs.observed(forecast.dim(), self.cycle);
        self.cycle += 1;
        // Each member's `H(x_m)`: what `ObsSpec::project` gives, gathered
        // over the one mask walk above.
        let h = |x: &[f64]| observed.iter().map(|&i| self.obs.operator.h(x[i])).collect();
        let hx = Ensemble::from_members(&forecast.iter().map(h).collect::<Vec<Vec<f64>>>());
        self.filter.analyze(forecast, &observed, &hx, observation, self.obs.sigma)
    }

    fn rng_state(&self) -> (u64, u64) {
        (self.cycle, 0)
    }

    fn set_rng_state(&mut self, epoch: u64, _seed: u64) {
        self.cycle = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensf::MaskKind;

    struct Doubler;
    impl ForecastModel for Doubler {
        fn state_dim(&self) -> usize {
            3
        }
        fn forecast(&mut self, state: &mut [f64], hours: f64) {
            for v in state.iter_mut() {
                *v *= 2.0f64.powf(hours / 12.0);
            }
        }
    }

    #[test]
    fn default_ensemble_forecast_maps_members() {
        let mut model = Doubler;
        let mut e = Ensemble::from_members(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        model.forecast_ensemble(&mut e, 12.0);
        assert_eq!(e.member(0), &[2.0, 4.0, 6.0]);
        assert_eq!(e.member(1), &[8.0, 10.0, 12.0]);
    }

    #[test]
    fn no_assimilation_is_identity() {
        let mut s = NoAssimilation;
        let e = Ensemble::from_members(&[vec![1.0], vec![2.0]]);
        let a = s.analyze(&e, &[5.0]);
        assert_eq!(a, e);
        assert_eq!(s.name(), "none");
    }

    /// Ensemble whose member `m` is the constant vector `0.1·m + offset`.
    fn ramp_ensemble(members: usize, dim: usize, offset: f64) -> Ensemble {
        let rows: Vec<Vec<f64>> = (0..members).map(|m| vec![0.1 * m as f64 + offset; dim]).collect();
        Ensemble::from_members(&rows)
    }

    /// Ten constant members spread over ±0.9 on the 4 × 4 × 2 grid.
    fn letkf_forecast() -> Ensemble {
        let rows: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        Ensemble::from_members(&rows)
    }

    #[test]
    fn scheme_names_are_the_legacy_report_keys() {
        // Reports, BENCH_*.json rows and supervisor events
        // (`analysis_fallback:LETKF`) key on these strings, and
        // `Analysis::build` names each filter for the experiment's network.
        use ensf::AnalysisMethod::{FlowMatching, ReverseSde};
        const ID: ObsOperatorKind = ObsOperatorKind::Identity;
        const ATAN: ObsOperatorKind = ObsOperatorKind::Arctan { gain: 4.0 };
        const BLOCK: MaskKind = MaskKind::Block { start: 0, len: 4 };
        let ensf_cases = [
            (ReverseSde, ID, MaskKind::Full, Completion::Inpaint, "EnSF"),
            (ReverseSde, ATAN, MaskKind::Full, Completion::Inpaint, "EnSF-arctan"),
            (FlowMatching, ID, MaskKind::Full, Completion::Inpaint, "FlowEnSF"),
            (FlowMatching, ATAN, MaskKind::Full, Completion::Inpaint, "FlowEnSF-arctan"),
            (ReverseSde, ID, BLOCK, Completion::Inpaint, "EnSF-inpaint"),
            (ReverseSde, ATAN, BLOCK, Completion::Inpaint, "EnSF-inpaint"),
            (FlowMatching, ID, BLOCK, Completion::Inpaint, "FlowEnSF-inpaint"),
            (ReverseSde, ID, BLOCK, Completion::ZeroFill, "EnSF-ignore"),
        ];
        // The two-level 2 × 2 grid: 8 components.
        let params = sqg::SqgParams { n: 2, ..Default::default() };
        let osse = |obs_operator, obs_mask| OsseConfig {
            params: params.clone(),
            obs_operator,
            obs_mask,
            ..Default::default()
        };
        let name = |analysis: Analysis, operator, mask| {
            analysis.build(&osse(operator, mask)).name().to_string()
        };
        for (method, operator, mask, completion, want) in ensf_cases {
            let config = ensf::EnsfConfig { method, ..Default::default() };
            let analysis = Analysis::Ensf { config, completion };
            assert_eq!(name(analysis, operator, mask), want, "{method:?} {operator:?} {mask:?}");
        }
        assert_eq!(EnsfScheme::new(ensf::EnsfConfig::default(), 8, 0.1).name(), "EnSF");
        assert_eq!(name(Analysis::None, ID, MaskKind::Full), "none");
        let letkf = || Analysis::Letkf(letkf::LetkfConfig::default());
        assert_eq!(name(letkf(), ID, MaskKind::Full), "LETKF");
        assert_eq!(name(letkf(), ATAN, BLOCK), "LETKF-masked");
    }

    #[test]
    fn arctan_letkf_lowers_the_forecast_error() {
        use crate::osse::{initial_ensemble, nature_run, OsseConfig};
        let config = OsseConfig {
            params: sqg::SqgParams { n: 16, ..Default::default() },
            obs_operator: ObsOperatorKind::Arctan { gain: 4.0 },
            cycles: 3,
            obs_sigma: 0.005,
            ens_size: 8,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        };
        let nature = nature_run(&config);
        let mut model = crate::SqgForecast::perfect(config.params.clone());
        let mut scheme =
            LetkfScheme::new(letkf::LetkfConfig::default(), &config.params, config.obs_spec());
        assert_eq!(scheme.name(), "LETKF");
        let mut ensemble = initial_ensemble(&config, &nature.truth[0]);
        for cycle in 0..config.cycles {
            model.forecast_ensemble(&mut ensemble, config.obs_interval_hours);
            let truth = &nature.truth[cycle + 1];
            let before = stats::metrics::rmse(&ensemble.mean(), truth);
            ensemble = scheme.analyze(&ensemble, &nature.observations[cycle]);
            let after = stats::metrics::rmse(&ensemble.mean(), truth);
            assert!(after < before, "cycle {cycle}: {before} -> {after}");
        }
    }

    #[test]
    fn arctan_scheme_pulls_toward_obs_space_target() {
        let dim = 8;
        let gain = 4.0;
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 20, seed: 7, ..Default::default() },
            dim,
            ObsSpec { operator: ObsOperatorKind::Arctan { gain }, ..ObsSpec::identity(0.05) },
            Completion::Inpaint,
        );
        // Ensemble scattered around 0; truth at 0.8, observed through
        // arctan(gain·x). The analysis mean must move toward the truth.
        let fc = ramp_ensemble(12, dim, -0.55);
        let truth = 0.8;
        let y = vec![(gain * truth).atan(); dim];
        let an = scheme.analyze(&fc, &y);
        let before = (fc.mean()[0] - truth).abs();
        let after = (an.mean()[0] - truth).abs();
        assert!(after < before, "arctan EnSF must pull toward truth: {before} -> {after}");
    }

    #[test]
    fn ensf_scheme_assimilates() {
        let mut scheme = EnsfScheme::new(
            ensf::EnsfConfig { n_steps: 20, seed: 1, ..Default::default() },
            4,
            0.5,
        );
        let fc = ramp_ensemble(12, 4, -0.55);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        let before = fc.mean()[0];
        let after = an.mean()[0];
        assert!((after - 1.0).abs() < (before - 1.0).abs(), "EnSF must pull toward obs");
    }

    #[test]
    fn letkf_stride_thins_network() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let config = letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() };
        let mut dense = LetkfScheme::new(config.clone(), &params, ObsSpec::identity(0.3));
        let every_fourth = MaskKind::Strided { stride: 4, phase: 0 };
        let sparse_obs = ObsSpec { mask: every_fourth, ..ObsSpec::identity(0.3) };
        let mut sparse = LetkfScheme::new(config, &params, sparse_obs);
        let fc = letkf_forecast();
        let ad = dense.analyze(&fc, &[1.0; 32]);
        let asp = sparse.analyze(&fc, &[1.0; 8]);
        let pull = |e: &Ensemble, i: usize| (e.mean()[i] - fc.mean()[i]).abs();
        // Component 1 is unobserved by the sparse network (and, with the
        // default 2000 km cutoff on this coarse 5000 km-spacing grid, out of
        // range of every sparse observation): only the dense network
        // updates it.
        assert!(pull(&ad, 1) > 1e-6, "dense must update component 1");
        assert!(pull(&asp, 1) < 1e-12, "sparse must leave component 1 alone");
        // The observed component moves under both.
        assert!(pull(&asp, 0) > 1e-6);
        assert!(pull(&ad, 0) > 1e-6);
    }

    #[test]
    fn masked_ensf_scheme_accepts_shrunk_observation_vector() {
        let dim = 8;
        let mask = MaskKind::Block { start: 2, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 10, seed: 3, ..Default::default() },
            dim,
            ObsSpec { mask, ..ObsSpec::identity(0.5) },
            Completion::Inpaint,
        );
        let fc = ramp_ensemble(10, dim, 0.0);
        // Only 4 of 8 components observed.
        let an = scheme.analyze(&fc, &[1.0; 4]);
        assert_eq!(an.dim(), dim);
        assert!(an.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mask_ignoring_baseline_assimilates_dead_sensor_zeros() {
        let dim = 8;
        let mask = MaskKind::Block { start: 4, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 15, seed: 4, ..Default::default() },
            dim,
            ObsSpec { mask, ..ObsSpec::identity(0.05) },
            Completion::ZeroFill,
        );
        // Forecast mean sits at 0.55; real obs say 1.0, dead sensors say 0.
        let fc = ramp_ensemble(12, dim, 0.0);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        // Observed half pulls toward 1.0; the outage is dragged toward the
        // flat-lined zeros instead of staying with the forecast.
        assert!((an.mean()[0] - 1.0).abs() < (fc.mean()[0] - 1.0).abs());
        // The test ensemble is perfectly cross-correlated, so the joint
        // prior tempers the conflict between the two halves; the zeros
        // still drag the outage below the forecast mean while the real
        // obs sit far above it.
        assert!(
            an.mean()[6] < fc.mean()[6] - 0.05,
            "dragged toward zero: {} vs forecast {}",
            an.mean()[6],
            fc.mean()[6]
        );
    }

    #[test]
    fn inpainting_scheme_fills_the_outage_from_the_surrounding_network() {
        // dim = 8 is a two-level 2x2 grid; blind the whole bottom level.
        // Every unknown pixel's vertical partner is observed, so the
        // harmonic fill reconstructs the (constant) innovation and the
        // analysis pulls the outage toward the observed value, not zero.
        let dim = 8;
        let mask = MaskKind::Block { start: 0, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 15, seed: 4, ..Default::default() },
            dim,
            ObsSpec { mask, ..ObsSpec::identity(0.05) },
            Completion::Inpaint,
        );
        let fc = ramp_ensemble(12, dim, 0.0);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        // The unobserved bottom level lands near the inpainted 1.0, far
        // from both zero and the 0.55 forecast mean.
        assert!((an.mean()[1] - 1.0).abs() < 0.15, "inpainted pull: {}", an.mean()[1]);
    }

    #[test]
    fn masked_letkf_updates_only_near_observed_components() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let mask = MaskKind::Block { start: 1, len: 30 };
        let mut scheme = LetkfScheme::new(
            letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() },
            &params,
            ObsSpec { mask, ..ObsSpec::identity(0.3) },
        );
        let fc = letkf_forecast();
        // Observed indices are {0, 31}; y carries exactly those two slots.
        let an = scheme.analyze(&fc, &[1.0, 1.0]);
        let pull = |e: &Ensemble, i: usize| (e.mean()[i] - fc.mean()[i]).abs();
        assert!(pull(&an, 0) > 1e-6, "observed component must move");
        // Component 16 is state 0's vertically colocated partner — inside
        // the outage but within Rossby-coupled localization range, so the
        // partial network still updates it.
        assert!(pull(&an, 16) > 1e-9, "vertical partner of an observed point moves");
        // Component 10 (level 0, row 2, col 2) is >7000 km from both
        // observations on this coarse 5000 km-spacing grid — far outside
        // the 2000 km cutoff — and its vertical partner is unobserved too.
        assert!(pull(&an, 10) < 1e-12, "unobserved far component must not move");
        assert_eq!(scheme.rng_state().0, 1, "cycle counter advances");
    }

    #[test]
    fn letkf_scheme_assimilates() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let mut scheme = LetkfScheme::new(
            letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() },
            &params,
            ObsSpec::identity(0.3),
        );
        let fc = letkf_forecast();
        let an = scheme.analyze(&fc, &[1.0; 32]);
        let before = fc.mean()[0];
        let after = an.mean()[0];
        assert!((after - 1.0).abs() < (before - 1.0).abs(), "LETKF must pull toward obs");
    }
}
