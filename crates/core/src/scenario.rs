//! Partial-observation scenario library.
//!
//! A [`ScenarioSpec`] names one observing-network configuration — a mask
//! from [`MaskKind`] composed with an [`ObsOperatorKind`] — and
//! [`run_scenario`] runs a full OSSE under it with any of the comparison
//! methods (inpainting EnSF over the reverse SDE or the probability-flow
//! ODE, the mask-ignoring dense-EnSF baseline, or masked LETKF), returning
//! the observed/unobserved RMSE split and the analysis latency. One call
//! per (scenario, method) pair is all a comparison study needs; the
//! `scenario_suite` bench bin drives the full matrix into
//! `BENCH_scenarios.json`.

use crate::cycle::{run_cycles, ProcessGroup, Run};
use crate::forecast::SqgForecast;
use crate::inpaint::Completion;
use crate::osse::{nature_run, MaskKind, NatureRun, ObsOperatorKind, OsseConfig};
use crate::traits::{AnalysisScheme, EnsfScheme, LetkfScheme};

/// One named observing-network scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (stable across runs; used as the JSON key).
    pub name: &'static str,
    /// Which components the network observes.
    pub mask: MaskKind,
    /// The componentwise observation map.
    pub operator: ObsOperatorKind,
}

/// The analysis methods a scenario can be run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioMethod {
    /// Inpainting EnSF over the stochastic reverse SDE: real observations
    /// on observed components, harmonically inpainted innovation
    /// pseudo-observations across the outage.
    InpaintEnsf,
    /// Inpainting EnSF over the deterministic few-step probability-flow
    /// ODE.
    InpaintFlow,
    /// Mask-ignoring dense EnSF: dead sensors flat-line at zero and those
    /// zeros are assimilated as real measurements (the baseline inpainting
    /// must beat on unobserved regions).
    MaskIgnoringEnsf,
    /// Masked LETKF: localization spreads the partial network's
    /// information, under any observation operator.
    MaskedLetkf,
}

impl ScenarioMethod {
    /// Stable method label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioMethod::InpaintEnsf => "ensf_inpaint",
            ScenarioMethod::InpaintFlow => "flow_inpaint",
            ScenarioMethod::MaskIgnoringEnsf => "ensf_ignore",
            ScenarioMethod::MaskedLetkf => "letkf_masked",
        }
    }
}

/// Result of one (scenario, method) OSSE run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// Method label.
    pub method: &'static str,
    /// Steady-state RMSE over the *observed* components (mean of the last
    /// half of the cycles).
    pub rmse_observed: f64,
    /// Steady-state RMSE over the *unobserved* components (`0.0` when the
    /// mask observes everything).
    pub rmse_unobserved: f64,
    /// Steady-state full-state RMSE.
    pub rmse_total: f64,
    /// Total analysis wall time across all cycles (seconds).
    pub analysis_secs: f64,
    /// Number of assimilation cycles run.
    pub cycles: usize,
}

/// The standard scenario registry for a `dim`-dimensional state: the four
/// partial-observation configurations the issue's Fig.-3-style study
/// compares. The 25 % contiguous block outage is the headline scenario the
/// bench gate floors on.
pub fn standard_scenarios(dim: usize) -> Vec<ScenarioSpec> {
    let block = MaskKind::Block { start: 3 * dim / 8, len: dim / 4 };
    vec![
        ScenarioSpec { name: "block25", mask: block, operator: ObsOperatorKind::Identity },
        ScenarioSpec {
            name: "strided2",
            mask: MaskKind::Strided { stride: 2, phase: 0 },
            operator: ObsOperatorKind::Identity,
        },
        ScenarioSpec {
            name: "track",
            mask: MaskKind::Track { width: dim / 2, speed: dim / 13 + 1 },
            operator: ObsOperatorKind::Identity,
        },
        // Gain 4.0, not the deep-saturation 40.0 of the golden harness: at
        // gain 40 even the *dense* arctan filter leaves the attractor on
        // this reduced OSSE shape (every component saturates against
        // σ = 0.005), which would tell us nothing about masking. Gain 4
        // keeps the operator saturating yet informative, so the scenario
        // isolates the outage: inpainting stays on the attractor while the
        // mask-ignoring baseline diverges to non-finite RMSE.
        ScenarioSpec {
            name: "arctan_block25",
            mask: block,
            operator: ObsOperatorKind::Arctan { gain: 4.0 },
        },
    ]
}

/// RMSE of `mean − truth` split into the observed and unobserved index
/// sets (either RMSE is `0.0` when its set is empty).
fn split_rmse(mean: &[f64], truth: &[f64], observed: &[usize]) -> (f64, f64) {
    let mut in_mask = vec![false; mean.len()];
    for &i in observed {
        in_mask[i] = true;
    }
    let (mut so, mut no, mut su, mut nu) = (0.0, 0usize, 0.0, 0usize);
    for i in 0..mean.len() {
        let d = mean[i] - truth[i];
        if in_mask[i] {
            so += d * d;
            no += 1;
        } else {
            su += d * d;
            nu += 1;
        }
    }
    let rmse = |s: f64, n: usize| if n == 0 { 0.0 } else { (s / n as f64).sqrt() };
    (rmse(so, no), rmse(su, nu))
}

/// One process that reads every completed cycle's observed/unobserved
/// RMSE split and analysis wall seconds.
struct SplitReader<'a> {
    mask: MaskKind,
    nature: &'a NatureRun,
    per_cycle: Vec<(f64, f64)>,
    analysis_secs: f64,
}

impl ProcessGroup for SplitReader<'_> {
    fn completed(&mut self, cycle: usize, mean: &[f64], analysis_secs: f64) {
        self.analysis_secs += analysis_secs;
        let observed = self.mask.observed_indices(mean.len(), cycle as u64);
        self.per_cycle.push(split_rmse(mean, &self.nature.truth[cycle + 1], &observed));
    }
}

/// Runs one scenario with one method over a fresh nature run, returning
/// the steady-state observed/unobserved RMSE split and the cumulative
/// analysis latency. `base` supplies the grid, cycle count, noise levels
/// and seed; its `obs_operator`/`obs_mask` are overridden by the spec.
pub fn run_scenario(
    base: &OsseConfig,
    spec: &ScenarioSpec,
    method: ScenarioMethod,
    ensf_config: &ensf::EnsfConfig,
) -> ScenarioResult {
    let config = OsseConfig {
        obs_operator: spec.operator,
        obs_mask: spec.mask,
        ..base.clone()
    };
    let nature = nature_run(&config);
    let dim = nature.truth[0].len();

    let ensf_scheme = |method, completion| {
        let ensf_config = ensf::EnsfConfig { method, ..ensf_config.clone() };
        EnsfScheme::with_obs(ensf_config, dim, config.obs_spec(), completion)
    };
    let mut scheme: Box<dyn AnalysisScheme> = match method {
        ScenarioMethod::InpaintEnsf => {
            Box::new(ensf_scheme(ensf::AnalysisMethod::ReverseSde, Completion::Inpaint))
        }
        ScenarioMethod::InpaintFlow => {
            Box::new(ensf_scheme(ensf::AnalysisMethod::FlowMatching, Completion::Inpaint))
        }
        ScenarioMethod::MaskIgnoringEnsf => {
            Box::new(ensf_scheme(ensf::AnalysisMethod::ReverseSde, Completion::ZeroFill))
        }
        ScenarioMethod::MaskedLetkf => Box::new(LetkfScheme::with_obs(
            letkf::LetkfConfig::default(),
            &config.params,
            config.obs_spec(),
        )),
    };

    // The plain run, read cycle by cycle for the observed/unobserved split
    // and the analysis wall time.
    let mut model = SqgForecast::perfect(config.params.clone());
    let mut reader = SplitReader {
        mask: spec.mask,
        nature: &nature,
        per_cycle: Vec::with_capacity(config.cycles),
        analysis_secs: 0.0,
    };
    let run = Run::new(spec.name, config.clone());
    let series = run_cycles(&run, &nature, &mut model, scheme.as_mut(), None, &mut reader, None)
        // INVARIANT: the nature run, the model and the scheme are all built
        // from `config`, so their shapes agree and the loop cannot refuse them.
        .expect("the scenario's own nature run fits its configuration")
        .series;

    // Steady state: mean over the last half of the cycles (the convention
    // of `CycleSeries::steady_rmse`).
    let tail = &reader.per_cycle[reader.per_cycle.len() / 2..];
    let n = tail.len().max(1) as f64;
    ScenarioResult {
        scenario: spec.name,
        method: method.label(),
        rmse_observed: tail.iter().map(|r| r.0).sum::<f64>() / n,
        rmse_unobserved: tail.iter().map(|r| r.1).sum::<f64>() / n,
        rmse_total: series.steady_rmse(),
        analysis_secs: reader.analysis_secs,
        cycles: config.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqg::SqgParams;

    fn tiny_base(cycles: usize) -> OsseConfig {
        OsseConfig {
            params: SqgParams { n: 16, ..Default::default() },
            cycles,
            obs_sigma: 0.005,
            ens_size: 8,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn registry_covers_the_issue_scenarios() {
        let scenarios = standard_scenarios(512);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["block25", "strided2", "track", "arctan_block25"]);
        // The headline block outage hides exactly a quarter of the state.
        let block = &scenarios[0];
        assert_eq!(block.mask.obs_dim(512, 0), 384);
        // Composed scenario: arctan base through the same outage (gain 4 —
        // saturating but informative, see the registry comment).
        assert_eq!(scenarios[3].operator, ObsOperatorKind::Arctan { gain: 4.0 });
        assert_eq!(scenarios[3].mask, block.mask);
    }

    #[test]
    fn split_rmse_partitions_the_error() {
        let mean = [1.0, 2.0, 3.0, 4.0];
        let truth = [0.0, 2.0, 3.0, 2.0];
        let (ro, ru) = split_rmse(&mean, &truth, &[0, 1]);
        assert!((ro - (0.5f64).sqrt()).abs() < 1e-15);
        assert!((ru - (2.0f64).sqrt()).abs() < 1e-15);
        let (all, none) = split_rmse(&mean, &truth, &[0, 1, 2, 3]);
        assert!((all - stats::metrics::rmse(&mean, &truth)).abs() < 1e-15);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn scenario_run_is_deterministic_and_finite() {
        let base = tiny_base(3);
        let spec = ScenarioSpec {
            name: "block25",
            mask: MaskKind::Block { start: 192, len: 128 },
            operator: ObsOperatorKind::Identity,
        };
        let ec = ensf::EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
        let a = run_scenario(&base, &spec, ScenarioMethod::InpaintEnsf, &ec);
        let b = run_scenario(&base, &spec, ScenarioMethod::InpaintEnsf, &ec);
        assert_eq!(a.rmse_observed.to_bits(), b.rmse_observed.to_bits());
        assert_eq!(a.rmse_unobserved.to_bits(), b.rmse_unobserved.to_bits());
        assert!(a.rmse_observed.is_finite() && a.rmse_observed > 0.0);
        assert!(a.rmse_unobserved.is_finite() && a.rmse_unobserved > 0.0);
        assert!(a.analysis_secs > 0.0);
        assert_eq!(a.method, "ensf_inpaint");
        assert_eq!(a.cycles, 3);
    }

    #[test]
    fn inpainting_beats_mask_ignoring_on_unobserved_block() {
        // The acceptance comparison at reduced size: on a 25 % contiguous
        // block outage the inpainting guidance must reconstruct the
        // unobserved region at least 20 % better than the mask-ignoring
        // dense baseline (the bench gate enforces the same floor on the
        // committed BENCH_scenarios.json numbers).
        let base = tiny_base(8);
        let spec = ScenarioSpec {
            name: "block25",
            mask: MaskKind::Block { start: 192, len: 128 },
            operator: ObsOperatorKind::Identity,
        };
        let ec = ensf::EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
        let inpaint = run_scenario(&base, &spec, ScenarioMethod::InpaintEnsf, &ec);
        let ignore = run_scenario(&base, &spec, ScenarioMethod::MaskIgnoringEnsf, &ec);
        assert!(
            ignore.rmse_unobserved > 1.25 * inpaint.rmse_unobserved,
            "inpainting {} must beat mask-ignoring {} by >=20% on the outage region",
            inpaint.rmse_unobserved,
            ignore.rmse_unobserved
        );
    }
}
