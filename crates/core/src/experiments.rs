//! The paper's four experiment architectures (Fig. 4 / Fig. 5):
//!
//! 1. **SQG only** — free run of the (imperfect) physics model.
//! 2. **ViT only** — free run of the offline-trained surrogate.
//! 3. **SQG + LETKF** — the SOTA baseline assimilating into the physics.
//! 4. **ViT + EnSF** — the proposed framework: score-filter analyses of
//!    surrogate forecasts, with online surrogate fine-tuning.

use crate::cycle::{run_cycles, Run, SingleProcess};
use crate::forecast::SqgForecast;
use crate::model_error::{ModelError, ModelErrorConfig};
use crate::osse::{nature_run_with_error, CycleSeries, NatureRun, OsseConfig};
use crate::surrogate::VitSurrogate;
use crate::traits::{Analysis, ForecastModel};
use vit::VitConfig;

/// Knobs of the four-way comparison.
#[derive(Debug, Clone)]
pub struct ComparisonConfig {
    /// Shared OSSE setup (grid, cycles, obs interval/σ, ensemble size).
    pub osse: OsseConfig,
    /// Stochastic model error applied to the *nature run* (the paper's
    /// imperfect-model scenario: reality deviates from every forecast
    /// model by unexpected errors). `None` runs the perfect-model twin.
    pub model_error: Option<ModelErrorConfig>,
    /// ViT surrogate architecture.
    pub vit: VitConfig,
    /// Offline pre-training pairs and epochs.
    pub pretrain_pairs: usize,
    /// Offline pre-training epochs.
    pub pretrain_epochs: usize,
    /// Online fine-tuning gradient steps per cycle (0 disables).
    pub online_steps: usize,
    /// LETKF tuning: Gaspari–Cohn cutoff [m] (paper-tuned: 2000 km).
    pub letkf_cutoff: f64,
    /// LETKF tuning: RTPS factor (paper-tuned: 0.3).
    pub letkf_rtps: f64,
    /// EnSF reverse-SDE steps.
    pub ensf_steps: usize,
}

impl ComparisonConfig {
    /// A configuration sized for tests and examples (16² grid, small ViT).
    pub fn small(cycles: usize) -> Self {
        // Ekman friction provides the large-scale energy sink that keeps the
        // stochastically forced (imperfect-model) climate statistically
        // steady over long cycling.
        let params = sqg::SqgParams { n: 16, ekman: 0.05, ..Default::default() };
        ComparisonConfig {
            osse: OsseConfig {
                params,
                cycles,
                obs_sigma: 0.005,
                ens_size: 10,
                ic_sigma: 0.01,
                spinup_steps: 60,
                seed: 11,
                ..Default::default()
            },
            model_error: Some(ModelErrorConfig::default()),
            vit: VitConfig::small(16),
            pretrain_pairs: 40,
            pretrain_epochs: 25,
            online_steps: 1,
            letkf_cutoff: 2.0e6,
            letkf_rtps: 0.3,
            ensf_steps: 30,
        }
    }

    /// The paper-scale configuration: 64 × 64 × 2 grid, 20 members,
    /// observations every 12 h.
    pub fn paper(cycles: usize) -> Self {
        let params = sqg::SqgParams { ekman: 0.05, ..Default::default() };
        ComparisonConfig {
            osse: OsseConfig {
                params,
                cycles,
                obs_sigma: 0.005,
                ens_size: 20,
                ic_sigma: 0.01,
                spinup_steps: 2000,
                seed: 2024,
                ..Default::default()
            },
            model_error: Some(ModelErrorConfig::default()),
            vit: VitConfig::small(64),
            pretrain_pairs: 200,
            pretrain_epochs: 40,
            online_steps: 2,
            letkf_cutoff: 2.0e6,
            letkf_rtps: 0.3,
            ensf_steps: 30,
        }
    }

    fn model_error_instance(&self, stream: u64) -> Option<ModelError> {
        self.model_error
            .clone()
            .map(|c| ModelError::new(c, stats::rng::split_seed(self.osse.seed, stream)))
    }
}

/// Result bundle of the four-way comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The shared nature run.
    pub nature: NatureRun,
    /// Series in paper order: SQG-only, ViT-only, SQG+LETKF, ViT+EnSF.
    pub series: Vec<CycleSeries>,
}

impl Comparison {
    /// Looks a series up by label.
    pub fn get(&self, label: &str) -> Option<&CycleSeries> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Pre-trains a surrogate for the comparison (offline phase of Fig. 1).
pub fn pretrain_surrogate(config: &ComparisonConfig) -> VitSurrogate {
    let pairs = VitSurrogate::generate_training_data(
        &config.osse.params,
        config.osse.obs_interval_hours,
        config.pretrain_pairs,
        config.osse.spinup_steps,
        stats::rng::split_seed(config.osse.seed, 0x71A1),
    );
    let mut surrogate =
        VitSurrogate::new(config.vit.clone(), config.osse.obs_interval_hours, 3e-3, config.osse.seed ^ 0x517);
    surrogate.pretrain(&pairs, config.pretrain_epochs);
    surrogate
}

/// Runs all four architectures against one shared nature run.
///
/// `surrogate` is consumed (its weights continue to adapt online inside the
/// ViT+EnSF run); pre-train it with [`pretrain_surrogate`].
///
/// INVARIANT: each run below uses a model and an analysis built for the
/// same `config.osse`, so the shape checks the loop performs cannot fail —
/// the `.expect` documents that consistency, not a real error path.
pub fn run_comparison(config: &ComparisonConfig, mut surrogate: VitSurrogate) -> Comparison {
    let nature = nature_run_with_error(&config.osse, config.model_error_instance(0xA7));
    let plain = |label: &str, model: &mut dyn ForecastModel, analysis: Analysis| {
        let run = Run::new(label, config.osse.clone(), analysis);
        run_cycles(&run, &nature, model, &mut SingleProcess, None)
            .expect("comparison experiments are consistent by construction")
            .series
    };
    let sqg = || SqgForecast::perfect(config.osse.params.clone());
    let letkf =
        letkf::LetkfConfig { cutoff: config.letkf_cutoff, rtps_alpha: config.letkf_rtps };
    let ensf = ensf::EnsfConfig {
        n_steps: config.ensf_steps,
        seed: config.osse.seed ^ 0xE5F,
        ..Default::default()
    };

    // 1. SQG only: the (now imperfect relative to reality) physics model
    //    free-running from the same initial condition.
    let sqg_only = plain("SQG only", &mut sqg(), Analysis::None);
    // 2. ViT only (offline surrogate, no DA, no online learning). Runs
    //    before the online-adapting run so both start from the same
    //    pre-trained weights.
    surrogate.online_steps = 0;
    let vit_only = plain("ViT only", &mut surrogate, Analysis::None);
    // 3. SQG + LETKF (SOTA baseline, paper-tuned inflation/localization).
    let sqg_letkf = plain("SQG+LETKF", &mut sqg(), Analysis::Letkf(letkf));
    // 4. ViT + EnSF with online surrogate fine-tuning (the proposal).
    surrogate.online_steps = config.online_steps;
    let vit_ensf = plain("ViT+EnSF", &mut surrogate, Analysis::ensf(ensf));

    Comparison { nature, series: vec![sqg_only, vit_only, sqg_letkf, vit_ensf] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_series_in_paper_order() {
        let config = ComparisonConfig::small(4);
        let surrogate = pretrain_surrogate(&config);
        let cmp = run_comparison(&config, surrogate);
        let labels: Vec<&str> = cmp.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["SQG only", "ViT only", "SQG+LETKF", "ViT+EnSF"]);
        for s in &cmp.series {
            assert_eq!(s.rmse.len(), 4);
            assert!(s.rmse.iter().all(|v| v.is_finite()));
        }
        assert!(cmp.get("ViT+EnSF").is_some());
        assert!(cmp.get("nonsense").is_none());
    }

    #[test]
    fn da_architectures_beat_free_runs() {
        let config = ComparisonConfig::small(8);
        let surrogate = pretrain_surrogate(&config);
        let cmp = run_comparison(&config, surrogate);
        let sqg_free = cmp.get("SQG only").unwrap().steady_rmse();
        let letkf = cmp.get("SQG+LETKF").unwrap().steady_rmse();
        let ensf = cmp.get("ViT+EnSF").unwrap().steady_rmse();
        assert!(letkf < sqg_free, "LETKF {letkf} must beat free SQG {sqg_free}");
        assert!(ensf < sqg_free, "EnSF {ensf} must beat free SQG {sqg_free}");
    }
}
