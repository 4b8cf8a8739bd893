//! Wiring between the pure statistics in [`stats::diagnostics`] and the
//! [`telemetry::DaDiagnostics`] payload attached to cycle records.
//!
//! The diagnostics split across the analysis step: the O−F innovation
//! moments, chi-squared consistency, and rank histogram are functions of
//! the **forecast** ensemble (capture them with [`forecast_stats`] before
//! calling the analysis scheme), while the O−A residual moments and the
//! spread–skill ratio are functions of the **analysis** ensemble
//! ([`complete`]). Both compare in the observation space of the run's
//! [`ObsSpec`]. Callers pass the truth-based RMSE they already compute as
//! the skill denominator, so no extra passes over the state are needed.

use ensf::{ObsOperatorKind, ObsSpec};
use stats::diagnostics as sd;
use stats::Ensemble;
use std::borrow::Cow;
use telemetry::DaDiagnostics;

/// Observation-space statistics of the forecast ensemble, captured before
/// the analysis update overwrites it.
#[derive(Debug, Clone)]
pub struct ForecastObsStats {
    /// Mean of the O−F innovation.
    pub of_mean: f64,
    /// Variance of the O−F innovation.
    pub of_var: f64,
    /// Chi-squared innovation consistency per degree of freedom.
    pub chi2: f64,
    /// Rank histogram of the observations against the forecast ensemble.
    pub rank_hist: Vec<u64>,
}

/// Projects an ensemble into `obs`'s observation space at `cycle`: each
/// member mapped through `h` at the observed components, so the statistics
/// compare like with like against the (possibly shrunk) observation
/// vector. The paper's `h = I`, full-network setting borrows the ensemble
/// as is.
fn project_ensemble<'a>(ens: &'a Ensemble, obs: &ObsSpec, cycle: u64) -> Cow<'a, Ensemble> {
    if obs.operator == ObsOperatorKind::Identity && obs.mask.is_full() {
        return Cow::Borrowed(ens);
    }
    let mut out = Ensemble::zeros(ens.members(), obs.obs_len(ens.dim(), cycle));
    for m in 0..ens.members() {
        out.member_mut(m).copy_from_slice(&obs.project(ens.member(m), cycle));
    }
    Cow::Owned(out)
}

/// Computes the forecast half of the per-cycle diagnostics: innovation
/// moments, chi-squared consistency, and the rank histogram (subsampled
/// via [`sd::rank_histogram_stride`] so cost stays bounded at any state
/// dimension), all in `obs`'s observation space at `cycle`.
///
/// # Panics
/// Panics if `y` does not match the observation length or `obs.sigma` is
/// not positive.
pub fn forecast_stats(forecast: &Ensemble, y: &[f64], obs: &ObsSpec, cycle: u64) -> ForecastObsStats {
    let forecast = project_ensemble(forecast, obs, cycle);
    let (of_mean, of_var) = sd::residual_moments(&forecast.mean(), y);
    ForecastObsStats {
        of_mean,
        of_var,
        chi2: sd::chi_squared(&forecast, y, obs.sigma),
        rank_hist: sd::rank_histogram(&forecast, y, sd::rank_histogram_stride(y.len())),
    }
}

/// Completes the per-cycle diagnostics after the analysis update: O−A
/// residual moments from the analysis ensemble (in observation space) plus
/// the spread–skill ratio, which stays in state space — the full analysis
/// spread over `skill_rmse`, the truth-based analysis RMSE the harness
/// already computed.
///
/// # Panics
/// Panics if `y` does not match the observation length.
pub fn complete(
    pre: &ForecastObsStats,
    analysis: &Ensemble,
    y: &[f64],
    skill_rmse: f64,
    obs: &ObsSpec,
    cycle: u64,
) -> DaDiagnostics {
    let mean = project_ensemble(analysis, obs, cycle).mean();
    let (oa_mean, oa_var) = sd::residual_moments(&mean, y);
    DaDiagnostics {
        of_mean: pre.of_mean,
        of_var: pre.of_var,
        oa_mean,
        oa_var,
        chi2: pre.chi2,
        spread_skill: sd::spread_skill(analysis.spread(), skill_rmse),
        rank_hist: pre.rank_hist.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensf::MaskKind;

    fn three_member() -> Ensemble {
        Ensemble::from_members(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]])
    }

    #[test]
    fn forecast_stats_match_underlying_functions() {
        let ens = three_member();
        let y = [2.5, 1.5];
        let s = forecast_stats(&ens, &y, &ObsSpec::identity(0.5), 0);
        // Forecast mean is [2, 2]: residuals are [0.5, -0.5].
        assert!(s.of_mean.abs() < 1e-15);
        assert!((s.of_var - 0.25).abs() < 1e-15);
        assert_eq!(s.rank_hist, sd::rank_histogram(&ens, &y, 1));
        assert!((s.chi2 - sd::chi_squared(&ens, &y, 0.5)).abs() < 1e-15);
    }

    #[test]
    fn complete_merges_both_halves() {
        let ens = three_member();
        let y = [2.5, 1.5];
        let obs = ObsSpec::identity(0.5);
        let pre = forecast_stats(&ens, &y, &obs, 0);
        let d = complete(&pre, &ens, &y, 0.1, &obs, 0);
        assert_eq!(d.of_mean, pre.of_mean);
        assert_eq!(d.chi2, pre.chi2);
        assert_eq!(d.rank_hist, pre.rank_hist);
        assert!(d.oa_var > 0.0);
        assert!((d.spread_skill - ens.spread() / 0.1).abs() < 1e-12);
        // Zero skill never yields a non-finite ratio.
        assert_eq!(complete(&pre, &ens, &y, 0.0, &obs, 0).spread_skill, 0.0);
    }

    #[test]
    fn masked_diagnostics_project_to_observed_components() {
        let ens = three_member();
        // Observe only component 1.
        let obs = ObsSpec { mask: MaskKind::Block { start: 0, len: 1 }, ..ObsSpec::identity(0.5) };
        let y = [1.5];
        let pre = forecast_stats(&ens, &y, &obs, 0);
        // Projected mean is [2.0]: residual −0.5.
        assert!((pre.of_mean + 0.5).abs() < 1e-15);
        let d = complete(&pre, &ens, &y, 0.1, &obs, 0);
        assert!((d.oa_mean + 0.5).abs() < 1e-15);
        assert!((d.spread_skill - ens.spread() / 0.1).abs() < 1e-12);
    }

    #[test]
    fn project_ensemble_applies_operator_at_observed_indices() {
        let ens = three_member();
        let gain = 2.0;
        let obs = ObsSpec {
            operator: ObsOperatorKind::Arctan { gain },
            mask: MaskKind::Block { start: 1, len: 1 },
            sigma: 0.5,
        };
        let p = project_ensemble(&ens, &obs, 0);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.members(), 3);
        assert!((p.member(2)[0] - (gain * 3.0f64).atan()).abs() < 1e-15);
    }
}
