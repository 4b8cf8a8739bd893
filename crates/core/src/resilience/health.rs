//! Ensemble health guardrails: detection and repair.
//!
//! Detection is cheap and total (the scans are plain finite/variance
//! arithmetic that cannot themselves fail on a damaged ensemble); repair is
//! deterministic, with every random draw seeded from the run's master seed
//! and the cycle index so that a resumed run repairs identically.

use stats::gaussian::standard_normal;
use stats::rng::{seeded, split_seed};
use stats::Ensemble;

/// Thresholds and knobs for the per-cycle health checks.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Ensemble spread below this is treated as filter collapse.
    pub spread_floor: f64,
    /// Spread restored (by inflation or, if fully collapsed, fresh
    /// perturbations) when collapse is detected.
    pub reinflate_target: f64,
    /// Innovation RMSE above `divergence_factor × climatology_sd` flags the
    /// filter as diverging from the observations.
    pub divergence_factor: f64,
    /// Multiplicative anomaly inflation applied when divergence is flagged.
    pub divergence_inflation: f64,
    /// Divergence additionally requires the observation-space spread–skill
    /// ratio to fall below this: a large innovation with commensurate
    /// spread is a hard cycle, not a diverging filter.
    pub divergence_spread_skill: f64,
    /// A member whose RMS amplitude exceeds `outlier_factor ×
    /// climatology_sd` is quarantined as silently corrupted (finite but
    /// physically impossible).
    pub outlier_factor: f64,
    /// Analysis attempts after the first before falling back (retry budget).
    pub max_analysis_retries: usize,
    /// Perturbation σ added to a healthy donor when resampling a
    /// quarantined member.
    pub resample_sigma: f64,
}

impl HealthPolicy {
    /// A policy scaled to an OSSE's observation error: collapse means the
    /// spread fell an order of magnitude below σ_obs, recovery restores it
    /// to σ_obs, and resampled members are perturbed at σ_obs.
    // lint: allow(dead-pub, reason="the guardrail policy of chaos.rs, dist_determinism.rs, elastic_recovery.rs and the supervisor, surrogate and elastic unit tests")
    pub fn for_obs_sigma(obs_sigma: f64) -> Self {
        HealthPolicy {
            spread_floor: 0.1 * obs_sigma,
            reinflate_target: obs_sigma,
            divergence_factor: 2.0,
            divergence_inflation: 1.5,
            divergence_spread_skill: 0.5,
            outlier_factor: 20.0,
            max_analysis_retries: 2,
            resample_sigma: obs_sigma,
        }
    }
}

/// Indices of members containing any non-finite component.
pub fn scan_members(ensemble: &Ensemble) -> Vec<usize> {
    ensemble
        .iter()
        .enumerate()
        .filter(|(_, m)| m.iter().any(|v| !v.is_finite()))
        .map(|(i, _)| i)
        .collect()
}

/// Indices of members whose RMS amplitude exceeds `limit` — finite but
/// physically impossible states (e.g. a silently corrupted forecast).
// Negated comparisons deliberately treat NaN limits/amplitudes as outliers.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn scan_outliers(ensemble: &Ensemble, limit: f64) -> Vec<usize> {
    if !(limit > 0.0) || ensemble.dim() == 0 {
        return Vec::new();
    }
    ensemble
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            let ms = m.iter().map(|v| v * v).sum::<f64>() / m.len() as f64;
            !(ms.sqrt() <= limit) // catches NaN RMS too
        })
        .map(|(i, _)| i)
        .collect()
}

/// True when every component of every member is finite.
pub fn all_finite(ensemble: &Ensemble) -> bool {
    ensemble.as_slice().iter().all(|v| v.is_finite())
}

/// Replaces each quarantined member with a perturbed copy of a healthy
/// donor. Donors are assigned round-robin over the healthy members, offset
/// by a seeded draw so repeated repairs don't always clone member 0.
/// Returns `false` (leaving the ensemble untouched) when no healthy donor
/// exists.
pub fn quarantine_and_resample(
    ensemble: &mut Ensemble,
    bad: &[usize],
    seed: u64,
    sigma: f64,
) -> bool {
    let healthy: Vec<usize> =
        (0..ensemble.members()).filter(|i| !bad.contains(i)).collect();
    if healthy.is_empty() {
        return false;
    }
    let mut rng = seeded(split_seed(seed, 0x4EA1));
    let offset = (standard_normal(&mut rng).abs() * 1e3) as usize;
    for (k, &b) in bad.iter().enumerate() {
        let donor = healthy[(offset + k) % healthy.len()];
        let copy: Vec<f64> = ensemble.member(donor).to_vec();
        let mut mrng = seeded(split_seed(seed, 0xBAD0 + b as u64));
        let member = ensemble.member_mut(b);
        for (x, d) in member.iter_mut().zip(&copy) {
            *x = d + sigma * standard_normal(&mut mrng);
        }
    }
    true
}

/// Restores a collapsed ensemble's spread to `target`. A merely deflated
/// ensemble is inflated about its mean; an effectively degenerate one
/// (spread ≲ rounding noise, so inflation cannot separate the members)
/// gets fresh seeded perturbations.
pub fn reinflate(ensemble: &mut Ensemble, target: f64, seed: u64) {
    let spread = ensemble.spread();
    // A spread many orders below target is indistinguishable from full
    // collapse: bitwise-identical members report ~1e-16 of rounding noise
    // as "spread", and inflating shifts every member equally, separating
    // nothing. Rebuild with fresh perturbations instead.
    if spread > target * 1e-6 {
        ensemble.inflate(target / spread);
    } else {
        let mut rng = seeded(split_seed(seed, 0x1F7A));
        for member in ensemble.iter_mut() {
            for x in member.iter_mut() {
                *x += target * standard_normal(&mut rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ens() -> Ensemble {
        Ensemble::from_members(&[
            vec![1.0, 2.0],
            vec![f64::NAN, 2.0],
            vec![1.5, f64::INFINITY],
            vec![0.5, 1.5],
        ])
    }

    #[test]
    fn scan_finds_nan_and_inf_members() {
        assert_eq!(scan_members(&ens()), vec![1, 2]);
        assert!(!all_finite(&ens()));
        assert!(all_finite(&Ensemble::zeros(3, 4)));
    }

    #[test]
    fn outlier_scan_flags_blown_up_members() {
        let e = Ensemble::from_members(&[
            vec![0.5, -0.5],
            vec![1e6, 1e6],
            vec![0.1, 0.2],
        ]);
        assert_eq!(scan_outliers(&e, 10.0), vec![1]);
        assert!(scan_outliers(&e, 0.0).is_empty(), "non-positive limit disables the scan");
        assert_eq!(scan_outliers(&Ensemble::zeros(2, 0), 1.0), Vec::<usize>::new());
    }

    #[test]
    fn resample_restores_finiteness_deterministically() {
        let mut a = ens();
        let mut b = ens();
        assert!(quarantine_and_resample(&mut a, &[1, 2], 99, 0.1));
        assert!(quarantine_and_resample(&mut b, &[1, 2], 99, 0.1));
        assert!(all_finite(&a));
        assert_eq!(a.as_slice(), b.as_slice(), "repair must be reproducible");
        assert_eq!(a.member(0), &[1.0, 2.0], "healthy members untouched");
        // Resampled members sit near a donor, not at it.
        assert_ne!(a.member(1), a.member(0));
    }

    #[test]
    fn resample_without_donors_refuses() {
        let mut e = Ensemble::from_members(&[vec![f64::NAN], vec![f64::NAN]]);
        assert!(!quarantine_and_resample(&mut e, &[0, 1], 1, 0.1));
        assert!(e.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn reinflate_scales_deflated_ensemble() {
        let mut e = Ensemble::from_members(&[vec![1.0, 1.0], vec![1.0001, 1.0001]]);
        let mean_before = e.mean();
        reinflate(&mut e, 0.5, 7);
        assert!((e.spread() - 0.5).abs() < 1e-12);
        let mean_after = e.mean();
        for (a, b) in mean_before.iter().zip(&mean_after) {
            assert!((a - b).abs() < 1e-9, "inflation preserves the mean");
        }
    }

    #[test]
    fn reinflate_rebuilds_degenerate_ensemble() {
        let mut e = Ensemble::from_members(&[vec![2.0, 2.0], vec![2.0, 2.0]]);
        assert_eq!(e.spread(), 0.0);
        reinflate(&mut e, 0.3, 11);
        assert!(e.spread() > 0.0, "zero-spread ensemble must regain spread");
        assert!(all_finite(&e));
    }

    #[test]
    fn policy_scales_with_obs_sigma() {
        let p = HealthPolicy::for_obs_sigma(0.01);
        assert!(p.spread_floor < p.reinflate_target);
        assert_eq!(p.reinflate_target, 0.01);
        assert!(p.max_analysis_retries >= 1);
    }
}
