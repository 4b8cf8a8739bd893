//! Property-based tests for the Ensemble Score Filter.

use ensf::oracle::ScoreEstimator;
use ensf::{time_grid, AnalysisMethod, DiffusionSchedule, Ensf, EnsfConfig, ObsOperator};
use proptest::prelude::*;
use stats::Ensemble;

fn ensemble_strategy(members: usize, dim: usize) -> impl Strategy<Value = Ensemble> {
    prop::collection::vec(-5.0f64..5.0, members * dim).prop_map(move |data| {
        let members_vec: Vec<Vec<f64>> =
            data.chunks(dim).map(|c| c.to_vec()).collect();
        Ensemble::from_members(&members_vec)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule is well-behaved over the whole clamped interval.
    #[test]
    fn schedule_invariants(t in 0.0f64..1.0, eps in 1e-6f64..0.4) {
        let s = DiffusionSchedule::new(eps);
        prop_assert!(s.alpha(t) > 0.0 && s.alpha(t) <= 1.0);
        prop_assert!(s.beta_sq(t) > 0.0 && s.beta_sq(t) < 1.0);
        prop_assert!(s.sigma_sq(t) >= 1.0 - 1e-12);
        prop_assert!(s.drift(t) < 0.0);
        prop_assert!((0.0..=1.0).contains(&s.damping(t)));
    }

    /// The time grid always descends from 1-eps to exactly 0 with n+1 points.
    #[test]
    fn grid_structure(n in 1usize..100, eps in 1e-6f64..0.3) {
        let pts = time_grid(&DiffusionSchedule::new(eps), n);
        prop_assert_eq!(pts.len(), n + 1);
        prop_assert!((pts[0] - (1.0 - eps)).abs() < 1e-12);
        prop_assert_eq!(*pts.last().unwrap(), 0.0);
        for w in pts.windows(2) {
            prop_assert!(w[1] < w[0]);
        }
    }

    /// The few-step flow grid hits the schedule endpoints *bitwise*: the
    /// first score evaluation sits exactly at `1 − ε` and the integration
    /// terminates exactly at `0`, for every step count the deadline
    /// ladder's degraded modes can pick. Float comparison by `to_bits` —
    /// any drift here would silently break the flow path's cross-rank
    /// bitwise-invariance contract.
    #[test]
    fn few_step_grid_endpoints_bitwise_exact(n in 1usize..=100, eps in 1e-6f64..0.3) {
        let pts = time_grid(&DiffusionSchedule::new(eps), n);
        prop_assert_eq!(pts[0].to_bits(), (1.0 - eps).to_bits());
        prop_assert_eq!(pts.last().unwrap().to_bits(), 0.0f64.to_bits());
    }

    /// Flow-matching analyses obey the same invariants as the SDE path —
    /// shape, finiteness, relaxed spread — at any few-step count,
    /// including the degenerate single-step grid.
    #[test]
    fn flow_analysis_invariants(
        ens in ensemble_strategy(8, 5),
        obs_val in -3.0f64..3.0,
        sigma in 0.05f64..5.0,
        steps in 1usize..12,
    ) {
        let obs = ObsOperator::identity(sigma);
        let y = vec![obs_val; 5];
        let mut filter = Ensf::new(EnsfConfig {
            n_steps: steps,
            seed: 77,
            spread_relaxation: 1.0,
            method: AnalysisMethod::FlowMatching,
            ..Default::default()
        });
        let an = filter.analyze(&ens, &y, &obs);
        prop_assert_eq!(an.members(), 8);
        prop_assert_eq!(an.dim(), 5);
        prop_assert!(an.as_slice().iter().all(|v| v.is_finite()));
        let vf = ens.variance();
        let va = an.variance();
        for (a, f) in va.iter().zip(&vf) {
            if f.sqrt() > 1e-8 {
                prop_assert!((a.sqrt() - f.sqrt()).abs() < 1e-6 * (1.0 + f.sqrt()));
            }
        }
    }

    /// The MC score is always finite, for any ensemble, query point and
    /// pseudo-time (the log-sum-exp stability property).
    #[test]
    fn score_always_finite(
        ens in ensemble_strategy(6, 4),
        z in prop::collection::vec(-50.0f64..50.0, 4),
        t in 0.0f64..1.0,
    ) {
        let est = ScoreEstimator::new(
            ens.as_slice(), 6, 4, DiffusionSchedule::default());
        let s = est.score(&z, t);
        prop_assert!(s.iter().all(|v| v.is_finite()));
    }

    /// Translation equivariance: shifting the ensemble and the query point
    /// by the same constant leaves the score unchanged.
    #[test]
    fn score_translation_equivariant(
        ens in ensemble_strategy(5, 3),
        z in prop::collection::vec(-3.0f64..3.0, 3),
        shift in -10.0f64..10.0,
        t in 0.05f64..0.95,
    ) {
        let sch = DiffusionSchedule::default();
        let base = ScoreEstimator::new(ens.as_slice(), 5, 3, sch).score(&z, t);
        let alpha = sch.alpha(t);
        let shifted_data: Vec<f64> = ens.as_slice().iter().map(|v| v + shift).collect();
        // Query must shift by alpha * shift (z lives in diffused space).
        let z2: Vec<f64> = z.iter().map(|v| v + alpha * shift).collect();
        let s2 = ScoreEstimator::new(&shifted_data, 5, 3, sch).score(&z2, t);
        for (a, b) in base.iter().zip(&s2) {
            prop_assert!((a - b).abs() < 1e-7 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// A full analysis keeps shape, stays finite, and (with full
    /// relaxation) preserves the forecast spread per variable.
    #[test]
    fn analysis_invariants(
        ens in ensemble_strategy(8, 5),
        obs_val in -3.0f64..3.0,
        sigma in 0.05f64..5.0,
    ) {
        let obs = ObsOperator::identity(sigma);
        let y = vec![obs_val; 5];
        let mut filter = Ensf::new(EnsfConfig {
            n_steps: 15,
            seed: 77,
            spread_relaxation: 1.0,
            ..Default::default()
        });
        let an = filter.analyze(&ens, &y, &obs);
        prop_assert_eq!(an.members(), 8);
        prop_assert_eq!(an.dim(), 5);
        prop_assert!(an.as_slice().iter().all(|v| v.is_finite()));
        let vf = ens.variance();
        let va = an.variance();
        for (a, f) in va.iter().zip(&vf) {
            // Full relaxation pins the analysis spread at the forecast's
            // (up to the degenerate zero-spread guard).
            if f.sqrt() > 1e-8 {
                prop_assert!((a.sqrt() - f.sqrt()).abs() < 1e-6 * (1.0 + f.sqrt()));
            }
        }
    }

    /// The analysis mean always lies within the interval spanned by the
    /// forecast mean and the observation (no overshoot), per variable, for
    /// identity observations — a weak but universal sanity property.
    #[test]
    fn analysis_mean_bracketed(
        ens in ensemble_strategy(10, 3),
        obs_val in -4.0f64..4.0,
        sigma in 0.1f64..2.0,
    ) {
        let obs = ObsOperator::identity(sigma);
        let y = vec![obs_val; 3];
        let mut filter = Ensf::new(EnsfConfig { n_steps: 20, seed: 3, ..Default::default() });
        let an = filter.analyze(&ens, &y, &obs);
        let fm = ens.mean();
        let am = an.mean();
        for i in 0..3 {
            let lo = fm[i].min(obs_val);
            let hi = fm[i].max(obs_val);
            // Allow slack of one forecast std + obs noise scale: the
            // diffusion resampling is stochastic.
            let slack = ens.variance()[i].sqrt() + 0.5 * sigma + 0.3;
            prop_assert!(
                am[i] > lo - slack && am[i] < hi + slack,
                "dim {i}: analysis {} outside [{lo}, {hi}] ± {slack}",
                am[i]
            );
        }
    }
}
