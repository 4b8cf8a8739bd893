//! Equivalence, determinism and partition-invariance of the batched
//! GEMM-based EnSF kernel against the per-particle oracle
//! ([`ensf::oracle::analyze`]).
//!
//! The two draw identical RNG streams and perform the same per-step
//! operations, differing only by floating-point reassociation (the batched
//! kernel computes distances via a GEMM norm expansion), so full analyses
//! must agree to ~1e-10 relative while the filter on its own is bitwise
//! deterministic and partition-invariant.

use ensf::parallel::{analyze_partitioned, RankPlan};
use ensf::{oracle, Ensf, EnsfConfig, ObsOperator};
use proptest::prelude::*;
use stats::gaussian::standard_normal;
use stats::rng::seeded;
use stats::Ensemble;

fn ens(members: usize, dim: usize, seed: u64) -> Ensemble {
    let mut rng = seeded(seed);
    let mut e = Ensemble::zeros(members, dim);
    for m in 0..members {
        for x in e.member_mut(m) {
            *x = standard_normal(&mut rng);
        }
    }
    e
}

fn max_rel_diff(a: &Ensemble, b: &Ensemble) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs()))
        .fold(0.0f64, f64::max)
}

fn analyze_with(config: &EnsfConfig, fc: &Ensemble, y: &[f64], sigma: f64) -> Ensemble {
    let obs = ObsOperator::identity(sigma);
    Ensf::new(config.clone()).analyze(fc, y, &obs)
}

/// The oracle's analysis of the filter's first call.
fn oracle_with(config: &EnsfConfig, fc: &Ensemble, y: &[f64], sigma: f64) -> Ensemble {
    oracle::analyze(config, 0, fc, y, &ObsOperator::identity(sigma))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full analyses of the filter and the oracle agree to 1e-10 relative
    /// for random shapes, seeds and step counts.
    #[test]
    fn kernels_agree_on_random_problems(
        members in 2usize..12,
        dim in 1usize..33,
        n_steps in 5usize..30,
        seed in 0u64..1000,
        obs_sigma in 0.05f64..2.0,
    ) {
        let fc = ens(members, dim, seed);
        let y = vec![0.25; dim];
        let config = EnsfConfig { n_steps, seed, ..Default::default() };
        let reference = oracle_with(&config, &fc, &y, obs_sigma);
        let batched = analyze_with(&config, &fc, &y, obs_sigma);
        let worst = max_rel_diff(&reference, &batched);
        prop_assert!(worst < 1e-10, "kernels diverged: max rel diff {}", worst);
    }

    /// Mini-batched score sums select the same members in the same order
    /// in the filter and the oracle.
    #[test]
    fn kernels_agree_under_minibatch(
        seed in 0u64..500,
        j in 2usize..8,
    ) {
        let (members, dim) = (10, 12);
        let fc = ens(members, dim, seed);
        let y = vec![-0.1; dim];
        let config = EnsfConfig { n_steps: 12, minibatch: Some(j), seed, ..Default::default() };
        let reference = oracle_with(&config, &fc, &y, 0.5);
        let batched = analyze_with(&config, &fc, &y, 0.5);
        let worst = max_rel_diff(&reference, &batched);
        prop_assert!(worst < 1e-10, "minibatch kernels diverged: {}", worst);
    }
}

#[test]
fn batched_matches_reference_tight_obs_regime() {
    // OSSE-like regime: small ensemble spread around a small mean, tight
    // observation error — the conditions of the SQG cycling experiments.
    let (members, dim) = (6, 128);
    let mut rng = seeded(13);
    let mut fc = Ensemble::zeros(members, dim);
    for m in 0..members {
        for x in fc.member_mut(m) {
            *x = 0.05 + 0.005 * standard_normal(&mut rng);
        }
    }
    let y: Vec<f64> = (0..dim).map(|i| 0.05 + 0.002 * ((i as f64) * 0.3).sin()).collect();
    let config = EnsfConfig { n_steps: 15, seed: 7, ..Default::default() };
    let reference = oracle_with(&config, &fc, &y, 0.005);
    let batched = analyze_with(&config, &fc, &y, 0.005);
    let worst = max_rel_diff(&reference, &batched);
    assert!(worst < 1e-10, "kernels diverged in tight-obs regime: max rel diff {worst:e}");
}

#[test]
fn batched_matches_reference_osse_shape() {
    let (members, dim) = (6, 128);
    let fc = ens(members, dim, 2);
    let y = vec![0.1; dim];
    let config = EnsfConfig { n_steps: 15, seed: 7, ..Default::default() };
    let worst =
        max_rel_diff(&oracle_with(&config, &fc, &y, 0.5), &analyze_with(&config, &fc, &y, 0.5));
    assert!(worst < 1e-10, "kernels diverged: max rel diff {worst:e}");
}

/// The batched kernel is bitwise run-to-run deterministic.
#[test]
fn batched_analysis_is_bitwise_deterministic() {
    let (members, dim) = (9, 64);
    let fc = ens(members, dim, 5);
    let y = vec![0.3; dim];
    let config = EnsfConfig { n_steps: 20, seed: 11, ..Default::default() };
    let a = analyze_with(&config, &fc, &y, 0.4);
    let b = analyze_with(&config, &fc, &y, 0.4);
    assert_eq!(a.as_slice(), b.as_slice(), "batched analysis must be bitwise repeatable");
}

/// Partitioning particles over ranks does not change a single bit of the
/// batched analysis: every per-particle output is a fixed-order reduction
/// keyed by the particle's global index.
#[test]
fn batched_partitioning_is_bitwise_invariant() {
    let (members, dim) = (11, 48);
    let fc = ens(members, dim, 6);
    let y = vec![-0.2; dim];
    let obs = ObsOperator::identity(0.5);
    let config = EnsfConfig { n_steps: 18, seed: 3, ..Default::default() };
    let single = analyze_partitioned(&config, 0, &RankPlan::new(members, 1), &fc, &y, &obs);
    for ranks in [2, 3, 4, 7, 11] {
        let plan = RankPlan::new(members, ranks);
        let got = analyze_partitioned(&config, 0, &plan, &fc, &y, &obs);
        assert_eq!(
            got.as_slice(),
            single.as_slice(),
            "batched analysis changed bits at {ranks} ranks"
        );
    }
}

/// No NaN/Inf at production scale (high dimension, many SDE steps) where
/// the GEMM norm expansion faces its worst cancellation.
#[test]
fn batched_analysis_finite_in_high_dim() {
    let (members, dim) = (20, 4096);
    let fc = ens(members, dim, 8);
    let y = vec![0.1; dim];
    let config = EnsfConfig { n_steps: 30, seed: 4, ..Default::default() };
    let an = analyze_with(&config, &fc, &y, 1.0);
    assert!(an.as_slice().iter().all(|v| v.is_finite()));
}
