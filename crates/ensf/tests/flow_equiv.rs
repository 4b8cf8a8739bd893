//! Equivalence, determinism and posterior-quality contracts of the
//! flow-matching analysis path against the stochastic reverse SDE.
//!
//! The probability-flow ODE shares the diffusion schedule, the time grid
//! and the batched score machinery with the SDE path; it must (a) agree
//! with the per-particle oracle ([`ensf::oracle::analyze`]) to ~1e-10
//! relative, (b) be bitwise deterministic and rank-partition invariant
//! *by construction* (no per-step RNG at all), (c) consume exactly the
//! initial-fill RNG draws and nothing more, and (d) land on the same
//! posterior region the 100-step SDE reaches — in ~5–10 steps.

use ensf::parallel::{analyze_partitioned, RankPlan};
use ensf::{oracle, AnalysisMethod, Ensf, EnsfConfig, ObsOperator};
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

fn flow_config(n_steps: usize, seed: u64) -> EnsfConfig {
    EnsfConfig { n_steps, seed, method: AnalysisMethod::FlowMatching, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full flow analyses of the filter and the oracle agree to 1e-10
    /// relative for random shapes, seeds and (few-)step counts.
    #[test]
    fn flow_kernels_agree_on_random_problems(
        members in 2usize..12,
        dim in 1usize..33,
        n_steps in 1usize..20,
        seed in 0u64..1000,
        obs_sigma in 0.05f64..2.0,
    ) {
        let fc = ens(members, dim, seed);
        let y = vec![0.25; dim];
        let config = flow_config(n_steps, seed);
        let reference = oracle_with(&config, &fc, &y, obs_sigma);
        let batched = analyze_with(&config, &fc, &y, obs_sigma);
        let worst = max_rel_diff(&reference, &batched);
        prop_assert!(worst < 1e-10, "flow kernels diverged: max rel diff {}", worst);
    }

    /// Mini-batched flow analyses select the same score members (and the
    /// same prior variance) in the same order in the filter and the oracle.
    #[test]
    fn flow_kernels_agree_under_minibatch(
        seed in 0u64..500,
        j in 2usize..8,
    ) {
        let (members, dim) = (10, 12);
        let fc = ens(members, dim, seed);
        let y = vec![-0.1; dim];
        let config = EnsfConfig { minibatch: Some(j), ..flow_config(8, seed) };
        let reference = oracle_with(&config, &fc, &y, 0.5);
        let batched = analyze_with(&config, &fc, &y, 0.5);
        let worst = max_rel_diff(&reference, &batched);
        prop_assert!(worst < 1e-10, "minibatch flow kernels diverged: {}", worst);
    }
}

/// The flow analysis is bitwise run-to-run deterministic.
#[test]
fn flow_analysis_is_bitwise_deterministic() {
    let (members, dim) = (9, 64);
    let fc = ens(members, dim, 5);
    let y = vec![0.3; dim];
    let config = flow_config(8, 11);
    let a = analyze_with(&config, &fc, &y, 0.4);
    let b = analyze_with(&config, &fc, &y, 0.4);
    assert_eq!(a.as_slice(), b.as_slice(), "flow analysis must be bitwise repeatable");
}

/// Partitioning particles over ranks does not change a single bit of the
/// flow analysis — with no per-step noise the contract reduces entirely
/// to the fixed-order score fold.
#[test]
fn flow_partitioning_is_bitwise_invariant() {
    let (members, dim) = (11, 48);
    let fc = ens(members, dim, 6);
    let y = vec![-0.2; dim];
    let obs = ObsOperator::identity(0.5);
    let config = flow_config(6, 3);
    let single = analyze_partitioned(&config, 0, &RankPlan::new(members, 1), &fc, &y, &obs);
    for ranks in [2, 3, 4, 7, 11] {
        let plan = RankPlan::new(members, ranks);
        let got = analyze_partitioned(&config, 0, &plan, &fc, &y, &obs);
        assert_eq!(
            got.as_slice(),
            single.as_slice(),
            "flow analysis changed bits at {ranks} ranks"
        );
    }
}

/// The deepest deadline-ladder degradation — a single-step flow — still
/// produces a sane, finite analysis that moves the mean from the forecast
/// toward the observation (the DDIM map solves the linear transport in
/// closed form, so even one step lands Kalman-accurate means).
#[test]
fn single_step_degraded_flow_stays_sane() {
    let (members, dim) = (12, 32);
    let mut rng = seeded(19);
    let mut fc = Ensemble::zeros(members, dim);
    for m in 0..members {
        for x in fc.member_mut(m) {
            *x = 1.0 + 0.2 * standard_normal(&mut rng);
        }
    }
    let y = vec![1.5; dim];
    let an = analyze_with(&flow_config(1, 4), &fc, &y, 0.1);
    assert!(an.as_slice().iter().all(|v| v.is_finite()));
    let fm = fc.mean();
    for (i, (a, f)) in an.mean().iter().zip(&fm).enumerate() {
        assert!(
            *a > *f - 0.2 && *a < 1.5 + 0.2,
            "dim {i}: 1-step flow mean {a} outside forecast {f} .. obs 1.5 corridor"
        );
        assert!(*a > *f + 0.1, "dim {i}: 1-step flow mean {a} did not move toward obs");
    }
}

/// Posterior quality: the 6-step flow matches (or beats) the 100-step SDE
/// on analysis-mean RMSE *to the truth* in an OSSE-like tight-observation
/// regime — the matched-accuracy premise of the ≥5x speedup gate. (RMSE
/// to the truth, not to the observation: the SDE's damped likelihood pull
/// pins members exactly onto the noisy observation, which looks perfect
/// against y but carries the full obs error against the truth.)
#[test]
fn few_step_flow_matches_sde_posterior_region() {
    let (members, dim) = (16, 128);
    let mut rng = seeded(13);
    let truth: Vec<f64> =
        (0..dim).map(|i| 0.05 + 0.004 * ((i as f64) * 0.3).sin()).collect();
    let mut fc = Ensemble::zeros(members, dim);
    for m in 0..members {
        for (x, tr) in fc.member_mut(m).iter_mut().zip(&truth) {
            *x = tr + 0.01 * standard_normal(&mut rng);
        }
    }
    let sigma = 0.005;
    let y: Vec<f64> = truth.iter().map(|tr| tr + sigma * standard_normal(&mut rng)).collect();

    let sde = analyze_with(
        &EnsfConfig { n_steps: 100, seed: 7, ..Default::default() },
        &fc,
        &y,
        sigma,
    );
    let flow = analyze_with(&flow_config(6, 7), &fc, &y, sigma);

    let rmse = |e: &Ensemble| {
        let mean = e.mean();
        (mean.iter().zip(&truth).map(|(m, tr)| (m - tr) * (m - tr)).sum::<f64>()
            / dim as f64)
            .sqrt()
    };
    let d_sde = rmse(&sde);
    let d_flow = rmse(&flow);
    assert!(
        d_flow < 1.5 * d_sde + 1e-3,
        "6-step flow analysis RMSE ({d_flow:e}) much worse than 100-step SDE ({d_sde:e})"
    );
}
