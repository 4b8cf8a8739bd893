//! Rank-decomposed EnSF execution (the paper's §III-A3 / Fig. 10 layout).
//!
//! On Frontier the EnSF is parallelized "along the dimension of the
//! ensemble": every rank owns a contiguous block of particles, shares the
//! (small) forecast ensemble read-only, integrates its block independently
//! and the outputs are reduced at the end. This module reproduces that
//! decomposition explicitly — [`RankPlan`] computes the block layout and
//! [`analyze_partitioned`] executes the blocks (concurrently under rayon),
//! asserting that the result is bitwise identical to the single-rank filter
//! because every particle derives its RNG stream from its *global* index.

use crate::filter::{Ensf, EnsfConfig, ScoreKernel};
use crate::obs::ObservationOperator;
use crate::score::ScoreEstimator;
use crate::sde::{reverse_sde_assimilate, TimeGrid};
use rayon::prelude::*;
use stats::gaussian::fill_standard_normal;
use stats::rng::{member_rng, split_seed};
use stats::Ensemble;

/// Static block decomposition of `members` particles over `ranks` ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlan {
    /// Number of ranks.
    pub ranks: usize,
    /// Half-open particle ranges per rank.
    pub blocks: Vec<(usize, usize)>,
}

impl RankPlan {
    /// Splits `members` particles as evenly as possible over `ranks`.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(members: usize, ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let base = members / ranks;
        let extra = members % ranks;
        let mut blocks = Vec::with_capacity(ranks);
        let mut start = 0;
        for r in 0..ranks {
            let len = base + usize::from(r < extra);
            blocks.push((start, start + len));
            start += len;
        }
        RankPlan { ranks, blocks }
    }

    /// Largest block size (load-balance bound).
    pub fn max_block(&self) -> usize {
        self.blocks.iter().map(|(a, b)| b - a).max().unwrap_or(0)
    }
}

/// Runs one EnSF analysis with the ensemble partitioned into rank blocks.
///
/// Functionally identical to [`Ensf::analyze`] with no mini-batching; used
/// by the weak-scaling benchmark (Fig. 10) where each rank's wall time is
/// measured independently.
///
/// # Panics
/// Panics when `config` fails validation, `y` does not match the operator's
/// observation dimension, or `plan` does not cover the ensemble.
pub fn analyze_partitioned(
    config: &EnsfConfig,
    cycle: u64,
    plan: &RankPlan,
    forecast: &Ensemble,
    y: &[f64],
    obs: &impl ObservationOperator,
) -> Ensemble {
    config.validate().expect("invalid EnSF configuration");
    let members = forecast.members();
    let dim = forecast.dim();
    assert_eq!(y.len(), obs.obs_dim());
    assert_eq!(
        plan.blocks.last().map(|b| b.1),
        Some(members),
        "plan does not cover the ensemble"
    );

    let cycle_seed = split_seed(config.seed, cycle.wrapping_add(0x5151));

    let mut analysis = match config.kernel {
        ScoreKernel::Batched => {
            // The batched kernel's per-particle outputs are bitwise
            // independent of the block layout (see `linalg::matmul_abt_into`),
            // so handing the plan's blocks straight to the shared block
            // driver reproduces the single-rank filter exactly.
            let batch: Vec<usize> = (0..members).collect();
            crate::batch::analyze_blocks(config, cycle_seed, &plan.blocks, forecast, y, obs, &batch)
        }
        ScoreKernel::Reference => {
            let estimator =
                ScoreEstimator::new(forecast.as_slice(), members, dim, config.schedule);
            let schedule = config.schedule;
            let n_steps = config.n_steps;
            let method = config.method;
            let prior_var = match method {
                crate::AnalysisMethod::FlowMatching => {
                    let full: Vec<usize> = (0..members).collect();
                    let mut var =
                        crate::flow::batch_variance(forecast.as_slice(), members, dim, &full);
                    crate::flow::smooth_variance(&mut var, config.variance_smoothing);
                    var
                }
                crate::AnalysisMethod::ReverseSde => Vec::new(),
            };

            let mut analysis = Ensemble::zeros(members, dim);

            // One task per rank block; inside a block, particles run
            // sequentially, exactly as a single MPI rank would execute them.
            let block_results: Vec<(usize, Vec<f64>)> = plan
                .blocks
                .par_iter()
                .map(|&(start, end)| {
                    let mut block = vec![0.0; (end - start) * dim];
                    let mut scratch = vec![0.0; estimator.batch_len()];
                    for (local, m) in (start..end).enumerate() {
                        let out = &mut block[local * dim..(local + 1) * dim];
                        let mut rng = member_rng(cycle_seed, m);
                        fill_standard_normal(&mut rng, out);
                        match method {
                            crate::AnalysisMethod::ReverseSde => reverse_sde_assimilate(
                                out,
                                &schedule,
                                n_steps,
                                TimeGrid::LogSpaced,
                                |z, t, s| {
                                    estimator.score_into(z, t, s, &mut scratch);
                                },
                                obs,
                                y,
                                &mut rng,
                            ),
                            crate::AnalysisMethod::FlowMatching => {
                                crate::flow::probability_flow_assimilate(
                                    out,
                                    &schedule,
                                    n_steps,
                                    TimeGrid::LogSpaced,
                                    &prior_var,
                                    |z, t, s| {
                                        estimator.score_into(z, t, s, &mut scratch);
                                    },
                                    obs,
                                    y,
                                )
                            }
                        }
                    }
                    (start, block)
                })
                .collect();

            // "MPI reduce": gather rank blocks into the global analysis.
            for (start, block) in block_results {
                let nb = block.len() / dim;
                for local in 0..nb {
                    analysis
                        .member_mut(start + local)
                        .copy_from_slice(&block[local * dim..(local + 1) * dim]);
                }
            }
            analysis
        }
    };

    if config.spread_relaxation > 0.0 {
        crate::filter::relax_spread(&mut analysis, forecast, config.spread_relaxation);
    }
    analysis
}

/// Convenience: sequential reference via [`Ensf`] for equivalence tests.
pub fn analyze_reference(
    config: &EnsfConfig,
    forecast: &Ensemble,
    y: &[f64],
    obs: &impl ObservationOperator,
) -> Ensemble {
    let mut f = Ensf::new(config.clone());
    f.analyze(forecast, y, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MaskedObs;
    use stats::gaussian::standard_normal;
    use stats::rng::seeded;

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

    #[test]
    fn plan_covers_and_balances() {
        let p = RankPlan::new(20, 6);
        assert_eq!(p.blocks.len(), 6);
        assert_eq!(p.blocks[0].0, 0);
        assert_eq!(p.blocks.last().unwrap().1, 20);
        for w in p.blocks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "blocks must tile contiguously");
        }
        assert!(p.max_block() <= 20 / 6 + 1);
    }

    #[test]
    fn plan_more_ranks_than_members() {
        let p = RankPlan::new(3, 8);
        assert_eq!(p.blocks.last().unwrap().1, 3);
        let total: usize = p.blocks.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn partitioned_matches_reference_bitwise() {
        let fc = ens(12, 16, 3);
        let obs = MaskedObs::identity(16, 0.5);
        let y = vec![0.4; 16];
        let config = EnsfConfig { seed: 21, n_steps: 25, ..Default::default() };
        let reference = analyze_reference(&config, &fc, &y, &obs);
        for ranks in [1, 2, 3, 5, 12] {
            let plan = RankPlan::new(12, ranks);
            let got = analyze_partitioned(&config, 0, &plan, &fc, &y, &obs);
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "rank decomposition changed results at {ranks} ranks"
            );
        }
    }

    #[test]
    fn different_cycles_differ() {
        let fc = ens(8, 8, 5);
        let obs = MaskedObs::identity(8, 0.5);
        let y = vec![0.0; 8];
        let config = EnsfConfig { seed: 9, n_steps: 10, ..Default::default() };
        let plan = RankPlan::new(8, 2);
        let a = analyze_partitioned(&config, 0, &plan, &fc, &y, &obs);
        let b = analyze_partitioned(&config, 1, &plan, &fc, &y, &obs);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = RankPlan::new(4, 0);
    }
}
