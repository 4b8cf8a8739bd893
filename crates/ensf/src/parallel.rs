//! The particle block: the EnSF analysis' one unit of work (the paper's
//! §III-A3 / Fig. 10 layout).
//!
//! On Frontier the EnSF is parallelized "along the dimension of the
//! ensemble": every rank owns a contiguous block of particles, shares the
//! (small) forecast ensemble read-only, integrates its block independently
//! and the outputs are gathered at the end. [`BlockAnalysis`] is that
//! decomposition: everything particles share is prepared once per analysis,
//! then [`BlockAnalysis::run_block`] integrates any contiguous range of
//! particles on the calling thread. Every particle derives its RNG stream
//! from its *global* index and every reduction is per particle, so a
//! particle's bits do not depend on which block it ran in:
//! [`crate::Ensf::analyze`] (blocks over this machine's cores),
//! [`analyze_partitioned`] (blocks of a [`RankPlan`]) and the distributed
//! runtime (one block per rank, gathered once) all compute the same
//! analysis, bit for bit.

use crate::batch::{reverse_sde_assimilate_batched, BatchScratch, BatchedScore};
use crate::filter::{relax_spread, AnalysisMethod, EnsfConfig};
use crate::flow::{batch_variance, probability_flow_assimilate_batched, smooth_variance};
use crate::obs::ObsOperator;
use crate::sde::time_grid;
use linalg::AlignedVec;
use rand::seq::SliceRandom;
use stats::gaussian::scaled_normal_chunks;
use stats::rng::{member_rng, seeded, split_seed};
use stats::Ensemble;
use std::ops::Range;

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

    /// One block per available worker: the layout [`crate::Ensf::analyze`]
    /// uses. Every particle's result is a function of its global index
    /// alone, so the layout is purely a load-balancing choice.
    pub(crate) fn over_cores(members: usize) -> Self {
        RankPlan::new(members, par::cores().clamp(1, members.max(1)))
    }
}

/// One EnSF analysis, prepared once and shared read-only by every particle
/// block: the mini-batch of `(seed, cycle)`, its batched score, the flow
/// prior variance and the pseudo-time grid.
///
/// The kernels' operands start on 64-byte cache lines: the forecast
/// ensemble (borrowed), the observation vector (copied once here), every
/// block [`BlockAnalysis::run_block`] integrates and its scratch.
pub struct BlockAnalysis<'a> {
    config: &'a EnsfConfig,
    /// Seeds every particle's stream (`member_rng(cycle_seed, index)`).
    pub(crate) cycle_seed: u64,
    dim: usize,
    /// The observation vector, on a cache line.
    y: AlignedVec<f64>,
    obs: &'a ObsOperator,
    /// Members of the score's Monte-Carlo sum, in summation order.
    pub(crate) batch: Vec<usize>,
    score: BatchedScore<'a>,
    /// Per-component prior variance of the score batch (flow matching
    /// only; empty for the reverse SDE).
    pub(crate) prior_var: Vec<f64>,
    /// The descending pseudo-time grid.
    pub(crate) times: Vec<f64>,
}

impl<'a> BlockAnalysis<'a> {
    /// Prepares analysis number `cycle` of `forecast` against the dense
    /// observation vector `y` under `obs`. `(config.seed, cycle)` pins the
    /// mini-batch and every particle's RNG stream.
    ///
    /// # Panics
    /// Panics when `config` fails validation, `y` does not match the
    /// state dimension, or the forecast is empty.
    pub fn prepare(
        config: &'a EnsfConfig,
        cycle: u64,
        forecast: &'a Ensemble,
        y: &'a [f64],
        obs: &'a ObsOperator,
    ) -> Self {
        config.validate().expect("invalid EnSF configuration");
        let members = forecast.members();
        let dim = forecast.dim();
        assert_eq!(y.len(), dim, "observation length mismatch");
        let cycle_seed = split_seed(config.seed, cycle.wrapping_add(0x5151));

        // Mini-batch of the score's Monte-Carlo sum: shared by all
        // particles within a cycle, re-drawn each cycle.
        let batch: Vec<usize> = match config.minibatch {
            Some(j) if j < members => {
                let mut idx: Vec<usize> = (0..members).collect();
                let mut rng = seeded(split_seed(cycle_seed, 0xBA7C4));
                idx.shuffle(&mut rng);
                idx.truncate(j);
                idx
            }
            _ => (0..members).collect(),
        };
        let prior_var = match config.method {
            AnalysisMethod::FlowMatching => {
                let mut var = batch_variance(forecast.as_slice(), members, dim, &batch);
                smooth_variance(&mut var, config.variance_smoothing);
                var
            }
            AnalysisMethod::ReverseSde => Vec::new(),
        };
        let score = BatchedScore::new(forecast.as_slice(), members, dim, config.schedule, &batch);
        BlockAnalysis {
            config,
            cycle_seed,
            dim,
            y: AlignedVec::from_slice(y),
            obs,
            batch,
            score,
            prior_var,
            times: time_grid(&config.schedule, config.n_steps),
        }
    }

    /// Integrates particles `particles` (global indices) on the calling
    /// thread and returns them as a `len x dim` row-major block, before
    /// spread relaxation: a fresh `N(0, I)` start from each particle's own
    /// stream, then the reverse SDE or the probability flow with posterior
    /// score = prior score + likelihood guidance. The block starts on a
    /// 64-byte cache line and is integrated in place.
    pub fn run_block(&self, particles: Range<usize>) -> AlignedVec<f64> {
        let (dim, b) = (self.dim, particles.len());
        let mut block = AlignedVec::zeroed(b * dim);
        if b == 0 {
            return block;
        }
        let schedule = &self.config.schedule;
        let mut rngs: Vec<_> = particles.map(|m| member_rng(self.cycle_seed, m)).collect();
        // The N(0, I) start: each row's draws, as `fill_standard_normal`
        // makes them (a scale of 1 is exact), on the lanes.
        scaled_normal_chunks(dim, &mut rngs, 1.0, |r: usize, c: usize, v: &[f64]| {
            block[r * dim + c..r * dim + c + v.len()].copy_from_slice(v);
        });
        let mut scratch = BatchScratch::new(b, self.score.batch_len(), dim);
        match self.config.method {
            AnalysisMethod::ReverseSde => reverse_sde_assimilate_batched(
                &mut block,
                schedule,
                &self.times,
                &self.score,
                self.obs,
                &self.y,
                &mut rngs,
                &mut scratch,
            ),
            AnalysisMethod::FlowMatching => probability_flow_assimilate_batched(
                &mut block,
                b,
                schedule,
                &self.times,
                &self.score,
                &self.prior_var,
                self.obs,
                &self.y,
                &mut scratch,
            ),
        }
        block
    }
}

/// Runs one EnSF analysis with the ensemble partitioned into the blocks of
/// `plan`: one parallel task per block, particles sequential within a
/// block (exactly as a rank would run them), blocks gathered in order,
/// then spread relaxation. Bitwise independent of the plan; it is
/// [`crate::Ensf::analyze`] with the cycle counter passed in.
///
/// # Panics
/// Panics when `plan` does not cover the ensemble, and as
/// [`BlockAnalysis::prepare`].
pub fn analyze_partitioned(
    config: &EnsfConfig,
    cycle: u64,
    plan: &RankPlan,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsOperator,
) -> Ensemble {
    let prepared = BlockAnalysis::prepare(config, cycle, forecast, y, obs);
    assemble(config, plan, forecast, |particles| prepared.run_block(particles))
}

/// Runs `run` on every block of `plan`, one parallel task per block,
/// copies the blocks into one ensemble in order and relaxes its spread.
///
/// # Panics
/// Panics when `plan` does not cover the ensemble.
pub(crate) fn assemble<B: AsRef<[f64]> + Send>(
    config: &EnsfConfig,
    plan: &RankPlan,
    forecast: &Ensemble,
    run: impl Fn(Range<usize>) -> B + Sync,
) -> Ensemble {
    let members = forecast.members();
    let dim = forecast.dim();
    assert_eq!(
        plan.blocks.last().map(|b| b.1),
        Some(members),
        "plan does not cover the ensemble"
    );
    let blocks = par::map(plan.blocks.len(), |b| {
        let (start, end) = plan.blocks[b];
        run(start..end)
    });

    let mut analysis = Ensemble::zeros(members, dim);
    for (&(start, end), block) in plan.blocks.iter().zip(&blocks) {
        analysis.as_mut_slice()[start * dim..end * dim].copy_from_slice(block.as_ref());
    }
    if config.spread_relaxation > 0.0 {
        relax_spread(&mut analysis, forecast, config.spread_relaxation);
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let obs = ObsOperator::identity(0.5);
        let y = vec![0.4; 16];
        let config = EnsfConfig { seed: 21, n_steps: 25, ..Default::default() };
        let reference = crate::Ensf::new(config.clone()).analyze(&fc, &y, &obs);
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

    /// Every block starts on a cache line, and a prepared analysis keeps
    /// its observation vector on one.
    #[test]
    fn blocks_and_observations_are_cache_line_aligned() {
        let fc = ens(12, 24, 4);
        let obs = ObsOperator::identity(0.5);
        let y = [0.1; 25];
        let config = EnsfConfig { seed: 3, n_steps: 4, ..Default::default() };
        let prepared = BlockAnalysis::prepare(&config, 0, &fc, &y[1..], &obs);
        assert_eq!(prepared.y.as_ptr().align_offset(64), 0);
        for range in [0..0, 0..1, 2..7, 0..12] {
            let block = prepared.run_block(range.clone());
            assert_eq!(block.len(), range.len() * 24);
            assert_eq!(block.as_ptr().align_offset(64), 0, "block {range:?}");
        }
    }

    #[test]
    fn different_cycles_differ() {
        let fc = ens(8, 8, 5);
        let obs = ObsOperator::identity(0.5);
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
