//! Distributed OSSE cycling: forecast → observe → analyze over ranks.
//!
//! The execution shape of the paper's Frontier campaigns (§IV) on the
//! simulated communicator. State is **replicated** at the two boundaries of
//! a cycle and work is sharded between them, over particles both times.
//! Each rank forecasts its block of members and one allgather replicates
//! the forecast ensemble (a member's forecast depends on its own state
//! only, so the bits are the member loop's). Each rank then integrates its
//! block of particles against the replicated forecast
//! ([`crate::analysis`]) and a second allgather replicates the analysis
//! ensemble for the next forecast. Spread relaxation and diagnostics
//! (RMSE, spread) are computed redundantly on every rank from identical
//! bytes, which keeps them trivially consistent.
//!
//! The loop is `da_core::cycle::run_cycles_with`, and [`crate::run_sharded`]
//! fills its slots on every rank. This module keeps the one-rank face the
//! benchmark adapter names: [`run_dist_experiment`] is that driver's
//! per-rank body with nothing scripted.

use crate::analysis::{CommSpec, CommStats};
use crate::elastic::{run_rank, Sharding};
use crate::DistError;
use da_core::cycle::Run;
use da_core::osse::{CycleSeries, NatureRun, OsseConfig};
use da_core::Analysis;
use ensf::{EnsfConfig, ObsSpec};
use hpc::mpi::Comm;
use stats::Ensemble;

/// Default of [`DistCycleConfig::tile`].
pub const DEFAULT_TILE: usize = 64;

/// Configuration of one distributed OSSE experiment, as the benchmark
/// adapter names it: a [`Run::new`] of an inpainting EnSF plus a
/// [`Sharding`], which is what everything else writes.
#[derive(Debug, Clone)]
pub struct DistCycleConfig {
    /// Twin-experiment setup (grid, cycles, observation noise, ensemble).
    pub osse: OsseConfig,
    /// EnSF filter settings (steps, seed, relaxation, method).
    pub ensf: EnsfConfig,
    /// Width of a [`crate::ShardPlan`] tile. **Not part of the numerics
    /// and not read by the cycling loop**: ranks own particles. Kept so
    /// callers of the state-block face of [`crate::dist_analyze`] have one
    /// place to take their plan's width from; a benchmark issue retires it
    /// together with that face.
    pub tile: usize,
    /// Optional simulated-network model: prices every collective with the
    /// α–β cost model into [`CommStats::modeled_comm_secs`]. It never
    /// changes the data path; `None` leaves the collectives unpriced.
    pub comm: Option<CommSpec>,
}

impl Default for DistCycleConfig {
    fn default() -> Self {
        DistCycleConfig {
            osse: OsseConfig::default(),
            ensf: EnsfConfig::default(),
            tile: DEFAULT_TILE,
            comm: None,
        }
    }
}

/// What the sharded analysis observes: the OSSE's own [`ObsSpec`], so it
/// assimilates through the operator and mask the nature run synthesized
/// its observations with.
pub fn dist_obs_for(osse: &OsseConfig) -> ObsSpec {
    osse.obs_spec()
}

/// Result of [`run_dist_experiment`] (identical on every rank): the parts
/// of a [`crate::ShardedRun`] the benchmark adapter reads.
#[derive(Debug, Clone)]
pub struct DistRunResult {
    /// Per-cycle verification series (same shape as the serial harness).
    pub series: CycleSeries,
    /// Analysis ensemble mean after every cycle — the bitwise fingerprint
    /// the determinism tests compare across rank counts.
    pub cycle_means: Vec<Vec<f64>>,
    /// Final analysis ensemble.
    pub ensemble: Ensemble,
    /// Collective accounting for this rank.
    pub stats: CommStats,
}

/// Runs one distributed OSSE experiment on this rank's slice of the
/// world: one rank's part of [`crate::run_sharded`] with nothing scripted,
/// labelled `dist-ensf@{ranks}r`. Kept for the benchmark adapter, which
/// names it; everything else calls [`crate::run_sharded`].
///
/// Every rank receives the same configuration and nature run and returns
/// the same [`DistRunResult`] (bar [`CommStats`], which is per-rank).
///
/// # Errors
/// [`DistError::Config`] when the nature run is too short or disagrees
/// with the model grid; [`DistError::Mpi`] only for a peer failure that
/// [`crate::elastic`]'s shrink-retry cannot absorb.
pub fn run_dist_experiment(
    comm: &Comm,
    config: &DistCycleConfig,
    nature: &NatureRun,
) -> Result<DistRunResult, DistError> {
    let ensf = Analysis::ensf(config.ensf.clone());
    let run = Run::new(format!("dist-ensf@{}r", comm.size()), config.osse.clone(), ensf);
    let sharding = Sharding { network: config.comm.clone(), ..Default::default() };
    let sharded = run_rank(comm, &run, &sharding, nature, None)?;
    Ok(DistRunResult {
        series: sharded.run.series,
        cycle_means: sharded.cycle_means.into_iter().map(|(_, mean)| mean).collect(),
        ensemble: sharded.run.checkpoint.ensemble,
        stats: sharded.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sharded, ShardedRun};
    use da_core::osse::nature_run;
    use hpc::mpi::run_world;
    use sqg::SqgParams;

    /// Reduced grid (d = 512, 8 members): fast enough for unit tests.
    fn tiny(cycles: usize) -> Run {
        let osse = OsseConfig {
            params: SqgParams { n: 16, ..Default::default() },
            cycles,
            obs_sigma: 0.005,
            ens_size: 8,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        };
        let ensf = EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
        Run::new("tiny", osse, Analysis::ensf(ensf))
    }

    fn sharded(run: &Run, sharding: &Sharding, ranks: usize) -> ShardedRun {
        run_sharded(run, sharding, ranks, &nature_run(&run.osse), None).unwrap()
    }

    fn assert_rank_invariant(run: &Run, what: &str) {
        let one = sharded(run, &Sharding::default(), 1);
        for ranks in [2, 4] {
            let many = sharded(run, &Sharding::default(), ranks);
            for ((c, a), (_, b)) in one.cycle_means.iter().zip(&many.cycle_means) {
                let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{what}cycle {c} diverged at {ranks} ranks");
            }
            let ensemble = |r: &ShardedRun| r.run.checkpoint.ensemble.as_slice().to_vec();
            assert_eq!(ensemble(&one), ensemble(&many));
        }
    }

    #[test]
    fn cycling_is_bitwise_identical_across_rank_counts() {
        assert_rank_invariant(&tiny(2), "");
    }

    #[test]
    fn masked_cycling_is_bitwise_identical_across_rank_counts() {
        // 25% contiguous outage spanning the top of level 0 and the bottom
        // of level 1; the shrunk observation vector must not leak any
        // rank-count dependence into the bits.
        let mut run = tiny(2);
        run.osse.obs_mask = da_core::MaskKind::Block { start: 192, len: 128 };
        assert_rank_invariant(&run, "masked ");
    }

    #[test]
    fn moving_track_mask_cycles_across_ranks() {
        // The satellite track advances each cycle, so consecutive cycles
        // see different observed windows (and observation lengths).
        let mut run = tiny(3);
        run.osse.obs_mask = da_core::MaskKind::Track { width: 256, speed: 40 };
        let one = sharded(&run, &Sharding::default(), 1);
        let four = sharded(&run, &Sharding::default(), 4);
        assert_eq!(one.cycle_means, four.cycle_means);
        assert!(one.run.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn assimilation_tracks_truth() {
        let result = sharded(&tiny(4), &Sharding::default(), 2);
        assert_eq!(result.run.series.rmse.len(), 4);
        assert!(result.run.series.rmse.iter().all(|r| r.is_finite()));
        // With tight observations the analysis stays near the truth
        // (free-running forecasts drift to O(climatology) errors).
        let last = *result.run.series.rmse.last().unwrap();
        assert!(last < 0.05, "distributed DA lost the truth: RMSE {last}");
    }

    #[test]
    fn comm_spec_prices_cycling_collectives() {
        let sharding = Sharding { network: Some(CommSpec::clean(2)), ..Default::default() };
        let result = sharded(&tiny(1), &sharding, 2);
        // A member-block and a particle-block gather per cycle, whatever
        // the step count.
        assert_eq!(result.stats.collectives, 2);
        assert_eq!(result.stats.bytes, (2 * 8 * 512 * 8) as u64);
        assert!(result.stats.modeled_comm_secs > 0.0);
    }

    #[test]
    fn config_errors_are_reported_not_fatal() {
        let mut run = tiny(1);
        run.osse.cycles = 99; // nature run generated for 1 cycle, then truncated
        let nature = {
            let mut n = nature_run(&tiny(1).osse);
            n.observations.clear();
            n
        };
        let sharding = Sharding::default();
        let rank = |comm: &Comm| run_rank(comm, &run, &sharding, &nature, None).unwrap_err();
        let errs = run_world(1, rank);
        assert!(matches!(&errs[0], DistError::Config(_)));

        // Enough observations but too few truth states to verify against.
        let run = tiny(2);
        let mut nature = nature_run(&run.osse);
        nature.truth.truncate(2);
        let errs = run_world(2, |comm| run_rank(comm, &run, &sharding, &nature, None).unwrap_err());
        assert!(errs.iter().all(|e| matches!(e, DistError::Config(_))), "{errs:?}");
    }
}
