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
//! The loop is `da_core::cycle::run_cycles`; [`crate::elastic`] fills its
//! slots for one rank, and this module is that driver with nothing
//! scripted.

use crate::analysis::{CommSpec, CommStats};
use crate::elastic::{run_elastic_from, run_elastic_osse, ElasticCycleConfig, ElasticRunResult};
use crate::DistError;
use da_core::osse::{CycleSeries, NatureRun, OsseConfig};
use ensf::{EnsfConfig, ObsSpec};
use hpc::mpi::Comm;
use stats::Ensemble;

/// Default of [`DistCycleConfig::tile`].
pub const DEFAULT_TILE: usize = 64;

/// Configuration of one distributed OSSE experiment.
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

/// Result of one distributed experiment (identical on every rank).
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

impl DistRunResult {
    /// The fault-free view of an elastic run on a `ranks`-rank group.
    fn from_elastic(run: ElasticRunResult, ranks: usize) -> Self {
        DistRunResult {
            series: CycleSeries { label: format!("dist-ensf@{ranks}r"), ..run.series },
            cycle_means: run.cycle_means.into_iter().map(|(_, mean)| mean).collect(),
            ensemble: run.ensemble,
            stats: run.stats,
        }
    }
}

/// Runs one distributed OSSE experiment on this rank's slice of the world:
/// the elastic driver ([`run_elastic_from`]) with no faults, stragglers,
/// deadline or checkpointing scripted.
///
/// Every rank receives the same configuration and nature run and returns
/// the same [`DistRunResult`] (bar [`CommStats`], which is per-rank) — the
/// replicated-state contract that [`run_osse`] asserts.
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
    let run = run_elastic_from(comm, &ElasticCycleConfig::clean(config.clone()), nature, None)?;
    Ok(DistRunResult::from_elastic(run, comm.size()))
}

/// Convenience driver: [`run_elastic_osse`] with nothing scripted — the
/// nature run, `ranks` simulated MPI ranks, the distributed experiment on
/// each, and rank 0's result after asserting the replicated-state contract.
///
/// # Errors
/// Propagates the (identical) per-rank [`DistError`].
///
/// # Panics
/// Panics if the ranks disagree on the analysis trajectory — a broken
/// internal invariant, not a user error.
pub fn run_osse(config: &DistCycleConfig, ranks: usize) -> Result<DistRunResult, DistError> {
    let run = run_elastic_osse(&ElasticCycleConfig::clean(config.clone()), ranks)?;
    Ok(DistRunResult::from_elastic(run, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::osse::nature_run;
    use hpc::mpi::run_world;
    use sqg::SqgParams;

    /// Reduced grid (d = 512, 8 members): fast enough for unit tests.
    fn tiny_config(cycles: usize) -> DistCycleConfig {
        DistCycleConfig {
            osse: OsseConfig {
                params: SqgParams { n: 16, ..Default::default() },
                cycles,
                obs_sigma: 0.005,
                ens_size: 8,
                ic_sigma: 0.01,
                spinup_steps: 40,
                seed: 3,
                ..Default::default()
            },
            ensf: EnsfConfig { n_steps: 10, seed: 5, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn cycling_is_bitwise_identical_across_rank_counts() {
        let config = tiny_config(2);
        let one = run_osse(&config, 1).unwrap();
        for ranks in [2, 4] {
            let many = run_osse(&config, ranks).unwrap();
            for (c, (a, b)) in one.cycle_means.iter().zip(&many.cycle_means).enumerate() {
                let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "cycle {c} diverged at {ranks} ranks");
            }
            assert_eq!(one.ensemble.as_slice(), many.ensemble.as_slice());
        }
    }

    #[test]
    fn masked_cycling_is_bitwise_identical_across_rank_counts() {
        // 25% contiguous outage spanning the top of level 0 and the bottom
        // of level 1; the shrunk observation vector must not leak any
        // rank-count dependence into the bits.
        let mut config = tiny_config(2);
        config.osse.obs_mask = da_core::MaskKind::Block { start: 192, len: 128 };
        let one = run_osse(&config, 1).unwrap();
        for ranks in [2, 4] {
            let many = run_osse(&config, ranks).unwrap();
            for (c, (a, b)) in one.cycle_means.iter().zip(&many.cycle_means).enumerate() {
                let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "masked cycle {c} diverged at {ranks} ranks");
            }
            assert_eq!(one.ensemble.as_slice(), many.ensemble.as_slice());
        }
    }

    #[test]
    fn moving_track_mask_cycles_across_ranks() {
        // The satellite track advances each cycle, so consecutive cycles
        // see different observed windows (and observation lengths).
        let mut config = tiny_config(3);
        config.osse.obs_mask = da_core::MaskKind::Track { width: 256, speed: 40 };
        let one = run_osse(&config, 1).unwrap();
        let four = run_osse(&config, 4).unwrap();
        assert_eq!(one.cycle_means, four.cycle_means);
        assert!(one.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn assimilation_tracks_truth() {
        let config = tiny_config(4);
        let result = run_osse(&config, 2).unwrap();
        assert_eq!(result.series.rmse.len(), 4);
        assert!(result.series.rmse.iter().all(|r| r.is_finite()));
        // With tight observations the analysis stays near the truth
        // (free-running forecasts drift to O(climatology) errors).
        let last = *result.series.rmse.last().unwrap();
        assert!(last < 0.05, "distributed DA lost the truth: RMSE {last}");
    }

    #[test]
    fn comm_spec_prices_cycling_collectives() {
        let mut config = tiny_config(1);
        config.comm = Some(CommSpec::clean(2));
        let result = run_osse(&config, 2).unwrap();
        // A member-block and a particle-block gather per cycle, whatever
        // the step count.
        assert_eq!(result.stats.collectives, 2);
        assert_eq!(result.stats.bytes, (2 * 8 * 512 * 8) as u64);
        assert!(result.stats.modeled_comm_secs > 0.0);
    }

    #[test]
    fn config_errors_are_reported_not_fatal() {
        let mut config = tiny_config(1);
        config.osse.cycles = 99; // nature run generated for 99, then truncated
        let nature = {
            let mut n = nature_run(&tiny_config(1).osse);
            n.observations.clear();
            n
        };
        let errs = run_world(1, |comm| run_dist_experiment(comm, &config, &nature).unwrap_err());
        assert!(matches!(&errs[0], DistError::Config(_)));

        // Enough observations but too few truth states to verify against.
        let config = tiny_config(2);
        let mut nature = nature_run(&config.osse);
        nature.truth.truncate(2);
        let errs = run_world(2, |comm| run_dist_experiment(comm, &config, &nature).unwrap_err());
        assert!(errs.iter().all(|e| matches!(e, DistError::Config(_))), "{errs:?}");
    }
}
