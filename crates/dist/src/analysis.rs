//! Particle-sharded EnSF analysis: ranks own particles, not state.
//!
//! The paper parallelizes the EnSF "along the dimension of the ensemble"
//! (§III-A3), and so does this module. The forecast ensemble is replicated;
//! rank `r` prepares the analysis from it ([`BlockAnalysis::prepare`]: the
//! mini-batch, the score evaluator, the flow prior variance, the time grid
//! — all pure functions of the replicated inputs), integrates the particles
//! of block `r` of [`RankPlan`]`::new(members, ranks)` with the serial
//! kernel on its own thread, and **one** allgather of the particle blocks
//! replicates the analysis ensemble. Spread relaxation then runs on every
//! rank over identical bytes.
//!
//! Nothing here is a second implementation of the filter. A particle's
//! bits depend on `(seed, cycle, its global index)` and the replicated
//! forecast only — never on which rank integrated it — so the gathered
//! ensemble is `da_core::EnsfScheme`'s, bit for bit, at every rank count
//! (ranks beyond the member count own an empty block), for both
//! [`ensf::AnalysisMethod`]s and every [`ObsSpec`]: a partial network's
//! vector is completed by the same [`Completion::Inpaint`] call the serial
//! scheme makes, from the replicated forecast, before the kernel sees it.
//! The tests below pin that.

use crate::shard::ShardPlan;
use crate::DistError;
use da_core::Completion;
use ensf::parallel::{BlockAnalysis, RankPlan};
use ensf::{relax_spread, EnsfConfig, ObsSpec};
use hpc::mpi::Comm;
use hpc::{collective_time, Collective, Topology};
use stats::Ensemble;

/// Simulated-network specification for the distributed runtime: the
/// machine topology whose α–β cost model prices every gather of the cycle.
///
/// It only prices: no collective fails because of it. A dead rank is the
/// live [`hpc::mpi`] path — a typed
/// [`hpc::MpiError::RankDead`]/[`hpc::MpiError::Revoked`] that
/// [`crate::elastic`] answers with a shrink-retry.
#[derive(Debug, Clone)]
pub struct CommSpec {
    /// Machine topology for the α–β collective cost model.
    pub topo: Topology,
}

impl CommSpec {
    /// A Frontier-like network for `ranks` ranks.
    pub fn clean(ranks: usize) -> Self {
        CommSpec { topo: Topology::frontier(ranks.max(1)) }
    }
}

/// Per-rank accounting of the cycle's collectives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Collectives executed: one member-block allgather per forecast and
    /// one particle-block allgather per analysis attempt.
    pub collectives: u64,
    /// Always equal to `collectives`: a modeled collective takes one
    /// attempt. Kept for callers that report both.
    pub attempts: u64,
    /// Modeled wall time of the collectives (α–β cost model); `0.0`
    /// without a [`CommSpec`].
    pub modeled_comm_secs: f64,
    /// Bytes moved through the collectives (payload, per rank).
    pub bytes: u64,
}

impl CommStats {
    /// Two ledgers summed: a rank's forecast and analysis gathers.
    pub(crate) fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            collectives: self.collectives + other.collectives,
            attempts: self.attempts + other.attempts,
            modeled_comm_secs: self.modeled_comm_secs + other.modeled_comm_secs,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Accounts one collective in `stats`, priced against `spec` when present.
pub(crate) fn model_collective(
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
    op: Collective,
    ranks: usize,
    bytes: u64,
) {
    stats.collectives += 1;
    stats.attempts += 1;
    stats.bytes += bytes;
    if let Some(spec) = spec {
        stats.modeled_comm_secs += collective_time(&spec.topo, op, ranks, bytes);
    }
}

/// Runs one sharded EnSF analysis over the communicator and returns this
/// rank's *state* block of the replicated analysis ensemble
/// (`P x plan.rank_len(rank)` row-major).
///
/// A compatibility face for callers that reassemble state blocks with their
/// own gather (`benchmark/`'s traced replica): the analysis itself is
/// [`analyze_replicated`], and the block is sliced out of its result, so
/// gathering the blocks by [`ShardPlan::rank_range`] rebuilds the analysis
/// bitwise. `plan` only chooses the slice. The gather is counted in `stats`
/// and priced against `spec` when present.
///
/// # Errors
/// [`DistError::Mpi`] when a peer dies in the gather or revokes its epoch.
///
/// # Panics
/// Panics when the plan disagrees with the communicator size or the
/// forecast dimension, and as [`BlockAnalysis::prepare`].
#[allow(clippy::too_many_arguments)]
pub fn dist_analyze(
    comm: &Comm,
    plan: &ShardPlan,
    config: &EnsfConfig,
    cycle: u64,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsSpec,
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
) -> Result<Vec<f64>, DistError> {
    assert_eq!(plan.ranks(), comm.size(), "plan/communicator size mismatch");
    assert_eq!(plan.dim(), forecast.dim(), "forecast dimension mismatch");
    let analysis = analyze_replicated(comm, config, cycle, forecast, y, obs, spec, stats)?;
    let (lo, hi) = plan.rank_range(comm.rank());
    Ok(analysis.iter().flat_map(|member| &member[lo..hi]).copied().collect())
}

/// One sharded analysis: this rank's particle block, the one gather, the
/// replicated relaxation. Returns the full analysis ensemble, identical on
/// every rank; a dead peer fails the gather typed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_replicated(
    comm: &Comm,
    config: &EnsfConfig,
    cycle: u64,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsSpec,
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
) -> Result<Ensemble, DistError> {
    let _span = telemetry::span!("dist.analysis");
    let (members, dim) = (forecast.members(), forecast.dim());
    let (start, end) = RankPlan::new(members, comm.size()).blocks[comm.rank()];
    // The prepared batch and the block's scratch die with this scope, so
    // they are not resident during the gather.
    let local = {
        let y = Completion::Inpaint.complete(obs, cycle, forecast, y);
        let operator = obs.operator();
        BlockAnalysis::prepare(config, cycle, forecast, &y, &operator).run_block(start..end)
    };

    let bytes = (members * dim * 8) as u64;
    model_collective(spec, stats, Collective::AllGather, comm.size(), bytes);
    // Blocks are contiguous ascending particle ranges in group order: laid
    // end to end they are the member-major analysis ensemble. It is copied
    // into a buffer this thread allocates instead of adopting the gathered
    // one, which a peer's thread allocated: an ensemble that outlives the
    // cycle in a foreign arena measured 31.0 MiB `peak_rss_mb` on
    // cyclebench's `rapid_dist2` against 27.2 MiB for this copy (parent
    // 27.7), so the extra P·d transient is the price accepted here.
    let gathered = comm.try_allgather_concat(&local)?;
    drop(local);
    assert_eq!(gathered.len(), members * dim, "gathered blocks do not cover the ensemble");
    let mut analysis = Ensemble::zeros(members, dim);
    analysis.as_mut_slice().copy_from_slice(&gathered);
    drop(gathered);
    if config.spread_relaxation > 0.0 {
        relax_spread(&mut analysis, forecast, config.spread_relaxation);
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::{AnalysisScheme, EnsfScheme};
    use ensf::{AnalysisMethod, MaskKind, ObsOperatorKind};
    use hpc::mpi::run_world;
    use stats::gaussian::fill_standard_normal;
    use stats::rng::member_rng;

    const DIM: usize = 96;
    const MEMBERS: usize = 6;

    fn gaussian_ensemble(members: usize, dim: usize, seed: u64) -> Ensemble {
        let mut e = Ensemble::zeros(members, dim);
        for m in 0..members {
            let mut rng = member_rng(seed, m);
            fill_standard_normal(&mut rng, e.member_mut(m));
        }
        e
    }

    /// One shrunk observation value per observed component.
    fn observation(obs: &ObsSpec, cycle: u64) -> Vec<f64> {
        (0..obs.obs_len(DIM, cycle)).map(|k| 0.25 + 0.001 * k as f64).collect()
    }

    /// Runs `dist_analyze` on `ranks` ranks and reassembles the state blocks
    /// the way the compatibility face's callers do.
    fn sharded(ranks: usize, config: &EnsfConfig, obs: &ObsSpec, cycle: u64) -> Vec<f64> {
        let forecast = gaussian_ensemble(MEMBERS, DIM, 11);
        let y = observation(obs, cycle);
        let plan = ShardPlan::new(DIM, 16, ranks);
        let blocks = run_world(ranks, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, config, cycle, &forecast, &y, obs, None, &mut stats).unwrap()
        });
        let mut full = vec![0.0; MEMBERS * DIM];
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            for p in 0..MEMBERS {
                full[p * DIM + lo..p * DIM + hi]
                    .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
            }
        }
        full
    }

    fn serial(config: &EnsfConfig, obs: &ObsSpec, cycle: u64) -> Vec<f64> {
        let forecast = gaussian_ensemble(MEMBERS, DIM, 11);
        let mut scheme = EnsfScheme::with_obs(config.clone(), DIM, *obs, Completion::Inpaint);
        scheme.set_rng_state(cycle, config.seed);
        scheme.analyze(&forecast, &observation(obs, cycle)).as_slice().to_vec()
    }

    /// The contract: at every rank count — uneven blocks, ranks = members,
    /// ranks > members — the reassembled sharded analysis is the serial
    /// scheme's, bit for bit, for every observation spec (partial networks
    /// inpainted on both sides) and mini-batch.
    fn assert_sharded_is_serial(base: EnsfConfig) {
        let operators = [ObsOperatorKind::Identity, ObsOperatorKind::Arctan { gain: 1.0 }];
        let masks = [
            MaskKind::Full,
            MaskKind::Block { start: 0, len: 56 },
            MaskKind::Track { width: 40, speed: 7 },
        ];
        for operator in operators {
            for mask in masks {
                for cycle in [0, 3] {
                    for minibatch in [None, Some(3)] {
                        let obs = ObsSpec { operator, mask, sigma: 0.05 };
                        let config = EnsfConfig { minibatch, ..base.clone() };
                        let want = serial(&config, &obs, cycle);
                        assert!(want.iter().all(|v| v.is_finite()));
                        for ranks in [1, 2, 3, 4, 6, 8] {
                            assert_eq!(
                                sharded(ranks, &config, &obs, cycle),
                                want,
                                "{ranks} ranks, {operator:?}, {mask:?}, cycle {cycle}, \
                                 minibatch {minibatch:?}, {config:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn sde() -> EnsfConfig {
        EnsfConfig { n_steps: 12, seed: 9, ..Default::default() }
    }

    fn flow() -> EnsfConfig {
        EnsfConfig { n_steps: 6, method: AnalysisMethod::FlowMatching, ..sde() }
    }

    #[test]
    fn sharded_sde_is_the_serial_filter_bitwise_batched() {
        assert_sharded_is_serial(sde());
    }

    #[test]
    fn sharded_flow_is_the_serial_filter_bitwise_batched() {
        assert_sharded_is_serial(flow());
    }

    #[test]
    fn smoothed_and_single_step_flow_are_the_serial_filter_bitwise() {
        // Variance smoothing averages over the whole state, as the serial
        // filter does; one DDIM step is the deepest deadline-ladder rung.
        let obs = ObsSpec::identity(0.4);
        for config in [
            EnsfConfig { variance_smoothing: 0.6, ..flow() },
            EnsfConfig { n_steps: 1, ..flow() },
        ] {
            let want = serial(&config, &obs, 0);
            assert!(want.iter().all(|v| v.is_finite()));
            for ranks in [2, 3, 8] {
                assert_eq!(sharded(ranks, &config, &obs, 0), want, "{ranks} ranks, {config:?}");
            }
        }
    }

    #[test]
    fn clean_commspec_accounts_time_without_failing() {
        let (dim, members) = (32, 4);
        let forecast = gaussian_ensemble(members, dim, 7);
        let y = vec![0.0; dim];
        let obs = ObsSpec::identity(1.0);
        let config = EnsfConfig { n_steps: 5, seed: 1, ..Default::default() };
        let plan = ShardPlan::new(dim, 8, 2);
        let spec = CommSpec::clean(2);
        let bytes = (members * dim * 8) as u64;
        let gather = hpc::collective_time(&spec.topo, Collective::AllGather, 2, bytes);
        let stats = run_world(2, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, Some(&spec), &mut stats)
                .map(|_| stats)
        });
        for s in stats {
            let s = s.unwrap();
            assert_eq!(s.collectives, 1, "one particle-block gather per analysis");
            assert_eq!(s.attempts, 1);
            assert_eq!(s.bytes, bytes);
            assert!(gather > 0.0);
            assert_eq!(s.modeled_comm_secs.to_bits(), gather.to_bits());
        }
    }
}
