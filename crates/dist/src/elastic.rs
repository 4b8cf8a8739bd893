//! Elastic rank-failure recovery on the cycle loop's slots.
//!
//! [`run_sharded`] runs one [`Run`] on every rank of a simulated world:
//! each rank hands it to `da_core::cycle::run_cycles_with` with the
//! member-sharded forecast as its model, the particle-sharded analysis of
//! [`Run::analysis`] as its scheme and the rank's membership in the world
//! as its process group, wired to the live fault machinery of [`hpc::mpi`].
//! The sharded face adds the machine, a [`Sharding`]. A rank killed by the
//! run's [`FaultPlan`](da_core::resilience::FaultPlan) leaves at the cycle
//! boundary and surfaces as [`hpc::MpiError::RankDead`] in the first
//! collective that misses it, the forecast gather (never a hang):
//!
//! 1. the detecting rank **revokes** the epoch, waking every parked peer
//!    with [`hpc::MpiError::Revoked`], and every survivor forecasts the
//!    members it is missing itself — the forecast gather never shrinks;
//! 2. the analysis gather meets the revoked epoch, and every survivor
//!    computes the same shrunken group (the current one minus this
//!    cycle's scripted victims and anything registered dead) and calls
//!    [`hpc::Comm::recover`] with the agreed generation counter;
//! 3. the analysis reports the shrink, and the loop decides the cycle's
//!    rung again and **redoes it from the replicated forecast**. The
//!    sharded analysis is the serial filter bit for bit at every rank
//!    count, so the redone cycle (and every later one) is a fresh run at
//!    the survivor count by construction.
//!
//! Dead ranks can **rejoin**: at the scripted cycle the coordinator
//! (lowest surviving world rank) revives the rank and sends it an
//! out-of-band grant, every survivor re-expands the group, and the
//! rejoiner restores the latest [`Checkpoint`] bit-identically.
//!
//! A **deadline** is the run's analysis budget ([`Run::budget`]), and the
//! sharded analysis of [`Run::fallback`] (fewer steps) fills the `fallback`
//! slot: the loop's one ladder (`da_core::resilience::decide_rung`) holds
//! each attempt's price ([`modeled_analysis_secs`], scaled by scripted
//! stragglers) to the budget. Prices are pure in `(cycle, membership,
//! scripts, config)`, so every rank takes the same rung and the trajectory
//! stays bitwise reproducible.

use crate::analysis::{analyze_replicated, CommSpec, CommStats};
use crate::forecast::ShardedForecast;
use crate::DistError;
use da_core::cycle::{run_cycles_with, Entry, ProcessGroup, Run, RunResult};
use da_core::osse::NatureRun;
use da_core::resilience::Checkpoint;
use da_core::{Analysis, AnalysisReport, AnalysisScheme, Completion, SqgForecast};
use ensf::parallel::RankPlan;
use ensf::EnsfConfig;
use hpc::mpi::{run_world, Comm};
use hpc::{collective_time, shard_step_compute_secs, Collective, MpiError, StragglerPlan};
use stats::Ensemble;

/// What the sharded face adds to a [`Run`]: the simulated machine every
/// rank runs its block of the run's analysis on.
#[derive(Debug, Clone, Default)]
pub struct Sharding {
    /// Optional simulated-network model: prices every collective with the
    /// α–β cost model into [`CommStats::modeled_comm_secs`] and the ladder's
    /// prices. It never changes the data path.
    pub network: Option<CommSpec>,
    /// Scripted per-rank slowdowns applied to the modeled analysis time.
    pub stragglers: StragglerPlan,
}

/// Recovery accounting of one elastic run (per rank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticCounters {
    /// Ranks shrunk away (one per dead rank excluded from the group).
    pub shrinks: u64,
    /// Group re-expansions this rank participated in (or performed).
    pub rejoins: u64,
}

/// One rank's sharded run; [`run_sharded`] returns world rank 0's.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The cycle loop's result: series, per-cycle log, end state. For a
    /// rejoiner the pre-death prefix of the series comes from the
    /// checkpoint, so a rank that ran to the end spans the full run.
    pub run: RunResult,
    /// `(cycle, analysis mean)` for every cycle this rank completed — the
    /// bitwise fingerprint compared across ranks and against fresh runs.
    pub cycle_means: Vec<(usize, Vec<f64>)>,
    /// `(cycle, group size)` after each completed cycle.
    pub group_sizes: Vec<(usize, usize)>,
    /// Recovery accounting.
    pub counters: ElasticCounters,
    /// Collective accounting for this rank.
    pub stats: CommStats,
}

/// Modeled wall time of one sharded analysis at `ranks` ranks with `steps`
/// SDE steps — the sharded analysis's price on the cycle loop's ladder.
/// Compute uses the GCD-rate model on the largest particle block;
/// communication is the one particle-block allgather, priced with the α–β
/// model on `network` (zero without one).
pub fn modeled_analysis_secs(
    network: Option<&CommSpec>,
    dim: usize,
    members: usize,
    steps: usize,
    ranks: usize,
) -> f64 {
    let block = RankPlan::new(members, ranks).max_block();
    let compute = steps as f64 * shard_step_compute_secs(block, dim);
    let comm = network.map_or(0.0, |spec| {
        let bytes = (members * dim * 8) as u64;
        collective_time(&spec.topo, Collective::AllGather, ranks, bytes)
    });
    compute + comm
}

/// Parks a dead rank until its scripted rejoin grant arrives; a coordinator
/// that leaves without sending it wakes the rank with
/// [`MpiError::RankDead`], which is [`Entry::Gone`]. On a grant, loads the
/// boundary checkpoint; on a missing or stale one the rank leaves again,
/// and the survivors shrink it away instead of hanging on it.
fn dead_wait(comm: &Comm, run: &Run, died_at: usize) -> Entry {
    let me = comm.world_rank();
    let world = comm.world_size();
    let faults = &run.faults;
    let Some(rejoin) = faults
        .rank_rejoins
        .iter()
        .filter(|r| r.rank == me && r.cycle > died_at && r.cycle < run.osse.cycles)
        .min_by_key(|r| r.cycle)
    else {
        return Entry::Gone;
    };
    // The grantor is the lowest world rank alive at the rejoin cycle that
    // is not itself rejoining then — a pure function of the script, so the
    // rejoiner and the survivors agree without communicating.
    let mut members = faults.membership_at(rejoin.cycle, world);
    let rejoins_then = |r: usize| {
        faults.rank_rejoins.iter().any(|j| j.rank == r && j.cycle == rejoin.cycle)
    };
    members.retain(|&r| !rejoins_then(r));
    let Some(&coordinator) = members.first() else {
        return Entry::Gone;
    };
    let Ok(grant) = comm.recv_grant(coordinator) else {
        return Entry::Gone;
    };
    let generation = grant.first().copied().unwrap_or(0.0) as u64;
    let at_cycle = grant.get(1).copied().unwrap_or(0.0) as usize;
    let checkpoint = run
        .checkpoint
        .as_ref()
        .and_then(|ck| Checkpoint::load(&ck.path).ok())
        .filter(|ck| ck.cycle == at_cycle);
    let Some(checkpoint) = checkpoint else {
        // Can't restore bit-identical state: leave again. Exit registers
        // the rank dead, so the survivors' next collective sees RankDead
        // and shrinks it away.
        return Entry::Gone;
    };
    let new_members = faults.membership_at(at_cycle, world);
    comm.recover(&new_members, generation);
    Entry::Restore(Box::new(checkpoint))
}

/// The EnSF settings of `analysis`, the value of the [`Run`] field `field`:
/// the sharded face runs inpainting EnSF only.
fn sharded_ensf<'a>(field: &str, analysis: &'a Analysis) -> Result<&'a EnsfConfig, DistError> {
    match analysis {
        Analysis::Ensf { config, completion: Completion::Inpaint } => {
            config.validate().map_err(DistError::Config)?;
            Ok(config)
        }
        _ => Err(DistError::Config(format!(
            "{field} is {analysis:?}, but the sharded face runs only inpainting EnSF"
        ))),
    }
}

/// What the sharded face refuses before any rank cycles, or the EnSF
/// settings of its analysis and its fallback. Ranks the world cannot lose
/// are the loop's to refuse.
fn validate(run: &Run) -> Result<(&EnsfConfig, Option<&EnsfConfig>), DistError> {
    let cycles = run.osse.cycles;
    let primary = sharded_ensf("Run::analysis", &run.analysis)?;
    let fallback = run.fallback.as_ref().map(|f| sharded_ensf("Run::fallback", f)).transpose()?;
    let faults = &run.faults;
    let serial_only = [
        ("FaultPlan::member_faults", !faults.member_faults.is_empty()),
        ("FaultPlan::obs_faults", !faults.obs_faults.is_empty()),
        ("FaultPlan::analysis_faults", !faults.analysis_faults.is_empty()),
        ("FaultPlan::kill_after", faults.kill_after.is_some()),
        ("Run::health", run.health.is_some()),
    ];
    if let Some((field, _)) = serial_only.iter().find(|(_, set)| *set) {
        return Err(DistError::Config(format!(
            "{field} is set, but the sharded face runs unsupervised and reads only the fault \
             plan's rank channels"
        )));
    }
    for k in &faults.rank_kills {
        if k.cycle >= cycles {
            let why = format!("scripted kill at cycle {} of a {cycles}-cycle run", k.cycle);
            return Err(DistError::Config(why));
        }
    }
    for r in &faults.rank_rejoins {
        let killed_before = faults.rank_kills.iter().any(|k| k.rank == r.rank && k.cycle < r.cycle);
        let why = if !killed_before {
            format!("rejoin of rank {} at cycle {} without a preceding kill", r.rank, r.cycle)
        } else if run.checkpoint.is_none() {
            "rank rejoin requires checkpointing (Run::checkpoint)".to_string()
        } else {
            continue;
        };
        return Err(DistError::Config(why));
    }
    match (run.budget, fallback) {
        (None, None) => Ok((primary, None)),
        (Some(budget), Some(degraded)) => {
            if budget <= 0.0 || budget.is_nan() {
                return Err(DistError::Config("deadline budget must be positive".into()));
            }
            let steps = degraded.n_steps;
            if steps == 0 || steps >= primary.n_steps {
                return Err(DistError::Config(format!(
                    "Run::fallback's step count {steps} must be in 1..{}",
                    primary.n_steps
                )));
            }
            Ok((primary, fallback))
        }
        _ => Err(DistError::Config(
            "Run::budget and Run::fallback are set together or not at all".into(),
        )),
    }
}

/// This rank's membership in the world: the [`ProcessGroup`] the cycle
/// loop consults at every boundary. World rank 0 leads — it speaks for the
/// (replicated) world, writing the postmortems and the checkpoints; the
/// loop refuses to kill it, so the lead never changes hands.
struct RankGroup<'a> {
    comm: &'a Comm,
    run: &'a Run,
    rejoins: u64,
    cycle_means: Vec<(usize, Vec<f64>)>,
    group_sizes: Vec<(usize, usize)>,
}

impl ProcessGroup for RankGroup<'_> {
    fn leads(&self) -> bool {
        self.comm.world_rank() == 0
    }

    fn enter_cycle(&mut self, cycle: usize, events: &mut Vec<String>) -> Entry {
        let (comm, faults) = (self.comm, &self.run.faults);
        let me = comm.world_rank();

        // Rejoin admission (survivor side).
        let admitting: Vec<usize> = {
            let group = comm.group();
            faults
                .rank_rejoins
                .iter()
                .filter(|r| r.cycle == cycle && r.rank != me && !group.contains(&r.rank))
                .map(|r| r.rank)
                .collect()
        };
        if !admitting.is_empty() {
            let generation = comm.epoch() + 1;
            if comm.rank() == 0 {
                for &r in &admitting {
                    // `revive` takes only a rank seen dead, and `r`'s
                    // scripted `kill` may still be on its way: `r` sends no
                    // grant, so waiting for one ends at its death notice.
                    let _ = comm.recv_grant(r);
                    comm.revive(r);
                    comm.send_grant(r, &[generation as f64, cycle as f64]);
                }
            }
            comm.recover(&faults.membership_at(cycle, comm.world_size()), generation);
            self.rejoins += admitting.len() as u64;
            events.push("rank_rejoin".to_string());
        }

        // A scripted victim dies here, at the boundary: it never enters a
        // collective this cycle. The survivors meet its absence at the
        // forecast gather, which revokes the epoch and falls back, and
        // shrink at the analysis gather (or, on a forecast-only cycle, at
        // the next one).
        if faults.rank_kill_at(cycle, me).is_none() {
            return Entry::Proceed;
        }
        comm.kill();
        let entry = dead_wait(comm, self.run, cycle);
        if matches!(entry, Entry::Restore(_)) {
            self.rejoins += 1;
        }
        entry
    }

    /// Forced when the next cycle admits a rejoiner: the grant is only
    /// sent after this write, so the restored state is always the boundary
    /// state.
    fn forces_checkpoint(&self, completed: usize) -> bool {
        self.run.faults.rank_rejoins.iter().any(|r| r.cycle == completed)
    }

    fn world_size(&self) -> usize {
        self.comm.world_size()
    }

    fn completed(&mut self, cycle: usize, mean: &[f64], _analysis_secs: f64) {
        self.cycle_means.push((cycle, mean.to_vec()));
        self.group_sizes.push((cycle, self.comm.size()));
    }
}

/// The sharded analysis as an [`AnalysisScheme`]: one priced
/// [`analyze_replicated`] attempt on the current group. A peer dying in its
/// gather shrinks the group and reports it, so the loop decides again.
struct ShardedEnsf<'a> {
    comm: &'a Comm,
    run: &'a Run,
    sharding: &'a Sharding,
    /// The filter: the run's analysis, or its fallback.
    config: &'a EnsfConfig,
    /// Index of the next analysis cycle (noise streams, mask alignment).
    epoch: u64,
    seed: u64,
    report: AnalysisReport,
    /// The typed failure behind an aborting report.
    error: Option<DistError>,
    shrinks: u64,
    stats: CommStats,
}

impl ShardedEnsf<'_> {
    /// Shrinks the group to the survivors of this cycle's scripted kills
    /// (plus anything registered dead out of script, e.g. a failed
    /// rejoiner). Every survivor computes the same set from the same
    /// script, so the recovery needs no agreement round.
    fn shrink(&mut self, cycle: usize) {
        let comm = self.comm;
        let group = comm.group();
        let survivors: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&r| self.run.faults.rank_kill_at(cycle, r).is_none() && comm.is_alive(r))
            .collect();
        let excluded = group.len() - survivors.len();
        comm.recover(&survivors, comm.epoch() + 1);
        self.shrinks += excluded as u64;
        self.report.shrunk = true;
        self.report.events.push("rank_dead_shrink".to_string());
        self.report.postmortems.push("rank_dead_shrink");
    }
}

impl AnalysisScheme for ShardedEnsf<'_> {
    fn name(&self) -> &str {
        "sharded-EnSF"
    }

    fn analyze(&mut self, forecast: &Ensemble, y: &[f64]) -> Ensemble {
        let comm = self.comm;
        let cycle = self.epoch;
        self.epoch += 1;
        let ensf = EnsfConfig { seed: self.seed, ..self.config.clone() };
        let (obs, spec) = (self.run.osse.obs_spec(), self.sharding.network.as_ref());
        let attempt =
            analyze_replicated(comm, &ensf, cycle, forecast, y, &obs, spec, &mut self.stats);
        match attempt {
            Ok(analysis) => return analysis,
            Err(DistError::Mpi(MpiError::RankDead { .. })) => {
                comm.revoke();
                self.shrink(cycle as usize);
            }
            Err(DistError::Mpi(MpiError::Revoked)) => self.shrink(cycle as usize),
            Err(e) => {
                self.report.abort = Some(e.to_string());
                self.error = Some(e);
            }
        }
        forecast.clone()
    }

    fn rng_state(&self) -> (u64, u64) {
        (self.epoch, self.seed)
    }

    fn set_rng_state(&mut self, epoch: u64, seed: u64) {
        self.epoch = epoch;
        self.seed = seed;
    }

    fn modeled_secs(&self) -> Option<f64> {
        let (osse, group) = (&self.run.osse, self.comm.group());
        let slow = self.sharding.stragglers.worst(self.epoch as usize, &group);
        let (dim, members, network) =
            (osse.params.state_dim(), osse.ens_size, self.sharding.network.as_ref());
        Some(slow * modeled_analysis_secs(network, dim, members, self.config.n_steps, group.len()))
    }

    fn take_report(&mut self) -> AnalysisReport {
        std::mem::take(&mut self.report)
    }
}

/// One rank's part of [`run_sharded`]: the cycle loop ([`run_cycles_with`])
/// with this rank's `{member-sharded forecast, sharded analysis, group
/// membership}` in its slots, from `resume` if given. A rank that leaves
/// the loop — with an error or at the end — is registered dead once its
/// world drops its `comm` (survivors of a kill that only forecast-only
/// cycles followed never got back in step), so its peers meet a typed
/// [`MpiError::RankDead`] rather than a silent member. A rank that dies and
/// never rejoins returns its partial trajectory with `run.interrupted` set.
pub(crate) fn run_rank(
    comm: &Comm,
    run: &Run,
    sharding: &Sharding,
    nature: &NatureRun,
    resume: Option<&Checkpoint>,
) -> Result<ShardedRun, DistError> {
    let (primary, fallback) = validate(run)?;
    let mut group =
        RankGroup { comm, run, rejoins: 0, cycle_means: Vec::new(), group_sizes: Vec::new() };
    let sharded = |config| ShardedEnsf {
        comm,
        run,
        sharding,
        config,
        epoch: 0,
        seed: config.seed,
        report: AnalysisReport::default(),
        error: None,
        shrinks: 0,
        stats: CommStats::default(),
    };
    let mut scheme = sharded(primary);
    let mut degraded = fallback.map(sharded);
    let perfect = SqgForecast::perfect(run.osse.params.clone());
    let mut model = ShardedForecast::new(comm, perfect, sharding.network.as_ref());
    let fallback = degraded.as_mut().map(|s| s as &mut dyn AnalysisScheme);
    let result = run_cycles_with(
        run, nature, &mut model, &mut scheme, fallback, &mut group, resume.cloned(),
    );
    let (mut shrinks, mut stats, mut error) = (0, model.stats, None);
    for s in std::iter::once(scheme).chain(degraded) {
        shrinks += s.shrinks;
        stats = stats.merged(s.stats);
        error = error.or(s.error);
    }
    let result = result.map_err(|e| error.unwrap_or_else(|| e.into()))?;
    Ok(ShardedRun {
        run: result,
        cycle_means: group.cycle_means,
        group_sizes: group.group_sizes,
        counters: ElasticCounters { shrinks, rejoins: group.rejoins },
        stats,
    })
}

/// Runs `run` on `ranks` simulated MPI ranks against `nature`, every rank
/// from `resume` if given (a checkpoint from any face of the cycle loop:
/// a serial run's resumes here, and this driver's resume there). Asserts
/// that every rank's trajectory agrees bitwise with world rank 0's on the
/// cycles both completed — and, for ranks that ran to the end, on the
/// final ensemble — and returns rank 0's result (the loop refuses to kill
/// rank 0, so its trajectory spans the run). With nothing scripted this is
/// the serial run of the same [`Run`] bit for bit, at every rank count.
///
/// # Errors
/// [`DistError::Config`] for what this face refuses (an analysis or a
/// fallback other than inpainting EnSF, the serial fault channels,
/// [`Run::health`], a budget without a fallback or a fallback without a
/// budget) and
/// for what the loop refuses; [`DistError::Checkpoint`] when `resume` does
/// not fit the experiment or a checkpoint cannot be written;
/// [`DistError::Mpi`] only for fault patterns the recovery cannot absorb.
///
/// # Panics
/// Panics if surviving ranks disagree on the analysis trajectory — a
/// broken determinism invariant, not a user error.
pub fn run_sharded(
    run: &Run,
    sharding: &Sharding,
    ranks: usize,
    nature: &NatureRun,
    resume: Option<&Checkpoint>,
) -> Result<ShardedRun, DistError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut results = run_world(ranks, |comm| run_rank(comm, run, sharding, nature, resume));
    let first = results.remove(0)?;
    for (i, result) in results.into_iter().enumerate() {
        let result = result?;
        for (c, mean) in &result.cycle_means {
            if let Some((_, m0)) = first.cycle_means.iter().find(|(c0, _)| c0 == c) {
                let rank = i + 1;
                assert_eq!(bits(mean), bits(m0), "rank {rank} disagrees with rank 0 at cycle {c}");
            }
        }
        if !result.run.interrupted {
            assert_eq!(
                bits(result.run.checkpoint.ensemble.as_slice()),
                bits(first.run.checkpoint.ensemble.as_slice()),
                "surviving rank {} disagrees with rank 0 on the final ensemble",
                i + 1
            );
        }
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::osse::{nature_run, OsseConfig};
    use da_core::resilience::{CheckpointConfig, FaultPlan, RankKill, RankRejoin, Rung};
    use sqg::SqgParams;

    /// The EnSF of the runs below at `n_steps` steps.
    fn ensf(n_steps: usize) -> Analysis {
        Analysis::ensf(EnsfConfig { n_steps, seed: 5, ..Default::default() })
    }

    /// Reduced grid (d = 512, 8 members), mirroring the cycle tests.
    fn tiny_config(cycles: usize) -> (Run, Sharding) {
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
        (Run::new("elastic", osse, ensf(10)), Sharding::default())
    }

    fn sharded(run: &Run, sharding: &Sharding, ranks: usize) -> Result<ShardedRun, DistError> {
        run_sharded(run, sharding, ranks, &nature_run(&run.osse), None)
    }

    fn modeled(run: &Run, sharding: &Sharding, steps: usize, ranks: usize) -> f64 {
        let (dim, members) = (run.osse.params.state_dim(), run.osse.ens_size);
        modeled_analysis_secs(sharding.network.as_ref(), dim, members, steps, ranks)
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sqg_da_elastic_{name}_{}.ckpt", std::process::id()))
    }

    #[test]
    fn killed_rank_shrinks_group_and_trajectory_matches_survivor_count() {
        let (mut run, sharding) = tiny_config(3);
        run.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
        let faulted = sharded(&run, &sharding, 3).unwrap();
        assert!(!faulted.run.interrupted);
        assert_eq!(faulted.counters.shrinks, 1);
        assert_eq!(faulted.run.event_count("rank_dead_shrink"), 1);
        assert_eq!(faulted.group_sizes, vec![(0, 3), (1, 2), (2, 2)]);

        // Bitwise: cycle 0 matches a clean 3-rank run, cycles 1.. match a
        // clean 2-rank run (rank-count invariance makes them all equal).
        let (clean_run, _) = tiny_config(3);
        let clean = sharded(&clean_run, &sharding, 2).unwrap();
        for ((c, a), (c2, b)) in faulted.cycle_means.iter().zip(&clean.cycle_means) {
            assert_eq!(c, c2);
            let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "post-shrink cycle {c} diverged from 2-rank run");
        }
    }

    #[test]
    fn non_finite_nature_run_is_a_config_error() {
        let (run, sharding) = tiny_config(2);
        let mut nature = nature_run(&run.osse);
        nature.truth[1][5] = f64::NAN;
        let err = run_sharded(&run, &sharding, 2, &nature, None).unwrap_err();
        let want = da_core::OsseError::NonFiniteNature { cycle: 1 }.to_string();
        assert!(matches!(&err, DistError::Config(why) if *why == want), "{err:?}");
    }

    #[test]
    fn kill_during_final_gather_is_survived() {
        let (mut run, sharding) = tiny_config(2);
        run.faults.rank_kills.push(RankKill { cycle: 0, rank: 1 });
        let result = sharded(&run, &sharding, 2).unwrap();
        assert_eq!(result.counters.shrinks, 1);
        assert_eq!(result.group_sizes.last(), Some(&(1, 1)));
    }

    #[test]
    fn rejoin_restores_full_group_bitwise() {
        let path = ckpt_path("rejoin");
        let (mut run, sharding) = tiny_config(4);
        run.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
        run.faults.rank_rejoins.push(RankRejoin { cycle: 3, rank: 1 });
        run.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 1 });

        let nature = nature_run(&run.osse);
        let results = run_world(2, |comm| run_rank(comm, &run, &sharding, &nature, None));
        let r0 = results[0].as_ref().unwrap();
        let r1 = results[1].as_ref().unwrap();
        assert!(!r0.run.interrupted);
        assert!(!r1.run.interrupted, "rank 1 must rejoin and finish");
        assert_eq!(r0.group_sizes, vec![(0, 2), (1, 1), (2, 1), (3, 2)]);
        // The rejoiner's resumed trajectory matches the survivor's bitwise,
        // including the full series prefix restored from the checkpoint.
        assert_eq!(r0.run.series.rmse, r1.run.series.rmse);
        assert_eq!(r0.run.checkpoint.ensemble.as_slice(), r1.run.checkpoint.ensemble.as_slice());
        let r1_cycles: Vec<usize> = r1.cycle_means.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            r1_cycles,
            vec![0, 3],
            "rejoiner computes its pre-death and post-rejoin cycles, skipping the dead gap"
        );
        for (c, mean) in &r1.cycle_means {
            let (_, m0) = r0.cycle_means.iter().find(|(c0, _)| c0 == c).unwrap();
            assert_eq!(mean, m0, "rejoiner disagrees with survivor at cycle {c}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadline_ladder_degrades_then_recovers() {
        let (mut run, mut sharding) = tiny_config(3);
        sharding.network = Some(crate::CommSpec::clean(2));
        // Straggler slows rank 1 by 50× in cycle 1 only; budget sits just
        // above the clean full-analysis estimate.
        let full = modeled(&run, &sharding, 10, 2);
        sharding.stragglers = StragglerPlan {
            events: vec![hpc::Straggler { rank: 1, from_cycle: 1, to_cycle: 1, slowdown: 50.0 }],
        };
        run.budget = Some(full * 2.0);
        run.fallback = Some(ensf(3));
        let result = sharded(&run, &sharding, 2).unwrap();
        let rungs: Vec<Rung> = result.run.cycles.iter().map(|c| c.rung).collect();
        assert_eq!(rungs[0], Rung::Primary);
        assert_ne!(rungs[1], Rung::Primary, "50× straggler must force degradation");
        assert_eq!(rungs[2], Rung::Primary);
        assert!(rungs.iter().filter(|&&r| r != Rung::Primary).count() >= 1);
        assert!(result.run.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn forecast_only_cycle_counts_as_deadline_miss() {
        let (mut run, mut sharding) = tiny_config(2);
        sharding.network = Some(crate::CommSpec::clean(2));
        let degraded = modeled(&run, &sharding, 3, 2);
        // Budget below even the degraded estimate: every cycle drops to
        // forecast-only and the hit-rate collapses to zero.
        run.budget = Some(degraded * 0.5);
        run.fallback = Some(ensf(3));
        let result = sharded(&run, &sharding, 2).unwrap();
        let on = |rung| result.run.cycles.iter().filter(|c| c.rung == rung).count();
        assert_eq!(on(Rung::ForecastOnly), 2);
        assert_eq!(on(Rung::Primary) + on(Rung::Fallback), 0, "no deadline hits");
        assert_eq!(result.run.cycles.len(), 2);
    }

    #[test]
    fn invalid_scripts_are_config_errors() {
        let (mut kill0, sharding) = tiny_config(2);
        kill0.faults.rank_kills.push(RankKill { cycle: 0, rank: 0 });
        assert!(matches!(sharded(&kill0, &sharding, 2), Err(DistError::Config(_))));

        // A rank outside the world is the loop's to refuse.
        let (mut outside, sharding) = tiny_config(2);
        outside.faults.rank_kills.push(RankKill { cycle: 0, rank: 2 });
        assert!(matches!(sharded(&outside, &sharding, 2), Err(DistError::Config(_))));

        let (mut orphan, sharding) = tiny_config(4);
        orphan.faults.rank_rejoins.push(RankRejoin { cycle: 2, rank: 1 });
        assert!(matches!(sharded(&orphan, &sharding, 2), Err(DistError::Config(_))));

        // The fallback runs fewer steps than the analysis, and at least one.
        for steps in [0, 10] {
            let (mut bad_deadline, sharding) = tiny_config(2);
            bad_deadline.budget = Some(1.0);
            bad_deadline.fallback = Some(ensf(steps));
            let refused = sharded(&bad_deadline, &sharding, 2);
            assert!(matches!(refused, Err(DistError::Config(_))), "{steps} steps: {refused:?}");
        }

        // The budget and the fallback come together.
        let (mut budget_only, sharding) = tiny_config(2);
        budget_only.budget = Some(1.0);
        assert!(matches!(sharded(&budget_only, &sharding, 2), Err(DistError::Config(_))));
        let (mut fallback_only, sharding) = tiny_config(2);
        fallback_only.fallback = Some(ensf(3));
        assert!(matches!(sharded(&fallback_only, &sharding, 2), Err(DistError::Config(_))));
    }

    #[test]
    fn serial_fault_channels_are_config_errors() {
        use da_core::resilience::{
            AnalysisFault, HealthPolicy, MemberFault, MemberFaultKind, ObsFault,
        };
        let member = MemberFault { cycle: 0, member: 1, kind: MemberFaultKind::Nan };
        let (clean, sharding) = tiny_config(2);
        let policy = HealthPolicy::for_obs_sigma(0.005);
        let letkf = Analysis::Letkf(Default::default());
        let config = EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
        let zero_fill = Analysis::Ensf { config, completion: Completion::ZeroFill };
        let faulted = |faults| Run { faults, ..clean.clone() };
        let scripts = [
            (
                "member_faults",
                faulted(FaultPlan { member_faults: vec![member], ..FaultPlan::none() }),
            ),
            (
                "obs_faults",
                faulted(FaultPlan { obs_faults: vec![(0, ObsFault::Drop)], ..FaultPlan::none() }),
            ),
            (
                "analysis_faults",
                faulted(FaultPlan {
                    analysis_faults: vec![AnalysisFault { cycle: 0, failures: 1 }],
                    ..FaultPlan::none()
                }),
            ),
            ("kill_after", faulted(FaultPlan { kill_after: Some(1), ..FaultPlan::none() })),
            ("Run::health", Run { health: Some(policy), ..clean.clone() }),
            // The sharded analysis is inpainting EnSF, so is its fallback.
            ("Run::analysis", Run { analysis: letkf.clone(), ..clean.clone() }),
            ("Run::analysis", Run { analysis: Analysis::None, ..clean.clone() }),
            ("Run::analysis", Run { analysis: zero_fill, ..clean.clone() }),
            ("Run::fallback", Run { budget: Some(1.0), fallback: Some(letkf), ..clean }),
        ];
        for (channel, run) in scripts {
            match sharded(&run, &sharding, 2) {
                Err(DistError::Config(msg)) => assert!(msg.contains(channel), "{channel}: {msg}"),
                other => panic!("{channel} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_like_the_serial_resume() {
        let (run, sharding) = tiny_config(3);
        let osse = &run.osse;
        let dim = osse.params.state_dim();
        let nature = nature_run(osse);
        let good = Checkpoint {
            cycle: 1,
            state: da_core::resilience::LoopState::Healthy,
            scheme_epoch: 1,
            scheme_seed: 5,
            ensemble: Ensemble::zeros(osse.ens_size, dim),
            prev_mean: vec![0.0; dim],
            hours: vec![12.0],
            rmse: vec![0.1],
            spread: vec![0.1],
            counters: Default::default(),
            model_state: None,
        };
        let resume = |ck: &Checkpoint| run_sharded(&run, &sharding, 2, &nature, Some(ck));
        assert!(resume(&good).is_ok(), "the template itself fits");
        let wrong_members =
            Checkpoint { ensemble: Ensemble::zeros(osse.ens_size + 1, dim), ..good.clone() };
        let wrong_mean = Checkpoint { prev_mean: vec![0.0; dim - 1], ..good.clone() };
        let past_the_end = Checkpoint { cycle: 4, ..good.clone() };
        let longer_series = Checkpoint {
            hours: vec![12.0, 999.0],
            rmse: vec![0.1, 0.1],
            spread: vec![0.1, 0.1],
            ..good.clone()
        };
        let wrong_dim = Checkpoint {
            ensemble: Ensemble::zeros(osse.ens_size, dim + 1),
            prev_mean: vec![0.0; dim + 1],
            ..good
        };
        for bad in [wrong_members, wrong_mean, past_the_end, longer_series, wrong_dim] {
            assert_eq!(
                resume(&bad).unwrap_err(),
                DistError::Checkpoint(da_core::resilience::CheckpointError::BadHeader)
            );
        }
    }

    #[test]
    fn failed_checkpoint_write_is_an_error_not_a_hang() {
        // The lead cannot write its boundary checkpoint and leaves with the
        // error; it is registered dead on the way out, so its peer meets
        // a typed `RankDead` in the next gather and finishes alone instead
        // of waiting on a silent member forever.
        let (mut run, sharding) = tiny_config(3);
        let path = std::env::temp_dir().join("sqg_da_no_such_dir").join("elastic.ckpt");
        run.checkpoint = Some(CheckpointConfig { path, every: 1 });
        let nature = nature_run(&run.osse);
        let results = run_world(2, |comm| run_rank(comm, &run, &sharding, &nature, None));
        assert!(matches!(&results[0], Err(DistError::Checkpoint(_))), "{:?}", results[0]);
        let survivor = results[1].as_ref().expect("rank 1 shrinks the lead away and completes");
        assert!(!survivor.run.interrupted);
        assert_eq!(survivor.group_sizes, vec![(0, 2), (1, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "rank 1 fails")]
    fn a_panicking_rank_fails_the_run_instead_of_hanging_it() {
        // Rank 1 unwinds without calling `kill`: its exit registers it
        // dead, rank 0 shrinks it away and finishes, and `run_world`
        // re-raises rank 1's own panic.
        let (run, sharding) = tiny_config(2);
        let nature = nature_run(&run.osse);
        run_world(2, |comm| {
            if comm.world_rank() == 1 {
                panic!("rank 1 fails");
            }
            run_rank(comm, &run, &sharding, &nature, None)
        });
    }

    #[test]
    fn resume_from_checkpoint_continues_bitwise() {
        let path = ckpt_path("resume");
        let (mut with_ck, sharding) = tiny_config(4);
        with_ck.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 2 });
        let nature = nature_run(&with_ck.osse);
        let full = run_sharded(&with_ck, &sharding, 2, &nature, None).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.cycle, 4);

        // Re-run the first half, then resume the second half from its
        // boundary checkpoint; the tail must match the uninterrupted run.
        let mut half = with_ck.clone();
        half.osse.cycles = 2;
        run_sharded(&half, &sharding, 2, &nature, None).unwrap();
        let mid = Checkpoint::load(&path).unwrap();
        assert_eq!(mid.cycle, 2);
        let resumed = run_sharded(&with_ck, &sharding, 2, &nature, Some(&mid)).unwrap();
        for (c, mean) in &resumed.cycle_means {
            let (_, reference) =
                full.cycle_means.iter().find(|(c0, _)| c0 == c).expect("cycle in full run");
            let bits: Vec<u64> = mean.iter().map(|v| v.to_bits()).collect();
            let bits0: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, bits0, "resumed cycle {c} diverged");
        }
        let ensemble = |r: &ShardedRun| r.run.checkpoint.ensemble.as_slice().to_vec();
        assert_eq!(ensemble(&resumed), ensemble(&full));
        std::fs::remove_file(&path).ok();
    }
}
