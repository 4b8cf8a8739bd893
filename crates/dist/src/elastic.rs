//! Elastic rank-failure recovery on the cycle loop's slots.
//!
//! One rank's argument list for `da_core::cycle::run_cycles`: the
//! member-sharded forecast as its model, the particle-sharded analysis as
//! its scheme, the rank's membership in the world as its process group —
//! wired to the live fault machinery of [`hpc::mpi`] ([`crate::cycle`] is
//! the same with nothing scripted). A rank killed by a [`FaultPlan`] leaves
//! at the cycle boundary and surfaces as [`hpc::MpiError::RankDead`] in the
//! first collective that misses it, the forecast gather (never a hang):
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
//! A **deadline** ([`DeadlinePolicy`]) is the loop's analysis budget, and
//! its reduced-step sharded analysis fills the `fallback` slot: the loop's
//! one ladder (`da_core::resilience::decide_rung`) holds each attempt's
//! price ([`modeled_analysis_secs`], scaled by scripted stragglers) to the
//! budget. Prices are pure in `(cycle, membership, scripts, config)`, so
//! every rank takes the same rung and the trajectory stays bitwise
//! reproducible.

use crate::analysis::{analyze_replicated, CommStats};
use crate::cycle::DistCycleConfig;
use crate::forecast::ShardedForecast;
use crate::DistError;
use da_core::cycle::{run_cycles, Entry, ProcessGroup};
use da_core::osse::{nature_run, CycleSeries, NatureRun};
use da_core::resilience::{Checkpoint, CheckpointConfig, FaultPlan, Rung, SupervisedCycle};
use da_core::{AnalysisReport, AnalysisScheme, SqgForecast};
use ensf::parallel::RankPlan;
use ensf::EnsfConfig;
use hpc::mpi::{run_world, Comm};
use hpc::{collective_time, shard_step_compute_secs, Collective, MpiError, StragglerPlan};
use stats::Ensemble;
use std::time::Duration;
use telemetry::flight::{flight_record, FlightKind};

/// How long a dead rank waits for its rejoin grant before giving up. Real
/// wall-clock (the watchdog of last resort), sized far above any test or
/// bench cycle time.
const GRANT_WAIT: Duration = Duration::from_secs(60);

/// The sharded face's deadline: the loop's budget and its fallback's steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Modeled seconds one attempt at a cycle's analysis may cost.
    pub budget_secs: f64,
    /// SDE step count of the sharded analysis in the `fallback` slot (the
    /// rung below the full analysis; forecast-only is the last).
    pub degraded_steps: usize,
}

/// How one rank's elastic run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticOutcome {
    /// Ran every cycle (possibly after dying and rejoining).
    Completed,
    /// Killed at `at_cycle` and never rejoined.
    Died {
        /// Cycle during whose analysis the rank died.
        at_cycle: usize,
    },
}

/// Recovery accounting of one elastic run (per rank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticCounters {
    /// Ranks shrunk away (one per dead rank excluded from the group).
    pub shrinks: u64,
    /// Group re-expansions this rank participated in (or performed).
    pub rejoins: u64,
}

/// Configuration of one elastic distributed experiment.
#[derive(Debug, Clone)]
pub struct ElasticCycleConfig {
    /// The underlying distributed experiment (grid, filter, network).
    pub base: DistCycleConfig,
    /// Scripted rank kills and rejoins ([`FaultPlan::rank_kills`] /
    /// [`FaultPlan::rank_rejoins`]). The serial faces' channels
    /// (member/obs/analysis faults, `kill_after`) are config errors here.
    pub faults: FaultPlan,
    /// Scripted per-rank slowdowns applied to the modeled cycle time.
    pub stragglers: StragglerPlan,
    /// Per-cycle deadline budget; `None` never degrades.
    pub deadline: Option<DeadlinePolicy>,
    /// Checkpointing (written by world rank 0 at cycle boundaries).
    /// Required when any rejoin is scripted.
    pub checkpoint: Option<CheckpointConfig>,
}

impl ElasticCycleConfig {
    /// An elastic wrapper around `base` with no faults, no stragglers, no
    /// deadline and no checkpointing — what [`crate::run_dist_experiment`]
    /// runs.
    pub fn clean(base: DistCycleConfig) -> Self {
        ElasticCycleConfig {
            base,
            faults: FaultPlan::none(),
            stragglers: StragglerPlan::none(),
            deadline: None,
            checkpoint: None,
        }
    }
}

/// Result of one rank's elastic run.
#[derive(Debug, Clone)]
pub struct ElasticRunResult {
    /// Whether this rank survived to the end.
    pub outcome: ElasticOutcome,
    /// Verification series over the cycles this rank completed (for a
    /// rejoiner the pre-death prefix comes from the checkpoint, so a
    /// completed rank's series always spans the full run).
    pub series: CycleSeries,
    /// `(cycle, analysis mean)` for every cycle this rank completed — the
    /// bitwise fingerprint compared across ranks and against fresh runs.
    pub cycle_means: Vec<(usize, Vec<f64>)>,
    /// The cycle loop's log of the cycles this rank completed: each one's
    /// rung, events and health state (the deadline hit rate's source).
    pub cycles: Vec<SupervisedCycle>,
    /// `(cycle, group size)` after each completed cycle.
    pub group_sizes: Vec<(usize, usize)>,
    /// Recovery accounting.
    pub counters: ElasticCounters,
    /// Final ensemble as this rank saw it.
    pub ensemble: Ensemble,
    /// Collective accounting for this rank.
    pub stats: CommStats,
}

impl ElasticRunResult {
    /// How often `event` fires in [`Self::cycles`] (each `rank_dead_shrink`
    /// is one analysis redone from the replicated forecast).
    pub fn event_count(&self, event: &str) -> usize {
        self.cycles.iter().flat_map(|c| &c.events).filter(|e| *e == event).count()
    }

    /// The deadline hit rate: the share of [`Self::cycles`] that produced
    /// an analysis (full or fallback) with no `deadline_blown` (0 for none).
    pub fn hit_rate(&self) -> f64 {
        let blown = |c: &SupervisedCycle| c.events.iter().any(|e| e == "deadline_blown");
        let hits = self.cycles.iter().filter(|c| c.rung != Rung::ForecastOnly && !blown(c));
        hits.count() as f64 / self.cycles.len().max(1) as f64
    }
}

/// Modeled wall time of one sharded analysis at `ranks` ranks with `steps`
/// SDE steps — the sharded analysis's price on the cycle loop's ladder. Compute uses
/// the GCD-rate model on the largest particle block; communication is the
/// one particle-block allgather, priced with the α–β model (zero without a
/// [`crate::CommSpec`]).
pub fn modeled_analysis_secs(
    base: &DistCycleConfig,
    dim: usize,
    members: usize,
    steps: usize,
    ranks: usize,
) -> f64 {
    let block = RankPlan::new(members, ranks).max_block();
    let compute = steps as f64 * shard_step_compute_secs(block, dim);
    let comm = base.comm.as_ref().map_or(0.0, |spec| {
        let bytes = (members * dim * 8) as u64;
        collective_time(&spec.topo, Collective::AllGather, ranks, bytes)
    });
    compute + comm
}

/// Parks a dead rank until its scripted rejoin grant arrives (or forever
/// isn't an option: a generous real-time deadline turns a missing grant
/// into [`Entry::Gone`]). On a grant, loads the boundary checkpoint; a
/// missing or stale one re-kills the rank so the survivors shrink it away
/// again instead of hanging on it.
fn dead_wait(comm: &Comm, config: &ElasticCycleConfig, died_at: usize) -> Entry {
    let me = comm.world_rank();
    let world = comm.world_size();
    let cycles = config.base.osse.cycles;
    let Some(rejoin) = config
        .faults
        .rank_rejoins
        .iter()
        .filter(|r| r.rank == me && r.cycle > died_at && r.cycle < cycles)
        .min_by_key(|r| r.cycle)
    else {
        return Entry::Gone;
    };
    // The grantor is the lowest world rank alive at the rejoin cycle that
    // is not itself rejoining then — a pure function of the script, so the
    // rejoiner and the survivors agree without communicating.
    let mut members = config.faults.membership_at(rejoin.cycle, world);
    members.retain(|&r| {
        !config.faults.rank_rejoins.iter().any(|j| j.rank == r && j.cycle == rejoin.cycle)
    });
    let Some(&coordinator) = members.first() else {
        return Entry::Gone;
    };
    comm.set_recv_deadline(Some(GRANT_WAIT));
    let grant = comm.recv_grant(coordinator);
    comm.set_recv_deadline(None);
    let Ok(grant) = grant else {
        return Entry::Gone;
    };
    let generation = grant.first().copied().unwrap_or(0.0) as u64;
    let at_cycle = grant.get(1).copied().unwrap_or(0.0) as usize;
    let checkpoint = config
        .checkpoint
        .as_ref()
        .and_then(|ck| Checkpoint::load(&ck.path).ok())
        .filter(|ck| ck.cycle == at_cycle);
    let Some(checkpoint) = checkpoint else {
        // Can't restore bit-identical state: die again. The survivors'
        // next collective sees RankDead and shrinks us away.
        comm.kill();
        return Entry::Gone;
    };
    let new_members = config.faults.membership_at(at_cycle, world);
    comm.recover(&new_members, generation);
    Entry::Restore(Box::new(checkpoint))
}

fn validate(config: &ElasticCycleConfig, world: usize) -> Result<(), DistError> {
    let cycles = config.base.osse.cycles;
    config.base.ensf.validate().map_err(DistError::Config)?;
    let faults = &config.faults;
    let serial_channels = [
        ("member_faults", !faults.member_faults.is_empty()),
        ("obs_faults", !faults.obs_faults.is_empty()),
        ("analysis_faults", !faults.analysis_faults.is_empty()),
        ("kill_after", faults.kill_after.is_some()),
    ];
    if let Some((channel, _)) = serial_channels.iter().find(|(_, scripted)| *scripted) {
        return Err(DistError::Config(format!(
            "FaultPlan::{channel} is scripted, but the elastic driver reads only \
             rank_kills and rank_rejoins"
        )));
    }
    for k in &faults.rank_kills {
        let why = if k.rank == 0 {
            "world rank 0 is the coordinator and must not be killed".to_string()
        } else if k.rank >= world {
            format!("scripted kill of rank {} in a {world}-rank world", k.rank)
        } else if k.cycle >= cycles {
            format!("scripted kill at cycle {} of a {cycles}-cycle run", k.cycle)
        } else {
            continue;
        };
        return Err(DistError::Config(why));
    }
    for r in &faults.rank_rejoins {
        let killed_before = faults.rank_kills.iter().any(|k| k.rank == r.rank && k.cycle < r.cycle);
        let why = if r.rank >= world {
            format!("scripted rejoin of rank {} in a {world}-rank world", r.rank)
        } else if !killed_before {
            format!("rejoin of rank {} at cycle {} without a preceding kill", r.rank, r.cycle)
        } else if config.checkpoint.is_none() {
            "rank rejoin requires checkpointing (ElasticCycleConfig::checkpoint)".to_string()
        } else {
            continue;
        };
        return Err(DistError::Config(why));
    }
    if let Some(p) = &config.deadline {
        if p.budget_secs <= 0.0 || p.budget_secs.is_nan() {
            return Err(DistError::Config("deadline budget must be positive".into()));
        }
        if p.degraded_steps == 0 || p.degraded_steps >= config.base.ensf.n_steps {
            return Err(DistError::Config(format!(
                "degraded step count {} must be in 1..{}",
                p.degraded_steps, config.base.ensf.n_steps
            )));
        }
    }
    Ok(())
}

/// This rank's membership in the world: the [`ProcessGroup`] the cycle
/// loop consults at every boundary. World rank 0 leads — it speaks for the
/// (replicated) world so counters and the flight ring aren't inflated
/// ×ranks, and it writes the checkpoints; validation pins it alive, so the
/// lead never changes hands.
struct RankGroup<'a> {
    comm: &'a Comm,
    config: &'a ElasticCycleConfig,
    rejoins: u64,
}

impl ProcessGroup for RankGroup<'_> {
    fn leads(&self) -> bool {
        self.comm.world_rank() == 0
    }

    fn enter_cycle(&mut self, cycle: usize, events: &mut Vec<String>) -> Entry {
        let (comm, faults) = (self.comm, &self.config.faults);
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
                    comm.revive(r);
                    comm.send_grant(r, &[generation as f64, cycle as f64]);
                }
            }
            comm.recover(&faults.membership_at(cycle, comm.world_size()), generation);
            self.rejoins += admitting.len() as u64;
            events.push("rank_rejoin".to_string());
            if self.leads() && telemetry::enabled() {
                telemetry::counter_add("elastic.rejoins", admitting.len() as u64);
                for &r in &admitting {
                    flight_record(
                        FlightKind::RankRejoin,
                        cycle as i64,
                        "rank_rejoin",
                        r as f64,
                        comm.size() as f64,
                    );
                }
            }
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
        let entry = dead_wait(comm, self.config, cycle);
        if matches!(entry, Entry::Restore(_)) {
            self.rejoins += 1;
        }
        entry
    }

    /// Forced when the next cycle admits a rejoiner: the grant is only
    /// sent after this write, so the restored state is always the boundary
    /// state.
    fn forces_checkpoint(&self, completed: usize) -> bool {
        self.config.faults.rank_rejoins.iter().any(|r| r.cycle == completed)
    }
}

/// The sharded analysis as an [`AnalysisScheme`]: one priced
/// [`analyze_replicated`] attempt on the current group. A peer dying in its
/// gather shrinks the group and reports it, so the loop decides again.
struct ShardedEnsf<'a> {
    comm: &'a Comm,
    config: &'a ElasticCycleConfig,
    /// SDE steps: `ensf.n_steps`, or `degraded_steps` as the fallback.
    steps: usize,
    /// Index of the next analysis cycle (noise streams, mask alignment).
    epoch: u64,
    seed: u64,
    report: AnalysisReport,
    /// The typed failure behind an aborting report.
    error: Option<DistError>,
    counters: ElasticCounters,
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
            .filter(|&r| self.config.faults.rank_kill_at(cycle, r).is_none() && comm.is_alive(r))
            .collect();
        let excluded = group.len() - survivors.len();
        comm.recover(&survivors, comm.epoch() + 1);
        self.counters.shrinks += excluded as u64;
        self.report.shrunk = true;
        self.report.events.push("rank_dead_shrink".to_string());
        self.report.postmortems.push("rank_dead_shrink");
        if comm.world_rank() == 0 && telemetry::enabled() {
            telemetry::counter_add("elastic.shrinks", excluded as u64);
            flight_record(
                FlightKind::CollectiveShrink,
                cycle as i64,
                "rank_dead_shrink",
                survivors.len() as f64,
                excluded as f64,
            );
        }
    }
}

impl AnalysisScheme for ShardedEnsf<'_> {
    fn name(&self) -> &str {
        "sharded-EnSF"
    }

    fn analyze(&mut self, forecast: &Ensemble, y: &[f64]) -> Ensemble {
        let (comm, base) = (self.comm, &self.config.base);
        let cycle = self.epoch;
        self.epoch += 1;
        let ensf = EnsfConfig { n_steps: self.steps, seed: self.seed, ..base.ensf.clone() };
        let (obs, spec) = (base.osse.obs_spec(), base.comm.as_ref());
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
        let (base, group) = (&self.config.base, self.comm.group());
        let slow = self.config.stragglers.worst(self.epoch as usize, &group);
        let (dim, members) = (base.osse.params.state_dim(), base.osse.ens_size);
        Some(slow * modeled_analysis_secs(base, dim, members, self.steps, group.len()))
    }

    fn take_report(&mut self) -> AnalysisReport {
        std::mem::take(&mut self.report)
    }
}

/// Runs one elastic distributed OSSE experiment on this rank.
///
/// With no faults, stragglers or deadline scripted this *is*
/// [`crate::run_dist_experiment`]; see the module docs for what each
/// machinery adds. Every rank receives the same configuration and nature
/// run; ranks that die and never rejoin return
/// [`ElasticOutcome::Died`] with their partial trajectory.
///
/// # Errors
/// [`DistError::Config`] for invalid scripts or mismatched inputs;
/// [`DistError::Mpi`] only for fault patterns the recovery cannot absorb.
pub fn run_elastic_experiment(
    comm: &Comm,
    config: &ElasticCycleConfig,
    nature: &NatureRun,
) -> Result<ElasticRunResult, DistError> {
    run_elastic_from(comm, config, nature, None)
}

/// [`run_elastic_experiment`] starting from a checkpoint: cycles before
/// `resume.cycle` are taken as already completed (their series entries come
/// from the checkpoint) and cycling continues bit-identically from the
/// checkpointed ensemble — the entry point behind the shrink-determinism
/// harness. The checkpoint may come from any face of the cycle loop: a
/// supervised serial run's resumes here, and this driver's resumes there.
///
/// The cycle loop ([`run_cycles`]) with this rank's `{member-sharded
/// forecast, sharded analysis, group membership}` in its slots. A rank that
/// leaves the loop — with an error or at the end — registers itself dead,
/// so its peers meet a typed [`MpiError::RankDead`] rather than a silent
/// member or a vanished one; `comm` is spent afterwards.
///
/// # Errors
/// As [`run_elastic_experiment`]; [`DistError::Checkpoint`] when `resume`
/// does not fit the experiment or a checkpoint cannot be written.
pub fn run_elastic_from(
    comm: &Comm,
    config: &ElasticCycleConfig,
    nature: &NatureRun,
    resume: Option<&Checkpoint>,
) -> Result<ElasticRunResult, DistError> {
    validate(config, comm.world_size())?;
    let osse = &config.base.osse;
    let mut group = RankGroup { comm, config, rejoins: 0 };
    let sharded = |steps| ShardedEnsf {
        comm,
        config,
        steps,
        epoch: 0,
        seed: config.base.ensf.seed,
        report: AnalysisReport::default(),
        error: None,
        counters: ElasticCounters::default(),
        stats: CommStats::default(),
    };
    let mut scheme = sharded(config.base.ensf.n_steps);
    let mut degraded = config.deadline.map(|p| sharded(p.degraded_steps));
    let lead = comm.world_rank() == 0 && telemetry::enabled();
    let mut cycle_means: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut group_sizes: Vec<(usize, usize)> = Vec::new();
    let mut observe = |cycle: usize, mean: &[f64], _: f64| {
        cycle_means.push((cycle, mean.to_vec()));
        group_sizes.push((cycle, comm.size()));
        if lead {
            telemetry::counter_add("elastic.cycles", 1);
        }
    };
    // No fault plan and no health policy (validation refuses the serial
    // faces' channels): a rank's script is its membership, and a deadline
    // is the ladder's budget with the reduced-step analysis as fallback.
    let perfect = SqgForecast::perfect(osse.params.clone());
    let mut model = ShardedForecast::new(comm, perfect, config.base.comm.as_ref());
    let run = run_cycles(
        &format!("elastic@{}r", comm.size()), osse, nature, &mut model, &mut scheme,
        degraded.as_mut().map(|s| s as &mut dyn AnalysisScheme), &FaultPlan::none(), None,
        config.deadline.map(|p| p.budget_secs), config.checkpoint.as_ref(), &mut group,
        &mut observe, resume.cloned(),
    );
    // Leaving, even at the end, registers this rank dead: survivors of a
    // kill that only forecast-only cycles followed never got back in step,
    // and a peer may still be sending into the failed forecast gather.
    comm.kill();
    let (mut counters, mut stats, mut error) = (ElasticCounters::default(), model.stats, None);
    for s in std::iter::once(scheme).chain(degraded) {
        counters.shrinks += s.counters.shrinks;
        stats = stats.merged(s.stats);
        error = error.or(s.error);
    }
    let run = run.map_err(|e| error.unwrap_or_else(|| e.into()))?;
    let outcome = if run.interrupted {
        ElasticOutcome::Died { at_cycle: run.checkpoint.cycle }
    } else {
        ElasticOutcome::Completed
    };
    Ok(ElasticRunResult {
        outcome,
        series: CycleSeries { label: format!("elastic@{}w", comm.world_size()), ..run.series },
        cycle_means,
        cycles: run.cycles,
        group_sizes,
        counters: ElasticCounters { rejoins: group.rejoins, ..counters },
        ensemble: run.checkpoint.ensemble,
        stats,
    })
}

/// Spins up `ranks` simulated MPI ranks, runs `per_rank` on each, asserts
/// that every rank's trajectory agrees bitwise with world rank 0's on the
/// cycles both completed — and, for ranks that ran to the end, on the final
/// ensemble — and returns rank 0's result (rank 0 is validated never to
/// die, so its trajectory spans the run).
fn run_agreeing_world(
    ranks: usize,
    per_rank: impl Fn(&Comm) -> Result<ElasticRunResult, DistError> + Sync,
) -> Result<ElasticRunResult, DistError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut results = run_world(ranks, per_rank);
    let first = results.remove(0)?;
    for (i, result) in results.into_iter().enumerate() {
        let result = result?;
        for (c, mean) in &result.cycle_means {
            if let Some((_, m0)) = first.cycle_means.iter().find(|(c0, _)| c0 == c) {
                assert_eq!(bits(mean), bits(m0), "rank {} disagrees with rank 0 at cycle {c}", i + 1);
            }
        }
        if result.outcome == ElasticOutcome::Completed {
            assert_eq!(
                bits(result.ensemble.as_slice()),
                bits(first.ensemble.as_slice()),
                "surviving rank {} disagrees with rank 0 on the final ensemble",
                i + 1
            );
        }
    }
    Ok(first)
}

/// Convenience driver: generates the nature run and runs the elastic
/// experiment on `ranks` simulated ranks, returning world rank 0's result.
///
/// # Errors
/// Propagates the per-rank [`DistError`].
///
/// # Panics
/// Panics if surviving ranks disagree on the analysis trajectory — a
/// broken determinism invariant, not a user error.
pub fn run_elastic_osse(
    config: &ElasticCycleConfig,
    ranks: usize,
) -> Result<ElasticRunResult, DistError> {
    let nature = nature_run(&config.base.osse);
    run_agreeing_world(ranks, |comm| run_elastic_experiment(comm, config, &nature))
}

/// [`run_elastic_osse`] resuming every rank from `checkpoint` — the
/// fresh-run-at-R′-ranks reference the shrink-determinism tests compare
/// against.
///
/// # Errors
/// Propagates the per-rank [`DistError`].
///
/// # Panics
/// As [`run_elastic_osse`].
pub fn run_elastic_osse_from(
    config: &ElasticCycleConfig,
    ranks: usize,
    checkpoint: &Checkpoint,
) -> Result<ElasticRunResult, DistError> {
    let nature = nature_run(&config.base.osse);
    run_agreeing_world(ranks, |comm| run_elastic_from(comm, config, &nature, Some(checkpoint)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::osse::OsseConfig;
    use da_core::resilience::{RankKill, Rung};
    use sqg::SqgParams;

    /// Reduced grid (d = 512, 8 members), mirroring the cycle tests.
    fn tiny_config(cycles: usize) -> ElasticCycleConfig {
        ElasticCycleConfig::clean(DistCycleConfig {
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
        })
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sqg_da_elastic_{name}_{}.ckpt", std::process::id()))
    }

    #[test]
    fn killed_rank_shrinks_group_and_trajectory_matches_survivor_count() {
        let mut config = tiny_config(3);
        config.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
        let faulted = run_elastic_osse(&config, 3).unwrap();
        assert_eq!(faulted.outcome, ElasticOutcome::Completed);
        assert_eq!(faulted.counters.shrinks, 1);
        assert_eq!(faulted.event_count("rank_dead_shrink"), 1);
        assert_eq!(faulted.group_sizes, vec![(0, 3), (1, 2), (2, 2)]);

        // Bitwise: cycle 0 matches a clean 3-rank run, cycles 1.. match a
        // clean 2-rank run (rank-count invariance makes them all equal).
        let clean = run_elastic_osse(&tiny_config(3), 2).unwrap();
        for ((c, a), (c2, b)) in faulted.cycle_means.iter().zip(&clean.cycle_means) {
            assert_eq!(c, c2);
            let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "post-shrink cycle {c} diverged from 2-rank run");
        }
    }

    #[test]
    fn kill_during_final_gather_is_survived() {
        let mut config = tiny_config(2);
        config.faults.rank_kills.push(RankKill { cycle: 0, rank: 1 });
        let result = run_elastic_osse(&config, 2).unwrap();
        assert_eq!(result.counters.shrinks, 1);
        assert_eq!(result.group_sizes.last(), Some(&(1, 1)));
    }

    #[test]
    fn rejoin_restores_full_group_bitwise() {
        let path = ckpt_path("rejoin");
        let mut config = tiny_config(4);
        config.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
        config
            .faults
            .rank_rejoins
            .push(da_core::resilience::RankRejoin { cycle: 3, rank: 1 });
        config.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 1 });

        let nature = nature_run(&config.base.osse);
        let results = run_world(2, |comm| run_elastic_experiment(comm, &config, &nature));
        let r0 = results[0].as_ref().unwrap();
        let r1 = results[1].as_ref().unwrap();
        assert_eq!(r0.outcome, ElasticOutcome::Completed);
        assert_eq!(r1.outcome, ElasticOutcome::Completed, "rank 1 must rejoin and finish");
        assert_eq!(r0.group_sizes, vec![(0, 2), (1, 1), (2, 1), (3, 2)]);
        // The rejoiner's resumed trajectory matches the survivor's bitwise,
        // including the full series prefix restored from the checkpoint.
        assert_eq!(r0.series.rmse, r1.series.rmse);
        assert_eq!(r0.ensemble.as_slice(), r1.ensemble.as_slice());
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
        let mut config = tiny_config(3);
        config.base.comm = Some(crate::CommSpec::clean(2));
        // Straggler slows rank 1 by 50× in cycle 1 only; budget sits just
        // above the clean full-analysis estimate.
        let dim = config.base.osse.params.state_dim();
        let full = modeled_analysis_secs(&config.base, dim, 8, config.base.ensf.n_steps, 2);
        config.stragglers = StragglerPlan {
            events: vec![hpc::Straggler { rank: 1, from_cycle: 1, to_cycle: 1, slowdown: 50.0 }],
        };
        config.deadline = Some(DeadlinePolicy { budget_secs: full * 2.0, degraded_steps: 3 });
        let result = run_elastic_osse(&config, 2).unwrap();
        let rungs: Vec<Rung> = result.cycles.iter().map(|c| c.rung).collect();
        assert_eq!(rungs[0], Rung::Primary);
        assert_ne!(rungs[1], Rung::Primary, "50× straggler must force degradation");
        assert_eq!(rungs[2], Rung::Primary);
        assert!(rungs.iter().filter(|&&r| r != Rung::Primary).count() >= 1);
        assert!(result.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn forecast_only_cycle_counts_as_deadline_miss() {
        let mut config = tiny_config(2);
        config.base.comm = Some(crate::CommSpec::clean(2));
        let dim = config.base.osse.params.state_dim();
        let degraded = modeled_analysis_secs(&config.base, dim, 8, 3, 2);
        // Budget below even the degraded estimate: every cycle drops to
        // forecast-only and the hit-rate collapses to zero.
        config.deadline =
            Some(DeadlinePolicy { budget_secs: degraded * 0.5, degraded_steps: 3 });
        let result = run_elastic_osse(&config, 2).unwrap();
        let on = |rung| result.cycles.iter().filter(|c| c.rung == rung).count();
        assert_eq!(on(Rung::ForecastOnly), 2);
        assert_eq!(on(Rung::Primary) + on(Rung::Fallback), 0, "no deadline hits");
        assert_eq!(result.cycles.len(), 2);
    }

    #[test]
    fn invalid_scripts_are_config_errors() {
        let mut kill0 = tiny_config(2);
        kill0.faults.rank_kills.push(RankKill { cycle: 0, rank: 0 });
        assert!(matches!(run_elastic_osse(&kill0, 2), Err(DistError::Config(_))));

        let mut orphan = tiny_config(4);
        orphan
            .faults
            .rank_rejoins
            .push(da_core::resilience::RankRejoin { cycle: 2, rank: 1 });
        assert!(matches!(run_elastic_osse(&orphan, 2), Err(DistError::Config(_))));

        let mut bad_deadline = tiny_config(2);
        bad_deadline.deadline = Some(DeadlinePolicy { budget_secs: 1.0, degraded_steps: 0 });
        assert!(matches!(run_elastic_osse(&bad_deadline, 2), Err(DistError::Config(_))));
    }

    #[test]
    fn serial_fault_channels_are_config_errors() {
        use da_core::resilience::{AnalysisFault, MemberFault, MemberFaultKind, ObsFault};
        let member = MemberFault { cycle: 0, member: 1, kind: MemberFaultKind::Nan };
        let scripts = [
            ("member_faults", FaultPlan { member_faults: vec![member], ..FaultPlan::none() }),
            ("obs_faults", FaultPlan { obs_faults: vec![(0, ObsFault::Drop)], ..FaultPlan::none() }),
            (
                "analysis_faults",
                FaultPlan {
                    analysis_faults: vec![AnalysisFault { cycle: 0, failures: 1 }],
                    ..FaultPlan::none()
                },
            ),
            ("kill_after", FaultPlan { kill_after: Some(1), ..FaultPlan::none() }),
        ];
        for (channel, faults) in scripts {
            let config = ElasticCycleConfig { faults, ..tiny_config(2) };
            match run_elastic_osse(&config, 2) {
                Err(DistError::Config(msg)) => assert!(msg.contains(channel), "{channel}: {msg}"),
                other => panic!("{channel} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_like_the_serial_resume() {
        let config = tiny_config(3);
        let osse = &config.base.osse;
        let dim = osse.params.state_dim();
        let good = Checkpoint {
            cycle: 1,
            state: da_core::resilience::LoopState::Healthy,
            scheme_epoch: 1,
            scheme_seed: config.base.ensf.seed,
            ensemble: Ensemble::zeros(osse.ens_size, dim),
            prev_mean: vec![0.0; dim],
            hours: vec![12.0],
            rmse: vec![0.1],
            spread: vec![0.1],
            counters: Default::default(),
            model_state: None,
        };
        assert!(run_elastic_osse_from(&config, 2, &good).is_ok(), "the template itself fits");
        let wrong_members =
            Checkpoint { ensemble: Ensemble::zeros(osse.ens_size + 1, dim), ..good.clone() };
        let wrong_mean = Checkpoint { prev_mean: vec![0.0; dim - 1], ..good.clone() };
        let past_the_end = Checkpoint { cycle: 4, ..good.clone() };
        let wrong_dim = Checkpoint {
            ensemble: Ensemble::zeros(osse.ens_size, dim + 1),
            prev_mean: vec![0.0; dim + 1],
            ..good
        };
        for bad in [wrong_members, wrong_mean, past_the_end, wrong_dim] {
            assert_eq!(
                run_elastic_osse_from(&config, 2, &bad).unwrap_err(),
                DistError::Checkpoint(da_core::resilience::CheckpointError::BadHeader)
            );
        }
    }

    #[test]
    fn failed_checkpoint_write_is_an_error_not_a_hang() {
        // The lead cannot write its boundary checkpoint and leaves with the
        // error; it registers itself dead on the way out, so its peer meets
        // a typed `RankDead` in the next gather and finishes alone instead
        // of waiting on a silent member forever.
        let mut config = tiny_config(3);
        let path = std::env::temp_dir().join("sqg_da_no_such_dir").join("elastic.ckpt");
        config.checkpoint = Some(CheckpointConfig { path, every: 1 });
        let nature = nature_run(&config.base.osse);
        let results = run_world(2, |comm| run_elastic_experiment(comm, &config, &nature));
        assert!(matches!(&results[0], Err(DistError::Checkpoint(_))), "{:?}", results[0]);
        let survivor = results[1].as_ref().expect("rank 1 shrinks the lead away and completes");
        assert_eq!(survivor.outcome, ElasticOutcome::Completed);
        assert_eq!(survivor.group_sizes, vec![(0, 2), (1, 1), (2, 1)]);
    }

    #[test]
    fn resume_from_checkpoint_continues_bitwise() {
        let path = ckpt_path("resume");
        let mut with_ck = tiny_config(4);
        with_ck.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 2 });
        let full = run_elastic_osse(&with_ck, 2).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.cycle, 4);

        // Re-run the first half, then resume the second half from its
        // boundary checkpoint; the tail must match the uninterrupted run.
        let mut half = tiny_config(4);
        half.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 2 });
        let nature = nature_run(&half.base.osse);
        run_world(2, |comm| {
            let mut cfg = half.clone();
            cfg.base.osse.cycles = 2;
            run_elastic_experiment(comm, &cfg, &nature).unwrap()
        });
        let mid = Checkpoint::load(&path).unwrap();
        assert_eq!(mid.cycle, 2);
        let resumed = run_elastic_osse_from(&with_ck, 2, &mid).unwrap();
        for (c, mean) in &resumed.cycle_means {
            let (_, reference) =
                full.cycle_means.iter().find(|(c0, _)| c0 == c).expect("cycle in full run");
            let bits: Vec<u64> = mean.iter().map(|v| v.to_bits()).collect();
            let bits0: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, bits0, "resumed cycle {c} diverged");
        }
        assert_eq!(resumed.ensemble.as_slice(), full.ensemble.as_slice());
        std::fs::remove_file(&path).ok();
    }
}
