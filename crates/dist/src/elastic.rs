//! Elastic rank-failure recovery and deadline-aware degraded analysis.
//!
//! The one sharded cycling loop — replicated forecast, particle-sharded
//! analysis, one gather per cycle — wired to the live fault machinery of
//! [`hpc::mpi`] ([`crate::cycle`] is its fault-free face). A rank killed by a
//! [`FaultPlan`] surfaces as [`hpc::MpiError::RankDead`] inside the first
//! collective that misses it (never a hang); the survivors then run a
//! ULFM-style recovery:
//!
//! 1. the detecting rank **revokes** the epoch, waking every parked peer
//!    with [`hpc::MpiError::Revoked`];
//! 2. every survivor independently computes the same shrunken group — the
//!    current group minus the ranks the fault script kills this cycle and
//!    minus anything registered dead — and calls [`hpc::Comm::recover`]
//!    with the agreed generation counter;
//! 3. the cycle's analysis is **redone from the replicated forecast** on
//!    the shrunken group. The sharded analysis is the serial filter bit
//!    for bit at every rank count, so the redone cycle (and every later
//!    one) is identical to a fresh run at the surviving rank count by
//!    construction.
//!
//! Dead ranks can **rejoin**: at the scripted cycle the coordinator
//! (lowest surviving world rank) revives the rank, sends it an
//! out-of-band grant, and every survivor re-expands the group; the
//! rejoiner restores the cycling state from the latest
//! [`Checkpoint`] and re-enters the loop bit-identically.
//!
//! Independently, a per-cycle **deadline budget** ([`DeadlinePolicy`])
//! models the paper's real-time constraint: before each analysis the
//! driver estimates the cycle's modeled wall time (α–β collective model +
//! the GCD compute-rate model, scaled by scripted stragglers) and degrades
//! deterministically — full analysis → reduced SDE step count → forecast
//! only. A post-hoc watchdog flags cycles whose *actual* modeled time
//! (including shrink-retry redo costs) blew the budget, with a
//! flight-recorder postmortem. All decisions are pure functions of
//! `(cycle, membership, scripts, config)`, replicated on every rank, so
//! the degraded trajectory remains bitwise reproducible.

use crate::analysis::{analyze_replicated, CommStats};
use crate::cycle::DistCycleConfig;
use crate::DistError;
use da_core::osse::{initial_ensemble, nature_run, CycleSeries, NatureRun};
use da_core::resilience::{Checkpoint, CheckpointConfig, FaultPlan, LoopState, RecoveryCounters};
use da_core::{ForecastModel, SqgForecast};
use ensf::parallel::RankPlan;
use ensf::EnsfConfig;
use hpc::mpi::{run_world, Comm};
use hpc::{collective_time, shard_step_compute_secs, Collective, MpiError, StragglerPlan};
use stats::Ensemble;
use std::time::Duration;
use telemetry::flight::{dump_postmortem, flight_record, FlightKind};

/// How long a dead rank waits for its rejoin grant before giving up. Real
/// wall-clock (the watchdog of last resort), sized far above any test or
/// bench cycle time.
const GRANT_WAIT: Duration = Duration::from_secs(60);

/// Per-cycle real-time budget and the degraded-analysis ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Modeled seconds one cycle's analysis may cost.
    pub budget_secs: f64,
    /// SDE step count of the degraded analysis (rung two of the ladder;
    /// rung three drops the analysis entirely).
    pub degraded_steps: usize,
}

/// What the deadline ladder chose for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleMode {
    /// Full-resolution analysis (`ensf.n_steps`).
    Full,
    /// Reduced SDE step count ([`DeadlinePolicy::degraded_steps`]).
    Degraded,
    /// No assimilation: the forecast is carried forward unchanged.
    ForecastOnly,
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
    /// Analyses redone from the replicated forecast after a shrink.
    pub redone_analyses: u64,
    /// Cycles that ran the reduced-step analysis.
    pub degraded_cycles: u64,
    /// Cycles that dropped the analysis entirely.
    pub forecast_only_cycles: u64,
    /// Cycles whose actual modeled time blew the budget post hoc.
    pub deadline_blown: u64,
}

/// Configuration of one elastic distributed experiment.
#[derive(Debug, Clone)]
pub struct ElasticCycleConfig {
    /// The underlying distributed experiment (grid, filter, network).
    pub base: DistCycleConfig,
    /// Scripted rank kills and rejoins ([`FaultPlan::rank_kills`] /
    /// [`FaultPlan::rank_rejoins`]; the member/obs/analysis fault channels
    /// are ignored by this driver).
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
    /// `(cycle, mode)` the deadline ladder chose per completed cycle.
    pub modes: Vec<(usize, CycleMode)>,
    /// `(cycle, group size)` after each completed cycle.
    pub group_sizes: Vec<(usize, usize)>,
    /// Cycles whose analysis completed in full or degraded mode within the
    /// modeled budget (equals `deadline_total` without a deadline policy).
    pub deadline_hits: usize,
    /// Cycles this rank completed (the hit-rate denominator).
    pub deadline_total: usize,
    /// Recovery accounting.
    pub counters: ElasticCounters,
    /// Final ensemble as this rank saw it.
    pub ensemble: Ensemble,
    /// Collective accounting for this rank.
    pub stats: CommStats,
}

/// Modeled wall time of one sharded analysis at `ranks` ranks with `steps`
/// SDE steps — the pure estimator behind the deadline ladder. Compute uses
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

/// The deadline ladder: picks the most capable mode whose modeled cost
/// (straggler-scaled) fits the budget. Pure in `(config, cycle, group)`,
/// so every rank lands on the same rung.
fn decide_mode(
    config: &ElasticCycleConfig,
    dim: usize,
    members: usize,
    cycle: usize,
    group: &[usize],
) -> CycleMode {
    let Some(policy) = &config.deadline else {
        return CycleMode::Full;
    };
    let slow = config.stragglers.worst(cycle, group);
    let full = modeled_analysis_secs(&config.base, dim, members, config.base.ensf.n_steps, group.len());
    if full * slow <= policy.budget_secs {
        return CycleMode::Full;
    }
    let degraded =
        modeled_analysis_secs(&config.base, dim, members, policy.degraded_steps, group.len());
    if degraded * slow <= policy.budget_secs {
        CycleMode::Degraded
    } else {
        CycleMode::ForecastOnly
    }
}

/// What a dead rank does next.
enum AfterDeath {
    /// No rejoin scripted (or the grant/restore failed): stay dead.
    Gone,
    /// Re-admitted: resume cycling from the checkpoint at `generation`.
    Resume {
        checkpoint: Box<Checkpoint>,
        generation: u64,
    },
}

/// Parks a dead rank until its scripted rejoin grant arrives (or forever
/// isn't an option: a generous real-time deadline turns a missing grant
/// into [`AfterDeath::Gone`]). On a grant, loads and validates the
/// checkpoint; a bad checkpoint re-kills the rank so the survivors shrink
/// it away again instead of hanging on it.
fn dead_wait(
    comm: &Comm,
    config: &ElasticCycleConfig,
    died_at: usize,
    cycles: usize,
) -> AfterDeath {
    let me = comm.world_rank();
    let world = comm.world_size();
    let Some(rejoin) = config
        .faults
        .rank_rejoins
        .iter()
        .filter(|r| r.rank == me && r.cycle > died_at && r.cycle < cycles)
        .min_by_key(|r| r.cycle)
    else {
        return AfterDeath::Gone;
    };
    // The grantor is the lowest world rank alive at the rejoin cycle that
    // is not itself rejoining then — a pure function of the script, so the
    // rejoiner and the survivors agree without communicating.
    let mut members = config.faults.membership_at(rejoin.cycle, world);
    members.retain(|&r| {
        !config.faults.rank_rejoins.iter().any(|j| j.rank == r && j.cycle == rejoin.cycle)
    });
    let Some(&coordinator) = members.first() else {
        return AfterDeath::Gone;
    };
    comm.set_recv_deadline(Some(GRANT_WAIT));
    let grant = comm.recv_grant(coordinator);
    comm.set_recv_deadline(None);
    let Ok(grant) = grant else {
        return AfterDeath::Gone;
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
        return AfterDeath::Gone;
    };
    let new_members = config.faults.membership_at(at_cycle, world);
    comm.recover(&new_members, generation);
    AfterDeath::Resume { checkpoint: Box::new(checkpoint), generation }
}

fn validate(config: &ElasticCycleConfig, world: usize, cycles: usize) -> Result<(), DistError> {
    for k in &config.faults.rank_kills {
        if k.rank == 0 {
            return Err(DistError::Config(
                "world rank 0 is the coordinator and must not be killed".into(),
            ));
        }
        if k.rank >= world {
            return Err(DistError::Config(format!(
                "scripted kill of rank {} in a {world}-rank world",
                k.rank
            )));
        }
        if k.cycle >= cycles {
            return Err(DistError::Config(format!(
                "scripted kill at cycle {} of a {cycles}-cycle run",
                k.cycle
            )));
        }
    }
    for r in &config.faults.rank_rejoins {
        if r.rank >= world {
            return Err(DistError::Config(format!(
                "scripted rejoin of rank {} in a {world}-rank world",
                r.rank
            )));
        }
        let killed_before = config
            .faults
            .rank_kills
            .iter()
            .any(|k| k.rank == r.rank && k.cycle < r.cycle);
        if !killed_before {
            return Err(DistError::Config(format!(
                "rejoin of rank {} at cycle {} without a preceding kill",
                r.rank, r.cycle
            )));
        }
        if config.checkpoint.is_none() {
            return Err(DistError::Config(
                "rank rejoin requires checkpointing (ElasticCycleConfig::checkpoint)".into(),
            ));
        }
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
/// checkpointed ensemble — the entry point behind both the rank-rejoin
/// restore and the shrink-determinism harness.
///
/// # Errors
/// As [`run_elastic_experiment`].
pub fn run_elastic_from(
    comm: &Comm,
    config: &ElasticCycleConfig,
    nature: &NatureRun,
    resume: Option<&Checkpoint>,
) -> Result<ElasticRunResult, DistError> {
    let Some(truth0) = nature.truth.first() else {
        return Err(DistError::Config("empty nature run".into()));
    };
    let dim = config.base.osse.params.state_dim();
    if truth0.len() != dim {
        return Err(DistError::Config(format!(
            "nature run dimension {} does not match model dimension {dim}",
            truth0.len()
        )));
    }
    let cycles = config.base.osse.cycles;
    if nature.observations.len() < cycles {
        return Err(DistError::Config(format!(
            "nature run provides {} observations for {cycles} cycles",
            nature.observations.len()
        )));
    }
    if let Err(msg) = config.base.ensf.validate() {
        return Err(DistError::Config(msg));
    }
    validate(config, comm.world_size(), cycles)?;

    let me = comm.world_rank();
    let world = comm.world_size();
    let obs = config.base.osse.obs_spec();
    let spec = config.base.comm.as_ref();
    let members = config.base.osse.ens_size;
    let mut model = SqgForecast::perfect(config.base.osse.params.clone());

    let mut generation = comm.epoch();
    let mut counters = ElasticCounters::default();
    let mut stats = CommStats::default();
    let mut state = LoopState::Healthy;
    let mut outcome = ElasticOutcome::Completed;

    let (mut cycle, mut ensemble, mut hours, mut rmse, mut spread) = match resume {
        Some(ck) => {
            if ck.ensemble.dim() != dim {
                return Err(DistError::Config("checkpoint dimension mismatch".into()));
            }
            state = ck.state;
            (ck.cycle, ck.ensemble.clone(), ck.hours.clone(), ck.rmse.clone(), ck.spread.clone())
        }
        None => (0, initial_ensemble(&config.base.osse, truth0), Vec::new(), Vec::new(), Vec::new()),
    };
    let mut cycle_means: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut modes: Vec<(usize, CycleMode)> = Vec::new();
    let mut group_sizes: Vec<(usize, usize)> = Vec::new();
    let mut deadline_hits = 0usize;
    let mut deadline_total = 0usize;

    'cycling: while cycle < cycles {
        let _span = telemetry::span!("elastic.cycle");
        // Telemetry leadership: world rank 0 speaks for the (replicated)
        // world so counters and the flight ring aren't inflated ×ranks.
        // Validation pins rank 0 alive, so the lead never changes hands.
        let lead = me == 0 && telemetry::enabled();
        let mut events: Vec<String> = Vec::new();

        // --- Rejoin admission at the start of the cycle (survivor side).
        let admitting: Vec<usize> = {
            let group = comm.group();
            config
                .faults
                .rank_rejoins
                .iter()
                .filter(|r| r.cycle == cycle && r.rank != me && !group.contains(&r.rank))
                .map(|r| r.rank)
                .collect()
        };
        if !admitting.is_empty() {
            generation += 1;
            if comm.rank() == 0 {
                for &r in &admitting {
                    comm.revive(r);
                    comm.send_grant(r, &[generation as f64, cycle as f64]);
                }
            }
            let new_members = config.faults.membership_at(cycle, world);
            comm.recover(&new_members, generation);
            counters.rejoins += admitting.len() as u64;
            events.push("rank_rejoin".to_string());
            if lead {
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

        // --- Replicated forecast, member by member on the rank's own thread:
        // a rank is one processor of the simulated machine, and the ranks
        // already fill the cores `forecast_ensemble` would fan out over
        // (its result is this loop's, bit for bit).
        for member in ensemble.iter_mut() {
            model.forecast(member, config.base.osse.obs_interval_hours);
        }
        let y = &nature.observations[cycle];
        let pre_diag = lead.then(|| {
            da_core::diagnostics::forecast_stats(&ensemble, y, &obs, cycle as u64)
        });

        // --- A scripted victim dies here, before the analysis: it never
        // enters a collective this cycle, and the survivors meet its absence
        // at the gather (or, on a forecast-only cycle, at the next one).
        if config.faults.rank_kill_at(cycle, me).is_some() {
            comm.kill();
            match dead_wait(comm, config, cycle, cycles) {
                AfterDeath::Gone => {
                    outcome = ElasticOutcome::Died { at_cycle: cycle };
                    break 'cycling;
                }
                AfterDeath::Resume { checkpoint, generation: g } => {
                    generation = g;
                    cycle = checkpoint.cycle;
                    ensemble = checkpoint.ensemble.clone();
                    hours = checkpoint.hours.clone();
                    rmse = checkpoint.rmse.clone();
                    spread = checkpoint.spread.clone();
                    state = checkpoint.state;
                    counters.rejoins += 1;
                    continue 'cycling;
                }
            }
        }
        let mut modeled_secs = 0.0;
        let mut mode;

        // --- Analysis with shrink-retry. Each attempt re-evaluates the
        // deadline ladder at the current group size, so a redone cycle
        // matches what a fresh run at the survivor count would decide.
        loop {
            let group = comm.group();
            let slow = config.stragglers.worst(cycle, &group);
            mode = decide_mode(config, dim, members, cycle, &group);
            let steps = match mode {
                CycleMode::Full => config.base.ensf.n_steps,
                CycleMode::Degraded => {
                    // INVARIANT: Degraded only arises with a policy.
                    config.deadline.as_ref().unwrap().degraded_steps
                }
                CycleMode::ForecastOnly => break,
            };
            modeled_secs += slow * modeled_analysis_secs(&config.base, dim, members, steps, group.len());
            let ensf_cfg = EnsfConfig { n_steps: steps, ..config.base.ensf.clone() };
            let attempt =
                analyze_replicated(comm, &ensf_cfg, cycle as u64, &ensemble, y, &obs, spec, &mut stats);
            match attempt {
                Ok(analysis) => {
                    ensemble = analysis;
                    break;
                }
                Err(DistError::Mpi(MpiError::RankDead { .. })) => {
                    comm.revoke();
                    shrink(comm, config, cycle, &mut generation, &mut counters, &mut events, lead);
                }
                Err(DistError::Mpi(MpiError::Revoked)) => {
                    shrink(comm, config, cycle, &mut generation, &mut counters, &mut events, lead);
                }
                Err(e) => return Err(e),
            }
        }

        // --- Cycle epilogue (survivors only).
        match mode {
            CycleMode::Degraded => {
                counters.degraded_cycles += 1;
                events.push("deadline_degraded".to_string());
            }
            CycleMode::ForecastOnly => {
                counters.forecast_only_cycles += 1;
                events.push("deadline_forecast_only".to_string());
            }
            CycleMode::Full => {}
        }
        let blown = config.deadline.as_ref().is_some_and(|p| modeled_secs > p.budget_secs);
        if blown {
            counters.deadline_blown += 1;
            events.push("deadline_blown".to_string());
        }
        deadline_total += 1;
        if mode != CycleMode::ForecastOnly && !blown {
            deadline_hits += 1;
        }

        let mean = ensemble.mean();
        hours.push((cycle + 1) as f64 * config.base.osse.obs_interval_hours);
        rmse.push(stats::metrics::rmse(&mean, &nature.truth[cycle + 1]));
        spread.push(ensemble.spread());
        let prev_state = state;
        state = if events.is_empty() {
            match state {
                LoopState::Degraded => LoopState::Recovering,
                LoopState::Recovering | LoopState::Healthy => LoopState::Healthy,
            }
        } else {
            LoopState::Degraded
        };

        if lead {
            telemetry::counter_add("elastic.cycles", 1);
            if let Some(p) = &config.deadline {
                if mode == CycleMode::Degraded {
                    flight_record(
                        FlightKind::Deadline,
                        cycle as i64,
                        "deadline_degraded",
                        modeled_secs,
                        p.budget_secs,
                    );
                    telemetry::counter_add("elastic.deadline.degraded", 1);
                }
                if mode == CycleMode::ForecastOnly {
                    flight_record(
                        FlightKind::Deadline,
                        cycle as i64,
                        "deadline_forecast_only",
                        modeled_secs,
                        p.budget_secs,
                    );
                    telemetry::counter_add("elastic.deadline.forecast_only", 1);
                }
                if blown {
                    flight_record(
                        FlightKind::Deadline,
                        cycle as i64,
                        "deadline_blown",
                        modeled_secs,
                        p.budget_secs,
                    );
                    telemetry::counter_add("elastic.deadline.blown", 1);
                }
            }
            if prev_state != state {
                flight_record(
                    FlightKind::Transition,
                    cycle as i64,
                    &format!("{prev_state:?}->{state:?}"),
                    0.0,
                    0.0,
                );
            }
            if let Some(pre) = &pre_diag {
                // INVARIANT: pushed immediately above.
                let cycle_rmse = *rmse.last().unwrap();
                let diagnostics = da_core::diagnostics::complete(
                    pre,
                    &ensemble,
                    y,
                    cycle_rmse,
                    &obs,
                    cycle as u64,
                );
                telemetry::record_cycle(telemetry::CycleRecord {
                    label: format!("elastic@{}r", comm.size()),
                    cycle,
                    // INVARIANT: pushed immediately above.
                    hours: *hours.last().unwrap(),
                    rmse: cycle_rmse,
                    // INVARIANT: pushed immediately above.
                    spread: *spread.last().unwrap(),
                    obs_count: y.len(),
                    phases: vec![("analysis_modeled".to_string(), modeled_secs)],
                    events: events.clone(),
                    diagnostics: Some(diagnostics),
                });
            }
            // Postmortems after the cycle record, so the black box contains
            // the degrading cycle's own diagnostics.
            if events.iter().any(|e| e == "rank_dead_shrink") {
                dump_postmortem("rank_dead_shrink");
            }
            if blown {
                dump_postmortem("deadline_blown");
            }
        }
        cycle_means.push((cycle, mean));
        modes.push((cycle, mode));
        group_sizes.push((cycle, comm.size()));

        // --- Checkpoint at the boundary (coordinator only), forced when
        // the next cycle admits a rejoiner: the grant is only sent after
        // this write, so the restored state is always the boundary state.
        if let Some(ckcfg) = &config.checkpoint {
            let rejoin_next =
                config.faults.rank_rejoins.iter().any(|r| r.cycle == cycle + 1);
            let due = (ckcfg.every > 0 && (cycle + 1) % ckcfg.every == 0) || rejoin_next;
            if due && me == 0 {
                let ck = Checkpoint {
                    cycle: cycle + 1,
                    state,
                    scheme_epoch: (cycle + 1) as u64,
                    scheme_seed: config.base.ensf.seed,
                    ensemble: ensemble.clone(),
                    // INVARIANT: mean pushed into cycle_means above.
                    prev_mean: cycle_means.last().unwrap().1.clone(),
                    hours: hours.clone(),
                    rmse: rmse.clone(),
                    spread: spread.clone(),
                    counters: RecoveryCounters::default(),
                    model_state: None,
                };
                ck.save(&ckcfg.path)
                    .map_err(|e| DistError::Config(format!("checkpoint write failed: {e}")))?;
            }
        }
        cycle += 1;
    }

    let final_mean =
        cycle_means.last().map(|(_, m)| m.clone()).unwrap_or_else(|| ensemble.mean());
    Ok(ElasticRunResult {
        outcome,
        series: CycleSeries {
            label: format!("elastic@{world}w"),
            hours,
            rmse,
            spread,
            final_mean,
        },
        cycle_means,
        modes,
        group_sizes,
        deadline_hits,
        deadline_total,
        counters,
        ensemble,
        stats,
    })
}

/// Shrinks the group to the survivors of this cycle's scripted kills (plus
/// anything registered dead out of script, e.g. a failed rejoiner). Every
/// survivor computes the same set from the same script, so the recovery
/// needs no agreement round.
fn shrink(
    comm: &Comm,
    config: &ElasticCycleConfig,
    cycle: usize,
    generation: &mut u64,
    counters: &mut ElasticCounters,
    events: &mut Vec<String>,
    lead: bool,
) {
    let group = comm.group();
    let survivors: Vec<usize> = group
        .iter()
        .copied()
        .filter(|&r| config.faults.rank_kill_at(cycle, r).is_none() && comm.is_alive(r))
        .collect();
    let excluded = group.len() - survivors.len();
    *generation += 1;
    comm.recover(&survivors, *generation);
    counters.shrinks += excluded as u64;
    counters.redone_analyses += 1;
    if !events.iter().any(|e| e == "rank_dead_shrink") {
        events.push("rank_dead_shrink".to_string());
    }
    if lead {
        telemetry::counter_add("elastic.shrinks", excluded as u64);
        telemetry::counter_add("elastic.redone_analyses", 1);
        flight_record(
            FlightKind::CollectiveShrink,
            cycle as i64,
            "rank_dead_shrink",
            survivors.len() as f64,
            excluded as f64,
        );
    }
}

/// Convenience driver: spins up `ranks` simulated MPI ranks, runs the
/// elastic experiment on each, asserts that every rank's trajectory agrees
/// bitwise on commonly-completed cycles, and returns world rank 0's result
/// (rank 0 is validated never to die, so its trajectory spans the run).
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
    let mut results = run_world(ranks, |comm| run_elastic_experiment(comm, config, &nature));
    let first = results.remove(0)?;
    for (i, result) in results.into_iter().enumerate() {
        let result = result?;
        for (c, mean) in &result.cycle_means {
            if let Some((_, m0)) = first.cycle_means.iter().find(|(c0, _)| c0 == c) {
                let bits: Vec<u64> = mean.iter().map(|v| v.to_bits()).collect();
                let bits0: Vec<u64> = m0.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits, bits0,
                    "rank {} disagrees with rank 0 at cycle {c}",
                    i + 1
                );
            }
        }
        if result.outcome == ElasticOutcome::Completed {
            assert_eq!(
                result.ensemble.as_slice(),
                first.ensemble.as_slice(),
                "surviving rank {} disagrees with rank 0 on the final ensemble",
                i + 1
            );
        }
    }
    Ok(first)
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
    let mut results =
        run_world(ranks, |comm| run_elastic_from(comm, config, &nature, Some(checkpoint)));
    let first = results.remove(0)?;
    for (i, result) in results.into_iter().enumerate() {
        let result = result?;
        assert_eq!(
            result.cycle_means, first.cycle_means,
            "rank {} disagrees with rank 0 on the resumed trajectory",
            i + 1
        );
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::osse::OsseConfig;
    use da_core::resilience::RankKill;
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
        assert_eq!(faulted.counters.redone_analyses, 1);
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
        let modes: Vec<CycleMode> = result.modes.iter().map(|&(_, m)| m).collect();
        assert_eq!(modes[0], CycleMode::Full);
        assert_ne!(modes[1], CycleMode::Full, "50× straggler must force degradation");
        assert_eq!(modes[2], CycleMode::Full);
        assert!(result.counters.degraded_cycles + result.counters.forecast_only_cycles >= 1);
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
        assert_eq!(result.counters.forecast_only_cycles, 2);
        assert_eq!(result.deadline_hits, 0);
        assert_eq!(result.deadline_total, 2);
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
