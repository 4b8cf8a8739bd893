//! The cycle: forecast → observe → analyse → verify → record, once.
//!
//! [`run_cycles_with`] is the only function in the workspace that iterates
//! over assimilation cycles (Fig. 1 of the paper: one loop, the model and
//! the filter as slots). What runs is one plain-data [`Run`], its filters
//! included ([`Run::analysis`], [`Run::fallback`]); where it runs is the
//! slots: a model and a [`ProcessGroup`]. [`run_cycles`] builds the run's
//! filters and fills the scheme slots with them; `dist::run_sharded` hands
//! the same [`Run`] to every rank of a world, with the sharded analysis of
//! its filters in them. DESIGN.md ("The cycle") walks the stages and says
//! which field of the [`Run`] switches each one on.
//!
//! Each executed cycle leaves one [`telemetry::CycleRecord`] in the run's
//! log ([`RunResult::cycles`]) on every rank, whatever the telemetry
//! switch says: the one copy of what the cycle did. The leader writes
//! postmortems from that log into [`Run::postmortems`].

use crate::error::OsseError;
use crate::osse::{initial_ensemble, validate_experiment, CycleSeries, NatureRun, OsseConfig};
use crate::resilience::{
    decide_rung, health, Checkpoint, CheckpointConfig, CheckpointError, FaultPlan, HealthPolicy,
    Ladder, LoopState, ObsFault, RecoveryCounters, Rule, Rung, SupervisedCycle,
};
use crate::traits::{Analysis, AnalysisScheme, ForecastModel};
use stats::rng::split_seed;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::Json;

/// One run, as plain data: the experiment and everything the loop does
/// besides cycling. The serial and the sharded face take the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Names the run's cycle records and its series.
    pub label: String,
    /// The twin experiment: grid, cycles, observing network, ensemble, seed.
    pub osse: OsseConfig,
    /// The filter every cycle's analysis runs first.
    pub analysis: Analysis,
    /// The filter on the ladder's rung below [`Self::analysis`], taken when
    /// its retries run out or its price overruns [`Self::budget`]; `None`
    /// drops straight to forecast-only.
    pub fallback: Option<Analysis>,
    /// Guardrail thresholds and the ladder's retry budget. `None` runs
    /// unsupervised: nothing is scanned, repaired, retried or re-inflated,
    /// and a non-finite analysis propagates into the series.
    pub health: Option<HealthPolicy>,
    /// Scripted faults (empty ⇒ nothing is injected).
    pub faults: FaultPlan,
    /// Modelled seconds the attempts at one cycle's analysis may cost
    /// together; `None` never degrades on time.
    pub budget: Option<f64>,
    /// Where and how often the boundary state is written.
    pub checkpoint: Option<CheckpointConfig>,
    /// The directory the leader writes a postmortem into whenever a cycle
    /// leaves `Healthy`, exhausts its retries, blows its budget or shrinks
    /// its group; `None` writes none.
    pub postmortems: Option<PathBuf>,
}

impl Run {
    /// The plain run of `analysis` in `osse`: no fallback, unsupervised,
    /// nothing scripted, no budget, no checkpoints and no postmortems.
    pub fn new(label: impl Into<String>, osse: OsseConfig, analysis: Analysis) -> Self {
        Run {
            label: label.into(),
            osse,
            analysis,
            fallback: None,
            health: None,
            faults: FaultPlan::none(),
            budget: None,
            checkpoint: None,
            postmortems: None,
        }
    }
}

/// What a run returns, complete or interrupted.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Verification series over the cycles completed so far (including
    /// cycles restored from a checkpoint on resume).
    pub series: CycleSeries,
    /// The run's per-cycle log: one record, rung and health state for
    /// each cycle executed *in this call*.
    pub cycles: Vec<SupervisedCycle>,
    /// True when the run stopped before its final cycle: a scripted kill,
    /// or this process left its group for good.
    pub interrupted: bool,
    /// The boundary state the run ended at, its recovery counters and
    /// health state included — what a restart resumes from (also written
    /// to disk when checkpointing is configured).
    pub checkpoint: Checkpoint,
}

impl RunResult {
    /// How often `event` fires in [`Self::cycles`] (each `rank_dead_shrink`
    /// is one analysis redone from the replicated forecast).
    pub fn event_count(&self, event: &str) -> usize {
        self.cycles.iter().flat_map(|c| &c.record.events).filter(|e| *e == event).count()
    }

    /// The deadline hit rate: the share of [`Self::cycles`] that produced
    /// an analysis (full or fallback) with no `deadline_blown` (0 for none).
    pub fn hit_rate(&self) -> f64 {
        let blown = |c: &SupervisedCycle| c.record.events.iter().any(|e| e == "deadline_blown");
        let hits = self.cycles.iter().filter(|c| c.rung != Rung::ForecastOnly && !blown(c));
        hits.count() as f64 / self.cycles.len().max(1) as f64
    }
}

/// Seed salts keeping the loop's repair streams independent of the nature
/// run, the initial ensemble, and each other.
const RESAMPLE_SALT: u64 = 0xFA07_5A1E;
const RETRY_SALT: u64 = 0xFA07_11E7;
const REINFLATE_SALT: u64 = 0xFA07_1F1A;

/// Log entries a postmortem carries, the cycle that wrote it last.
const POSTMORTEM_CYCLES: usize = 16;

/// What a process does at a cycle boundary besides cycling. The loop is
/// the same on one process and on every rank of a world; what differs is
/// membership, and this is the one place it enters. The defaults are a
/// single process, which leads and never leaves.
pub trait ProcessGroup {
    /// Whether this process speaks for the run: it alone writes
    /// postmortems and checkpoint files.
    fn leads(&self) -> bool {
        true
    }

    /// The boundary entering `cycle`: admit rejoining peers (pushing what
    /// happened onto `events`), or leave the group here and come back —
    /// or not — as [`Entry`] says.
    fn enter_cycle(&mut self, _cycle: usize, _events: &mut Vec<String>) -> Entry {
        Entry::Proceed
    }

    /// Whether the boundary after `completed` cycles must be checkpointed
    /// whatever the configured cadence (a peer restores from it next).
    fn forces_checkpoint(&self, _completed: usize) -> bool {
        false
    }

    /// The ranks of the group's world. World rank 0 leads and is never
    /// scripted to fail, so a fault plan may kill or rejoin only ranks
    /// `1..world_size()`.
    fn world_size(&self) -> usize {
        1
    }

    /// The boundary after `cycle` completed: its analysis mean and the
    /// analysis wall seconds — values the loop does not keep.
    fn completed(&mut self, _cycle: usize, _mean: &[f64], _analysis_secs: f64) {}
}

/// How a process comes out of [`ProcessGroup::enter_cycle`].
#[derive(Debug)]
pub enum Entry {
    /// Still a member: run the cycle.
    Proceed,
    /// Left the group for good: the run ends here, interrupted.
    Gone,
    /// Re-admitted after leaving: continue from this boundary state.
    Restore(Box<Checkpoint>),
}

/// The trivial group: one process.
#[derive(Debug)]
pub struct SingleProcess;

impl ProcessGroup for SingleProcess {}

/// Takes over a checkpoint as the loop's state, after checking it against
/// the experiment and re-aligning the scheme and the model with it.
fn restore(
    ck: Checkpoint,
    config: &OsseConfig,
    dim: usize,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
) -> Result<Checkpoint, OsseError> {
    if ck.ensemble.dim() != dim
        || ck.prev_mean.len() != dim
        || ck.ensemble.members() != config.ens_size
        || ck.cycle > config.cycles
        || [&ck.hours, &ck.rmse, &ck.spread].iter().any(|s| s.len() != ck.cycle)
    {
        return Err(CheckpointError::BadHeader.into());
    }
    scheme.set_rng_state(ck.scheme_epoch, ck.scheme_seed);
    if let Some(blob) = &ck.model_state {
        if !model.load_state(blob) {
            return Err(CheckpointError::ModelStateRejected.into());
        }
    }
    Ok(ck)
}

/// Runs `run`'s cycles from `resume` (or from the initial ensemble) with
/// the schemes [`Analysis::build`] makes of [`Run::analysis`] and
/// [`Run::fallback`], and returns the series, the per-cycle log and the
/// boundary state the run ended at. `group` says who else cycles and hears
/// every completed cycle ([`ProcessGroup::completed`]).
///
/// # Errors
/// As [`run_cycles_with`].
pub fn run_cycles(
    run: &Run,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    group: &mut dyn ProcessGroup,
    resume: Option<Checkpoint>,
) -> Result<RunResult, OsseError> {
    let mut scheme = run.analysis.build(&run.osse);
    let mut fallback = run.fallback.as_ref().map(|f| f.build(&run.osse));
    let fallback = fallback.as_mut().map(|f| f.as_mut() as &mut dyn AnalysisScheme);
    run_cycles_with(run, nature, model, scheme.as_mut(), fallback, group, resume)
}

/// [`run_cycles`] with the scheme slots filled by the caller, for a scheme
/// an [`Analysis`] does not describe (the sharded analysis, test doubles);
/// [`Run::analysis`] and [`Run::fallback`] are not read. The analysis walks
/// one ladder, `scheme` → `fallback` → forecast-only
/// ([`crate::resilience::decide_rung`]), against the health policy's
/// retries and the modelled seconds [`Run::budget`] allows. After every
/// analysis, `model.assimilate_feedback` receives the analysed transition
/// (previous analysis mean → current one): the online training channel of
/// Fig. 1.
///
/// # Errors
/// Configuration mismatches, a fault plan naming a rank the group cannot
/// lose and a checkpoint that does not fit the experiment;
/// [`OsseError::Unrecoverable`] when a cycle runs out of recovery options;
/// [`OsseError::Checkpoint`] when one cannot be written.
pub fn run_cycles_with(
    run: &Run,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
    mut fallback: Option<&mut dyn AnalysisScheme>,
    group: &mut dyn ProcessGroup,
    resume: Option<Checkpoint>,
) -> Result<RunResult, OsseError> {
    let (config, plan, policy, budget) =
        (&run.osse, &run.faults, run.health.as_ref(), run.budget);
    validate_experiment(config, nature, model)?;
    let dim = nature.truth[0].len();
    let spec = config.obs_spec();
    let world = group.world_size();
    let kills = plan.rank_kills.iter().map(|k| k.rank);
    let mut ranks = kills.chain(plan.rank_rejoins.iter().map(|r| r.rank));
    if let Some(rank) = ranks.find(|&r| r == 0 || r >= world) {
        return Err(OsseError::RankOutsideGroup { rank, world });
    }

    // The loop's state *is* a checkpoint: the boundary it last completed.
    let mut at = match resume {
        Some(ck) => restore(ck, config, dim, model, scheme)?,
        None => {
            let ensemble = initial_ensemble(config, &nature.truth[0]);
            Checkpoint {
                cycle: 0,
                state: LoopState::Healthy,
                scheme_epoch: 0,
                scheme_seed: 0,
                prev_mean: ensemble.mean(),
                ensemble,
                hours: Vec::with_capacity(config.cycles),
                rmse: Vec::with_capacity(config.cycles),
                spread: Vec::with_capacity(config.cycles),
                counters: RecoveryCounters::default(),
                model_state: None,
            }
        }
    };
    let mut log: Vec<SupervisedCycle> = Vec::new();
    let mut interrupted = false;

    while at.cycle < config.cycles {
        let cycle = at.cycle;
        let mut events: Vec<String> = Vec::new();
        match group.enter_cycle(cycle, &mut events) {
            Entry::Proceed => {}
            Entry::Gone => {
                interrupted = true;
                break;
            }
            Entry::Restore(ck) => {
                at = restore(*ck, config, dim, model, scheme)?;
                continue;
            }
        }
        let _span = telemetry::span!("osse.cycle");

        // Forecast, then apply this cycle's scripted member damage.
        let t_fc = Instant::now();
        model.forecast_ensemble(&mut at.ensemble, config.obs_interval_hours);
        let forecast_secs = t_fc.elapsed().as_secs_f64();
        events.extend(plan.inject_member_faults(cycle, &mut at.ensemble));

        // Guardrail 1: quarantine non-finite and physically impossible
        // members, resampling them from healthy donors.
        if let Some(policy) = policy {
            let mut bad = health::scan_members(&at.ensemble);
            let outlier_limit = policy.outlier_factor * nature.climatology_sd;
            for o in health::scan_outliers(&at.ensemble, outlier_limit) {
                if !bad.contains(&o) {
                    bad.push(o);
                }
            }
            bad.sort_unstable();
            if !bad.is_empty() {
                let seed = split_seed(config.seed ^ RESAMPLE_SALT, cycle as u64);
                if !health::quarantine_and_resample(
                    &mut at.ensemble,
                    &bad,
                    seed,
                    policy.resample_sigma,
                ) {
                    return Err(OsseError::Unrecoverable {
                        cycle,
                        reason:
                            "every ensemble member is corrupt; no healthy donor to resample from"
                                .to_string(),
                    });
                }
                at.counters.quarantined_members += bad.len() as u64;
                for b in &bad {
                    events.push(format!("member_quarantined:{b}"));
                }
            }
        }

        // Stale copies of earlier delayed batches are discarded, never
        // assimilated (the analysis they would correct already happened).
        for _ in 0..plan.stale_arrivals_at(cycle) {
            at.counters.stale_obs_discarded += 1;
            events.push("stale_obs_discarded".to_string());
        }

        // Observation delivery, possibly degraded by the fault plan.
        let obs: Option<Cow<'_, [f64]>> = match plan.obs_fault_at(cycle) {
            Some(ObsFault::Drop) => {
                events.push("obs_dropped".to_string());
                None
            }
            Some(ObsFault::Delay { by }) => {
                events.push(format!("obs_delayed:{by}"));
                None
            }
            Some(ObsFault::Thin { stride }) if stride > 1 => {
                // Thinned components are back-filled with the forecast
                // mean's observation equivalent: the scheme sees zero
                // innovation there, so only the surviving network
                // constrains the analysis. Under a masked network the
                // batch is already the shrunk observed vector, so thinning
                // strides over observation slots.
                let real = &nature.observations[cycle];
                let mut y = spec.project(&at.ensemble.mean(), cycle as u64);
                for i in (0..y.len()).step_by(stride) {
                    y[i] = real[i];
                }
                events.push(format!("obs_thinned:{stride}"));
                Some(Cow::Owned(y))
            }
            _ => Some(Cow::Borrowed(&nature.observations[cycle][..])),
        };

        // Forecast half of the per-cycle diagnostics (innovation moments,
        // chi², rank histogram) — must be captured before the analysis
        // overwrites the forecast ensemble.
        let pre_diag = obs.as_deref().map(|y| {
            crate::diagnostics::forecast_stats(&at.ensemble, y, &spec, cycle as u64)
        });

        // Analysis: the one ladder (`resilience::decide_rung`), asked before
        // every attempt; every attempt runs at analysis index `cycle`.
        let t_an = Instant::now();
        let mut postmortems: Vec<&'static str> = Vec::new();
        let max_retries = policy.map_or(0, |p| p.max_analysis_retries);
        let mut ladder =
            Ladder { observed: obs.is_some(), max_retries, budget, ..Default::default() };
        let mut spent = 0.0;
        let (rung, rule, analysis) = loop {
            align(scheme, &mut fallback, cycle);
            ladder.primary = scheme.modeled_secs();
            ladder.fallback = fallback.as_deref().map(|fb| fb.modeled_secs());
            let (rung, rule) = decide_rung(&ladder);
            if rule == Rule::Retry {
                ladder.retries += 1;
                let stream = ((cycle as u64) << 8) | ladder.retries as u64;
                let seed = split_seed(config.seed ^ RETRY_SALT, stream);
                scheme.set_rng_state(cycle as u64, seed);
                at.counters.analysis_retries += 1;
                events.push(format!("analysis_retry:{}", ladder.retries));
            }
            let (slot, price, y): (&mut dyn AnalysisScheme, _, _) =
                match (rung, fallback.as_deref_mut(), obs.as_deref()) {
                    (Rung::Primary, _, Some(y)) => (&mut *scheme, ladder.primary, y),
                    (Rung::Fallback, Some(fb), Some(y)) => (fb, ladder.fallback.flatten(), y),
                    _ => break (Rung::ForecastOnly, rule, None),
                };
            spent += price.unwrap_or(0.0);
            let mut candidate = slot.analyze(&at.ensemble, y);
            let report = slot.take_report();
            if let Some(reason) = report.abort {
                return Err(OsseError::Unrecoverable { cycle, reason });
            }
            events.extend(report.events);
            postmortems.extend(report.postmortems);
            if rung == Rung::Primary && ladder.retries < plan.analysis_failures_at(cycle) {
                candidate.as_mut_slice().fill(f64::NAN);
            }
            ladder.failed = if report.shrunk {
                None
            } else if policy.is_some() && !health::all_finite(&candidate) {
                Some(rung)
            } else {
                break (rung, rule, Some(candidate));
            };
        };
        at.counters.analysis_fallbacks += u64::from(rung == Rung::Fallback);
        at.counters.degraded_cycles += u64::from(rung == Rung::ForecastOnly);
        // The rule that placed the cycle on its rung is its event, and the
        // attempts' summed price overrunning the budget is one more.
        let fired = match rule {
            Rule::Unobserved => Some("degraded_cycle:forecast_only".to_string()),
            Rule::Fits | Rule::Retry => None,
            Rule::RetryExhausted => {
                fallback.as_deref().map(|fb| format!("analysis_fallback:{}", fb.name()))
            }
            Rule::AnalysisFailed => {
                postmortems.push("analysis_retry_exhausted");
                Some("degraded_cycle:analysis_failed".to_string())
            }
            Rule::DeadlineDegraded => Some("deadline_degraded".to_string()),
            Rule::DeadlineForecastOnly => Some("deadline_forecast_only".to_string()),
        };
        let blown = budget.is_some_and(|b| spent > b).then(|| "deadline_blown".to_string());
        postmortems.extend(blown.as_ref().map(|_| "deadline_blown"));
        events.extend(fired.into_iter().chain(blown));
        let modeled_secs = ladder.primary.map(|_| spent);
        align(scheme, &mut fallback, cycle + 1);
        let analysis_secs = t_an.elapsed().as_secs_f64();
        if let Some(a) = analysis {
            at.ensemble = a;
        }

        if let Some(policy) = policy {
            // Guardrail 2: spread collapse → re-inflate.
            if at.ensemble.spread() < policy.spread_floor {
                health::reinflate(
                    &mut at.ensemble,
                    policy.reinflate_target,
                    split_seed(config.seed ^ REINFLATE_SALT, cycle as u64),
                );
                at.counters.reinflations += 1;
                events.push("spread_reinflated".to_string());
            }

            // Guardrail 3: climatology-relative divergence from the batch
            // we actually assimilated. A large innovation alone can just be
            // a hard cycle; divergence is flagged only when the ensemble is
            // *also* overconfident about it — obs-space spread–skill below
            // the policy threshold — then the ensemble is loosened by
            // inflation.
            if let Some(y) = obs.as_deref() {
                // Compare in observation space: on partial networks the
                // innovation must not mix unobserved state into the RMSE.
                let mean_a = spec.project(&at.ensemble.mean(), cycle as u64);
                let innovation = stats::metrics::rmse(&mean_a, y);
                let ratio = stats::diagnostics::spread_skill(at.ensemble.spread(), innovation);
                if innovation > policy.divergence_factor * nature.climatology_sd
                    && ratio < policy.divergence_spread_skill
                {
                    at.ensemble.inflate(policy.divergence_inflation);
                    at.counters.divergence_flags += 1;
                    events.push("divergence_detected".to_string());
                }
            }
        }

        // Verify.
        let mean = at.ensemble.mean();
        let hours = (cycle + 1) as f64 * config.obs_interval_hours;
        let rmse = stats::metrics::rmse(&mean, &nature.truth[cycle + 1]);
        let spread = at.ensemble.spread();
        at.hours.push(hours);
        at.rmse.push(rmse);
        at.spread.push(spread);

        let prev_state = at.state;
        at.state = if events.is_empty() {
            match prev_state {
                LoopState::Degraded => LoopState::Recovering,
                LoopState::Recovering | LoopState::Healthy => LoopState::Healthy,
            }
        } else {
            LoopState::Degraded
        };
        let state = at.state;

        let diagnostics = pre_diag.as_ref().zip(obs.as_deref()).map(|(pre, y)| {
            crate::diagnostics::complete(pre, &at.ensemble, y, rmse, &spec, cycle as u64)
        });
        let mut phases = vec![
            ("forecast".to_string(), forecast_secs),
            ("analysis".to_string(), analysis_secs),
        ];
        phases.extend(modeled_secs.map(|s| ("analysis_modeled".to_string(), s)));
        let record = telemetry::CycleRecord {
            label: run.label.clone(),
            cycle,
            hours,
            rmse,
            spread,
            obs_count: obs.as_deref().map_or(0, <[f64]>::len),
            phases,
            events,
            diagnostics,
        };
        log.push(SupervisedCycle { state, rung, record });

        // Postmortems come *after* the cycle's record, so the cycle that
        // went wrong is the last entry they carry.
        if postmortems.is_empty() && prev_state == LoopState::Healthy && state == LoopState::Degraded
        {
            postmortems.push("left_healthy");
        }
        if let Some(dir) = run.postmortems.as_deref().filter(|_| group.leads()) {
            for (k, reason) in postmortems.into_iter().enumerate() {
                write_postmortem(dir, cycle, k, reason, &log);
            }
        }

        model.assimilate_feedback(&at.prev_mean, &mean);
        group.completed(cycle, &mean, analysis_secs);
        at.prev_mean = mean;
        at.cycle += 1;

        // Checkpoint the boundary, then honour a scripted kill at it.
        let killed = plan.kill_after == Some(at.cycle) && at.cycle < config.cycles;
        if let Some(ckcfg) = &run.checkpoint {
            let due = (ckcfg.every > 0 && at.cycle % ckcfg.every == 0)
                || killed
                || group.forces_checkpoint(at.cycle);
            if due && group.leads() {
                stamp(&mut at, scheme, model);
                at.save(&ckcfg.path)?;
            }
        }
        if killed {
            interrupted = true;
            break;
        }
    }

    stamp(&mut at, scheme, model);
    let series = CycleSeries {
        label: run.label.clone(),
        hours: at.hours.clone(),
        rmse: at.rmse.clone(),
        spread: at.spread.clone(),
        final_mean: at.ensemble.mean(),
    };
    Ok(RunResult { series, cycles: log, interrupted, checkpoint: at })
}

/// Puts `scheme` and `fallback` at analysis index `at` (the cycle their
/// masks and noise streams belong to), keeping their seeds.
fn align(scheme: &mut dyn AnalysisScheme, fb: &mut Option<&mut dyn AnalysisScheme>, at: usize) {
    let (_, seed) = scheme.rng_state();
    scheme.set_rng_state(at as u64, seed);
    if let Some(fb) = fb.as_deref_mut() {
        align(fb, &mut None, at);
    }
}

/// Completes the boundary state into a restorable checkpoint: where the
/// scheme's noise streams and the model's adaptive state stand.
fn stamp(at: &mut Checkpoint, scheme: &dyn AnalysisScheme, model: &mut dyn ForecastModel) {
    (at.scheme_epoch, at.scheme_seed) = scheme.rng_state();
    at.model_state = model.save_state();
}

/// Writes `cycle`'s `k`-th postmortem into `dir`, as
/// `postmortem-<cycle>-<k>-<reason>.json`: the reason, the cycle, the
/// latest entries of the run's `log` (each its record plus state and rung;
/// `cycle`'s is the last) and the process's spans. A postmortem never takes
/// the run down: a failed write is reported on stderr.
fn write_postmortem(dir: &Path, cycle: usize, k: usize, reason: &str, log: &[SupervisedCycle]) {
    let recent = log[log.len().saturating_sub(POSTMORTEM_CYCLES)..].iter().map(|c| {
        let mut entry = c.record.to_json();
        if let Json::Obj(pairs) = &mut entry {
            pairs.push(("state".to_string(), Json::from(c.state.name())));
            pairs.push(("rung".to_string(), Json::from(format!("{:?}", c.rung))));
        }
        entry
    });
    let doc = Json::obj(vec![
        ("reason", Json::from(reason)),
        ("cycle", Json::from(cycle)),
        ("recent_cycles", Json::Arr(recent.collect())),
        ("telemetry", telemetry::report::snapshot_json()),
    ]);
    let path = dir.join(format!("postmortem-{cycle:06}-{k}-{reason}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| telemetry::report::write_json(&path, &doc));
    if let Err(e) = written {
        eprintln!("postmortem {} not written: {e}", path.display());
    }
}
