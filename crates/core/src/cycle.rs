//! The cycle: forecast → observe → analyse → verify → record, once.
//!
//! [`run_cycles`] is the only function in the workspace that iterates over
//! assimilation cycles (Fig. 1 of the paper: one loop, the model and the
//! filter as slots). Every driver — [`crate::osse::run_experiment`],
//! [`crate::resilience::run_supervised`], `dist::run_elastic_from` — is an
//! argument list for it; DESIGN.md ("The cycle") walks the stages and says
//! which argument switches each one on.

use crate::error::OsseError;
use crate::osse::{initial_ensemble, validate_experiment, CycleSeries, NatureRun, OsseConfig};
use crate::resilience::{
    decide_rung, health, Checkpoint, CheckpointConfig, CheckpointError, FaultPlan, HealthPolicy,
    Ladder, LoopState, ObsFault, RecoveryCounters, Rule, Rung, SupervisedCycle,
    SupervisedRun,
};
use crate::traits::{AnalysisScheme, ForecastModel};
use stats::rng::split_seed;
use std::borrow::Cow;
use std::time::Instant;

/// Seed salts keeping the loop's repair streams independent of the nature
/// run, the initial ensemble, and each other.
const RESAMPLE_SALT: u64 = 0xFA07_5A1E;
const RETRY_SALT: u64 = 0xFA07_11E7;
const REINFLATE_SALT: u64 = 0xFA07_1F1A;

/// What a process does at a cycle boundary besides cycling. The loop is
/// the same on one process and on every rank of a world; what differs is
/// membership, and this is the one place it enters. The defaults are a
/// single process, which leads and never leaves.
pub trait ProcessGroup {
    /// Whether this process speaks for the run: it alone touches
    /// telemetry, cycle records, postmortems and checkpoint files.
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

/// Runs `config`'s cycles from `resume` (or from the initial ensemble) and
/// returns the series, the per-cycle log and the boundary state the run
/// ended at. The analysis walks one ladder, `scheme` → `fallback` →
/// forecast-only ([`crate::resilience::decide_rung`]), against the
/// policy's retries and the modelled seconds `budget` allows an attempt.
/// Without a `policy` nothing is scanned, repaired, retried or re-inflated,
/// and a non-finite analysis propagates into the series. `observe` receives
/// every completed cycle's `(index, analysis mean, analysis wall seconds)`
/// — values the loop does not keep.
///
/// # Errors
/// Configuration mismatches and a checkpoint that does not fit the
/// experiment; [`OsseError::Unrecoverable`] when a cycle runs out of
/// recovery options; [`OsseError::Checkpoint`] when one cannot be written.
#[allow(clippy::too_many_arguments)] // the argument list is the driver
pub fn run_cycles(
    label: &str,
    config: &OsseConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
    mut fallback: Option<&mut dyn AnalysisScheme>,
    plan: &FaultPlan,
    policy: Option<&HealthPolicy>,
    budget: Option<f64>,
    checkpoint: Option<&CheckpointConfig>,
    group: &mut dyn ProcessGroup,
    observe: &mut dyn FnMut(usize, &[f64], f64),
    resume: Option<Checkpoint>,
) -> Result<SupervisedRun, OsseError> {
    validate_experiment(config, nature, model)?;
    let dim = nature.truth[0].len();
    let spec = config.obs_spec();

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
        let lead = group.leads() && telemetry::enabled();

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
        let pre_diag = obs.as_deref().filter(|_| lead).map(|y| {
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
        let first = events.len();
        events.extend(fired.into_iter().chain(blown));
        let ladder_events = first..events.len();
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

        if lead {
            for (i, event) in events.iter().enumerate() {
                let key = event.split(':').next().unwrap_or(event);
                telemetry::counter_add(&format!("resilience.{key}"), 1);
                let (kind, label, a, b) = if ladder_events.contains(&i) {
                    let budget = budget.unwrap_or(f64::INFINITY);
                    (telemetry::FlightKind::Ladder, event.as_str(), spent, budget)
                } else {
                    (telemetry::FlightKind::Guardrail, key, 0.0, 0.0)
                };
                telemetry::flight_record(kind, cycle as i64, label, a, b);
            }
            if state != prev_state {
                telemetry::counter_add("supervisor.transitions", 1);
                telemetry::counter_add(
                    &format!("supervisor.transition.{}_to_{}", prev_state.name(), state.name()),
                    1,
                );
                telemetry::flight_record(
                    telemetry::FlightKind::Transition,
                    cycle as i64,
                    &format!("{}->{}", prev_state.name(), state.name()),
                    prev_state as u8 as f64,
                    state as u8 as f64,
                );
            }
            let counters = &at.counters;
            telemetry::gauge_set("supervisor.state", state as u8 as f64);
            telemetry::gauge_set("supervisor.retries", counters.analysis_retries as f64);
            telemetry::gauge_set("supervisor.fallbacks", counters.analysis_fallbacks as f64);
            telemetry::gauge_set(
                "supervisor.quarantined_members",
                counters.quarantined_members as f64,
            );
            telemetry::gauge_set("supervisor.divergence_flags", counters.divergence_flags as f64);
            let diagnostics = pre_diag.as_ref().zip(obs.as_deref()).map(|(pre, y)| {
                crate::diagnostics::complete(pre, &at.ensemble, y, rmse, &spec, cycle as u64)
            });
            if let Some(d) = &diagnostics {
                telemetry::gauge_set("supervisor.spread_skill", d.spread_skill);
                telemetry::gauge_set("supervisor.chi2", d.chi2);
                telemetry::flight_record(
                    telemetry::FlightKind::CycleDiag,
                    cycle as i64,
                    "cycle_diagnostics",
                    d.chi2,
                    d.spread_skill,
                );
            }
            let mut phases = vec![
                ("forecast".to_string(), forecast_secs),
                ("analysis".to_string(), analysis_secs),
            ];
            phases.extend(modeled_secs.map(|s| ("analysis_modeled".to_string(), s)));
            telemetry::record_cycle(telemetry::CycleRecord {
                label: label.to_string(),
                cycle,
                hours,
                rmse,
                spread,
                obs_count: obs.as_deref().map_or(0, <[f64]>::len),
                phases,
                events: events.clone(),
                diagnostics,
            });
            // Postmortems: dumped *after* the cycle record so the
            // snapshot's recent-cycles window includes the cycle that went
            // wrong.
            if postmortems.is_empty()
                && prev_state == LoopState::Healthy
                && state == LoopState::Degraded
            {
                postmortems.push("left_healthy");
            }
            for reason in postmortems {
                telemetry::dump_postmortem(reason);
            }
        }

        model.assimilate_feedback(&at.prev_mean, &mean);
        observe(cycle, &mean, analysis_secs);
        at.prev_mean = mean;
        log.push(SupervisedCycle { cycle, state, rung, events });
        at.cycle += 1;

        // Checkpoint the boundary, then honour a scripted kill at it.
        let killed = plan.kill_after == Some(at.cycle) && at.cycle < config.cycles;
        if let Some(ckcfg) = checkpoint {
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
        label: label.to_string(),
        hours: at.hours.clone(),
        rmse: at.rmse.clone(),
        spread: at.spread.clone(),
        final_mean: at.ensemble.mean(),
    };
    Ok(SupervisedRun {
        series,
        cycles: log,
        counters: at.counters,
        interrupted,
        final_state: at.state,
        checkpoint: at,
    })
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
