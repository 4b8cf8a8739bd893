//! The supervised cycling loop: a fault-tolerant `run_experiment`.
//!
//! The plain OSSE loop assumes every forecast is finite, every observation
//! batch arrives, and every analysis succeeds. This supervisor assumes none
//! of that. Each cycle runs through guardrails — non-finite/outlier member
//! quarantine, observation-outage degradation, bounded analysis retry with
//! a fresh noise stream and an optional fallback scheme, spread-collapse
//! re-inflation, and climatology-relative divergence detection — and the
//! loop tracks an explicit health state machine:
//!
//! ```text
//! Healthy ──fault──▶ Degraded ──clean cycle──▶ Recovering ──clean cycle──▶ Healthy
//!    ▲                  ▲  │                        │
//!    └──────────────────┘  └────────◀───fault───────┘
//! ```
//!
//! Every recovery action is appended to the cycle's telemetry record, and
//! the full cycling state can be checkpointed each `every` cycles so a
//! killed run resumes *bit-identically* (all repair randomness is a pure
//! function of the master seed and the cycle index).

use super::checkpoint::{Checkpoint, CheckpointError};
use super::fault::ObsFault;
use super::health;
use crate::error::OsseError;
use crate::osse::{initial_ensemble, CycleSeries, NatureRun, OsseConfig};
use crate::traits::{AnalysisScheme, ForecastModel};
use stats::rng::split_seed;
use stats::Ensemble;

/// Seed salts keeping the supervisor's repair streams independent of the
/// nature run, the initial ensemble, and each other.
const RESAMPLE_SALT: u64 = 0xFA07_5A1E;
const RETRY_SALT: u64 = 0xFA07_11E7;
const REINFLATE_SALT: u64 = 0xFA07_1F1A;

/// Health state of the supervised loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LoopState {
    /// No recent faults.
    Healthy = 0,
    /// At least one guardrail fired this cycle.
    Degraded = 1,
    /// One clean cycle after a degraded one; a second promotes to healthy.
    Recovering = 2,
}

impl LoopState {
    /// Lower-case state name used in telemetry counter keys and flight
    /// recorder labels (`"healthy"`, `"degraded"`, `"recovering"`).
    pub fn name(self) -> &'static str {
        match self {
            LoopState::Healthy => "healthy",
            LoopState::Degraded => "degraded",
            LoopState::Recovering => "recovering",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(LoopState::Healthy),
            1 => Some(LoopState::Degraded),
            2 => Some(LoopState::Recovering),
            _ => None,
        }
    }
}

/// Totals of every recovery action taken over a run (checkpointed, so they
/// keep accumulating across resumes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Members replaced by perturbed copies of healthy donors.
    pub quarantined_members: u64,
    /// Spread-collapse re-inflations.
    pub reinflations: u64,
    /// Cycles completed without an analysis (forecast only).
    pub degraded_cycles: u64,
    /// Analysis attempts retried with a fresh noise stream.
    pub analysis_retries: u64,
    /// Analyses produced by the fallback scheme.
    pub analysis_fallbacks: u64,
    /// Cycles where the analysis mean diverged from the observations.
    pub divergence_flags: u64,
    /// Delayed observation batches discarded on (late) arrival.
    pub stale_obs_discarded: u64,
}

impl RecoveryCounters {
    pub(crate) const FIELDS: usize = 7;

    /// Sum of all counters (0 ⇒ the run never needed recovery).
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    pub(crate) fn as_array(&self) -> [u64; Self::FIELDS] {
        [
            self.quarantined_members,
            self.reinflations,
            self.degraded_cycles,
            self.analysis_retries,
            self.analysis_fallbacks,
            self.divergence_flags,
            self.stale_obs_discarded,
        ]
    }

    pub(crate) fn from_array(a: [u64; Self::FIELDS]) -> Self {
        RecoveryCounters {
            quarantined_members: a[0],
            reinflations: a[1],
            degraded_cycles: a[2],
            analysis_retries: a[3],
            analysis_fallbacks: a[4],
            divergence_flags: a[5],
            stale_obs_discarded: a[6],
        }
    }
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file (overwritten at each boundary).
    pub path: std::path::PathBuf,
    /// Checkpoint after every `every` completed cycles (0 disables the
    /// periodic write; a simulated kill still writes a final one).
    pub every: usize,
}

/// Fault script + guardrail policy + checkpointing for a supervised run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Scripted faults (empty plan ⇒ pure supervision).
    pub plan: super::FaultPlan,
    /// Guardrail thresholds; `None` derives
    /// [`HealthPolicy::for_obs_sigma`](super::HealthPolicy::for_obs_sigma)
    /// from the run's `obs_sigma`.
    pub health: Option<super::HealthPolicy>,
    /// Optional periodic checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
}

/// One executed cycle, as the supervisor saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedCycle {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Health state *after* this cycle.
    pub state: LoopState,
    /// Recovery events fired this cycle (empty ⇒ clean).
    pub events: Vec<String>,
}

/// Result of a supervised run (complete or interrupted).
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// Verification series over the cycles completed so far (including
    /// cycles restored from a checkpoint on resume).
    pub series: CycleSeries,
    /// Per-cycle states and events for the cycles executed *in this call*.
    pub cycles: Vec<SupervisedCycle>,
    /// Accumulated recovery counters (across resumes).
    pub counters: RecoveryCounters,
    /// True when a scripted kill stopped the run before the final cycle.
    pub interrupted: bool,
    /// Health state at the end of the run.
    pub final_state: LoopState,
    /// Cycling state at the end of the run — what a crash-restart would
    /// resume from (also written to disk when checkpointing is configured).
    pub checkpoint: Checkpoint,
}

/// Runs a supervised OSSE experiment from cycle 0.
///
/// `fallback` is tried once per cycle after the retry budget is exhausted
/// (e.g. LETKF behind EnSF); pass `None` to degrade straight to a
/// forecast-only cycle instead.
pub fn run_supervised(
    label: &str,
    config: &OsseConfig,
    resilience: &ResilienceConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
    fallback: Option<&mut dyn AnalysisScheme>,
) -> Result<SupervisedRun, OsseError> {
    cycle_loop(label, config, resilience, nature, model, scheme, fallback, None)
}

/// Resumes a supervised run from a checkpoint, replaying the remaining
/// cycles bit-identically to an uninterrupted run of the same
/// configuration and fault plan.
#[allow(clippy::too_many_arguments)] // run_supervised's signature + the checkpoint
pub fn resume_supervised(
    label: &str,
    config: &OsseConfig,
    resilience: &ResilienceConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
    fallback: Option<&mut dyn AnalysisScheme>,
    checkpoint: Checkpoint,
) -> Result<SupervisedRun, OsseError> {
    cycle_loop(label, config, resilience, nature, model, scheme, fallback, Some(checkpoint))
}

#[allow(clippy::too_many_arguments)]
fn cycle_loop(
    label: &str,
    config: &OsseConfig,
    resilience: &ResilienceConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    scheme: &mut dyn AnalysisScheme,
    mut fallback: Option<&mut dyn AnalysisScheme>,
    start: Option<Checkpoint>,
) -> Result<SupervisedRun, OsseError> {
    crate::osse::validate_experiment(config, nature, model)?;
    let plan = &resilience.plan;
    let policy = resilience
        .health
        .clone()
        .unwrap_or_else(|| super::HealthPolicy::for_obs_sigma(config.obs_sigma));
    let dim = nature.truth[0].len();
    let spec = config.obs_spec();

    let (start_cycle, mut state, mut ensemble, mut prev_mean, mut hours, mut rmse, mut spread, mut counters) =
        match start {
            Some(ck) => {
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
                (ck.cycle, ck.state, ck.ensemble, ck.prev_mean, ck.hours, ck.rmse, ck.spread, ck.counters)
            }
            None => {
                let ens = initial_ensemble(config, &nature.truth[0]);
                let mean = ens.mean();
                (
                    0,
                    LoopState::Healthy,
                    ens,
                    mean,
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                    RecoveryCounters::default(),
                )
            }
        };

    let mut cycles_log: Vec<SupervisedCycle> = Vec::new();
    let mut interrupted = false;

    for cycle in start_cycle..config.cycles {
        let _span = telemetry::span!("osse.supervised_cycle");
        let mut events: Vec<String> = Vec::new();

        // Forecast, then apply this cycle's scripted member damage.
        let t_fc = telemetry::enabled().then(std::time::Instant::now);
        model.forecast_ensemble(&mut ensemble, config.obs_interval_hours);
        let forecast_secs = t_fc.map(|t| t.elapsed().as_secs_f64());
        events.extend(plan.inject_member_faults(cycle, &mut ensemble));

        // Guardrail 1: quarantine non-finite and physically impossible
        // members, resampling them from healthy donors.
        let mut bad = health::scan_members(&ensemble);
        let outlier_limit = policy.outlier_factor * nature.climatology_sd;
        for o in health::scan_outliers(&ensemble, outlier_limit) {
            if !bad.contains(&o) {
                bad.push(o);
            }
        }
        bad.sort_unstable();
        if !bad.is_empty() {
            let seed = split_seed(config.seed ^ RESAMPLE_SALT, cycle as u64);
            if !health::quarantine_and_resample(&mut ensemble, &bad, seed, policy.resample_sigma)
            {
                return Err(OsseError::Unrecoverable {
                    cycle,
                    reason: "every ensemble member is corrupt; no healthy donor to resample from"
                        .to_string(),
                });
            }
            counters.quarantined_members += bad.len() as u64;
            for b in &bad {
                events.push(format!("member_quarantined:{b}"));
            }
        }

        // Stale copies of earlier delayed batches are discarded, never
        // assimilated (the analysis they would correct already happened).
        for _ in 0..plan.stale_arrivals_at(cycle) {
            counters.stale_obs_discarded += 1;
            events.push("stale_obs_discarded".to_string());
        }

        // Observation delivery, possibly degraded by the fault plan.
        let obs: Option<Vec<f64>> = match plan.obs_fault_at(cycle) {
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
                let mut y = spec.project(&ensemble.mean(), cycle as u64);
                for i in (0..y.len()).step_by(stride) {
                    y[i] = real[i];
                }
                events.push(format!("obs_thinned:{stride}"));
                Some(y)
            }
            _ => Some(nature.observations[cycle].clone()),
        };

        // Forecast half of the per-cycle diagnostics (innovation moments,
        // chi², rank histogram) — must be captured before the analysis
        // overwrites the forecast ensemble.
        let pre_diag = match (&obs, telemetry::enabled()) {
            (Some(y), true) => {
                Some(crate::diagnostics::forecast_stats(&ensemble, y, &spec, cycle as u64))
            }
            _ => None,
        };

        // Analysis with bounded retry, optional fallback, and forecast-only
        // degradation as the last resort.
        let t_an = telemetry::enabled().then(std::time::Instant::now);
        let mut retry_exhausted = false;
        let analysis = match &obs {
            None => {
                counters.degraded_cycles += 1;
                events.push("degraded_cycle:forecast_only".to_string());
                None
            }
            Some(y) => {
                let forced_failures = plan.analysis_failures_at(cycle);
                let mut produced = None;
                for attempt in 0..=policy.max_analysis_retries {
                    let mut candidate = scheme.analyze(&ensemble, y);
                    if attempt < forced_failures {
                        candidate.as_mut_slice().fill(f64::NAN);
                    }
                    if health::all_finite(&candidate) {
                        produced = Some(candidate);
                        break;
                    }
                    if attempt < policy.max_analysis_retries {
                        let seed = split_seed(
                            config.seed ^ RETRY_SALT,
                            ((cycle as u64) << 8) | (attempt as u64 + 1),
                        );
                        scheme.reseed(seed);
                        counters.analysis_retries += 1;
                        events.push(format!("analysis_retry:{}", attempt + 1));
                    }
                }
                if produced.is_none() {
                    if let Some(fb) = fallback.as_deref_mut() {
                        let candidate = fb.analyze(&ensemble, y);
                        if health::all_finite(&candidate) {
                            counters.analysis_fallbacks += 1;
                            events.push(format!("analysis_fallback:{}", fb.name()));
                            produced = Some(candidate);
                        }
                    }
                }
                if produced.is_none() {
                    counters.degraded_cycles += 1;
                    events.push("degraded_cycle:analysis_failed".to_string());
                    retry_exhausted = true;
                    telemetry::flight_record(
                        telemetry::FlightKind::RetryExhausted,
                        cycle as i64,
                        "analysis_retry_exhausted",
                        (policy.max_analysis_retries + 1) as f64,
                        forced_failures as f64,
                    );
                }
                produced
            }
        };
        let analysis_secs = t_an.map(|t| t.elapsed().as_secs_f64());
        if let Some(a) = analysis {
            ensemble = a;
        }

        // Guardrail 2: spread collapse → re-inflate.
        if ensemble.spread() < policy.spread_floor {
            health::reinflate(
                &mut ensemble,
                policy.reinflate_target,
                split_seed(config.seed ^ REINFLATE_SALT, cycle as u64),
            );
            counters.reinflations += 1;
            events.push("spread_reinflated".to_string());
        }

        // Guardrail 3: climatology-relative divergence from the batch we
        // actually assimilated. A large innovation alone can just be a hard
        // cycle; divergence is flagged only when the ensemble is *also*
        // overconfident about it — obs-space spread–skill below the policy
        // threshold — then the ensemble is loosened by inflation.
        if let Some(y) = &obs {
            // Compare in observation space: on partial networks the
            // innovation must not mix unobserved state into the RMSE.
            let mean_a = spec.project(&ensemble.mean(), cycle as u64);
            let innovation = stats::metrics::rmse(&mean_a, y);
            let ratio = stats::diagnostics::spread_skill(ensemble.spread(), innovation);
            if innovation > policy.divergence_factor * nature.climatology_sd
                && ratio < policy.divergence_spread_skill
            {
                ensemble.inflate(policy.divergence_inflation);
                counters.divergence_flags += 1;
                events.push("divergence_detected".to_string());
            }
        }

        let mean = ensemble.mean();
        hours.push((cycle + 1) as f64 * config.obs_interval_hours);
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

        if telemetry::enabled() {
            for event in &events {
                let key = event.split(':').next().unwrap_or(event);
                telemetry::counter_add(&format!("resilience.{key}"), 1);
                telemetry::flight_record(
                    telemetry::FlightKind::Guardrail,
                    cycle as i64,
                    key,
                    0.0,
                    0.0,
                );
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
            telemetry::gauge_set("supervisor.state", state as u8 as f64);
            telemetry::gauge_set("supervisor.retries", counters.analysis_retries as f64);
            telemetry::gauge_set("supervisor.fallbacks", counters.analysis_fallbacks as f64);
            telemetry::gauge_set(
                "supervisor.quarantined_members",
                counters.quarantined_members as f64,
            );
            telemetry::gauge_set("supervisor.divergence_flags", counters.divergence_flags as f64);
            let diagnostics = pre_diag.as_ref().zip(obs.as_ref()).map(|(pre, y)| {
                // INVARIANT: rmse was pushed for this cycle above.
                let skill = *rmse.last().unwrap();
                crate::diagnostics::complete(pre, &ensemble, y, skill, &spec, cycle as u64)
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
            telemetry::record_cycle(telemetry::CycleRecord {
                label: label.to_string(),
                cycle,
                // INVARIANT: all three series were pushed to this cycle above.
                hours: *hours.last().unwrap(),
                rmse: *rmse.last().unwrap(), // INVARIANT: pushed above
                spread: *spread.last().unwrap(), // INVARIANT: pushed above
                obs_count: obs.as_ref().map_or(0, Vec::len),
                phases: vec![
                    ("forecast".to_string(), forecast_secs.unwrap_or(0.0)),
                    ("analysis".to_string(), analysis_secs.unwrap_or(0.0)),
                ],
                events: events.clone(),
                diagnostics,
            });
            // Postmortem: dump *after* the cycle record so the snapshot's
            // recent-cycles window includes the cycle that went wrong.
            if retry_exhausted {
                telemetry::dump_postmortem("analysis_retry_exhausted");
            } else if prev_state == LoopState::Healthy && state == LoopState::Degraded {
                telemetry::dump_postmortem("left_healthy");
            }
        }

        model.assimilate_feedback(&prev_mean, &mean);
        prev_mean = mean;
        cycles_log.push(SupervisedCycle { cycle, state, events });

        let completed = cycle + 1;
        let killed = plan.kill_after == Some(completed) && completed < config.cycles;
        let due = resilience
            .checkpoint
            .as_ref()
            .is_some_and(|c| c.every > 0 && completed % c.every == 0);
        if due || killed {
            if let Some(ckcfg) = &resilience.checkpoint {
                make_checkpoint(
                    completed, state, scheme, model, &ensemble, &prev_mean, &hours, &rmse,
                    &spread, counters,
                )
                .save(&ckcfg.path)?;
            }
        }
        if killed {
            interrupted = true;
            break;
        }
    }

    let completed = start_cycle + cycles_log.len();
    let checkpoint = make_checkpoint(
        completed, state, scheme, model, &ensemble, &prev_mean, &hours, &rmse, &spread,
        counters,
    );
    let series = CycleSeries {
        label: label.to_string(),
        hours,
        rmse,
        spread,
        final_mean: ensemble.mean(),
    };
    Ok(SupervisedRun {
        series,
        cycles: cycles_log,
        counters,
        interrupted,
        final_state: state,
        checkpoint,
    })
}

#[allow(clippy::too_many_arguments)]
fn make_checkpoint(
    cycle: usize,
    state: LoopState,
    scheme: &mut dyn AnalysisScheme,
    model: &mut dyn ForecastModel,
    ensemble: &Ensemble,
    prev_mean: &[f64],
    hours: &[f64],
    rmse: &[f64],
    spread: &[f64],
    counters: RecoveryCounters,
) -> Checkpoint {
    let (scheme_epoch, scheme_seed) = scheme.rng_state();
    Checkpoint {
        cycle,
        state,
        scheme_epoch,
        scheme_seed,
        ensemble: ensemble.clone(),
        prev_mean: prev_mean.to_vec(),
        hours: hours.to_vec(),
        rmse: rmse.to_vec(),
        spread: spread.to_vec(),
        counters,
        model_state: model.save_state(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::fault::{AnalysisFault, FaultPlan, MemberFault, MemberFaultKind};
    use super::*;
    use crate::forecast::SqgForecast;
    use crate::osse::nature_run;
    use crate::traits::{Completion, EnsfScheme, LetkfScheme, NoAssimilation};
    use sqg::SqgParams;

    fn tiny_config(cycles: usize) -> OsseConfig {
        OsseConfig {
            params: SqgParams { n: 8, ..Default::default() },
            cycles,
            obs_sigma: 0.005,
            ens_size: 6,
            ic_sigma: 0.01,
            spinup_steps: 30,
            seed: 11,
            ..Default::default()
        }
    }

    fn ensf_scheme(cfg: &OsseConfig, dim: usize) -> EnsfScheme {
        EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 15, seed: cfg.seed ^ 0xE45F, ..Default::default() },
            dim,
            cfg.obs_spec(),
            Completion::Inpaint,
        )
    }

    #[test]
    fn clean_plan_matches_plain_run_and_stays_healthy() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();

        let mut m1 = SqgForecast::perfect(cfg.params.clone());
        let mut s1 = ensf_scheme(&cfg, dim);
        let plain =
            crate::osse::run_experiment("plain", &cfg, &nr, &mut m1, &mut s1).unwrap();

        let mut m2 = SqgForecast::perfect(cfg.params.clone());
        let mut s2 = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig::default();
        let run =
            run_supervised("sup", &cfg, &res, &nr, &mut m2, &mut s2, None).unwrap();

        assert_eq!(run.series.rmse, plain.rmse, "no faults ⇒ bit-identical to plain loop");
        assert_eq!(run.counters.total(), 0);
        assert!(!run.interrupted);
        assert!(run.cycles.iter().all(|c| c.events.is_empty()));
        assert_eq!(run.final_state, LoopState::Healthy);
    }

    #[test]
    fn member_faults_are_quarantined_and_recovered() {
        let cfg = tiny_config(5);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig {
            plan: FaultPlan {
                member_faults: vec![
                    MemberFault { cycle: 1, member: 2, kind: MemberFaultKind::Nan },
                    MemberFault { cycle: 1, member: 4, kind: MemberFaultKind::Corrupt { scale: 1e8 } },
                ],
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let run =
            run_supervised("quarantine", &cfg, &res, &nr, &mut model, &mut scheme, None)
                .unwrap();
        assert_eq!(run.counters.quarantined_members, 2);
        assert_eq!(run.cycles[1].state, LoopState::Degraded);
        assert!(run.cycles[1].events.iter().any(|e| e == "member_quarantined:2"));
        assert!(run.cycles[1].events.iter().any(|e| e == "member_quarantined:4"));
        // Two clean cycles later the loop is healthy again.
        assert_eq!(run.cycles[2].state, LoopState::Recovering);
        assert_eq!(run.cycles[3].state, LoopState::Healthy);
        assert!(run.series.rmse.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_members_corrupt_is_unrecoverable() {
        let cfg = tiny_config(3);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = NoAssimilation;
        let res = ResilienceConfig {
            plan: FaultPlan {
                member_faults: (0..cfg.ens_size)
                    .map(|m| MemberFault { cycle: 1, member: m, kind: MemberFaultKind::Nan })
                    .collect(),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let err = run_supervised("doom", &cfg, &res, &nr, &mut model, &mut scheme, None)
            .unwrap_err();
        assert!(matches!(err, OsseError::Unrecoverable { cycle: 1, .. }), "got {err}");
    }

    #[test]
    fn analysis_failure_retries_then_falls_back() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let mut fallback =
            LetkfScheme::with_obs(letkf::LetkfConfig::default(), &cfg.params, cfg.obs_spec());
        // Fail more attempts than the retry budget allows: must fall back.
        let res = ResilienceConfig {
            plan: FaultPlan {
                analysis_faults: vec![AnalysisFault { cycle: 2, failures: 9 }],
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let run = run_supervised(
            "fallback",
            &cfg,
            &res,
            &nr,
            &mut model,
            &mut scheme,
            Some(&mut fallback),
        )
        .unwrap();
        assert_eq!(run.counters.analysis_retries, 2);
        assert_eq!(run.counters.analysis_fallbacks, 1);
        assert!(run.cycles[2].events.iter().any(|e| e == "analysis_fallback:LETKF"));
        assert_eq!(run.counters.degraded_cycles, 0, "fallback rescued the cycle");
    }

    #[test]
    fn analysis_failure_without_fallback_degrades() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig {
            plan: FaultPlan {
                analysis_faults: vec![AnalysisFault { cycle: 1, failures: 9 }],
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let run =
            run_supervised("degrade", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
        assert_eq!(run.counters.degraded_cycles, 1);
        assert!(run.cycles[1].events.iter().any(|e| e == "degraded_cycle:analysis_failed"));
    }

    #[test]
    fn transient_analysis_failure_recovers_via_reseed() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig {
            plan: FaultPlan {
                analysis_faults: vec![AnalysisFault { cycle: 1, failures: 1 }],
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let run =
            run_supervised("retry", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
        assert_eq!(run.counters.analysis_retries, 1);
        assert_eq!(run.counters.analysis_fallbacks, 0);
        assert_eq!(run.counters.degraded_cycles, 0);
        assert!(run.cycles[1].events.iter().any(|e| e == "analysis_retry:1"));
    }

    #[test]
    fn masked_network_survives_supervision_and_thinning() {
        use crate::osse::MaskKind;
        let mask = MaskKind::Block { start: 32, len: 32 };
        let cfg = OsseConfig { obs_mask: mask, ..tiny_config(4) };
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        assert_eq!(nr.observations[0].len(), dim - 32, "obs vector shrinks to the mask");
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        // Thin the already-masked batch at cycle 1: the guardrails (incl.
        // the masked obs-space divergence check) must keep the run finite.
        let res = ResilienceConfig {
            plan: FaultPlan {
                obs_faults: vec![(1, ObsFault::Thin { stride: 3 })],
                ..Default::default()
            },
            ..Default::default()
        };
        let run =
            run_supervised("masked", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
        assert!(run.cycles[1].events.iter().any(|e| e == "obs_thinned:3"));
        assert_eq!(run.counters.degraded_cycles, 0, "thinned masked batch still assimilates");
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
        assert!(!run.interrupted);
    }

    #[test]
    fn kill_after_interrupts_and_checkpoint_resumes_bit_identically() {
        let cfg = tiny_config(6);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();

        // Reference: uninterrupted supervised run.
        let mut m_ref = SqgForecast::perfect(cfg.params.clone());
        let mut s_ref = ensf_scheme(&cfg, dim);
        let full = run_supervised(
            "ref",
            &cfg,
            &ResilienceConfig::default(),
            &nr,
            &mut m_ref,
            &mut s_ref,
            None,
        )
        .unwrap();

        // Killed at cycle 3, then resumed from the in-memory checkpoint.
        let res_kill = ResilienceConfig {
            plan: FaultPlan { kill_after: Some(3), ..FaultPlan::none() },
            ..Default::default()
        };
        let mut m1 = SqgForecast::perfect(cfg.params.clone());
        let mut s1 = ensf_scheme(&cfg, dim);
        let killed =
            run_supervised("kill", &cfg, &res_kill, &nr, &mut m1, &mut s1, None).unwrap();
        assert!(killed.interrupted);
        assert_eq!(killed.checkpoint.cycle, 3);

        let mut m2 = SqgForecast::perfect(cfg.params.clone());
        let mut s2 = ensf_scheme(&cfg, dim);
        let resumed = resume_supervised(
            "resume",
            &cfg,
            &ResilienceConfig::default(),
            &nr,
            &mut m2,
            &mut s2,
            None,
            killed.checkpoint,
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.series.rmse, full.series.rmse, "resume must be bit-identical");
        assert_eq!(resumed.series.spread, full.series.spread);
        assert_eq!(
            resumed.checkpoint.ensemble.as_slice(),
            full.checkpoint.ensemble.as_slice()
        );
        assert_eq!(resumed.cycles.len(), 3, "only the post-kill cycles ran in-process");
    }

    #[test]
    fn mismatched_checkpoint_rejected() {
        let cfg = tiny_config(3);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let ck = Checkpoint {
            cycle: 1,
            state: LoopState::Healthy,
            scheme_epoch: 1,
            scheme_seed: 0,
            ensemble: Ensemble::zeros(cfg.ens_size, dim + 1), // wrong dim
            prev_mean: vec![0.0; dim + 1],
            hours: vec![12.0],
            rmse: vec![0.1],
            spread: vec![0.1],
            counters: RecoveryCounters::default(),
            model_state: None,
        };
        let err = resume_supervised(
            "bad", &cfg, &ResilienceConfig::default(), &nr, &mut model, &mut scheme, None, ck,
        )
        .unwrap_err();
        assert_eq!(err, OsseError::Checkpoint(CheckpointError::BadHeader));
    }

    #[test]
    fn dropped_and_delayed_batches_run_forecast_only_cycles() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig {
            plan: FaultPlan {
                obs_faults: vec![
                    (0, super::super::fault::ObsFault::Drop),
                    (1, super::super::fault::ObsFault::Delay { by: 1 }),
                ],
                ..Default::default()
            },
            ..Default::default()
        };
        let run =
            run_supervised("obs-late", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
        // Both faulted cycles degrade to forecast-only; the delayed batch
        // arrives stale one cycle later and is discarded, never assimilated.
        assert_eq!(run.counters.degraded_cycles, 2);
        assert_eq!(run.counters.stale_obs_discarded, 1);
        assert!(run.cycles[0].events.iter().any(|e| e == "obs_dropped"));
        assert!(run.cycles[1].events.iter().any(|e| e == "obs_delayed:1"));
        assert!(run.cycles[2].events.iter().any(|e| e == "stale_obs_discarded"));
        // The clean trailing cycles still assimilate.
        assert!(run.cycles[3].events.is_empty());
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn thinned_batch_still_assimilates_the_surviving_network() {
        let cfg = tiny_config(3);
        let nr = nature_run(&cfg);
        let dim = nr.truth[0].len();
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let mut scheme = ensf_scheme(&cfg, dim);
        let res = ResilienceConfig {
            plan: FaultPlan {
                obs_faults: vec![(1, super::super::fault::ObsFault::Thin { stride: 4 })],
                ..Default::default()
            },
            ..Default::default()
        };
        let run =
            run_supervised("obs-thin", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
        // A thinned batch is degraded data, not a degraded cycle: the
        // analysis still runs on the surviving network.
        assert_eq!(run.counters.degraded_cycles, 0);
        assert!(run.cycles[1].events.iter().any(|e| e == "obs_thinned:4"));
        assert_eq!(run.series.rmse.len(), 3);
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
        // The run completes (possibly with a guardrail fired on the
        // information-starved cycle) rather than erroring out.
        assert!(!run.interrupted);
    }
}
