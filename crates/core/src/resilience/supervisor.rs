//! The supervisor's state: what the cycle loop ([`crate::cycle::run_cycles`])
//! tracks when a [`Run`](crate::cycle::Run) carries a health policy.
//!
//! An unsupervised run assumes every forecast is finite, every observation
//! batch arrives, and every analysis succeeds. Under a
//! [`HealthPolicy`](super::HealthPolicy) the loop assumes none of that.
//! Each cycle runs through guardrails — non-finite/outlier member
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
//! Every recovery action is appended to the cycle's record and counted in
//! [`RecoveryCounters`], and the full cycling state can be
//! checkpointed each `every` cycles so a killed run resumes
//! *bit-identically* (all repair randomness is a pure function of the
//! master seed and the cycle index).

/// Health state of the cycle loop.
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
    /// Lower-case state name used in postmortems (`"healthy"`,
    /// `"degraded"`, `"recovering"`).
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

/// One executed cycle: the run's log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedCycle {
    /// Health state *after* this cycle.
    pub state: LoopState,
    /// The analysis ladder's rung that produced this cycle's analysis.
    pub rung: super::Rung,
    /// What the cycle did: its index, verification, phases, events (empty
    /// ⇒ clean) and, when a batch was assimilated, its diagnostics.
    pub record: telemetry::CycleRecord,
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::{Checkpoint, CheckpointError};
    use super::super::fault::{
        AnalysisFault, FaultPlan, MemberFault, MemberFaultKind, ObsFault, RankKill, RankRejoin,
    };
    use super::super::HealthPolicy;
    use super::*;
    use crate::cycle::{run_cycles, run_cycles_with, Run, RunResult, SingleProcess};
    use crate::forecast::SqgForecast;
    use crate::osse::{nature_run, NatureRun, OsseConfig};
    use crate::traits::{Analysis, AnalysisScheme, ForecastModel};
    use crate::OsseError;
    use sqg::SqgParams;
    use stats::Ensemble;

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

    fn ensf(cfg: &OsseConfig) -> Analysis {
        let seed = cfg.seed ^ 0xE45F;
        Analysis::ensf(ensf::EnsfConfig { n_steps: 15, seed, ..Default::default() })
    }

    /// `cfg`'s EnSF under `faults`, supervised by the guardrails scaled to
    /// its observation error.
    fn supervised(label: &str, cfg: &OsseConfig, faults: FaultPlan) -> Run {
        let health = Some(HealthPolicy::for_obs_sigma(cfg.obs_sigma));
        Run { health, faults, ..Run::new(label, cfg.clone(), ensf(cfg)) }
    }

    /// `run` on one process.
    fn drive(
        run: &Run,
        nature: &NatureRun,
        model: &mut dyn ForecastModel,
        resume: Option<Checkpoint>,
    ) -> Result<RunResult, OsseError> {
        run_cycles(run, nature, model, &mut SingleProcess, resume)
    }

    #[test]
    fn clean_plan_matches_plain_run_and_stays_healthy() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);

        let mut m1 = SqgForecast::perfect(cfg.params.clone());
        let plain = Run::new("plain", cfg.clone(), ensf(&cfg));
        let plain = drive(&plain, &nr, &mut m1, None).unwrap().series;

        let mut m2 = SqgForecast::perfect(cfg.params.clone());
        let sup = supervised("sup", &cfg, FaultPlan::none());
        let run = drive(&sup, &nr, &mut m2, None).unwrap();

        assert_eq!(run.series.rmse, plain.rmse, "no faults ⇒ bit-identical to plain loop");
        assert_eq!(run.series.spread, plain.spread);
        assert_eq!(run.series.hours, plain.hours);
        assert_eq!(run.series.final_mean, plain.final_mean);
        assert_eq!(run.checkpoint.prev_mean, plain.final_mean);
        assert_eq!(run.checkpoint.counters.total(), 0);
        assert!(!run.interrupted);
        assert!(run.cycles.iter().all(|c| c.record.events.is_empty()));
        assert_eq!(run.checkpoint.state, LoopState::Healthy);
    }

    /// Returns an all-NaN analysis whenever it is handed `bad_batch`,
    /// however often it is retried.
    struct FailsOn {
        inner: Box<dyn AnalysisScheme>,
        bad_batch: Vec<f64>,
    }

    impl AnalysisScheme for FailsOn {
        fn name(&self) -> &str {
            "fails-on"
        }
        fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
            let mut analysis = self.inner.analyze(forecast, observation);
            if observation == self.bad_batch {
                analysis.as_mut_slice().fill(f64::NAN);
            }
            analysis
        }
    }

    /// The absent policy is the plain contract: the same failing scheme
    /// poisons the unsupervised run from the failing cycle on, and costs
    /// the supervised one one forecast-only cycle.
    #[test]
    fn without_a_policy_a_failed_analysis_propagates() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let plain = Run::new("plain", cfg.clone(), ensf(&cfg));
        let sup = supervised("sup", &cfg, FaultPlan::none());
        let drive_failing = |run: &Run| {
            let bad_batch = nr.observations[1].clone();
            let mut failing = FailsOn { inner: run.analysis.build(&cfg), bad_batch };
            let mut model = SqgForecast::perfect(cfg.params.clone());
            run_cycles_with(run, &nr, &mut model, &mut failing, None, &mut SingleProcess, None)
        };

        let plain = drive_failing(&plain).unwrap().series;
        assert!(plain.rmse[0].is_finite());
        assert!(plain.rmse[1..].iter().all(|r| !r.is_finite()), "{:?}", plain.rmse);

        let run = drive_failing(&sup).unwrap();
        assert!(run.cycles[1].record.events.iter().any(|e| e == "degraded_cycle:analysis_failed"));
        assert_eq!(run.checkpoint.counters.degraded_cycles, 1);
        assert!(run.series.rmse.iter().all(|r| r.is_finite()), "{:?}", run.series.rmse);
        assert_eq!(run.series.rmse[0], plain.rmse[0], "identical until the failure");
    }

    #[test]
    fn member_faults_are_quarantined_and_recovered() {
        let cfg = tiny_config(5);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let faults = FaultPlan {
            member_faults: vec![
                MemberFault { cycle: 1, member: 2, kind: MemberFaultKind::Nan },
                MemberFault { cycle: 1, member: 4, kind: MemberFaultKind::Corrupt { scale: 1e8 } },
            ],
            ..FaultPlan::none()
        };
        let sup = supervised("quarantine", &cfg, faults);
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        assert_eq!(run.checkpoint.counters.quarantined_members, 2);
        assert_eq!(run.cycles[1].state, LoopState::Degraded);
        assert!(run.cycles[1].record.events.iter().any(|e| e == "member_quarantined:2"));
        assert!(run.cycles[1].record.events.iter().any(|e| e == "member_quarantined:4"));
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
        let faults = FaultPlan {
            member_faults: (0..cfg.ens_size)
                .map(|m| MemberFault { cycle: 1, member: m, kind: MemberFaultKind::Nan })
                .collect(),
            ..FaultPlan::none()
        };
        let sup = Run { analysis: Analysis::None, ..supervised("doom", &cfg, faults) };
        let err = drive(&sup, &nr, &mut model, None).unwrap_err();
        assert!(matches!(err, OsseError::Unrecoverable { cycle: 1, .. }), "got {err}");
    }

    fn analysis_faults(cycle: usize, failures: usize) -> FaultPlan {
        FaultPlan { analysis_faults: vec![AnalysisFault { cycle, failures }], ..FaultPlan::none() }
    }

    #[test]
    fn analysis_failure_retries_then_falls_back() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        // Fail more attempts than the retry budget allows: must fall back.
        let mut sup = supervised("fallback", &cfg, analysis_faults(2, 9));
        sup.fallback = Some(Analysis::Letkf(letkf::LetkfConfig::default()));
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        let counters = &run.checkpoint.counters;
        assert_eq!(counters.analysis_retries, 2);
        assert_eq!(counters.analysis_fallbacks, 1);
        assert!(run.cycles[2].record.events.iter().any(|e| e == "analysis_fallback:LETKF"));
        assert_eq!(counters.degraded_cycles, 0, "fallback rescued the cycle");
    }

    #[test]
    fn analysis_failure_without_fallback_degrades() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let sup = supervised("degrade", &cfg, analysis_faults(1, 9));
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        assert_eq!(run.checkpoint.counters.degraded_cycles, 1);
        assert!(run.cycles[1].record.events.iter().any(|e| e == "degraded_cycle:analysis_failed"));
    }

    #[test]
    fn transient_analysis_failure_recovers_via_reseed() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let sup = supervised("retry", &cfg, analysis_faults(1, 1));
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        let counters = &run.checkpoint.counters;
        assert_eq!(counters.analysis_retries, 1);
        assert_eq!(counters.analysis_fallbacks, 0);
        assert_eq!(counters.degraded_cycles, 0);
        assert!(run.cycles[1].record.events.iter().any(|e| e == "analysis_retry:1"));
    }

    /// Records the analysis index each call runs at, forwarding the noise
    /// position so the loop can align it.
    struct IndexLog {
        inner: Box<dyn AnalysisScheme>,
        indices: Vec<u64>,
    }

    impl AnalysisScheme for IndexLog {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
            self.indices.push(self.inner.rng_state().0);
            self.inner.analyze(forecast, observation)
        }
        fn rng_state(&self) -> (u64, u64) {
            self.inner.rng_state()
        }
        fn set_rng_state(&mut self, epoch: u64, seed: u64) {
            self.inner.set_rng_state(epoch, seed);
        }
    }

    /// Every attempt at cycle `c` analyses index `c` — the moving track's
    /// window and the noise streams of cycle `c` — whether it is a first
    /// try, a retry or the fallback's rescue, so no later cycle shifts.
    #[test]
    fn retries_and_fallbacks_analyse_their_own_cycle() {
        use crate::osse::MaskKind;
        let track = MaskKind::Track { width: 64, speed: 16 };
        let cfg = OsseConfig { obs_mask: track, ..tiny_config(4) };
        let nr = nature_run(&cfg);
        let logged = |analysis: Analysis| IndexLog { inner: analysis.build(&cfg), indices: vec![] };
        let drive_with = |run: &Run, scheme: &mut dyn AnalysisScheme, fallback| {
            let mut model = SqgForecast::perfect(cfg.params.clone());
            run_cycles_with(run, &nr, &mut model, scheme, fallback, &mut SingleProcess, None)
        };
        for failures in [0, 1, 2] {
            let mut scheme = logged(ensf(&cfg));
            let sup = supervised("track", &cfg, analysis_faults(1, failures));
            let run = drive_with(&sup, &mut scheme, None).unwrap();
            assert_eq!(run.checkpoint.counters.analysis_retries, failures as u64);
            let ck = &run.checkpoint;
            assert_eq!(ck.scheme_epoch, ck.cycle as u64, "{failures} retries");
            let mut want = vec![0, 1];
            want.extend(std::iter::repeat_n(1, failures));
            want.extend([2, 3]);
            assert_eq!(scheme.indices, want, "{failures} retries");
        }

        let mut fallback = logged(Analysis::Letkf(letkf::LetkfConfig::default()));
        let sup = supervised("rescue", &cfg, analysis_faults(2, 9));
        let mut scheme = ensf(&cfg).build(&cfg);
        let run = drive_with(&sup, scheme.as_mut(), Some(&mut fallback)).unwrap();
        assert_eq!(run.checkpoint.counters.analysis_fallbacks, 1);
        assert_eq!(fallback.indices, [2], "the rescue reads cycle 2's track");
        assert_eq!(run.checkpoint.scheme_epoch, 4);
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
        // Thin the already-masked batch at cycle 1: the guardrails (incl.
        // the masked obs-space divergence check) must keep the run finite.
        let faults =
            FaultPlan { obs_faults: vec![(1, ObsFault::Thin { stride: 3 })], ..FaultPlan::none() };
        let sup = supervised("masked", &cfg, faults);
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        assert!(run.cycles[1].record.events.iter().any(|e| e == "obs_thinned:3"));
        let degraded = run.checkpoint.counters.degraded_cycles;
        assert_eq!(degraded, 0, "thinned masked batch still assimilates");
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
        assert!(!run.interrupted);
    }

    #[test]
    fn kill_after_interrupts_and_checkpoint_resumes_bit_identically() {
        let cfg = tiny_config(6);
        let nr = nature_run(&cfg);

        // Reference: uninterrupted supervised run.
        let mut m_ref = SqgForecast::perfect(cfg.params.clone());
        let sup = supervised("ref", &cfg, FaultPlan::none());
        let full = drive(&sup, &nr, &mut m_ref, None).unwrap();

        // Killed at cycle 3, then resumed from the in-memory checkpoint.
        let kill = FaultPlan { kill_after: Some(3), ..FaultPlan::none() };
        let mut m1 = SqgForecast::perfect(cfg.params.clone());
        let killed = drive(&supervised("kill", &cfg, kill), &nr, &mut m1, None).unwrap();
        assert!(killed.interrupted);
        assert_eq!(killed.checkpoint.cycle, 3);

        let mut m2 = SqgForecast::perfect(cfg.params.clone());
        let resumed = drive(&sup, &nr, &mut m2, Some(killed.checkpoint)).unwrap();
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
        let good = Checkpoint {
            cycle: 1,
            state: LoopState::Healthy,
            scheme_epoch: 1,
            scheme_seed: 0,
            ensemble: Ensemble::zeros(cfg.ens_size, dim),
            prev_mean: vec![0.0; dim],
            hours: vec![12.0],
            rmse: vec![0.1],
            spread: vec![0.1],
            counters: RecoveryCounters::default(),
            model_state: None,
        };
        let wrong_dim = Checkpoint {
            ensemble: Ensemble::zeros(cfg.ens_size, dim + 1),
            prev_mean: vec![0.0; dim + 1],
            ..good.clone()
        };
        // One series point more than the completed cycles: a resume would
        // cycle it into a longer series.
        let longer_series = Checkpoint {
            hours: vec![12.0, 999.0],
            rmse: vec![0.1, 0.1],
            spread: vec![0.1, 0.1],
            ..good
        };
        let sup = supervised("bad", &cfg, FaultPlan::none());
        for ck in [wrong_dim, longer_series] {
            let mut model = SqgForecast::perfect(cfg.params.clone());
            let err = drive(&sup, &nr, &mut model, Some(ck)).unwrap_err();
            assert_eq!(err, OsseError::Checkpoint(CheckpointError::BadHeader));
        }
    }

    /// One process is a one-rank group whose rank leads: a plan that kills
    /// or rejoins any rank is refused up front, not silently ignored.
    #[test]
    fn rank_faults_are_refused_on_one_process() {
        let cfg = tiny_config(3);
        let nr = nature_run(&cfg);
        let kill = |rank| RankKill { cycle: 1, rank };
        let rejoin = RankRejoin { cycle: 2, rank: 1 };
        let scripts = [
            (FaultPlan { rank_kills: vec![kill(1)], ..FaultPlan::none() }, 1),
            (FaultPlan { rank_kills: vec![kill(0)], ..FaultPlan::none() }, 0),
            (FaultPlan { rank_rejoins: vec![rejoin], ..FaultPlan::none() }, 1),
        ];
        for (faults, rank) in scripts {
            let mut model = SqgForecast::perfect(cfg.params.clone());
            let run = Run { faults, ..Run::new("ranks", cfg.clone(), Analysis::None) };
            let err = drive(&run, &nr, &mut model, None).unwrap_err();
            assert_eq!(err, OsseError::RankOutsideGroup { rank, world: 1 });
        }
    }

    #[test]
    fn dropped_and_delayed_batches_run_forecast_only_cycles() {
        let cfg = tiny_config(4);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let faults = FaultPlan {
            obs_faults: vec![(0, ObsFault::Drop), (1, ObsFault::Delay { by: 1 })],
            ..FaultPlan::none()
        };
        let sup = supervised("obs-late", &cfg, faults);
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        // Both faulted cycles degrade to forecast-only; the delayed batch
        // arrives stale one cycle later and is discarded, never assimilated.
        assert_eq!(run.checkpoint.counters.degraded_cycles, 2);
        assert_eq!(run.checkpoint.counters.stale_obs_discarded, 1);
        assert!(run.cycles[0].record.events.iter().any(|e| e == "obs_dropped"));
        assert!(run.cycles[1].record.events.iter().any(|e| e == "obs_delayed:1"));
        assert!(run.cycles[2].record.events.iter().any(|e| e == "stale_obs_discarded"));
        // The clean trailing cycles still assimilate.
        assert!(run.cycles[3].record.events.is_empty());
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn thinned_batch_still_assimilates_the_surviving_network() {
        let cfg = tiny_config(3);
        let nr = nature_run(&cfg);
        let mut model = SqgForecast::perfect(cfg.params.clone());
        let faults =
            FaultPlan { obs_faults: vec![(1, ObsFault::Thin { stride: 4 })], ..FaultPlan::none() };
        let sup = supervised("obs-thin", &cfg, faults);
        let run = drive(&sup, &nr, &mut model, None).unwrap();
        // A thinned batch is degraded data, not a degraded cycle: the
        // analysis still runs on the surviving network.
        assert_eq!(run.checkpoint.counters.degraded_cycles, 0);
        assert!(run.cycles[1].record.events.iter().any(|e| e == "obs_thinned:4"));
        assert_eq!(run.series.rmse.len(), 3);
        assert!(run.series.rmse.iter().all(|r| r.is_finite()));
        // The run completes (possibly with a guardrail fired on the
        // information-starved cycle) rather than erroring out.
        assert!(!run.interrupted);
    }
}
