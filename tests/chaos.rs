//! Chaos testing: the supervised OSSE loop under a hostile fault script.
//!
//! One end-to-end scenario per acceptance criterion: a chaos run that
//! must complete every cycle and still beat the free run, a
//! checkpoint → kill → restore round trip through a real file that must
//! be bit-identical, and a corrupted checkpoint that must be rejected.

use sqg_da::da_core::osse::{nature_run, run_experiment, OsseConfig};
use sqg_da::da_core::AnalysisScheme;
use sqg_da::da_core::resilience::{
    resume_supervised, run_supervised, AnalysisFault, Checkpoint, CheckpointConfig,
    CheckpointError, FaultPlan, HealthPolicy, LoopState, MemberFault, MemberFaultKind,
    ObsFault, ResilienceConfig,
};
use sqg_da::da_core::{Completion, EnsfScheme, LetkfScheme, NoAssimilation, SqgForecast};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::letkf::LetkfConfig;
use sqg_da::sqg::SqgParams;

/// Serializes every test of this binary: telemetry's enable flag, cycle
/// records, flight ring and postmortem sink are process-global, so a
/// supervised loop running while another test has telemetry on would write
/// into that test's records and postmortem directory.
static TELEMETRY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn telemetry_gate() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A scratch path under the system temp dir, private to this process.
fn scratch_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sqg_da_chaos_{name}_{}", std::process::id()))
}

fn chaos_config(cycles: usize, seed: u64) -> OsseConfig {
    OsseConfig {
        params: SqgParams { n: 16, ekman: 0.05, ..Default::default() },
        cycles,
        obs_sigma: 0.005,
        ens_size: 10,
        ic_sigma: 0.01,
        spinup_steps: 60,
        seed,
        ..Default::default()
    }
}

fn ensf_scheme(cfg: &OsseConfig, dim: usize) -> EnsfScheme {
    EnsfScheme::with_obs(
        EnsfConfig { n_steps: 20, seed: cfg.seed ^ 0xE45F, ..Default::default() },
        dim,
        cfg.obs_spec(),
        Completion::Inpaint,
    )
}

/// Everything at once: NaN'd and blown-up members, a dropped observation
/// batch, a thinned network, and an EnSF outage deep enough to exhaust the
/// retry budget and hit the LETKF fallback. The run must finish every
/// cycle, leave a recovery trail in telemetry, and still assimilate well
/// enough to beat a free (no-DA) run.
#[test]
fn chaos_run_completes_and_beats_free_run() {
    let _gate = telemetry_gate();
    let cfg = chaos_config(16, 23);
    let nr = nature_run(&cfg);
    let dim = nr.truth[0].len();

    let res = ResilienceConfig {
        plan: FaultPlan {
            member_faults: vec![
                MemberFault { cycle: 2, member: 3, kind: MemberFaultKind::Nan },
                MemberFault { cycle: 2, member: 7, kind: MemberFaultKind::Nan },
                MemberFault { cycle: 9, member: 1, kind: MemberFaultKind::Corrupt { scale: 1e9 } },
            ],
            obs_faults: vec![(4, ObsFault::Drop), (11, ObsFault::Thin { stride: 4 })],
            analysis_faults: vec![AnalysisFault { cycle: 6, failures: 9 }],
            ..FaultPlan::none()
        },
        // EnSF's equilibrium spread at this scale sits near the default
        // 0.1σ floor; loosen it so only scripted faults trip guardrails.
        health: Some(HealthPolicy {
            spread_floor: 0.02 * cfg.obs_sigma,
            ..HealthPolicy::for_obs_sigma(cfg.obs_sigma)
        }),
        ..Default::default()
    };

    telemetry::set_enabled(true);
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let mut scheme = ensf_scheme(&cfg, dim);
    let mut fallback = LetkfScheme::with_obs(LetkfConfig::default(), &cfg.params, cfg.obs_spec());
    let run = run_supervised(
        "chaos",
        &cfg,
        &res,
        &nr,
        &mut model,
        &mut scheme,
        Some(&mut fallback),
    )
    .unwrap();
    telemetry::set_enabled(false);

    // Every cycle completed despite the fault script.
    assert!(!run.interrupted);
    assert_eq!(run.cycles.len(), cfg.cycles);
    assert_eq!(run.series.rmse.len(), cfg.cycles);
    assert!(run.series.rmse.iter().all(|v| v.is_finite()));

    // Each scripted fault left its recovery action in the counters.
    assert_eq!(run.counters.quarantined_members, 3);
    assert_eq!(run.counters.degraded_cycles, 1, "dropped obs ⇒ one forecast-only cycle");
    assert_eq!(run.counters.analysis_retries, 2, "retry budget spent before fallback");
    assert_eq!(run.counters.analysis_fallbacks, 1);

    // The state machine visited Degraded and climbed back out of it.
    assert_eq!(run.cycles[2].state, LoopState::Degraded);
    assert!(run.cycles.iter().any(|c| c.state == LoopState::Recovering));
    // Spread relaxation keeps the analysis ensemble inflated at this scale,
    // so only scripted faults — never spontaneous collapse — trip guardrails.
    assert_eq!(run.counters.reinflations, 0, "no collapse repair expected");

    // The recovery trail is visible in telemetry, not just return values.
    let records: Vec<_> =
        telemetry::cycle_records().into_iter().filter(|r| r.label == "chaos").collect();
    assert_eq!(records.len(), cfg.cycles);
    let all_events: Vec<String> =
        records.iter().flat_map(|r| r.events.iter().cloned()).collect();
    assert!(all_events.iter().any(|e| e.starts_with("member_quarantined:")));
    assert!(all_events.iter().any(|e| e == "obs_dropped"));
    assert!(all_events.iter().any(|e| e == "obs_thinned:4"));
    assert!(all_events.iter().any(|e| e == "analysis_fallback:LETKF"));
    assert!(telemetry::counter_value("resilience.member_quarantined") >= 3);

    // Despite the chaos, assimilation still beats running the model free.
    let mut free_model = SqgForecast::perfect(cfg.params.clone());
    let mut free_scheme = NoAssimilation;
    let free = run_experiment("free", &cfg, &nr, &mut free_model, &mut free_scheme).unwrap();
    assert!(
        run.series.steady_rmse() < free.steady_rmse(),
        "chaos DA {} must beat free run {}",
        run.series.steady_rmse(),
        free.steady_rmse()
    );
}

/// The supervised retry/fallback ladder treats the flow-matching scheme
/// exactly like EnSF: scripted analysis failures burn the retry budget
/// (each retry reseeds the flow's initial-fill streams — the *only* RNG
/// the deterministic ODE consumes), then the LETKF fallback takes the
/// cycle, and the run still completes every cycle and beats the free run.
#[test]
fn flow_matching_chaos_run_retries_and_falls_back() {
    let _gate = telemetry_gate();
    let cfg = chaos_config(12, 31);
    let nr = nature_run(&cfg);
    let dim = nr.truth[0].len();

    let res = ResilienceConfig {
        plan: FaultPlan {
            analysis_faults: vec![AnalysisFault { cycle: 5, failures: 9 }],
            ..FaultPlan::none()
        },
        health: Some(HealthPolicy {
            spread_floor: 0.02 * cfg.obs_sigma,
            ..HealthPolicy::for_obs_sigma(cfg.obs_sigma)
        }),
        ..Default::default()
    };

    let mut model = SqgForecast::perfect(cfg.params.clone());
    let mut scheme = EnsfScheme::with_obs(
        EnsfConfig {
            method: AnalysisMethod::FlowMatching,
            n_steps: 8,
            seed: cfg.seed ^ 0xE45F,
            ..Default::default()
        },
        dim,
        cfg.obs_spec(),
        Completion::Inpaint,
    );
    assert_eq!(scheme.name(), "FlowEnSF");
    let mut fallback = LetkfScheme::with_obs(LetkfConfig::default(), &cfg.params, cfg.obs_spec());
    let run = run_supervised(
        "flow-chaos",
        &cfg,
        &res,
        &nr,
        &mut model,
        &mut scheme,
        Some(&mut fallback),
    )
    .unwrap();

    assert!(!run.interrupted);
    assert_eq!(run.cycles.len(), cfg.cycles);
    assert!(run.series.rmse.iter().all(|v| v.is_finite()));
    assert_eq!(run.counters.analysis_retries, 2, "retry budget spent before fallback");
    assert_eq!(run.counters.analysis_fallbacks, 1);
    let all_events: Vec<&String> = run.cycles.iter().flat_map(|c| c.events.iter()).collect();
    assert!(all_events.iter().any(|e| *e == "analysis_fallback:LETKF"));

    let mut free_model = SqgForecast::perfect(cfg.params.clone());
    let mut free_scheme = NoAssimilation;
    let free = run_experiment("flow-free", &cfg, &nr, &mut free_model, &mut free_scheme).unwrap();
    assert!(
        run.series.steady_rmse() < free.steady_rmse(),
        "flow-matching chaos DA {} must beat free run {}",
        run.series.steady_rmse(),
        free.steady_rmse()
    );
}

/// The flight recorder end to end: an injected fault knocks the
/// supervisor out of `Healthy`, and that exact moment must produce a
/// structured postmortem JSON on disk carrying (a) the `healthy->degraded`
/// transition in the flight ring, (b) the degrading cycle's record with
/// its innovation diagnostics attached, and (c) the supervisor counters.
#[test]
fn injected_fault_produces_postmortem_with_diagnostics_and_transition() {
    let _gate = telemetry_gate();
    let cfg = chaos_config(6, 53);
    let nr = nature_run(&cfg);
    let dim = nr.truth[0].len();
    let dir = scratch_path("postmortem");
    std::fs::remove_dir_all(&dir).ok();

    // Two NaN'd members at cycle 3: quarantine ⇒ Healthy → Degraded.
    let res = ResilienceConfig {
        plan: FaultPlan {
            member_faults: vec![
                MemberFault { cycle: 3, member: 2, kind: MemberFaultKind::Nan },
                MemberFault { cycle: 3, member: 5, kind: MemberFaultKind::Nan },
            ],
            ..FaultPlan::none()
        },
        health: Some(HealthPolicy {
            spread_floor: 0.02 * cfg.obs_sigma,
            ..HealthPolicy::for_obs_sigma(cfg.obs_sigma)
        }),
        ..Default::default()
    };

    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::set_postmortem_dir(Some(&dir));
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let mut scheme = ensf_scheme(&cfg, dim);
    let run =
        run_supervised("postmortem", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();
    telemetry::set_postmortem_dir(None);
    telemetry::set_enabled(false);

    assert_eq!(run.cycles[3].state, LoopState::Degraded, "fault must trip the supervisor");

    // Exactly the left-Healthy moment dumped (later cycles transition
    // Degraded → Recovering → Healthy, which is recovery, not a fault).
    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("postmortem dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    dumps.sort();
    assert_eq!(dumps.len(), 1, "one postmortem expected, got {dumps:?}");
    let doc = telemetry::json::parse(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(doc.get("reason").and_then(telemetry::Json::as_str), Some("left_healthy"));

    // (a) The transition is in the flight ring, tagged with the cycle.
    let flight = doc.get("flight").and_then(telemetry::Json::as_arr).unwrap();
    let transition = flight
        .iter()
        .find(|e| e.get("kind").and_then(telemetry::Json::as_str) == Some("transition"))
        .expect("flight ring must hold the state transition");
    assert_eq!(transition.get("label").and_then(telemetry::Json::as_str), Some("healthy->degraded"));
    assert_eq!(transition.get("cycle").and_then(telemetry::Json::as_i64), Some(3));
    assert!(
        flight.iter().any(|e| {
            e.get("kind").and_then(telemetry::Json::as_str) == Some("guardrail")
                && e.get("cycle").and_then(telemetry::Json::as_i64) == Some(3)
        }),
        "quarantine guardrail events must be on the ring"
    );

    // (b) The degrading cycle's record is in the snapshot, diagnostics
    // attached and finite.
    let cycles = doc.get("recent_cycles").and_then(telemetry::Json::as_arr).unwrap();
    let degrading = cycles
        .iter()
        .find(|c| {
            c.get("label").and_then(telemetry::Json::as_str) == Some("postmortem")
                && c.get("cycle").and_then(telemetry::Json::as_i64) == Some(3)
        })
        .expect("snapshot must include the degrading cycle");
    let diag = degrading.get("diagnostics").expect("degrading cycle must carry diagnostics");
    for key in ["of_mean", "of_var", "oa_mean", "oa_var", "chi2", "spread_skill"] {
        let v = diag.get(key).and_then(telemetry::Json::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "diagnostics.{key} must be finite, got {v}");
    }

    // (c) Supervisor bookkeeping rode along.
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters
            .get("supervisor.transition.healthy_to_degraded")
            .and_then(telemetry::Json::as_i64),
        Some(1)
    );
    assert!(counters.get("resilience.member_quarantined").is_some());
}

/// Kill the loop mid-run with checkpointing to a real file, restore from
/// that file in a fresh process state, and require the finished series and
/// final ensemble to match an uninterrupted run bit for bit.
#[test]
fn checkpoint_kill_restore_is_bit_identical() {
    let _gate = telemetry_gate();
    let cfg = chaos_config(8, 31);
    let nr = nature_run(&cfg);
    let dim = nr.truth[0].len();
    let path = scratch_path("ckpt.bin");

    // Reference: the same fault plan minus the kill, run to completion.
    let plan = FaultPlan {
        member_faults: vec![MemberFault { cycle: 1, member: 0, kind: MemberFaultKind::Nan }],
        ..FaultPlan::none()
    };
    let mut m_ref = SqgForecast::perfect(cfg.params.clone());
    let mut s_ref = ensf_scheme(&cfg, dim);
    let full = run_supervised(
        "ref",
        &cfg,
        &ResilienceConfig { plan: plan.clone(), ..Default::default() },
        &nr,
        &mut m_ref,
        &mut s_ref,
        None,
    )
    .unwrap();

    // Same plan, killed after cycle 4, checkpointing through the file.
    let res_kill = ResilienceConfig {
        plan: FaultPlan { kill_after: Some(4), ..plan.clone() },
        checkpoint: Some(CheckpointConfig { path: path.clone(), every: 2 }),
        ..Default::default()
    };
    let mut m1 = SqgForecast::perfect(cfg.params.clone());
    let mut s1 = ensf_scheme(&cfg, dim);
    let killed = run_supervised("kill", &cfg, &res_kill, &nr, &mut m1, &mut s1, None).unwrap();
    assert!(killed.interrupted);
    assert_eq!(killed.checkpoint.cycle, 4);

    // Restore from disk — fresh model, fresh scheme, nothing carried over.
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.cycle, 4);
    let mut m2 = SqgForecast::perfect(cfg.params.clone());
    let mut s2 = ensf_scheme(&cfg, dim);
    let resumed = resume_supervised(
        "resume",
        &cfg,
        &ResilienceConfig { plan, ..Default::default() },
        &nr,
        &mut m2,
        &mut s2,
        None,
        ck,
    )
    .unwrap();
    std::fs::remove_file(&path).ok();

    assert!(!resumed.interrupted);
    assert_eq!(resumed.series.rmse, full.series.rmse, "file round trip must be bit-identical");
    assert_eq!(resumed.series.spread, full.series.spread);
    assert_eq!(
        resumed.checkpoint.ensemble.as_slice(),
        full.checkpoint.ensemble.as_slice(),
        "final ensembles must match bit for bit"
    );
    assert_eq!(resumed.counters, full.counters);
}

/// A checkpoint that was damaged on disk must be rejected up front, never
/// fed into the cycling loop.
#[test]
fn corrupted_checkpoint_file_is_rejected() {
    let _gate = telemetry_gate();
    let cfg = chaos_config(4, 41);
    let nr = nature_run(&cfg);
    let dim = nr.truth[0].len();
    let path = scratch_path("bad_ckpt.bin");

    let res = ResilienceConfig {
        plan: FaultPlan { kill_after: Some(2), ..FaultPlan::none() },
        checkpoint: Some(CheckpointConfig { path: path.clone(), every: 0 }),
        ..Default::default()
    };
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let mut scheme = ensf_scheme(&cfg, dim);
    run_supervised("victim", &cfg, &res, &nr, &mut model, &mut scheme, None).unwrap();

    // Bit-rot in the ensemble payload: a NaN where a state value was.
    let mut raw = std::fs::read(&path).unwrap();
    raw[49..57].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&path, &raw).unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CheckpointError::NonFinite { .. }), "got {err:?}");

    // A missing file is an I/O error, not a panic.
    assert!(matches!(
        Checkpoint::load(std::path::Path::new("/nonexistent/ckpt.bin")),
        Err(CheckpointError::Io(_))
    ));
}
