//! Chaos testing: the supervised OSSE loop under a hostile fault script.
//!
//! One end-to-end scenario per acceptance criterion: a chaos run that
//! must complete every cycle and still beat the free run, a
//! checkpoint → kill → restore round trip through a real file that must
//! be bit-identical, a corrupted checkpoint that must be rejected, and
//! concurrent runs whose records and postmortems stay their own.
//!
//! Every run keeps its own records and writes its own postmortems, so the
//! tests share no process state and run in parallel.

use sqg_da::da_core::cycle::{run_cycles, Run, RunResult, SingleProcess};
use sqg_da::da_core::osse::{nature_run, NatureRun, OsseConfig};
use sqg_da::da_core::resilience::{
    AnalysisFault, Checkpoint, CheckpointConfig, CheckpointError, FaultPlan, HealthPolicy,
    LoopState, MemberFault, MemberFaultKind, ObsFault, SupervisedCycle,
};
use sqg_da::da_core::{Analysis, ForecastModel, SqgForecast};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::letkf::LetkfConfig;
use sqg_da::sqg::SqgParams;
use telemetry::Json;

/// A scratch path under the system temp dir, private to this process.
fn scratch_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sqg_da_chaos_{name}_{}", std::process::id()))
}

/// The postmortem files in `dir`, sorted by name, each with its parsed
/// document.
fn postmortems_in(dir: &std::path::Path) -> Vec<(String, Json)> {
    let mut dumps: Vec<(String, Json)> = std::fs::read_dir(dir)
        .expect("postmortem dir must exist")
        .map(|e| e.unwrap().path())
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let doc = telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            (name, doc)
        })
        .collect();
    dumps.sort_by(|a, b| a.0.cmp(&b.0));
    dumps
}

/// The `key` string of every entry of a postmortem's `recent_cycles`.
fn recent(doc: &Json, key: &str) -> Vec<String> {
    let entries = doc.get("recent_cycles").and_then(Json::as_arr).unwrap();
    entries.iter().map(|e| e.get(key).and_then(Json::as_str).unwrap().to_string()).collect()
}

/// Every event the run's log holds, in cycle order.
fn all_events(cycles: &[SupervisedCycle]) -> Vec<&String> {
    cycles.iter().flat_map(|c| &c.record.events).collect()
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

fn ensf(cfg: &OsseConfig) -> Analysis {
    Analysis::ensf(EnsfConfig { n_steps: 20, seed: cfg.seed ^ 0xE45F, ..Default::default() })
}

/// `cfg`'s EnSF under `faults`, supervised by the guardrails scaled to its
/// observation error.
fn supervised(label: &str, cfg: &OsseConfig, faults: FaultPlan) -> Run {
    let health = Some(HealthPolicy::for_obs_sigma(cfg.obs_sigma));
    Run { health, faults, ..Run::new(label, cfg.clone(), ensf(cfg)) }
}

/// [`supervised`] with the spread floor loosened: EnSF's equilibrium
/// spread at this scale sits near the default 0.1σ floor, so only
/// scripted faults trip guardrails.
fn chaos_run(label: &str, cfg: &OsseConfig, faults: FaultPlan) -> Run {
    let health = Some(HealthPolicy {
        spread_floor: 0.02 * cfg.obs_sigma,
        ..HealthPolicy::for_obs_sigma(cfg.obs_sigma)
    });
    Run { health, ..supervised(label, cfg, faults) }
}

/// `run` on one process.
fn drive(
    run: &Run,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    resume: Option<Checkpoint>,
) -> RunResult {
    run_cycles(run, nature, model, &mut SingleProcess, resume).unwrap()
}

/// The free (no-DA) run of `cfg`: its series.
fn free_run(cfg: &OsseConfig, nature: &NatureRun) -> sqg_da::da_core::osse::CycleSeries {
    let mut model = SqgForecast::perfect(cfg.params.clone());
    drive(&Run::new("free", cfg.clone(), Analysis::None), nature, &mut model, None).series
}

/// Everything at once: NaN'd and blown-up members, a dropped observation
/// batch, a thinned network, and an EnSF outage deep enough to exhaust the
/// retry budget and hit the LETKF fallback. The run must finish every
/// cycle, leave a recovery trail in its records, and still assimilate well
/// enough to beat a free (no-DA) run.
#[test]
fn chaos_run_completes_and_beats_free_run() {
    let cfg = chaos_config(16, 23);
    let nr = nature_run(&cfg);

    let faults = FaultPlan {
        member_faults: vec![
            MemberFault { cycle: 2, member: 3, kind: MemberFaultKind::Nan },
            MemberFault { cycle: 2, member: 7, kind: MemberFaultKind::Nan },
            MemberFault { cycle: 9, member: 1, kind: MemberFaultKind::Corrupt { scale: 1e9 } },
        ],
        obs_faults: vec![(4, ObsFault::Drop), (11, ObsFault::Thin { stride: 4 })],
        analysis_faults: vec![AnalysisFault { cycle: 6, failures: 9 }],
        ..FaultPlan::none()
    };

    let mut model = SqgForecast::perfect(cfg.params.clone());
    let fallback = Some(Analysis::Letkf(LetkfConfig::default()));
    let chaos = Run { fallback, ..chaos_run("chaos", &cfg, faults) };
    let run = drive(&chaos, &nr, &mut model, None);

    // Every cycle completed despite the fault script.
    assert!(!run.interrupted);
    assert_eq!(run.cycles.len(), cfg.cycles);
    assert_eq!(run.series.rmse.len(), cfg.cycles);
    assert!(run.series.rmse.iter().all(|v| v.is_finite()));

    // Each scripted fault left its recovery action in the counters.
    let counters = &run.checkpoint.counters;
    assert_eq!(counters.quarantined_members, 3);
    assert_eq!(counters.degraded_cycles, 1, "dropped obs ⇒ one forecast-only cycle");
    assert_eq!(counters.analysis_retries, 2, "retry budget spent before fallback");
    assert_eq!(counters.analysis_fallbacks, 1);

    // The state machine visited Degraded and climbed back out of it.
    assert_eq!(run.cycles[2].state, LoopState::Degraded);
    assert!(run.cycles.iter().any(|c| c.state == LoopState::Recovering));
    // Spread relaxation keeps the analysis ensemble inflated at this scale,
    // so only scripted faults — never spontaneous collapse — trip guardrails.
    assert_eq!(counters.reinflations, 0, "no collapse repair expected");

    // The recovery trail is in the run's records, cycle by cycle.
    assert!(run.cycles.iter().map(|c| &c.record).all(|r| r.label == "chaos"));
    let records: Vec<usize> = run.cycles.iter().map(|c| c.record.cycle).collect();
    assert_eq!(records, (0..cfg.cycles).collect::<Vec<_>>());
    let all_events = all_events(&run.cycles);
    assert!(all_events.iter().any(|e| e.starts_with("member_quarantined:")));
    assert!(all_events.iter().any(|e| *e == "obs_dropped"));
    assert!(all_events.iter().any(|e| *e == "obs_thinned:4"));
    assert!(all_events.iter().any(|e| *e == "analysis_fallback:LETKF"));
    assert!(all_events.iter().filter(|e| e.starts_with("member_quarantined:")).count() >= 3);

    // Despite the chaos, assimilation still beats running the model free.
    let free = free_run(&cfg, &nr);
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
    let cfg = chaos_config(12, 31);
    let nr = nature_run(&cfg);

    let faults = FaultPlan {
        analysis_faults: vec![AnalysisFault { cycle: 5, failures: 9 }],
        ..FaultPlan::none()
    };

    let mut model = SqgForecast::perfect(cfg.params.clone());
    let chaos = Run {
        analysis: Analysis::ensf(EnsfConfig {
            method: AnalysisMethod::FlowMatching,
            n_steps: 8,
            seed: cfg.seed ^ 0xE45F,
            ..Default::default()
        }),
        fallback: Some(Analysis::Letkf(LetkfConfig::default())),
        ..chaos_run("flow-chaos", &cfg, faults)
    };
    assert_eq!(chaos.analysis.build(&cfg).name(), "FlowEnSF");
    let run = drive(&chaos, &nr, &mut model, None);

    assert!(!run.interrupted);
    assert_eq!(run.cycles.len(), cfg.cycles);
    assert!(run.series.rmse.iter().all(|v| v.is_finite()));
    let counters = &run.checkpoint.counters;
    assert_eq!(counters.analysis_retries, 2, "retry budget spent before fallback");
    assert_eq!(counters.analysis_fallbacks, 1);
    assert!(all_events(&run.cycles).iter().any(|e| *e == "analysis_fallback:LETKF"));

    let free = free_run(&cfg, &nr);
    assert!(
        run.series.steady_rmse() < free.steady_rmse(),
        "flow-matching chaos DA {} must beat free run {}",
        run.series.steady_rmse(),
        free.steady_rmse()
    );
}

/// Postmortems end to end: an injected fault knocks the supervisor out of
/// `Healthy`, and that exact moment must produce a structured postmortem
/// JSON in the run's directory carrying (a) the `healthy` then `degraded`
/// states in its recent entries, (b) the degrading cycle's record with
/// its innovation diagnostics attached, and (c) the quarantine events.
#[test]
fn injected_fault_produces_postmortem_with_diagnostics_and_transition() {
    let cfg = chaos_config(6, 53);
    let nr = nature_run(&cfg);
    let dir = scratch_path("postmortem");
    std::fs::remove_dir_all(&dir).ok();

    // Two NaN'd members at cycle 3: quarantine ⇒ Healthy → Degraded.
    let faults = FaultPlan {
        member_faults: vec![
            MemberFault { cycle: 3, member: 2, kind: MemberFaultKind::Nan },
            MemberFault { cycle: 3, member: 5, kind: MemberFaultKind::Nan },
        ],
        ..FaultPlan::none()
    };

    let mut model = SqgForecast::perfect(cfg.params.clone());
    let chaos = Run { postmortems: Some(dir.clone()), ..chaos_run("postmortem", &cfg, faults) };
    let run = drive(&chaos, &nr, &mut model, None);

    assert_eq!(run.cycles[3].state, LoopState::Degraded, "fault must trip the supervisor");

    // Exactly the left-Healthy moment dumped (later cycles transition
    // Degraded → Recovering → Healthy, which is recovery, not a fault).
    let dumps = postmortems_in(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let names: Vec<&str> = dumps.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["postmortem-000003-0-left_healthy.json"], "one postmortem expected");
    let doc = &dumps[0].1;

    assert_eq!(doc.get("reason").and_then(Json::as_str), Some("left_healthy"));
    assert_eq!(doc.get("cycle").and_then(Json::as_i64), Some(3));

    // (a) The transition is in the recent entries: healthy up to cycle 2,
    // degraded at cycle 3, the last entry.
    let states = recent(doc, "state");
    assert_eq!(states, ["healthy", "healthy", "healthy", "degraded"], "healthy->degraded");

    // (b) The degrading cycle's record is the last entry, diagnostics
    // attached and finite.
    let cycles = doc.get("recent_cycles").and_then(Json::as_arr).unwrap();
    let degrading = cycles.last().unwrap();
    assert_eq!(degrading.get("label").and_then(Json::as_str), Some("postmortem"));
    assert_eq!(degrading.get("cycle").and_then(Json::as_i64), Some(3));
    let diag = degrading.get("diagnostics").expect("degrading cycle must carry diagnostics");
    for key in ["of_mean", "of_var", "oa_mean", "oa_var", "chi2", "spread_skill"] {
        let v = diag.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "diagnostics.{key} must be finite, got {v}");
    }

    // (c) The guardrail's events rode along with the cycle they fired in.
    let events = degrading.get("events").and_then(Json::as_arr).unwrap();
    let events: Vec<&str> = events.iter().filter_map(Json::as_str).collect();
    for quarantined in ["member_quarantined:2", "member_quarantined:5"] {
        assert!(events.contains(&quarantined), "{quarantined} missing from {events:?}");
    }
    assert!(doc.get("telemetry").and_then(|t| t.get("spans")).is_some());
}

/// Kill the loop mid-run with checkpointing to a real file, restore from
/// that file in a fresh process state, and require the finished series and
/// final ensemble to match an uninterrupted run bit for bit.
#[test]
fn checkpoint_kill_restore_is_bit_identical() {
    let cfg = chaos_config(8, 31);
    let nr = nature_run(&cfg);
    let path = scratch_path("ckpt.bin");

    // Reference: the same fault plan minus the kill, run to completion.
    let plan = FaultPlan {
        member_faults: vec![MemberFault { cycle: 1, member: 0, kind: MemberFaultKind::Nan }],
        ..FaultPlan::none()
    };
    let mut m_ref = SqgForecast::perfect(cfg.params.clone());
    let reference = supervised("ref", &cfg, plan.clone());
    let full = drive(&reference, &nr, &mut m_ref, None);

    // Same plan, killed after cycle 4, checkpointing through the file.
    let kill = Run {
        checkpoint: Some(CheckpointConfig { path: path.clone(), every: 2 }),
        ..supervised("kill", &cfg, FaultPlan { kill_after: Some(4), ..plan.clone() })
    };
    let mut m1 = SqgForecast::perfect(cfg.params.clone());
    let killed = drive(&kill, &nr, &mut m1, None);
    assert!(killed.interrupted);
    assert_eq!(killed.checkpoint.cycle, 4);

    // Restore from disk — fresh model, fresh scheme, nothing carried over.
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.cycle, 4);
    let mut m2 = SqgForecast::perfect(cfg.params.clone());
    let resumed = drive(&supervised("resume", &cfg, plan), &nr, &mut m2, Some(ck));
    std::fs::remove_file(&path).ok();

    assert!(!resumed.interrupted);
    assert_eq!(resumed.series.rmse, full.series.rmse, "file round trip must be bit-identical");
    assert_eq!(resumed.series.spread, full.series.spread);
    assert_eq!(
        resumed.checkpoint.ensemble.as_slice(),
        full.checkpoint.ensemble.as_slice(),
        "final ensembles must match bit for bit"
    );
    assert_eq!(resumed.checkpoint.counters, full.checkpoint.counters);
}

/// A checkpoint that was damaged on disk must be rejected up front, never
/// fed into the cycling loop.
#[test]
fn corrupted_checkpoint_file_is_rejected() {
    let cfg = chaos_config(4, 41);
    let nr = nature_run(&cfg);
    let path = scratch_path("bad_ckpt.bin");

    let victim = Run {
        checkpoint: Some(CheckpointConfig { path: path.clone(), every: 0 }),
        ..supervised("victim", &cfg, FaultPlan { kill_after: Some(2), ..FaultPlan::none() })
    };
    let mut model = SqgForecast::perfect(cfg.params.clone());
    drive(&victim, &nr, &mut model, None);

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

/// Two supervised runs at once, telemetry never switched on: each result
/// holds only its own records (diagnostics on every observed cycle) and
/// each postmortem directory only its own run's postmortems, while a third
/// run without a directory writes no file at all.
#[test]
fn concurrent_runs_keep_their_own_records_and_postmortems() {
    let cfg = chaos_config(5, 61);
    let nr = nature_run(&cfg);
    let nan = |cycle, member| MemberFault { cycle, member, kind: MemberFaultKind::Nan };
    let quarantine = FaultPlan { member_faults: vec![nan(2, 1)], ..FaultPlan::none() };
    let drop = FaultPlan { obs_faults: vec![(1, ObsFault::Drop)], ..FaultPlan::none() };
    let (dir_a, dir_b) = (scratch_path("isolation_a"), scratch_path("isolation_b"));
    for dir in [&dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
    let runs = [
        Run { postmortems: Some(dir_a.clone()), ..chaos_run("iso-a", &cfg, quarantine.clone()) },
        Run { postmortems: Some(dir_b.clone()), ..chaos_run("iso-b", &cfg, drop) },
        chaos_run("iso-none", &cfg, quarantine),
    ];
    let stray = || {
        let listing = |dir: std::path::PathBuf| {
            let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
            entries.map(|e| e.file_name().to_string_lossy().into_owned()).collect::<Vec<_>>()
        };
        let mut names = listing(std::env::temp_dir());
        names.extend(listing(std::env::current_dir().unwrap()));
        names.retain(|n| n.starts_with("postmortem-"));
        names
    };
    let before = stray();

    let results: Vec<RunResult> = std::thread::scope(|scope| {
        let threads: Vec<_> = runs
            .iter()
            .map(|run| {
                let (cfg, nr) = (&cfg, &nr);
                scope.spawn(move || {
                    let mut model = SqgForecast::perfect(cfg.params.clone());
                    drive(run, nr, &mut model, None)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    for (run, result) in runs.iter().zip(&results) {
        assert_eq!(result.cycles.len(), cfg.cycles, "{}", run.label);
        for c in &result.cycles {
            let r = &c.record;
            assert_eq!(r.label, run.label, "a record of another run in {}", run.label);
            assert_eq!(r.diagnostics.is_some(), r.obs_count > 0, "{} cycle {}", run.label, r.cycle);
        }
    }
    assert_eq!(results[1].cycles[1].record.obs_count, 0, "the dropped batch is unobserved");
    let a = postmortems_in(&dir_a);
    let b = postmortems_in(&dir_b);
    for dir in [&dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
    let names = |dumps: &[(String, Json)]| dumps.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&a), ["postmortem-000002-0-left_healthy.json"]);
    assert_eq!(names(&b), ["postmortem-000001-0-left_healthy.json"]);
    for (dumps, label) in [(&a, "iso-a"), (&b, "iso-b")] {
        assert!(recent(&dumps[0].1, "label").iter().all(|l| l == label), "{label}");
    }
    assert_eq!(stray(), before, "a run without a postmortem directory wrote a file");
}
