//! Chaos testing for the elastic distributed runtime: every hostile
//! scenario — rank kill, rank rejoin, straggler-blown deadline — must
//! terminate with a **typed outcome** (never a hang, never a panic) and
//! leave a **flight-recorder postmortem** on disk that names the failure
//! and carries the degrading cycle's own DA diagnostics.
//!
//! Mirrors `tests/chaos.rs` for the supervised single-process loop; here
//! the fault surface is the simulated MPI world itself.

use sqg_da::da_core::osse::OsseConfig;
use sqg_da::da_core::resilience::{CheckpointConfig, RankKill, RankRejoin};
use sqg_da::dist::{
    modeled_analysis_secs, run_elastic_osse, DeadlinePolicy, DistCycleConfig, ElasticCounters,
    ElasticCycleConfig, ElasticOutcome, ElasticRunResult,
};
use sqg_da::da_core::resilience::Rung;
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::hpc::{Straggler, StragglerPlan};
use sqg_da::sqg::SqgParams;

/// Serializes the tests in this file: they all flip process-global
/// telemetry state (enable flag, counters, flight ring, postmortem sink).
static TELEMETRY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Reduced grid (`d = 512`, 8 members), matching the elastic unit tests.
fn elastic_config(cycles: usize) -> ElasticCycleConfig {
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

/// A fresh per-test postmortem directory under the system temp dir.
fn postmortem_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("sqg_da_chaos_dist_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create postmortem dir");
    dir
}

/// Reads every postmortem file whose name contains `slug` and returns
/// their concatenated JSON text (empty if none matched).
fn postmortems_matching(dir: &std::path::Path, slug: &str) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).expect("read postmortem dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        if name.starts_with("postmortem-") && name.contains(slug) {
            text.push_str(&std::fs::read_to_string(&path).expect("read postmortem"));
        }
    }
    text
}

fn telemetry_scope(dir: &std::path::Path) {
    telemetry::reset();
    telemetry::set_enabled(true);
    telemetry::set_postmortem_dir(Some(dir));
}

fn telemetry_close() {
    telemetry::set_postmortem_dir(None);
    telemetry::set_enabled(false);
    telemetry::reset();
}

/// A rank killed mid-analysis terminates the run with a typed outcome and
/// dumps a `rank_dead_shrink` postmortem whose flight ring records the
/// shrink and whose recent-cycle log carries the degrading cycle's
/// diagnostics.
#[test]
fn rank_kill_leaves_shrink_postmortem_with_cycle_diagnostics() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = postmortem_dir("kill");
    telemetry_scope(&dir);

    let mut config = elastic_config(3);
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    let result = run_elastic_osse(&config, 3).unwrap();

    // Typed outcome, no hang: the survivors completed every cycle.
    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(telemetry::counter_value("elastic.shrinks"), 1);
    assert_eq!(telemetry::counter_value("elastic.cycles"), 3);

    let text = postmortems_matching(&dir, "rank_dead_shrink");
    assert!(!text.is_empty(), "kill must dump a rank_dead_shrink postmortem");
    // The black box names the shrink in the flight ring...
    assert!(text.contains("\"collective_shrink\""), "flight ring records the shrink:\n{text}");
    assert!(text.contains("rank_dead_shrink"), "postmortem reason names the shrink");
    // ...and the degrading cycle's record is present with its diagnostics
    // (postmortems are dumped after `record_cycle`, so the cycle that
    // shrank is in `recent_cycles` with a full DA diagnostics block).
    assert!(text.contains("\"recent_cycles\""));
    assert!(text.contains("\"diagnostics\""), "degrading cycle carries diagnostics:\n{text}");
    assert!(text.contains("\"spread_skill\""), "diagnostics block is populated");

    // The lead's records are the one cycle loop's: measured forecast and
    // analysis seconds next to the modelled analysis time...
    let records = telemetry::cycle_records();
    assert_eq!(records.len(), 3);
    for r in &records {
        let secs = |name: &str| r.phases.iter().find(|(n, _)| n == name).map(|&(_, s)| s);
        assert!(secs("forecast").is_some_and(|s| s > 0.0), "{:?}", r.phases);
        assert!(secs("analysis").is_some_and(|s| s > 0.0), "{:?}", r.phases);
        assert!(secs("analysis_modeled").is_some_and(|s| s > 0.0), "{:?}", r.phases);
    }
    // ...and the shrink's health transition is the serial loop's event.
    let transition = telemetry::flight_events()
        .into_iter()
        .find(|e| e.kind == telemetry::FlightKind::Transition && e.cycle == 1)
        .expect("the shrink leaves healthy");
    assert_eq!(transition.label(), "healthy->degraded");
    assert_eq!((transition.a, transition.b), (0.0, 1.0), "from/to state codes");

    telemetry_close();
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill that forces the analysis to be redone blows the cycle budget
/// post hoc (the ladder priced one attempt; the shrink bought a second,
/// and the loop sums both): the run still terminates with a typed
/// outcome, counts the cycle as a deadline miss, and dumps a
/// `deadline_blown` postmortem.
#[test]
fn blown_deadline_leaves_postmortem_and_typed_outcome() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = postmortem_dir("deadline");
    telemetry_scope(&dir);

    let mut config = elastic_config(3);
    config.base.comm = Some(sqg_da::dist::CommSpec::clean(2));
    let dim = config.base.osse.params.state_dim();
    let steps = config.base.ensf.n_steps;
    let full2 = modeled_analysis_secs(&config.base, dim, 8, steps, 2);
    let deg1 = modeled_analysis_secs(&config.base, dim, 8, 3, 1);
    // Budget fits exactly one clean attempt plus half of the cheapest
    // possible retry: whatever rung the post-shrink re-evaluation picks
    // (full or degraded at 1 rank), the accumulated time must blow it —
    // and the degraded rung still fits on its own, so the retry runs
    // rather than dropping to forecast-only.
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
    config.deadline =
        Some(DeadlinePolicy { budget_secs: full2 + 0.5 * deg1, degraded_steps: 3 });
    let result = run_elastic_osse(&config, 2).unwrap();

    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(result.event_count("deadline_blown"), 1, "redone cycle 1 must blow its budget");
    let n = result.cycles.len();
    assert_eq!(result.hit_rate(), (n - 1) as f64 / n as f64);
    assert_eq!(telemetry::counter_value("resilience.deadline_blown"), 1);

    let text = postmortems_matching(&dir, "deadline_blown");
    assert!(!text.is_empty(), "blown budget must dump a deadline_blown postmortem");
    assert!(text.contains("deadline_blown"), "postmortem names the deadline event");
    assert!(text.contains("\"recent_cycles\""));

    telemetry_close();
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill → checkpoint-backed rejoin: both the death and the re-admission
/// land in the flight ring, every rank ends with a typed `Completed`
/// outcome, and the rejoin counter agrees with the script.
#[test]
fn rejoin_after_kill_is_recorded_and_completes() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = postmortem_dir("rejoin");
    telemetry_scope(&dir);

    let path = std::env::temp_dir()
        .join(format!("sqg_da_chaos_dist_rejoin_{}.ckpt", std::process::id()));
    let mut config = elastic_config(4);
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
    config.faults.rank_rejoins.push(RankRejoin { cycle: 3, rank: 1 });
    config.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 1 });
    let result = run_elastic_osse(&config, 2).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.rejoins, 1);
    assert_eq!(result.group_sizes.last(), Some(&(3, 2)), "full group restored");
    assert_eq!(telemetry::counter_value("elastic.rejoins"), 1);
    let events = telemetry::flight_events();
    assert!(
        events.iter().any(|e| e.label() == "rank_dead_shrink"),
        "flight ring records the death"
    );
    assert!(
        events.iter().any(|e| e.label() == "rank_rejoin"),
        "flight ring records the re-admission"
    );
    // The kill itself still left its postmortem on the way down.
    assert!(!postmortems_matching(&dir, "rank_dead_shrink").is_empty());

    telemetry_close();
    std::fs::remove_dir_all(&dir).ok();
}

/// Flow-matching under chaos: the deadline pins every cycle on the
/// ladder's fallback rung — a single-step DDIM flow analysis — a rank
/// dies mid-(degraded)-analysis and the survivors shrink and redo it. The
/// run must still terminate `Completed` with finite skill, proving the
/// few-step flow grid composes with the elastic shrink and deadline
/// machinery exactly like the SDE path.
#[test]
fn flow_matching_survives_shrink_and_deadline_ladder() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = elastic_config(4);
    // The analysis's one gather costs the same at every step count, so the
    // ladder has a window at both group sizes only where the full grid's
    // compute outweighs the 3-rank/2-rank gather difference: 40 steps at
    // d = 512. Every cycle rides the 1-step rung, so the 40 never run.
    config.base.ensf.n_steps = 40;
    config.base.ensf.method = AnalysisMethod::FlowMatching;
    config.base.comm = Some(sqg_da::dist::CommSpec::clean(3));
    let dim = config.base.osse.params.state_dim();
    let full3 = modeled_analysis_secs(&config.base, dim, 8, 40, 3);
    let full2 = modeled_analysis_secs(&config.base, dim, 8, 40, 2);
    let deg3 = modeled_analysis_secs(&config.base, dim, 8, 1, 3);
    let deg2 = modeled_analysis_secs(&config.base, dim, 8, 1, 2);
    // Budget sits between the 1-step and 40-step estimates at both group
    // sizes, so the ladder picks Degraded before *and* after the shrink.
    let budget = 0.5 * (deg3.max(deg2) + full3.min(full2));
    assert!(
        deg3 < budget && deg2 < budget && full3 > budget && full2 > budget,
        "cost-model sanity: degraded ({deg3:.3e}/{deg2:.3e}) must fit and \
         full ({full3:.3e}/{full2:.3e}) must blow the budget {budget:.3e}"
    );
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    config.deadline = Some(DeadlinePolicy { budget_secs: budget, degraded_steps: 1 });
    let result = run_elastic_osse(&config, 3).unwrap();

    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.shrinks, 1);
    let degraded = result.cycles.iter().filter(|c| c.rung == Rung::Fallback).count();
    assert_eq!(degraded, 4, "every cycle rides the 1-step flow rung");
    assert!(result.cycles.iter().all(|c| c.rung == Rung::Fallback));
    assert_eq!(result.cycle_means.len(), 4, "every cycle completed");
    assert!(result.series.rmse.iter().all(|r| r.is_finite()));
}

/// A masked flow-matching cycle under elastic shrink-retry: a 25 %
/// contiguous sensor outage shrinks the observation vector, a rank dies
/// mid-analysis, and the survivors must redo the masked cycle over their
/// new particle blocks. Completing with finite skill proves the masked
/// guidance composes with the shrink machinery.
#[test]
fn masked_flow_matching_survives_shrink_retry() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = elastic_config(4);
    config.base.osse.obs_mask =
        sqg_da::da_core::osse::MaskKind::Block { start: 192, len: 128 };
    config.base.ensf.n_steps = 6;
    config.base.ensf.method = AnalysisMethod::FlowMatching;
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    let result = run_elastic_osse(&config, 3).unwrap();

    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.shrinks, 1, "the injected kill must shrink the group");
    assert_eq!(result.event_count("rank_dead_shrink"), 1, "the masked cycle is redone by survivors");
    assert_eq!(result.cycle_means.len(), 4, "every masked cycle completed");
    assert!(result.series.rmse.iter().all(|r| r.is_finite()));
}

/// Runs `config` on `ranks` ranks with telemetry on and returns rank 0's
/// result with the events of every cycle record it wrote.
fn run_recorded(config: &ElasticCycleConfig, ranks: usize) -> (ElasticRunResult, Vec<Vec<String>>) {
    let dir = postmortem_dir("recorded");
    telemetry_scope(&dir);
    let result = run_elastic_osse(config, ranks).unwrap();
    let events = telemetry::cycle_records().into_iter().map(|r| r.events).collect();
    telemetry_close();
    std::fs::remove_dir_all(&dir).ok();
    (result, events)
}

fn assert_bitwise_equal(a: &ElasticRunResult, b: &ElasticRunResult, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(a.cycle_means.len(), b.cycle_means.len(), "{what}");
    for ((ca, ma), (cb, mb)) in a.cycle_means.iter().zip(&b.cycle_means) {
        assert_eq!(ca, cb, "{what}");
        assert_eq!(bits(ma), bits(mb), "{what}: cycle {ca} diverged");
    }
    assert_eq!(bits(a.ensemble.as_slice()), bits(b.ensemble.as_slice()), "{what}: final ensemble");
}

/// A boundary kill is met first by the survivors' forecast gather, which
/// falls back to the replicated forecast instead of shrinking; the
/// analysis gather then shrinks once and redoes the analysis, exactly as
/// when the analysis gather was the first to miss the victim. Covered on
/// 2 ranks and on 3 with the victim first after the root and last.
#[test]
fn forecast_gather_kill_shrinks_once_at_the_analysis_gather() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    for (ranks, victim) in [(2, 1), (3, 1), (3, 2)] {
        let what = format!("{ranks} ranks, victim {victim}");
        let mut config = elastic_config(3);
        config.faults.rank_kills.push(RankKill { cycle: 1, rank: victim });
        let (faulted, events) = run_recorded(&config, ranks);

        assert_eq!(faulted.outcome, ElasticOutcome::Completed, "{what}");
        let counters = ElasticCounters { shrinks: 1, ..Default::default() };
        assert_eq!(faulted.counters, counters, "{what}");
        assert_eq!(faulted.event_count("rank_dead_shrink"), 1, "{what}");
        assert_eq!(faulted.group_sizes, vec![(0, ranks), (1, ranks - 1), (2, ranks - 1)], "{what}");
        assert_eq!(events, [vec![], vec!["rank_dead_shrink".to_string()], vec![]], "{what}");
        let fresh = run_elastic_osse(&elastic_config(3), ranks - 1).unwrap();
        assert_bitwise_equal(&faulted, &fresh, &what);
    }
}

/// A kill on a forecast-only cycle: that cycle's forecast gather revokes
/// the epoch and falls back, no analysis gather follows, so the next
/// cycle's forecast falls back too, and its analysis gather shrinks. When
/// every cycle from the kill on is forecast-only, nothing ever shrinks and
/// the survivors finish out of step (a non-root one may still be sending
/// when the root is done). Either way the run lands on a fresh
/// survivor-count run's bits (the ladder picks the same rungs there).
#[test]
fn forecast_only_kill_falls_back_until_the_next_analysis_shrinks() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    for (ranks, last_forecast_only) in [(2, 1), (3, 1), (3, 3)] {
        let what = format!("{ranks} ranks, forecast-only cycles 1..={last_forecast_only}");
        let mut config = elastic_config(4);
        config.base.comm = Some(sqg_da::dist::CommSpec::clean(3));
        let dim = config.base.osse.params.state_dim();
        let steps = config.base.ensf.n_steps;
        let full = |ranks| modeled_analysis_secs(&config.base, dim, 8, steps, ranks);
        // Room for a full analysis plus its redo at any group size, and a
        // straggler no rung survives from the kill on.
        let budget = 2.0 * full(1).max(full(2)).max(full(3));
        config.deadline = Some(DeadlinePolicy { budget_secs: budget, degraded_steps: 3 });
        config.stragglers = StragglerPlan {
            events: vec![Straggler {
                rank: 0,
                from_cycle: 1,
                to_cycle: last_forecast_only,
                slowdown: 1e6,
            }],
        };
        let fresh = run_elastic_osse(&config, ranks - 1).unwrap();
        config.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
        let (faulted, events) = run_recorded(&config, ranks);

        assert_eq!(faulted.outcome, ElasticOutcome::Completed, "{what}");
        let shrinks = u64::from(last_forecast_only < 3);
        let counters = ElasticCounters { shrinks, ..Default::default() };
        assert_eq!(faulted.counters, counters, "{what}");
        assert_eq!(faulted.event_count("rank_dead_shrink") as u64, shrinks, "{what}");
        let dropped = faulted.cycles.iter().filter(|c| c.rung == Rung::ForecastOnly).count();
        assert_eq!(dropped, last_forecast_only, "{what}");
        let size = |c: usize| if c > last_forecast_only { ranks - 1 } else { ranks };
        let sizes: Vec<(usize, usize)> = (0..4).map(|c| (c, size(c))).collect();
        assert_eq!(faulted.group_sizes, sizes, "{what}");
        let forecast_only = |c: usize| (1..=last_forecast_only).contains(&c);
        let rungs = |r: &ElasticRunResult| r.cycles.iter().map(|c| c.rung).collect::<Vec<_>>();
        let want: Vec<Rung> = (0..4)
            .map(|c| if forecast_only(c) { Rung::ForecastOnly } else { Rung::Primary })
            .collect();
        assert_eq!(rungs(&faulted), want, "{what}");
        assert_eq!(rungs(&fresh), rungs(&faulted), "{what}");
        let want: Vec<Vec<String>> = (0..4)
            .map(|c| match c {
                _ if forecast_only(c) => vec!["deadline_forecast_only".to_string()],
                _ if c == last_forecast_only + 1 => vec!["rank_dead_shrink".to_string()],
                _ => vec![],
            })
            .collect();
        assert_eq!(events, want, "{what}");
        assert_bitwise_equal(&faulted, &fresh, &what);
    }
}

/// Belt-and-braces no-hang sweep: all three chaos channels at once (kill,
/// straggler, tight deadline) on a larger world still terminates with a
/// typed outcome for every rank and a finite trajectory.
#[test]
fn combined_chaos_terminates_with_typed_outcomes() {
    let _gate = TELEMETRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Telemetry stays dark here: this scenario is about termination, and
    // running it dark also covers the counters-disabled paths.
    let mut config = elastic_config(4);
    config.base.comm = Some(sqg_da::dist::CommSpec::clean(4));
    let dim = config.base.osse.params.state_dim();
    let full = modeled_analysis_secs(&config.base, dim, 8, config.base.ensf.n_steps, 4);
    config.faults.rank_kills.push(RankKill { cycle: 1, rank: 3 });
    config.stragglers = StragglerPlan {
        events: vec![Straggler { rank: 1, from_cycle: 2, to_cycle: 2, slowdown: 8.0 }],
    };
    config.deadline = Some(DeadlinePolicy { budget_secs: full * 3.0, degraded_steps: 3 });
    let result = run_elastic_osse(&config, 4).unwrap();

    assert_eq!(result.outcome, ElasticOutcome::Completed);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(result.cycle_means.len(), 4, "every cycle completed");
    assert!(result.series.rmse.iter().all(|r| r.is_finite()));
    assert!(result.cycles.len() == 4);
}
