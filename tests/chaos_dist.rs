//! Chaos testing for the elastic distributed runtime: every hostile
//! scenario — rank kill, rank rejoin, straggler-blown deadline — must
//! terminate with a **typed outcome** (never a hang, never a panic) and
//! leave a **postmortem** in the run's directory that names the failure
//! and carries the degrading cycle's own DA diagnostics.
//!
//! Mirrors `tests/chaos.rs` for the supervised single-process loop; here
//! the fault surface is the simulated MPI world itself. Each run keeps its
//! own records and postmortem directory, so the tests run in parallel.

use sqg_da::da_core::cycle::Run;
use sqg_da::da_core::osse::{nature_run, NatureRun, OsseConfig};
use sqg_da::da_core::resilience::{CheckpointConfig, LoopState, RankKill, RankRejoin, Rung};
use sqg_da::dist::{modeled_analysis_secs, run_sharded, ElasticCounters, ShardedRun, Sharding};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::hpc::{Straggler, StragglerPlan};
use sqg_da::sqg::SqgParams;
use telemetry::Json;

/// Reduced grid (`d = 512`, 8 members), matching the elastic unit tests.
fn elastic_config(cycles: usize) -> (Run, Sharding) {
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
    let ensf = EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
    (Run::new("chaos-dist", osse), Sharding { ensf, ..Default::default() })
}

/// `run` on `ranks` ranks against its own nature run: world rank 0's result.
fn sharded(run: &Run, sharding: &Sharding, ranks: usize) -> ShardedRun {
    run_sharded(run, sharding, ranks, &nature_run(&run.osse), None).unwrap()
}

/// The modelled price of one sharded analysis of `run` under `sharding`.
fn modeled(run: &Run, sharding: &Sharding, steps: usize, ranks: usize) -> f64 {
    let (dim, members) = (run.osse.params.state_dim(), run.osse.ens_size);
    modeled_analysis_secs(sharding.network.as_ref(), dim, members, steps, ranks)
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

/// The one postmortem file in `dir` named `name`, parsed.
fn postmortem(dir: &std::path::Path, name: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("postmortem {name} in {}: {e}", dir.display()));
    telemetry::json::parse(&text).unwrap()
}

/// Each entry of a postmortem's `recent_cycles`: its cycle, its state and
/// its events.
fn recent(doc: &Json) -> Vec<(i64, String, Vec<String>)> {
    let entries = doc.get("recent_cycles").and_then(Json::as_arr).expect("recent_cycles");
    let text = |v: &Json| v.as_str().unwrap().to_string();
    entries
        .iter()
        .map(|e| {
            let events = e.get("events").and_then(Json::as_arr).unwrap();
            (
                e.get("cycle").and_then(Json::as_i64).unwrap(),
                text(e.get("state").unwrap()),
                events.iter().map(text).collect(),
            )
        })
        .collect()
}

/// The events of every cycle in rank 0's log, in cycle order.
fn logged_events(result: &ShardedRun) -> Vec<Vec<String>> {
    result.run.cycles.iter().map(|c| c.record.events.clone()).collect()
}

/// A rank killed mid-analysis terminates the run with a typed outcome and
/// dumps a `rank_dead_shrink` postmortem whose recent entries carry the
/// shrink and the degrading cycle's diagnostics.
#[test]
fn rank_kill_leaves_shrink_postmortem_with_cycle_diagnostics() {
    let dir = postmortem_dir("kill");
    let (mut run, sharding) = elastic_config(3);
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    run.postmortems = Some(dir.clone());
    let result = sharded(&run, &sharding, 3);

    // Typed outcome, no hang: the survivors completed every cycle.
    assert!(!result.run.interrupted);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(result.run.event_count("rank_dead_shrink"), 1);
    assert_eq!(result.run.cycles.len(), 3);

    let text = postmortems_matching(&dir, "rank_dead_shrink");
    assert!(!text.is_empty(), "kill must dump a rank_dead_shrink postmortem");
    // The black box names the shrink in the shrinking cycle's entry...
    let doc = postmortem(&dir, "postmortem-000001-0-rank_dead_shrink.json");
    assert_eq!(doc.get("reason").and_then(Json::as_str), Some("rank_dead_shrink"));
    let entries = recent(&doc);
    let (cycle, _, events) = entries.last().unwrap();
    assert_eq!((*cycle, events.as_slice()), (1, ["rank_dead_shrink".to_string()].as_slice()));
    // ...and the degrading cycle's record is present with its diagnostics
    // (postmortems are written after the cycle's record, so the cycle that
    // shrank is in `recent_cycles` with a full DA diagnostics block).
    assert!(text.contains("\"recent_cycles\""));
    assert!(text.contains("\"diagnostics\""), "degrading cycle carries diagnostics:\n{text}");
    assert!(text.contains("\"spread_skill\""), "diagnostics block is populated");

    // The lead's records are the one cycle loop's: measured forecast and
    // analysis seconds next to the modelled analysis time...
    for r in result.run.cycles.iter().map(|c| &c.record) {
        let secs = |name: &str| r.phases.iter().find(|(n, _)| n == name).map(|&(_, s)| s);
        assert!(secs("forecast").is_some_and(|s| s > 0.0), "{:?}", r.phases);
        assert!(secs("analysis").is_some_and(|s| s > 0.0), "{:?}", r.phases);
        assert!(secs("analysis_modeled").is_some_and(|s| s > 0.0), "{:?}", r.phases);
    }
    // ...and the shrink's health transition is the serial loop's:
    // healthy at cycle 0, degraded at the shrinking cycle 1.
    let states: Vec<(i64, &str)> = entries.iter().map(|(c, s, _)| (*c, s.as_str())).collect();
    assert_eq!(states, [(0, "healthy"), (1, "degraded")], "the shrink leaves healthy");
    let logged: Vec<LoopState> = result.run.cycles.iter().map(|c| c.state).collect();
    assert_eq!(logged[..2], [LoopState::Healthy, LoopState::Degraded]);

    std::fs::remove_dir_all(&dir).ok();
}

/// A kill that forces the analysis to be redone blows the cycle budget
/// post hoc (the ladder priced one attempt; the shrink bought a second,
/// and the loop sums both): the run still terminates with a typed
/// outcome, counts the cycle as a deadline miss, and dumps a
/// `deadline_blown` postmortem.
#[test]
fn blown_deadline_leaves_postmortem_and_typed_outcome() {
    let dir = postmortem_dir("deadline");
    let (mut run, mut sharding) = elastic_config(3);
    run.postmortems = Some(dir.clone());
    sharding.network = Some(sqg_da::dist::CommSpec::clean(2));
    let steps = sharding.ensf.n_steps;
    let full2 = modeled(&run, &sharding, steps, 2);
    let deg1 = modeled(&run, &sharding, 3, 1);
    // Budget fits exactly one clean attempt plus half of the cheapest
    // possible retry: whatever rung the post-shrink re-evaluation picks
    // (full or degraded at 1 rank), the accumulated time must blow it —
    // and the degraded rung still fits on its own, so the retry runs
    // rather than dropping to forecast-only.
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
    run.budget = Some(full2 + 0.5 * deg1);
    sharding.degraded_steps = Some(3);
    let result = sharded(&run, &sharding, 2);

    assert!(!result.run.interrupted);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(result.run.event_count("deadline_blown"), 1, "redone cycle 1 must blow its budget");
    let n = result.run.cycles.len();
    assert_eq!(result.run.hit_rate(), (n - 1) as f64 / n as f64);
    let events = logged_events(&result);
    let blown: Vec<usize> =
        (0..n).filter(|&c| events[c].iter().any(|e| e == "deadline_blown")).collect();
    assert_eq!(blown, [1], "one deadline_blown event, at the redone cycle");

    let text = postmortems_matching(&dir, "deadline_blown");
    assert!(!text.is_empty(), "blown budget must dump a deadline_blown postmortem");
    assert!(text.contains("deadline_blown"), "postmortem names the deadline event");
    assert!(text.contains("\"recent_cycles\""));
    // The shrink's postmortem comes first, the budget's second, both at
    // the cycle that carries both events.
    for (k, reason) in ["rank_dead_shrink", "deadline_blown"].into_iter().enumerate() {
        let doc = postmortem(&dir, &format!("postmortem-000001-{k}-{reason}.json"));
        let (cycle, _, events) = recent(&doc).pop().unwrap();
        assert_eq!(cycle, 1);
        assert!(events.iter().any(|e| e == reason), "{reason} missing from {events:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Kill → checkpoint-backed rejoin: both the death and the re-admission
/// land in a postmortem's recent entries, every rank ends with a typed
/// `Completed` outcome, and the rejoin counter agrees with the script. The
/// rejoin comes two clean cycles after the kill, when the run is healthy
/// again, so the re-admission's own event leaves healthy and dumps.
#[test]
fn rejoin_after_kill_is_recorded_and_completes() {
    let dir = postmortem_dir("rejoin");
    let path = std::env::temp_dir()
        .join(format!("sqg_da_chaos_dist_rejoin_{}.ckpt", std::process::id()));
    let (mut run, sharding) = elastic_config(5);
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
    run.faults.rank_rejoins.push(RankRejoin { cycle: 4, rank: 1 });
    run.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 1 });
    run.postmortems = Some(dir.clone());
    let result = sharded(&run, &sharding, 2);
    std::fs::remove_file(&path).ok();

    assert!(!result.run.interrupted);
    assert_eq!(result.counters.rejoins, 1);
    assert_eq!(result.group_sizes.last(), Some(&(4, 2)), "full group restored");
    assert_eq!(result.run.event_count("rank_rejoin"), 1);
    let doc = postmortem(&dir, "postmortem-000004-0-left_healthy.json");
    let events: Vec<(i64, String)> = recent(&doc)
        .into_iter()
        .flat_map(|(c, _, events)| events.into_iter().map(move |e| (c, e)))
        .collect();
    assert!(
        events.contains(&(1, "rank_dead_shrink".to_string())),
        "the postmortem records the death: {events:?}"
    );
    assert!(
        events.contains(&(4, "rank_rejoin".to_string())),
        "the postmortem records the re-admission: {events:?}"
    );
    // The kill itself still left its postmortem on the way down.
    assert!(!postmortems_matching(&dir, "rank_dead_shrink").is_empty());

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
    let (mut run, mut sharding) = elastic_config(4);
    // The analysis's one gather costs the same at every step count, so the
    // ladder has a window at both group sizes only where the full grid's
    // compute outweighs the 3-rank/2-rank gather difference: 40 steps at
    // d = 512. Every cycle rides the 1-step rung, so the 40 never run.
    sharding.ensf.n_steps = 40;
    sharding.ensf.method = AnalysisMethod::FlowMatching;
    sharding.network = Some(sqg_da::dist::CommSpec::clean(3));
    let full3 = modeled(&run, &sharding, 40, 3);
    let full2 = modeled(&run, &sharding, 40, 2);
    let deg3 = modeled(&run, &sharding, 1, 3);
    let deg2 = modeled(&run, &sharding, 1, 2);
    // Budget sits between the 1-step and 40-step estimates at both group
    // sizes, so the ladder picks Degraded before *and* after the shrink.
    let budget = 0.5 * (deg3.max(deg2) + full3.min(full2));
    assert!(
        deg3 < budget && deg2 < budget && full3 > budget && full2 > budget,
        "cost-model sanity: degraded ({deg3:.3e}/{deg2:.3e}) must fit and \
         full ({full3:.3e}/{full2:.3e}) must blow the budget {budget:.3e}"
    );
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    run.budget = Some(budget);
    sharding.degraded_steps = Some(1);
    let result = sharded(&run, &sharding, 3);

    assert!(!result.run.interrupted);
    assert_eq!(result.counters.shrinks, 1);
    let degraded = result.run.cycles.iter().filter(|c| c.rung == Rung::Fallback).count();
    assert_eq!(degraded, 4, "every cycle rides the 1-step flow rung");
    assert!(result.run.cycles.iter().all(|c| c.rung == Rung::Fallback));
    assert_eq!(result.cycle_means.len(), 4, "every cycle completed");
    assert!(result.run.series.rmse.iter().all(|r| r.is_finite()));
}

/// A masked flow-matching cycle under elastic shrink-retry: a 25 %
/// contiguous sensor outage shrinks the observation vector, a rank dies
/// mid-analysis, and the survivors must redo the masked cycle over their
/// new particle blocks. Completing with finite skill proves the masked
/// guidance composes with the shrink machinery.
#[test]
fn masked_flow_matching_survives_shrink_retry() {
    let (mut run, mut sharding) = elastic_config(4);
    run.osse.obs_mask = sqg_da::da_core::osse::MaskKind::Block { start: 192, len: 128 };
    sharding.ensf.n_steps = 6;
    sharding.ensf.method = AnalysisMethod::FlowMatching;
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 2 });
    let result = sharded(&run, &sharding, 3);

    assert!(!result.run.interrupted);
    assert_eq!(result.counters.shrinks, 1, "the injected kill must shrink the group");
    let redone = result.run.event_count("rank_dead_shrink");
    assert_eq!(redone, 1, "the masked cycle is redone by survivors");
    assert_eq!(result.cycle_means.len(), 4, "every masked cycle completed");
    assert!(result.run.series.rmse.iter().all(|r| r.is_finite()));
}

/// Runs `run` on `ranks` ranks and returns rank 0's result with the
/// events of every cycle record in its log.
fn run_recorded(
    run: &Run,
    sharding: &Sharding,
    ranks: usize,
    nature: &NatureRun,
) -> (ShardedRun, Vec<Vec<String>>) {
    let result = run_sharded(run, sharding, ranks, nature, None).unwrap();
    let events = logged_events(&result);
    (result, events)
}

fn assert_bitwise_equal(a: &ShardedRun, b: &ShardedRun, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(a.cycle_means.len(), b.cycle_means.len(), "{what}");
    for ((ca, ma), (cb, mb)) in a.cycle_means.iter().zip(&b.cycle_means) {
        assert_eq!(ca, cb, "{what}");
        assert_eq!(bits(ma), bits(mb), "{what}: cycle {ca} diverged");
    }
    let ensemble = |r: &ShardedRun| bits(r.run.checkpoint.ensemble.as_slice());
    assert_eq!(ensemble(a), ensemble(b), "{what}: final ensemble");
}

/// A boundary kill is met first by the survivors' forecast gather, which
/// falls back to the replicated forecast instead of shrinking; the
/// analysis gather then shrinks once and redoes the analysis, exactly as
/// when the analysis gather was the first to miss the victim. Covered on
/// 2 ranks and on 3 with the victim first after the root and last.
#[test]
fn forecast_gather_kill_shrinks_once_at_the_analysis_gather() {
    for (ranks, victim) in [(2, 1), (3, 1), (3, 2)] {
        let what = format!("{ranks} ranks, victim {victim}");
        let (clean, sharding) = elastic_config(3);
        let nature = nature_run(&clean.osse);
        let mut run = clean.clone();
        run.faults.rank_kills.push(RankKill { cycle: 1, rank: victim });
        let (faulted, events) = run_recorded(&run, &sharding, ranks, &nature);

        assert!(!faulted.run.interrupted, "{what}");
        let counters = ElasticCounters { shrinks: 1, ..Default::default() };
        assert_eq!(faulted.counters, counters, "{what}");
        assert_eq!(faulted.run.event_count("rank_dead_shrink"), 1, "{what}");
        assert_eq!(faulted.group_sizes, vec![(0, ranks), (1, ranks - 1), (2, ranks - 1)], "{what}");
        assert_eq!(events, [vec![], vec!["rank_dead_shrink".to_string()], vec![]], "{what}");
        let fresh = run_sharded(&clean, &sharding, ranks - 1, &nature, None).unwrap();
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
    for (ranks, last_forecast_only) in [(2, 1), (3, 1), (3, 3)] {
        let what = format!("{ranks} ranks, forecast-only cycles 1..={last_forecast_only}");
        let (mut run, mut sharding) = elastic_config(4);
        sharding.network = Some(sqg_da::dist::CommSpec::clean(3));
        let steps = sharding.ensf.n_steps;
        let full = |ranks| modeled(&run, &sharding, steps, ranks);
        // Room for a full analysis plus its redo at any group size, and a
        // straggler no rung survives from the kill on.
        let budget = 2.0 * full(1).max(full(2)).max(full(3));
        run.budget = Some(budget);
        sharding.degraded_steps = Some(3);
        sharding.stragglers = StragglerPlan {
            events: vec![Straggler {
                rank: 0,
                from_cycle: 1,
                to_cycle: last_forecast_only,
                slowdown: 1e6,
            }],
        };
        let nature = nature_run(&run.osse);
        let fresh = run_sharded(&run, &sharding, ranks - 1, &nature, None).unwrap();
        run.faults.rank_kills.push(RankKill { cycle: 1, rank: 1 });
        let (faulted, events) = run_recorded(&run, &sharding, ranks, &nature);

        assert!(!faulted.run.interrupted, "{what}");
        let shrinks = u64::from(last_forecast_only < 3);
        let counters = ElasticCounters { shrinks, ..Default::default() };
        assert_eq!(faulted.counters, counters, "{what}");
        assert_eq!(faulted.run.event_count("rank_dead_shrink") as u64, shrinks, "{what}");
        let dropped = faulted.run.cycles.iter().filter(|c| c.rung == Rung::ForecastOnly).count();
        assert_eq!(dropped, last_forecast_only, "{what}");
        let size = |c: usize| if c > last_forecast_only { ranks - 1 } else { ranks };
        let sizes: Vec<(usize, usize)> = (0..4).map(|c| (c, size(c))).collect();
        assert_eq!(faulted.group_sizes, sizes, "{what}");
        let forecast_only = |c: usize| (1..=last_forecast_only).contains(&c);
        let rungs = |r: &ShardedRun| r.run.cycles.iter().map(|c| c.rung).collect::<Vec<_>>();
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
    // No postmortem directory here: this scenario is about termination,
    // and running without one also covers the loop's no-postmortem path.
    let (mut run, mut sharding) = elastic_config(4);
    sharding.network = Some(sqg_da::dist::CommSpec::clean(4));
    let full = modeled(&run, &sharding, sharding.ensf.n_steps, 4);
    run.faults.rank_kills.push(RankKill { cycle: 1, rank: 3 });
    sharding.stragglers = StragglerPlan {
        events: vec![Straggler { rank: 1, from_cycle: 2, to_cycle: 2, slowdown: 8.0 }],
    };
    run.budget = Some(full * 3.0);
    sharding.degraded_steps = Some(3);
    let result = sharded(&run, &sharding, 4);

    assert!(!result.run.interrupted);
    assert_eq!(result.counters.shrinks, 1);
    assert_eq!(result.cycle_means.len(), 4, "every cycle completed");
    assert!(result.run.series.rmse.iter().all(|r| r.is_finite()));
    assert!(result.run.cycles.len() == 4);
}
