//! Elastic fault-tolerance study: deadline hit-rate of the sharded DA
//! cycling runtime under injected rank kills, rejoins and stragglers.
//!
//! Each scenario runs the full elastic OSSE loop (`dist::elastic`) on the
//! simulated MPI world with a per-cycle deadline budget of **3× the
//! modeled clean analysis time** and reports the deadline hit-rate
//! (cycles that produced a full or degraded analysis within budget over
//! cycles run), the recovery counters, and the final assimilation error.
//! The budget binds on the cycle loop's one analysis ladder (full analysis,
//! then the reduced-step fallback, then forecast-only):
//!
//! * `clean` — no faults: the hit-rate floor of the harness itself.
//! * `one_kill` — one rank killed mid-analysis at cycle 3: the group
//!   shrinks, the cycle is redone, cycling continues at the survivor
//!   count. The headline number: the hit-rate must stay ≥ 0.95.
//! * `kill_rejoin` — the killed rank rejoins from a checkpoint two cycles
//!   later, restoring the full group.
//! * `straggler` — an 8× straggler for three mid-run cycles: the ladder's
//!   reduced-step fallback takes those analyses instead of missing the budget.
//!
//! Writes a machine-readable report to `BENCH_elastic.json` (override
//! with `--out <path>`); `--quick` shrinks the grid for CI. The derived
//! ratios are gated by `bench_gate` via `--fresh-elastic` /
//! `--baseline-elastic`.
//!
//! Run: `cargo run --release -p bench --bin elastic_suite`

use bench::{header, Json};
use da_core::osse::OsseConfig;
use da_core::resilience::{CheckpointConfig, RankKill, RankRejoin, Rung};
use dist::{
    modeled_analysis_secs, run_elastic_osse, DeadlinePolicy, DistCycleConfig, ElasticCycleConfig,
    ElasticOutcome, ElasticRunResult,
};
use ensf::EnsfConfig;
use hpc::{Straggler, StragglerPlan};
use sqg::SqgParams;

/// Cycle during whose analysis the scripted kill lands.
const KILL_CYCLE: usize = 3;

/// The grid/ensemble shape of one study.
struct Shape {
    n: usize,
    members: usize,
    n_steps: usize,
    cycles: usize,
    ranks: usize,
}

fn base_config(shape: &Shape) -> DistCycleConfig {
    DistCycleConfig {
        osse: OsseConfig {
            params: SqgParams { n: shape.n, ..Default::default() },
            cycles: shape.cycles,
            obs_sigma: 0.005,
            ens_size: shape.members,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        },
        ensf: EnsfConfig { n_steps: shape.n_steps, seed: 5, ..Default::default() },
        // No network model: the ladder's fallback trades SDE steps for time,
        // which only pays where compute dominates the cycle. At these
        // reduced shapes the modeled latency of the cycle's one gather
        // (~1.5e-4 s at 8 ranks, the same at every step count) swamps
        // ~8e-5 s of modeled compute and leaves the degraded rung nothing
        // to buy: priced with `CommSpec::clean`, the straggler cycles fall
        // to forecast-only (hit-rate 0.7; EXPERIMENTS.md has the run).
        ..Default::default()
    }
}

/// An elastic config with the standard deadline policy: budget 3× the
/// modeled clean full analysis, degraded rung at 1/3 of the SDE steps.
fn elastic_config(shape: &Shape) -> ElasticCycleConfig {
    let base = base_config(shape);
    let dim = base.osse.params.state_dim();
    let full = modeled_analysis_secs(&base, dim, shape.members, shape.n_steps, shape.ranks);
    let mut config = ElasticCycleConfig::clean(base);
    config.deadline = Some(DeadlinePolicy {
        budget_secs: 3.0 * full,
        degraded_steps: (shape.n_steps / 3).max(1),
    });
    config
}

/// The `[degraded, forecast-only]` cycles of `r`'s per-cycle log.
fn rungs(r: &ElasticRunResult) -> [usize; 2] {
    let on = |rung| r.cycles.iter().filter(|c| c.rung == rung).count();
    [on(Rung::Fallback), on(Rung::ForecastOnly)]
}

fn scenario_json(name: &str, shape: &Shape, r: &ElasticRunResult) -> Json {
    let [degraded, forecast_only] = rungs(r);
    Json::obj(vec![
        ("name", Json::from(name)),
        ("ranks", Json::from(shape.ranks as u64)),
        ("cycles", Json::from(shape.cycles as u64)),
        ("completed_cycles", Json::from(r.cycles.len() as u64)),
        ("hit_rate", Json::Num(r.hit_rate())),
        ("shrinks", Json::from(r.counters.shrinks)),
        ("rejoins", Json::from(r.counters.rejoins)),
        ("redone_analyses", Json::from(r.event_count("rank_dead_shrink") as u64)),
        ("degraded_cycles", Json::from(degraded as u64)),
        ("forecast_only_cycles", Json::from(forecast_only as u64)),
        ("deadline_blown", Json::from(r.event_count("deadline_blown") as u64)),
        ("final_group_size", Json::from(r.group_sizes.last().map_or(0, |&(_, g)| g as u64))),
        ("final_rmse", Json::Num(r.series.rmse.last().copied().unwrap_or(f64::NAN))),
    ])
}

fn report_row(name: &str, r: &ElasticRunResult) {
    let [degraded, forecast_only] = rungs(r);
    println!(
        "{:>12} {:>9.3} {:>8} {:>8} {:>9} {:>10} {:>7} {:>10.5}",
        name,
        r.hit_rate(),
        r.counters.shrinks,
        r.counters.rejoins,
        degraded,
        forecast_only,
        r.event_count("deadline_blown"),
        r.series.rmse.last().copied().unwrap_or(f64::NAN),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_elastic.json".to_string());

    header("elastic_suite", "Elastic DA cycling under rank kills, rejoins and stragglers");
    let shape = if quick {
        Shape { n: 16, members: 8, n_steps: 10, cycles: 10, ranks: 8 }
    } else {
        Shape { n: 32, members: 16, n_steps: 50, cycles: 10, ranks: 8 }
    };
    let dim = shape.n * shape.n * 2;
    println!(
        "d = {dim}, P = {}, {} SDE steps, {} cycles at {} ranks; budget 3× modeled clean\n",
        shape.members, shape.n_steps, shape.cycles, shape.ranks
    );
    println!(
        "{:>12} {:>9} {:>8} {:>8} {:>9} {:>10} {:>7} {:>10}",
        "scenario", "hit-rate", "shrinks", "rejoins", "degraded", "fcst-only", "blown", "rmse"
    );

    let victim = shape.ranks - 1;
    let mid_kill = RankKill { cycle: KILL_CYCLE, rank: victim };

    let clean_cfg = elastic_config(&shape);
    let clean = run_elastic_osse(&clean_cfg, shape.ranks).expect("clean scenario");
    report_row("clean", &clean);

    let mut kill_cfg = elastic_config(&shape);
    kill_cfg.faults.rank_kills.push(mid_kill);
    let one_kill = run_elastic_osse(&kill_cfg, shape.ranks).expect("one_kill scenario");
    report_row("one_kill", &one_kill);
    assert_eq!(one_kill.outcome, ElasticOutcome::Completed);
    assert_eq!(one_kill.counters.shrinks, 1, "the injected kill must shrink the group");

    let ckpt = std::env::temp_dir()
        .join(format!("sqg_da_elastic_suite_{}.ckpt", std::process::id()));
    let mut rejoin_cfg = elastic_config(&shape);
    rejoin_cfg.faults.rank_kills.push(mid_kill);
    rejoin_cfg.faults.rank_rejoins.push(RankRejoin { cycle: KILL_CYCLE + 2, rank: victim });
    rejoin_cfg.checkpoint = Some(CheckpointConfig { path: ckpt.clone(), every: 0 });
    let kill_rejoin = run_elastic_osse(&rejoin_cfg, shape.ranks).expect("kill_rejoin scenario");
    std::fs::remove_file(&ckpt).ok();
    report_row("kill_rejoin", &kill_rejoin);
    assert_eq!(kill_rejoin.counters.rejoins, 1, "the scripted rejoin must land");

    let mut straggler_cfg = elastic_config(&shape);
    straggler_cfg.stragglers = StragglerPlan {
        events: vec![Straggler {
            rank: 1,
            from_cycle: KILL_CYCLE,
            to_cycle: KILL_CYCLE + 2,
            slowdown: 8.0,
        }],
    };
    let straggler = run_elastic_osse(&straggler_cfg, shape.ranks).expect("straggler scenario");
    report_row("straggler", &straggler);

    println!(
        "\nheadline: one injected kill keeps the deadline hit-rate at {:.3} (gate: ≥ 0.95)",
        one_kill.hit_rate()
    );

    let scenarios = vec![
        scenario_json("clean", &shape, &clean),
        scenario_json("one_kill", &shape, &one_kill),
        scenario_json("kill_rejoin", &shape, &kill_rejoin),
        scenario_json("straggler", &shape, &straggler),
    ];
    let payload = Json::obj(vec![
        ("id", Json::from("elastic_suite")),
        ("quick", Json::Bool(quick)),
        (
            "results",
            Json::obj(vec![
                ("dim", Json::from(dim as u64)),
                ("ranks", Json::from(shape.ranks as u64)),
                ("cycles", Json::from(shape.cycles as u64)),
                ("scenarios", Json::Arr(scenarios)),
            ]),
        ),
    ]);
    telemetry::report::write_json(std::path::Path::new(&out), &payload)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("elastic report written to {out}");
}
