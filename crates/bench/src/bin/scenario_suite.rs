//! Partial-observation scenario study: inpainting EnSF vs the
//! mask-ignoring baseline vs masked LETKF across the standard scenario
//! registry (`da_core::scenario::standard_scenarios`).
//!
//! Each row runs one `(scenario, method)` OSSE on the SQG grid and
//! reports the steady-state RMSE split into observed and unobserved
//! components plus the cumulative analysis wall time:
//!
//! * `block25` — 25 % contiguous block outage straddling the level
//!   boundary: the headline Fig.-3-style scenario. The bench gate floors
//!   on the unobserved-region RMSE ratio `ensf_ignore / ensf_inpaint`
//!   (the inpainting filter must beat the mask-ignoring filter by ≥25 %
//!   where there are no sensors; in practice the margin is ~10×).
//! * `strided2` — every other component observed.
//! * `track` — moving satellite-track window, cycle-indexed.
//! * `arctan_block25` — the block outage composed with the saturating
//!   arctan operator (LETKF takes it through the members' `H(x_m)`).
//!
//! Writes a machine-readable report to `BENCH_scenarios.json` (override
//! with `--out <path>`); `--quick` shrinks the ensemble/cycle count for
//! CI. The derived ratios are gated by `bench_gate` via
//! `--fresh-scenarios` / `--baseline-scenarios`.
//!
//! Run: `cargo run --release -p bench --bin scenario_suite`

use bench::{header, Json};
use da_core::osse::OsseConfig;
use da_core::{run_scenario, standard_scenarios, Analysis, Completion, ScenarioResult};
use ensf::{AnalysisMethod, EnsfConfig};
use sqg::SqgParams;

/// The grid/ensemble shape of one study.
struct Shape {
    n: usize,
    members: usize,
    n_steps: usize,
    cycles: usize,
}

fn base_config(shape: &Shape) -> OsseConfig {
    OsseConfig {
        params: SqgParams { n: shape.n, ..Default::default() },
        cycles: shape.cycles,
        obs_sigma: 0.005,
        ens_size: shape.members,
        ic_sigma: 0.01,
        spinup_steps: 40,
        seed: 3,
        ..Default::default()
    }
}

fn result_json((method, r): &(&str, ScenarioResult)) -> Json {
    // Non-finite RMSE (a filter that drove the model off the attractor)
    // serializes as `null`; `diverged` makes the failure machine-readable.
    Json::obj(vec![
        ("scenario", Json::from(r.scenario)),
        ("method", Json::from(*method)),
        ("rmse_observed", Json::Num(r.rmse_observed)),
        ("rmse_unobserved", Json::Num(r.rmse_unobserved)),
        ("rmse_total", Json::Num(r.rmse_total)),
        ("analysis_secs", Json::Num(r.analysis_secs)),
        ("cycles", Json::from(r.cycles as u64)),
        ("diverged", Json::Bool(!r.rmse_total.is_finite())),
    ])
}

fn report_row(method: &str, r: &ScenarioResult) {
    let fmt = |v: f64| {
        if v.is_finite() { format!("{v:.5}") } else { "diverged".to_string() }
    };
    println!(
        "{:>14} {:>13} {:>10} {:>12} {:>10} {:>10.4}",
        r.scenario,
        method,
        fmt(r.rmse_observed),
        fmt(r.rmse_unobserved),
        fmt(r.rmse_total),
        r.analysis_secs
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
        .unwrap_or_else(|| "BENCH_scenarios.json".to_string());

    header("scenario_suite", "Partial-observation scenarios: inpainting EnSF vs baselines");
    let shape = if quick {
        Shape { n: 16, members: 8, n_steps: 10, cycles: 6 }
    } else {
        Shape { n: 16, members: 16, n_steps: 20, cycles: 10 }
    };
    let base = base_config(&shape);
    let ensf_config = EnsfConfig { n_steps: shape.n_steps, seed: 5, ..Default::default() };
    let dim = base.params.state_dim();
    println!(
        "d = {dim}, P = {}, {} SDE steps, {} cycles\n",
        shape.members, shape.n_steps, shape.cycles
    );
    println!(
        "{:>14} {:>13} {:>10} {:>12} {:>10} {:>10}",
        "scenario", "method", "rmse-obs", "rmse-unobs", "rmse-tot", "secs"
    );

    // Inpainting EnSF over the reverse SDE and the probability flow, the
    // mask-ignoring baseline (dead sensors assimilated as zeros) and masked
    // LETKF, each under its stable report label.
    let flow = EnsfConfig { method: AnalysisMethod::FlowMatching, ..ensf_config.clone() };
    let methods = [
        ("ensf_inpaint", Analysis::ensf(ensf_config.clone())),
        ("flow_inpaint", Analysis::ensf(flow)),
        ("ensf_ignore", Analysis::Ensf { config: ensf_config, completion: Completion::ZeroFill }),
        ("letkf_masked", Analysis::Letkf(letkf::LetkfConfig::default())),
    ];
    let mut rows: Vec<(&str, ScenarioResult)> = Vec::new();
    for spec in standard_scenarios(dim) {
        for (method, analysis) in &methods {
            let r = run_scenario(&base, &spec, analysis);
            report_row(method, &r);
            rows.push((method, r));
        }
        println!();
    }

    let headline = |method: &str| {
        rows.iter()
            .find(|(m, r)| r.scenario == "block25" && *m == method)
            .map(|(_, r)| r.rmse_unobserved)
            .unwrap_or(f64::NAN)
    };
    let inpaint = headline("ensf_inpaint");
    let ignore = headline("ensf_ignore");
    println!(
        "headline: block25 unobserved RMSE — inpaint {:.5} vs mask-ignoring {:.5} ({:.1}×; gate: ≥ 1.25×)",
        inpaint,
        ignore,
        ignore / inpaint
    );

    let payload = Json::obj(vec![
        ("id", Json::from("scenario_suite")),
        ("quick", Json::Bool(quick)),
        (
            "results",
            Json::obj(vec![
                ("dim", Json::from(dim as u64)),
                ("members", Json::from(shape.members as u64)),
                ("cycles", Json::from(shape.cycles as u64)),
                ("scenarios", Json::Arr(rows.iter().map(result_json).collect())),
            ]),
        ),
    ]);
    telemetry::report::write_json(std::path::Path::new(&out), &payload)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("scenario report written to {out}");
}
