//! Assimilation-diagnostics report: EnSF vs flow-matching EnSF vs LETKF
//! filter calibration on the reduced SQG OSSE.
//!
//! Runs the analysis schemes over the same nature run, then aggregates the
//! per-cycle [`telemetry::DaDiagnostics`] of each run's records into the
//! classic filter-health pictures: the ensemble **rank histogram** (flat ⇒
//! calibrated, U-shaped ⇒ underdispersive, dome ⇒ overdispersive), the
//! **spread–skill ratio** trace (≈ 1 for a calibrated ensemble), and the
//! **chi-squared** innovation-consistency trace (≈ 1 when innovations
//! match the filter's own uncertainty budget). These are the plots behind
//! the EXPERIMENTS.md entry.
//!
//! Run: `cargo run --release -p bench --bin da_diagnostics --
//! [--cycles N] [--quick] [--json PATH]`

use bench::{bar, header, Json};
use da_core::cycle::{run_cycles, Run, RunResult, SingleProcess};
use da_core::osse::{nature_run, OsseConfig};
use da_core::{AnalysisScheme, Completion, EnsfScheme, ForecastModel, LetkfScheme, SqgForecast};
use sqg::SqgParams;

struct Aggregate {
    label: String,
    rank_hist: Vec<u64>,
    spread_skill: Vec<f64>,
    chi2: Vec<f64>,
    hours: Vec<f64>,
}

/// Folds one run's cycle records into histogram + traces.
fn aggregate(run: &RunResult) -> Aggregate {
    let mut agg = Aggregate {
        label: run.series.label.clone(),
        rank_hist: Vec::new(),
        spread_skill: Vec::new(),
        chi2: Vec::new(),
        hours: Vec::new(),
    };
    for r in run.cycles.iter().map(|c| &c.record) {
        let Some(d) = &r.diagnostics else { continue };
        if agg.rank_hist.len() < d.rank_hist.len() {
            agg.rank_hist.resize(d.rank_hist.len(), 0);
        }
        for (acc, &c) in agg.rank_hist.iter_mut().zip(&d.rank_hist) {
            *acc += c;
        }
        agg.spread_skill.push(d.spread_skill);
        agg.chi2.push(d.chi2);
        agg.hours.push(r.hours);
    }
    agg
}

fn steady_mean(series: &[f64]) -> f64 {
    let tail = &series[series.len() / 2..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn print_aggregate(agg: &Aggregate) {
    println!("\n{} rank histogram ({} samples over {} cycles):", agg.label, agg.rank_hist.iter().sum::<u64>(), agg.hours.len());
    let peak = agg.rank_hist.iter().copied().max().unwrap_or(1).max(1) as f64;
    for (bin, &count) in agg.rank_hist.iter().enumerate() {
        println!("  rank {bin:>2} {:>7} {}", count, bar(count as f64 / peak, 40));
    }
    println!(
        "{} steady spread–skill {:.3}, steady chi² {:.3}",
        agg.label,
        steady_mean(&agg.spread_skill),
        steady_mean(&agg.chi2)
    );
}

fn aggregate_json(agg: &Aggregate) -> Json {
    Json::obj(vec![
        ("label", Json::from(agg.label.as_str())),
        (
            "rank_hist",
            Json::Arr(agg.rank_hist.iter().map(|&c| Json::from(c)).collect()),
        ),
        ("hours", Json::Arr(agg.hours.iter().map(|&h| Json::Num(h)).collect())),
        (
            "spread_skill",
            Json::Arr(agg.spread_skill.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("chi2", Json::Arr(agg.chi2.iter().map(|&v| Json::Num(v)).collect())),
        ("steady_spread_skill", Json::Num(steady_mean(&agg.spread_skill))),
        ("steady_chi2", Json::Num(steady_mean(&agg.chi2))),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cycles = args
        .iter()
        .position(|a| a == "--cycles")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { 10 } else { 40 });

    header("da_diagnostics", "EnSF vs FlowEnSF vs LETKF filter calibration on the reduced SQG OSSE");

    let config = OsseConfig {
        params: SqgParams { n: 16, ekman: 0.05, ..Default::default() },
        cycles,
        obs_sigma: 0.005,
        ens_size: 16,
        ic_sigma: 0.01,
        spinup_steps: if quick { 60 } else { 200 },
        seed: 2024,
        ..Default::default()
    };
    let nature = nature_run(&config);
    let dim = nature.truth[0].len();
    println!(
        "OSSE: n = {}, d = {dim}, {} members, {cycles} cycles, σ_obs = {}\n",
        config.params.n, config.ens_size, config.obs_sigma
    );

    let mut model = SqgForecast::perfect(config.params.clone());
    let mut ensf = EnsfScheme::with_obs(
        ensf::EnsfConfig { n_steps: 20, seed: config.seed ^ 0xE45F, ..Default::default() },
        dim,
        config.obs_spec(),
        Completion::Inpaint,
    );
    let plain = |label: &str, model: &mut dyn ForecastModel, scheme: &mut dyn AnalysisScheme| {
        let run = Run::new(label, config.clone());
        run_cycles(&run, &nature, model, scheme, None, &mut SingleProcess, None)
            .unwrap_or_else(|e| panic!("{label} run failed: {e}"))
    };
    let ensf_run = plain("EnSF", &mut model, &mut ensf);

    // The flow-matching path runs the same score machinery through a 6-step
    // deterministic probability-flow ODE. Spread relaxation is backed off
    // and the per-component variance estimate is shrunk toward its mean so
    // the deterministic transport stays calibrated at 16 members (see
    // EXPERIMENTS.md: under full RTPS the reduced-grid forecast spread
    // runs away and the deterministic path has no obs noise to hide it).
    let mut model_flow = SqgForecast::perfect(config.params.clone());
    let mut flow = EnsfScheme::with_obs(
        ensf::EnsfConfig {
            method: ensf::AnalysisMethod::FlowMatching,
            n_steps: 6,
            seed: config.seed ^ 0xE45F,
            spread_relaxation: 0.25,
            variance_smoothing: 1.0,
            ..Default::default()
        },
        dim,
        config.obs_spec(),
        Completion::Inpaint,
    );
    let flow_run = plain("FlowEnSF", &mut model_flow, &mut flow);

    let mut model2 = SqgForecast::perfect(config.params.clone());
    let mut letkf =
        LetkfScheme::with_obs(letkf::LetkfConfig::default(), &config.params, config.obs_spec());
    let letkf_run = plain("LETKF", &mut model2, &mut letkf);

    let aggs = [aggregate(&ensf_run), aggregate(&flow_run), aggregate(&letkf_run)];
    let (ensf_series, flow_series, letkf_series) =
        (&ensf_run.series, &flow_run.series, &letkf_run.series);
    for agg in &aggs {
        assert_eq!(agg.hours.len(), cycles, "{}: every cycle must carry diagnostics", agg.label);
        print_aggregate(agg);
    }
    println!(
        "\nsteady RMSE: EnSF {:.5}, FlowEnSF {:.5}, LETKF {:.5} (climatology SD {:.5})",
        ensf_series.steady_rmse(),
        flow_series.steady_rmse(),
        letkf_series.steady_rmse(),
        nature.climatology_sd
    );
    println!("reading: a flat histogram and spread–skill ≈ 1 mean the ensemble's");
    println!("uncertainty is honest; U-shape / ratio ≪ 1 flag overconfidence.");

    bench::emit_json(
        "da_diagnostics",
        "EnSF vs FlowEnSF vs LETKF filter calibration on the reduced SQG OSSE",
        Json::obj(vec![
            ("cycles", Json::from(cycles)),
            ("climatology_sd", Json::Num(nature.climatology_sd)),
            ("ensf_steady_rmse", Json::Num(ensf_series.steady_rmse())),
            ("flow_steady_rmse", Json::Num(flow_series.steady_rmse())),
            ("letkf_steady_rmse", Json::Num(letkf_series.steady_rmse())),
            ("schemes", Json::Arr(aggs.iter().map(aggregate_json).collect())),
        ]),
    );
}
