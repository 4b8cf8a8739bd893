//! Quickstart: one EnSF assimilation cycle on the SQG model.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Spins up a small SQG turbulence state, perturbs an ensemble away from
//! the truth, and cycles forecast + EnSF analysis for five 12-hour
//! assimilation windows, printing how the error contracts toward the
//! observation accuracy.
//!
//! Each cycle is also captured as a structured record (RMSE, spread,
//! per-phase timings, and the innovation / rank histogram / spread–skill
//! diagnostics), and the five records are written as JSON Lines to
//! `quickstart_cycles.jsonl` in the working directory.

use sqg_da::da_core::ForecastModel;
use sqg_da::ensf::{Ensf, EnsfConfig, ObsSpec};
use sqg_da::sqg::{SqgModel, SqgParams};
use sqg_da::stats::{gaussian, metrics, rng, Ensemble};

fn main() {
    // 1. A 32x32x2 SQG state on the turbulent attractor (the truth).
    let params = SqgParams { n: 32, ..Default::default() };
    let mut nature = SqgModel::new(params.clone());
    let mut truth = nature.spinup_nature(7, 0.05, 400).to_state_vector();
    println!("state dimension: {}", truth.len());

    // 2. A 16-member ensemble: truth + initial-condition noise (well above
    //    the observation error, so assimilation has something to correct).
    let ic_sigma = 0.05;
    let mut ensemble = Ensemble::zeros(16, truth.len());
    for m in 0..16 {
        let mut member_rng = rng::member_rng(99, m);
        let member = ensemble.member_mut(m);
        for (x, t) in member.iter_mut().zip(&truth) {
            *x = t + ic_sigma * gaussian::standard_normal(&mut member_rng);
        }
    }

    // 3. Cycle: 12 h forecast + EnSF analysis, five times.
    let mut model = sqg_da::da_core::SqgForecast::perfect(params);
    let obs_sigma = 0.005;
    let obs = ObsSpec::identity(obs_sigma);
    let obs_op = obs.operator();
    let mut filter = Ensf::new(EnsfConfig {
        seed: 1,
        spread_relaxation: 0.9,
        ..Default::default()
    });
    let mut obs_rng = rng::seeded(123);

    println!("{:>6} {:>16} {:>16}", "cycle", "forecast RMSE", "analysis RMSE");
    let mut last_forecast = f64::NAN;
    let mut last_analysis = f64::NAN;
    let mut records = String::new();
    for cycle in 1..=5 {
        let t_fc = std::time::Instant::now();
        model.forecast(&mut truth, 12.0);
        model.forecast_ensemble(&mut ensemble, 12.0);
        let forecast_secs = t_fc.elapsed().as_secs_f64();
        last_forecast = metrics::rmse(&ensemble.mean(), &truth);

        let y: Vec<f64> = truth
            .iter()
            .map(|&t| t + obs_sigma * gaussian::standard_normal(&mut obs_rng))
            .collect();
        let pre_diag = sqg_da::da_core::diagnostics::forecast_stats(&ensemble, &y, &obs, 0);
        let t_an = std::time::Instant::now();
        ensemble = filter.analyze(&ensemble, &y, &obs_op);
        let analysis_secs = t_an.elapsed().as_secs_f64();
        last_analysis = metrics::rmse(&ensemble.mean(), &truth);
        println!("{cycle:>6} {last_forecast:>16.6} {last_analysis:>16.6}");

        let record = telemetry::CycleRecord {
            label: "quickstart".to_string(),
            cycle: cycle - 1,
            hours: cycle as f64 * 12.0,
            rmse: last_analysis,
            spread: ensemble.spread(),
            obs_count: y.len(),
            phases: vec![
                ("forecast".to_string(), forecast_secs),
                ("analysis".to_string(), analysis_secs),
            ],
            events: Vec::new(),
            diagnostics: Some(sqg_da::da_core::diagnostics::complete(
                &pre_diag,
                &ensemble,
                &y,
                last_analysis,
                &obs,
                0,
            )),
        };
        records.push_str(&format!("{}\n", record.to_json()));
    }

    // The per-cycle records, for downstream tooling.
    let path = "quickstart_cycles.jsonl";
    std::fs::write(path, records).expect("failed to write cycle records");
    println!("\n5 cycle records written to {path}");

    println!(
        "
steady cycling: each analysis ({last_analysis:.5}) corrects the chaotic"
    );
    println!(
        "forecast-error growth ({last_forecast:.5}) back toward the observation accuracy ({obs_sigma})."
    );
    assert!(
        last_analysis < last_forecast,
        "the analysis should beat the forecast it corrects"
    );
    assert!(last_analysis < 10.0 * obs_sigma, "analysis should approach obs accuracy");
}
