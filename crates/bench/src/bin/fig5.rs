//! Fig. 5: final-time analysis-mean fields and errors for the four
//! architectures, rendered as ASCII contour maps plus error statistics.
//!
//! Accepts the same `--paper` / `--cycles N` flags as `fig4`.

use bench::Json;
use da_core::experiments::{pretrain_surrogate, run_comparison, ComparisonConfig};
use da_core::osse::OsseConfig;
use sqg::SqgParams;
use vit::VitConfig;

/// Renders the bottom-boundary field as a coarse ASCII contour map.
fn render(field: &[f64], n: usize, cols: usize) {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-30);
    let step = (n / cols).max(1);
    for iy in (0..n).step_by(step) {
        let mut line = String::new();
        for ix in (0..n).step_by(step) {
            let v = field[iy * n + ix];
            let idx = (((v - lo) / span) * 9.0).round() as usize;
            line.push(shades[idx.min(9)]);
        }
        println!("    {line}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper = args.iter().any(|a| a == "--paper");
    let cycles = args
        .iter()
        .position(|a| a == "--cycles")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if paper { 300 } else { 40 });

    bench::header("Fig. 5", "analysis-mean fields and errors at the final time");

    let config = if paper {
        ComparisonConfig::paper(cycles)
    } else {
        let params = SqgParams { n: 32, ekman: 0.05, ..Default::default() };
        ComparisonConfig {
            osse: OsseConfig {
                params,
                cycles,
                obs_sigma: 0.005,
                ens_size: 16,
                ic_sigma: 0.01,
                spinup_steps: 600,
                seed: 2024,
                ..Default::default()
            },
            vit: VitConfig::small(32),
            pretrain_pairs: 80,
            pretrain_epochs: 30,
            ..ComparisonConfig::small(cycles)
        }
    };
    let n = config.osse.params.n;

    eprintln!("running the comparison ({cycles} cycles)...");
    let surrogate = pretrain_surrogate(&config);
    let cmp = run_comparison(&config, surrogate).expect("the comparison runs");
    let truth = cmp.nature.truth.last().unwrap();

    println!("ground truth (bottom boundary, t = {} h):", cycles * 12);
    render(&truth[..n * n], n, 32);

    let mut rows = Vec::new();
    for s in &cmp.series {
        let err: Vec<f64> =
            s.final_mean.iter().zip(truth).map(|(a, b)| a - b).collect();
        let rmse = stats::metrics::rmse(&s.final_mean, truth);
        let corr = stats::metrics::pattern_correlation(&s.final_mean, truth);
        let max_err = err.iter().cloned().fold(0.0f64, |m, v| m.max(v.abs()));
        println!(
            "\n--- {} ---  final RMSE {:.5}, pattern corr {:.3}, max |err| {:.5}",
            s.label, rmse, corr, max_err
        );
        println!("  analysis mean:");
        render(&s.final_mean[..n * n], n, 32);
        rows.push(Json::obj(vec![
            ("label", Json::from(s.label.as_str())),
            ("final_rmse", Json::Num(rmse)),
            ("pattern_corr", Json::Num(corr)),
            ("max_abs_err", Json::Num(max_err)),
        ]));
    }

    println!("\npaper shape: EnSF+ViT closest to truth (fine scales retained);");
    println!("LETKF keeps large eddies but smooths extremes; free runs decorrelate.");

    bench::emit_json(
        "fig5",
        "analysis-mean fields and errors at the final time",
        Json::obj(vec![("cycles", Json::from(cycles)), ("rows", Json::Arr(rows))]),
    );
}
