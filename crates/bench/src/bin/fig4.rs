//! Fig. 4: RMSE of the four architectures over the assimilation window.
//!
//! Default: a 32² grid with 60 cycles (~3 min in release). Pass `--paper`
//! for the paper's 64 × 64 × 2 grid with 20 members (slow: tens of minutes
//! on a laptop; the SQG + filters then run at the paper's exact setup).
//! Pass `--cycles N` to override the cycle count.

use bench::Json;
use da_core::experiments::{pretrain_surrogate, run_comparison, ComparisonConfig};
use da_core::osse::OsseConfig;
use sqg::SqgParams;
use vit::VitConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper = args.iter().any(|a| a == "--paper");
    let cycles = args
        .iter()
        .position(|a| a == "--cycles")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if paper { 300 } else { 60 });

    bench::header(
        "Fig. 4",
        "RMSE of SQG-only / ViT-only / SQG+LETKF / ViT+EnSF (imperfect model)",
    );

    let config = if paper {
        ComparisonConfig::paper(cycles)
    } else {
        // Reduced default: 32² grid, 16 members — same physics and filters,
        // ~20x cheaper than the paper grid.
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
            online_steps: 1,
            ..ComparisonConfig::small(cycles)
        }
    };

    eprintln!("pre-training the ViT surrogate offline...");
    let surrogate = pretrain_surrogate(&config);
    eprintln!("running the four architectures over {cycles} cycles...");
    let cmp = run_comparison(&config, surrogate).expect("the comparison runs");

    println!("climatological SD: {:.5}\n", cmp.nature.climatology_sd);
    print!("{:>7}", "hour");
    for s in &cmp.series {
        print!(" {:>12}", s.label);
    }
    println!();
    let stride = (cycles / 30).max(1);
    for i in (0..cycles).step_by(stride) {
        print!("{:>7.0}", cmp.series[0].hours[i]);
        for s in &cmp.series {
            print!(" {:>12.5}", s.rmse[i]);
        }
        println!();
    }

    println!("\nsteady-state RMSE (last half of cycles):");
    for s in &cmp.series {
        println!(
            "  {:>10}: {:.5}  ({:.2}x climatology)",
            s.label,
            s.steady_rmse(),
            s.steady_rmse() / cmp.nature.climatology_sd
        );
    }
    println!("\npaper shape: free runs (SQG-only, ViT-only) saturate near climatology;");
    println!("LETKF degrades under model error; ViT+EnSF stays lowest and stable.");

    let series = cmp
        .series
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("label", Json::from(s.label.as_str())),
                ("steady_rmse", Json::Num(s.steady_rmse())),
                ("hours", Json::Arr(s.hours.iter().map(|&h| Json::Num(h)).collect())),
                ("rmse", Json::Arr(s.rmse.iter().map(|&r| Json::Num(r)).collect())),
                ("spread", Json::Arr(s.spread.iter().map(|&v| Json::Num(v)).collect())),
            ])
        })
        .collect();
    bench::emit_json(
        "fig4",
        "RMSE of SQG-only / ViT-only / SQG+LETKF / ViT+EnSF (imperfect model)",
        Json::obj(vec![
            ("cycles", Json::from(cycles)),
            ("climatology_sd", Json::Num(cmp.nature.climatology_sd)),
            ("series", Json::Arr(series)),
        ]),
    );
}
