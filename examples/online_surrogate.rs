//! Online surrogate adaptation: the heart of the paper's Fig. 1 workflow.
//!
//! Run with:
//! ```sh
//! cargo run --release --example online_surrogate
//! ```
//!
//! Pre-trains a small ViT surrogate of the SQG 12 h flow map offline, then
//! cycles it inside the EnSF workflow twice — once frozen, once with online
//! fine-tuning on the analyzed transitions — and compares the RMSE series.
//! Online learning is what lets an offline foundation model keep up with a
//! drifting real atmosphere.

use sqg_da::da_core::experiments::{pretrain_surrogate, ComparisonConfig};
use sqg_da::da_core::cycle::{run_cycles, Run, SingleProcess};
use sqg_da::da_core::osse::nature_run;
use sqg_da::da_core::Analysis;
use sqg_da::ensf::EnsfConfig;

fn main() {
    let mut config = ComparisonConfig::small(12);
    config.pretrain_pairs = 60;
    config.pretrain_epochs = 30;

    println!(
        "pre-training a {}-parameter ViT surrogate offline...",
        {
            let mut s = pretrain_surrogate(&config);
            s.num_params()
        }
    );

    let nature = nature_run(&config.osse);

    let run = |label: &str, online_steps: usize| {
        let mut surrogate = pretrain_surrogate(&config);
        surrogate.online_steps = online_steps;
        let ensf = EnsfConfig { n_steps: config.ensf_steps, seed: 9, ..Default::default() };
        let run = Run::new(label, config.osse.clone(), Analysis::ensf(ensf));
        run_cycles(&run, &nature, &mut surrogate, &mut SingleProcess, None)
            .expect("online-surrogate OSSE is well-formed")
            .series
    };

    let frozen = run("ViT+EnSF (frozen)", 0);
    let online = run("ViT+EnSF (online)", 2);

    println!("\n{:>6} {:>16} {:>16}", "hour", "frozen RMSE", "online RMSE");
    for i in 0..frozen.rmse.len() {
        println!(
            "{:>6.0} {:>16.5} {:>16.5}",
            frozen.hours[i], frozen.rmse[i], online.rmse[i]
        );
    }
    println!(
        "\nsteady-state RMSE: frozen {:.5} vs online {:.5}",
        frozen.steady_rmse(),
        online.steady_rmse()
    );
}
