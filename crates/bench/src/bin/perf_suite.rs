//! Flow-matching step-count sweep: few-step probability-flow ODE vs the
//! 100-step reverse SDE (and LETKF) on the reduced Fig. 3 OSSE, with
//! identity and saturating-arctan observation operators, yielding the
//! matched-RMSE analysis speedup that `bench_gate` enforces (>= 5x).
//!
//! The kernels themselves (FFT, RK4 step, EnSF step, GEMM) are timed by
//! the benchmark's per-layer probes (`benchmark/`), not here.
//!
//! Writes a machine-readable report to `BENCH_perf.json` (override with
//! `--out <path>`); `--quick` shrinks the OSSE and the step grid for CI.
//!
//! Run: `cargo run --release -p bench --bin perf_suite`

use bench::{header, Json};
use da_core::cycle::{run_cycles, ProcessGroup, Run};
use da_core::osse::{nature_run, NatureRun, ObsOperatorKind, OsseConfig};
use da_core::{Analysis, SqgForecast};
use ensf::{AnalysisMethod, EnsfConfig};
use sqg::SqgParams;

/// Saturation gain for the arctan leg of the flow sweep. Mild: the
/// observations stay informative over the 20-cycle run (the golden
/// fixtures' stress gain of 40 saturates so hard at `d = 512` that every
/// filter diverges, which would make the sweep meaningless).
const FLOW_ARCTAN_GAIN: f64 = 1.0;

/// Accuracy corridor for the matched-RMSE headline: the cheapest flow step
/// count whose steady RMSE is within 10% of the 100-step reverse SDE.
const FLOW_RMSE_SLACK: f64 = 1.1;

/// Reduced Fig. 3 OSSE for the step-count sweep: the diagnostics-harness
/// grid (`16x16x2`, Ekman-damped) observed every 12 h with moderate noise.
/// `obs_sigma = 0.03` deliberately sits above the paper's 0.01: with
/// near-perfect observations the stochastic sampler's bias toward pinning
/// every member onto the noisy obs is unbeatable by construction (RMSE ==
/// obs noise), so a matched-accuracy comparison there measures the bias,
/// not the transport. At moderate noise both transports have to weigh
/// prior against obs and the comparison is fair.
fn flow_osse_config(quick: bool, obs_operator: ObsOperatorKind) -> OsseConfig {
    OsseConfig {
        params: SqgParams { n: if quick { 8 } else { 16 }, ekman: 0.05, ..Default::default() },
        cycles: if quick { 4 } else { 20 },
        obs_sigma: 0.03,
        ens_size: 16,
        spinup_steps: if quick { 20 } else { 200 },
        seed: 3,
        obs_operator,
        ..Default::default()
    }
}

/// One process that sums the analysis wall seconds of every cycle.
struct AnalysisClock(f64);

impl ProcessGroup for AnalysisClock {
    fn completed(&mut self, _cycle: usize, _mean: &[f64], analysis_secs: f64) {
        self.0 += analysis_secs;
    }
}

/// One cycling DA run against a precomputed nature run, timing *only* the
/// analysis calls (the RK4 forecast dominates wall time and is identical
/// across schemes). Returns (steady RMSE vs truth, total analysis seconds).
fn cycle_da(config: &OsseConfig, nature: &NatureRun, analysis: Analysis) -> (f64, f64) {
    let mut model = SqgForecast::perfect(config.params.clone());
    let mut clock = AnalysisClock(0.0);
    let run = Run::new("flow-sweep", config.clone(), analysis);
    let steady_rmse = run_cycles(&run, nature, &mut model, &mut clock, None)
        .expect("the sweep's nature run fits its configuration")
        .series
        .steady_rmse();
    (steady_rmse, clock.0)
}

/// The EnSF-family analysis of one sweep point.
fn sweep_analysis(flow: bool, n_steps: usize) -> Analysis {
    // Shared calibration for both transports (see EXPERIMENTS.md): mild
    // RTPS (the paper's 1.0 re-inflates the runaway reduced-grid forecast
    // spread until the few-step ODE ensemble leaves the SQG stability
    // envelope) and full variance shrinkage for the flow guidance (16
    // members are too few for usable raw per-component variances).
    let config = EnsfConfig {
        method: if flow { AnalysisMethod::FlowMatching } else { AnalysisMethod::ReverseSde },
        n_steps,
        seed: 5,
        spread_relaxation: 0.25,
        variance_smoothing: 1.0,
        ..Default::default()
    };
    Analysis::ensf(config)
}

/// Step-count-vs-RMSE sweep: few-step probability-flow ODE vs the reverse
/// SDE at 1/2/5/10/25/100 steps, on the identity and arctan OSSEs, with a
/// LETKF reference row. The headline metrics — `matched_steps`,
/// `speedup_at_matched_rmse`, `matched_rmse_ratio` — compare the cheapest
/// flow grid whose steady RMSE stays within 10% of the 100-step SDE on the
/// identity OSSE, which is what `bench_gate` enforces.
fn bench_flow(quick: bool) -> Json {
    let step_counts: &[usize] = if quick { &[1, 5, 25] } else { &[1, 2, 5, 10, 25, 100] };
    let baseline_steps = 100usize;
    let mut sweep = Vec::new();
    // Identity-operator rows feed the matched-RMSE headline: (flow, steps, rmse, secs).
    let mut identity_rows: Vec<(bool, usize, f64, f64)> = Vec::new();

    for (op_name, operator) in [
        ("identity", ObsOperatorKind::Identity),
        ("arctan", ObsOperatorKind::Arctan { gain: FLOW_ARCTAN_GAIN }),
    ] {
        let config = flow_osse_config(quick, operator);
        let nature = nature_run(&config);

        for flow in [false, true] {
            // Quick mode truncates the grid but always runs the 100-step
            // SDE baseline so the derived metrics exist.
            let mut steps: Vec<usize> = step_counts.to_vec();
            if !flow && !steps.contains(&baseline_steps) {
                steps.push(baseline_steps);
            }
            for n_steps in steps {
                let analysis = sweep_analysis(flow, n_steps);
                let (rmse, secs) = cycle_da(&config, &nature, analysis);
                let method = if flow { "flow" } else { "ensf" };
                println!(
                    "flow sweep {op_name:8} {method:4} steps={n_steps:3}:  rmse {rmse:.5e}  analysis {secs:.4}s"
                );
                sweep.push(Json::obj(vec![
                    ("operator", Json::from(op_name)),
                    ("method", Json::from(method)),
                    ("n_steps", Json::from(n_steps as u64)),
                    ("rmse", Json::from(rmse)),
                    ("analysis_secs", Json::from(secs)),
                ]));
                if matches!(operator, ObsOperatorKind::Identity) {
                    identity_rows.push((flow, n_steps, rmse, secs));
                }
            }
        }

        if matches!(operator, ObsOperatorKind::Identity) {
            // LETKF reference row, identity only: `BENCH_perf.json` is the
            // gate baseline, and an arctan row would change its shape.
            let letkf = Analysis::Letkf(letkf::LetkfConfig::default());
            let (rmse, secs) = cycle_da(&config, &nature, letkf);
            println!("flow sweep {op_name:8} letkf        :  rmse {rmse:.5e}  analysis {secs:.4}s");
            sweep.push(Json::obj(vec![
                ("operator", Json::from(op_name)),
                ("method", Json::from("letkf")),
                ("n_steps", Json::from(0u64)),
                ("rmse", Json::from(rmse)),
                ("analysis_secs", Json::from(secs)),
            ]));
        }
    }

    let &(_, _, base_rmse, base_secs) = identity_rows
        .iter()
        .find(|&&(flow, n, _, _)| !flow && n == baseline_steps)
        .expect("100-step SDE baseline always runs");

    // Cheapest flow grid inside the accuracy corridor; if none qualifies,
    // fall back to the most accurate finite flow row so the gate metrics
    // stay present and honestly report the miss via the RMSE ratio. NaN
    // rows (diverged runs, serialized as null) never qualify: comparisons
    // against NaN are false and the fallback filters to finite RMSE.
    let mut flow_rows: Vec<_> = identity_rows.iter().filter(|&&(flow, _, _, _)| flow).collect();
    flow_rows.sort_by_key(|&&(_, n, _, _)| n);
    let &&(_, matched_steps, matched_rmse, matched_secs) = flow_rows
        .iter()
        .find(|&&&(_, _, rmse, _)| rmse <= FLOW_RMSE_SLACK * base_rmse)
        .or_else(|| {
            flow_rows
                .iter()
                .filter(|&&&(_, _, rmse, _)| rmse.is_finite())
                .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite RMSE"))
        })
        .expect("at least one finite flow row in the sweep");
    let speedup = base_secs / matched_secs;
    let ratio = matched_rmse / base_rmse;
    println!(
        "flow matched: {matched_steps} steps  rmse ratio {ratio:.3}  analysis speedup {speedup:.1}x"
    );

    Json::obj(vec![
        ("ens_size", Json::from(flow_osse_config(quick, ObsOperatorKind::Identity).ens_size as u64)),
        ("baseline_steps", Json::from(baseline_steps as u64)),
        ("sweep", Json::Arr(sweep)),
        ("ensf100_rmse", Json::from(base_rmse)),
        ("ensf100_analysis_secs", Json::from(base_secs)),
        ("matched_steps", Json::from(matched_steps as u64)),
        ("matched_rmse", Json::from(matched_rmse)),
        ("matched_rmse_ratio", Json::from(ratio)),
        ("speedup_at_matched_rmse", Json::from(speedup)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());

    header("perf_suite", "Flow-matching step-count sweep");

    let payload = Json::obj(vec![
        ("id", Json::from("perf_suite")),
        ("quick", Json::Bool(quick)),
        ("results", Json::obj(vec![("flow", bench_flow(quick))])),
    ]);
    telemetry::report::write_json(std::path::Path::new(&out), &payload)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("perf report written to {out}");
}
