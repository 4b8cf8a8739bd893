//! Performance suite for the batched EnSF kernel and the FFT plan cache.
//!
//! Measures (medians over repeated runs):
//!
//! * EnSF analysis wall time, the per-particle oracle
//!   ([`ensf::oracle::analyze`]) vs the batched filter, across several
//!   (particles, members, dim) shapes including the paper-scale
//!   `P=20, M=20, d=8192` with 100 reverse-SDE steps;
//! * SQG RK4 step time (plan-cached, scratch-hoisted hot path), the cached
//!   state-vector spectral roundtrip, and FFT plan acquisition cost (warm
//!   cache lookup vs fresh twiddle/bit-reversal build);
//! * raw GEMM throughput of the two kernels the batched score rides on;
//! * the flow-matching step-count sweep: few-step probability-flow ODE vs
//!   the 100-step reverse SDE (and LETKF) on the reduced Fig. 3 OSSE, with
//!   identity and saturating-arctan observation operators, yielding the
//!   matched-RMSE analysis speedup that `bench_gate` enforces (>= 5x).
//!
//! Writes a machine-readable report to `BENCH_perf.json` (override with
//! `--out <path>`); `--quick` shrinks shapes and repetitions for CI.
//!
//! Run: `cargo run --release -p bench --bin perf_suite`

use bench::{header, Json};
use da_core::cycle::{run_cycles, ProcessGroup, Run};
use da_core::osse::{nature_run, NatureRun, ObsOperatorKind, OsseConfig};
use da_core::{Analysis, SqgForecast};
use ensf::{oracle, AnalysisMethod, Ensf, EnsfConfig, ObsOperator};
use fft::{plan_cache, Complex, Direction, Fft2};
use linalg::gemm::{matmul_abt_into, matmul_slices_into};
use sqg::dynamics::{StepWorkspace, Stepper};
use sqg::SqgParams;
use stats::gaussian::fill_standard_normal;
use stats::rng::seeded;
use stats::Ensemble;
use std::time::Instant;

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn forecast(members: usize, dim: usize, seed: u64) -> Ensemble {
    let mut rng = seeded(seed);
    let mut e = Ensemble::zeros(members, dim);
    for m in 0..members {
        fill_standard_normal(&mut rng, e.member_mut(m));
    }
    e
}

/// Median wall time of one EnSF analysis.
fn ensf_analysis_secs(reps: usize, analyze: impl Fn() -> Ensemble) -> f64 {
    median_secs(reps, || assert!(analyze().as_slice()[0].is_finite()))
}

fn bench_ensf(quick: bool, reps: usize) -> Json {
    // (particles = members, dim, sde steps); the analysis couples P and M.
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(8, 256, 20)]
    } else {
        &[(10, 1024, 50), (20, 4096, 100), (20, 8192, 100)]
    };
    let mut rows = Vec::new();
    for &(members, dim, n_steps) in shapes {
        let fc = forecast(members, dim, 1);
        let y = vec![0.2; dim];
        let obs = ObsOperator::identity(0.5);
        let config = EnsfConfig { n_steps, seed: 9, ..Default::default() };
        // Both cut their particle blocks over this machine's cores.
        let reference = ensf_analysis_secs(reps, || oracle::analyze(&config, 0, &fc, &y, &obs));
        let batched =
            ensf_analysis_secs(reps, || Ensf::new(config.clone()).analyze(&fc, &y, &obs));
        let speedup = reference / batched;
        println!(
            "ensf P=M={members:3} d={dim:5} steps={n_steps:3}:  reference {:.4}s  batched {:.4}s  speedup {speedup:.2}x",
            reference, batched
        );
        rows.push(Json::obj(vec![
            ("particles", Json::from(members as u64)),
            ("members", Json::from(members as u64)),
            ("dim", Json::from(dim as u64)),
            ("n_steps", Json::from(n_steps as u64)),
            ("reference_secs", Json::from(reference)),
            ("batched_secs", Json::from(batched)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    Json::Arr(rows)
}

fn bench_sqg(quick: bool, reps: usize) -> Json {
    let n = if quick { 32 } else { 64 };
    let params = SqgParams { n, ..Default::default() };
    let state = sqg::init::random_large_scale(n, 0.05, 3);

    // RK4 step on the plan-cached, scratch-hoisted hot path.
    let stepper = Stepper::new(params.clone());
    let mut workspace = StepWorkspace::new(n);
    let mut theta = [state.level(0).to_vec(), state.level(1).to_vec()];
    let step_secs = median_secs(reps, || {
        let mut th = theta.clone();
        for _ in 0..4 {
            stepper.step(&mut th, &mut workspace);
        }
        theta[0][0] = th[0][0]; // keep the work observable
    });

    // Spectral <-> grid roundtrip on cached plans, for context on how much
    // transform work a conversion amortizes the plan cost against.
    let grid = state.to_grid();
    let roundtrip = |fwd: &Fft2, inv: &Fft2| {
        let mut acc = 0.0;
        for g in &grid {
            let mut buf: Vec<Complex> = g.iter().map(|&x| Complex::from_re(x)).collect();
            fwd.process(&mut buf);
            inv.process(&mut buf);
            acc += buf[0].re;
        }
        acc
    };
    let cached_secs = median_secs(reps, || {
        let fwd = plan_cache::fft2(n, n, Direction::Forward);
        let inv = plan_cache::fft2(n, n, Direction::Inverse);
        std::hint::black_box(roundtrip(&fwd, &inv));
    });

    // Plan acquisition itself: a warm cache hit (map lookup + Arc clone) vs
    // an honest fresh build (twiddle and bit-reversal tables for both axes).
    // The previous version of this suite compared cached-plan vs fresh-plan
    // *roundtrips*, where the build cost is amortized under milliseconds of
    // transform work — that reported a meaningless ~1.0x "speedup". Timing
    // the acquisitions directly is what the plan cache actually buys.
    let plan_iters = 64;
    std::hint::black_box(plan_cache::fft2(n, n, Direction::Forward));
    std::hint::black_box(plan_cache::fft2(n, n, Direction::Inverse));
    let plan_lookup_secs = median_secs(reps, || {
        for _ in 0..plan_iters {
            std::hint::black_box(plan_cache::fft2(n, n, Direction::Forward));
            std::hint::black_box(plan_cache::fft2(n, n, Direction::Inverse));
        }
    }) / plan_iters as f64;
    let plan_build_secs = median_secs(reps, || {
        for _ in 0..plan_iters {
            std::hint::black_box(Fft2::new(n, n, Direction::Forward));
            std::hint::black_box(Fft2::new(n, n, Direction::Inverse));
        }
    }) / plan_iters as f64;
    let plan_cache_speedup = plan_build_secs / plan_lookup_secs;

    let (hits, misses) = plan_cache::stats();
    println!(
        "sqg n={n}: rk4 step {:.6}s  roundtrip cached {:.6}s  plan build {:.3e}s / lookup {:.3e}s ({:.1}x)  cache hits {hits} misses {misses}",
        step_secs / 4.0,
        cached_secs,
        plan_build_secs,
        plan_lookup_secs,
        plan_cache_speedup
    );
    Json::obj(vec![
        ("n", Json::from(n as u64)),
        ("rk4_step_secs", Json::from(step_secs / 4.0)),
        ("roundtrip_cached_secs", Json::from(cached_secs)),
        ("plan_build_secs", Json::from(plan_build_secs)),
        ("plan_lookup_secs", Json::from(plan_lookup_secs)),
        ("plan_cache_speedup", Json::from(plan_cache_speedup)),
        ("plan_cache_hits", Json::from(hits)),
        ("plan_cache_misses", Json::from(misses)),
    ])
}

fn bench_gemm(quick: bool, reps: usize) -> Json {
    let mut rng = seeded(3);

    // Square product, the generic kernel (W X in the batched score).
    let s = if quick { 64 } else { 256 };
    let mut a = vec![0.0; s * s];
    let mut b = vec![0.0; s * s];
    let mut c = vec![0.0; s * s];
    fill_standard_normal(&mut rng, &mut a);
    fill_standard_normal(&mut rng, &mut b);
    let sq_secs = median_secs(reps, || {
        matmul_slices_into(&a, &b, s, s, s, &mut c);
        std::hint::black_box(c[0]);
    });
    let sq_gflops = 2.0 * (s as f64).powi(3) / sq_secs / 1e9;

    // Tall-skinny A Bᵀ, the Gram kernel (Z Xᵀ distances).
    let (m, k) = if quick { (8, 1024) } else { (20, 8192) };
    let mut za = vec![0.0; m * k];
    let mut xb = vec![0.0; m * k];
    let mut gram = vec![0.0; m * m];
    fill_standard_normal(&mut rng, &mut za);
    fill_standard_normal(&mut rng, &mut xb);
    let abt_secs = median_secs(reps, || {
        matmul_abt_into(&za, &xb, m, m, k, &mut gram);
        std::hint::black_box(gram[0]);
    });
    let abt_gflops = 2.0 * (m * m * k) as f64 / abt_secs / 1e9;

    println!(
        "gemm: matmul {s}^3 {sq_gflops:.2} GF/s   abt {m}x{m}x{k} {abt_gflops:.2} GF/s"
    );
    Json::obj(vec![
        ("matmul_size", Json::from(s as u64)),
        ("matmul_gflops", Json::from(sq_gflops)),
        ("abt_m", Json::from(m as u64)),
        ("abt_k", Json::from(k as u64)),
        ("abt_gflops", Json::from(abt_gflops)),
    ])
}

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
    let series = run_cycles(&run, nature, &mut model, &mut clock, None)
        .expect("the sweep's nature run fits its configuration")
        .series;
    let analysis_secs = clock.0;
    if std::env::var("FLOW_SWEEP_TRACE").is_ok() {
        for (cycle, (rmse, spread)) in series.rmse.iter().zip(&series.spread).enumerate() {
            println!("  trace cycle {cycle:2}: rmse {rmse:.4e}  spread {spread:.4e}");
        }
    }
    (series.steady_rmse(), analysis_secs)
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
        ("ens_size", Json::from(8u64)),
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
    // `--only <section>[,<section>...]` restricts the suite (dev iteration);
    // skipped sections are omitted from the report entirely, so never commit
    // a partial report as the gate baseline.
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect());
    let wants = |name: &str| only.as_ref().map(|o| o.iter().any(|s| s == name)).unwrap_or(true);
    let reps = if quick { 2 } else { 5 };

    header(
        "perf_suite",
        "Batched EnSF kernel and FFT plan cache performance suite",
    );

    let mut results = Vec::new();
    if wants("ensf") {
        results.push(("ensf", bench_ensf(quick, reps)));
    }
    if wants("sqg") {
        results.push(("sqg", bench_sqg(quick, reps)));
    }
    if wants("gemm") {
        results.push(("gemm", bench_gemm(quick, reps)));
    }
    if wants("flow") {
        results.push(("flow", bench_flow(quick)));
    }

    let payload = Json::obj(vec![
        ("id", Json::from("perf_suite")),
        ("quick", Json::Bool(quick)),
        ("reps", Json::from(reps as u64)),
        ("results", Json::obj(results)),
    ]);
    telemetry::report::write_json(std::path::Path::new(&out), &payload)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("perf report written to {out}");
}
