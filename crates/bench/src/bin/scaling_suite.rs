//! Scaling study of the particle-sharded distributed EnSF analysis.
//!
//! Measures the `crates/dist` sharded analysis at 1/2/4/8/16 simulated
//! ranks with the sequential per-rank-timed driver
//! ([`dist::measure_analysis`]): every rank's share (prepare + its particle
//! block) is timed in isolation, the analysis wall time is the slowest
//! rank's compute, and the one allgather is priced with the α–β collective
//! model so compute and communication stay separate in the report. These
//! are *modeled* multi-rank times: real rank threads on this machine's two
//! cores measure parity with the serial filter, not the speedups below.
//!
//! * **Strong scaling** — paper-scale analysis (`P = 20`, `d = 8192`,
//!   100 reverse-SDE steps) split over more ranks. Ranks own whole
//!   particles, so the ceiling is `P / ⌈P/R⌉`: 2×, 4×, 6.7× (8 ranks hold
//!   3, 3, 3, 3, 2, 2, 2, 2) and 10× at 16.
//! * **Weak scaling** — `d = 1024` per rank at fixed `P`: a rank's block
//!   shrinks as the state grows, so wall time stays near flat until blocks
//!   stop shrinking evenly (`⌈P/R⌉` particles of an `R`-times larger
//!   state: 1.2× the work at 8 ranks, 1.6× at 16).
//!
//! The numerics are rank-count invariant (bitwise — see
//! `tests/dist_determinism.rs`), so every row of the study computes the
//! *same* analysis, just decomposed differently.
//!
//! Writes a machine-readable report to `BENCH_scaling.json` (override with
//! `--out <path>`); `--quick` shrinks shapes and repetitions for CI.
//!
//! Run: `cargo run --release -p bench --bin scaling_suite`

use bench::{bar, header, Json};
use dist::cycle::DEFAULT_TILE;
use dist::{measure_analysis, ScalingMeasurement};
use ensf::EnsfConfig;

/// Runs `reps` measurements and keeps the one with the median wall time.
fn median_measurement(
    dim: usize,
    members: usize,
    config: &EnsfConfig,
    ranks: usize,
    reps: usize,
) -> ScalingMeasurement {
    let mut runs: Vec<ScalingMeasurement> = (0..reps)
        .map(|_| measure_analysis(dim, DEFAULT_TILE, members, config, ranks, 7))
        .collect();
    runs.sort_by(|a, b| a.analysis_secs.partial_cmp(&b.analysis_secs).unwrap());
    runs.swap_remove(runs.len() / 2)
}

fn measurement_json(m: &ScalingMeasurement, speedup: f64) -> Json {
    Json::obj(vec![
        ("ranks", Json::from(m.ranks as u64)),
        ("dim", Json::from(m.dim as u64)),
        ("members", Json::from(m.members as u64)),
        ("analysis_secs", Json::Num(m.analysis_secs)),
        ("total_cpu_secs", Json::Num(m.total_cpu_secs)),
        ("modeled_comm_secs", Json::Num(m.modeled_comm_secs)),
        ("speedup", Json::Num(speedup)),
        ("collectives", Json::from(m.stats.collectives)),
        ("exchanged_bytes", Json::from(m.stats.bytes)),
    ])
}

fn strong_scaling(
    dim: usize,
    members: usize,
    config: &EnsfConfig,
    rank_counts: &[usize],
    reps: usize,
) -> Json {
    println!("strong scaling: P = {members}, d = {dim}, {} SDE steps", config.n_steps);
    println!(
        "{:>6} {:>12} {:>9} {:>11} {:>12}",
        "ranks", "analysis", "speedup", "comm", ""
    );
    let mut t1 = 0.0f64;
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let m = median_measurement(dim, members, config, ranks, reps);
        if ranks == rank_counts[0] {
            t1 = m.analysis_secs;
        }
        let speedup = t1 / m.analysis_secs;
        println!(
            "{:>6} {:>11.4}s {:>8.2}x {:>10.4}s {}",
            ranks,
            m.analysis_secs,
            speedup,
            m.modeled_comm_secs,
            bar(speedup / rank_counts.last().copied().unwrap_or(1) as f64, 24),
        );
        rows.push(measurement_json(&m, speedup));
    }
    Json::Arr(rows)
}

fn weak_scaling(
    dim_per_rank: usize,
    members: usize,
    config: &EnsfConfig,
    rank_counts: &[usize],
    reps: usize,
) -> Json {
    println!("\nweak scaling: P = {members}, d = {dim_per_rank} per rank");
    println!("{:>6} {:>9} {:>12} {:>11} {:>11}", "ranks", "dim", "analysis", "comm", "eff");
    let mut t1 = 0.0f64;
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let m = median_measurement(dim_per_rank * ranks, members, config, ranks, reps);
        if ranks == rank_counts[0] {
            t1 = m.analysis_secs;
        }
        // Weak-scaling efficiency: flat wall time is 1.0.
        let eff = t1 / m.analysis_secs;
        println!(
            "{:>6} {:>9} {:>11.4}s {:>10.4}s {:>10.2}",
            ranks, m.dim, m.analysis_secs, m.modeled_comm_secs, eff
        );
        rows.push(measurement_json(&m, eff));
    }
    Json::Arr(rows)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    header("scaling_suite", "Particle-sharded distributed EnSF analysis scaling study");
    println!("sequential per-rank timing; the one gather priced by the α–β model\n");

    let (dim, members, n_steps, dim_per_rank, reps): (usize, usize, usize, usize, usize) =
        if quick { (512, 8, 5, 256, 1) } else { (8192, 20, 100, 1024, 3) };
    let rank_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8, 16] };
    let config = EnsfConfig { n_steps, seed: 9, ..Default::default() };

    let strong = strong_scaling(dim, members, &config, rank_counts, reps);
    let weak = weak_scaling(dim_per_rank, members, &config, rank_counts, reps);

    println!("\nthe decomposition is bitwise rank-count invariant, so every row");
    println!("computes the same analysis (tests/dist_determinism.rs proves it).");

    let payload = Json::obj(vec![
        ("id", Json::from("scaling_suite")),
        ("quick", Json::Bool(quick)),
        ("reps", Json::from(reps as u64)),
        (
            "results",
            Json::obj(vec![
                ("strong", strong),
                ("weak", weak),
                ("n_steps", Json::from(n_steps as u64)),
            ]),
        ),
    ]);
    telemetry::report::write_json(std::path::Path::new(&out), &payload)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("scaling report written to {out}");
}
