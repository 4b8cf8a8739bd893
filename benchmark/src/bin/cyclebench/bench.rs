//! The two passes of a workload: timed reps of the program's driver with
//! tracing off (end-to-end metrics and output checks), and the traced
//! replica plus probes (per-layer metrics).

use crate::adapter::{
    self, bitwise_eq, chrome_trace, CommCounts, Json, Prepared, Shape, TraceEvent, Workload,
    ENS_SIZE, N_STEPS, OBS_SIGMA,
};
use crate::stat::{median, tail_percentile};
use crate::trace::{per_cycle, per_cycle_self, Span};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Complex 2-D transforms per RK4 step: 4 stages x 2 levels x (4 inverse +
/// 1 forward), read from `sqg::dynamics::tendency`.
const FFTS_PER_STEP: f64 = 40.0;

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// How a per-layer value was obtained: `traced` (a span of the replica),
    /// `probe` (a timed loop on a public function), `computed` (a probe times
    /// a count read from the code) or `count`. Empty for end-to-end metrics.
    pub how: String,
}

/// Value of the metric called `name`, if it was reported.
pub fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        how: String::new(),
    }
}

/// A per-layer metric labelled with how it was obtained.
pub fn layer(how: &str, name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        how: how.to_string(),
        ..metric(name, value, unit)
    }
}

/// The untraced pass of one workload.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Repetitions of the driver that were run (`R`).
    pub reps: usize,
    /// Cycles attempted over all reps.
    pub attempted: u64,
    /// Cycles of reps that errored or failed an output check.
    pub failed: u64,
    /// One line per failed rep.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-cycle time of each clean rep: the samples behind `cycle_s`.
    pub rep_cycle_s: Vec<f64>,
    /// Seconds of each set-up: the samples behind `setup_s`.
    pub setup_samples: Vec<f64>,
    /// `final_mean` of the first clean rep.
    pub final_mean: Vec<f64>,
    /// Collective counts of the first clean rep (sharded workloads).
    pub comm: Option<CommCounts>,
    /// FFT plan-cache misses during the reps; a miss means set-up leaked
    /// into the timed region.
    pub plan_cache_misses: u64,
}

/// Output checks on one rep; `first` is the first clean rep's `final_mean`.
fn check_rep(rep: &adapter::Rep, first: Option<&[f64]>) -> Result<(), String> {
    for (cycle, &e) in rep.rmse.iter().enumerate() {
        if !e.is_finite() {
            return Err(format!("cycle {} RMSE is not finite", cycle + 1));
        }
        if cycle >= 1 && e > 3.0 * OBS_SIGMA {
            return Err(format!("cycle {} RMSE {e} exceeds 3 obs_sigma", cycle + 1));
        }
    }
    if let Some(first) = first {
        if !bitwise_eq(&rep.final_mean, first) {
            return Err("final_mean differs bitwise from the first rep's".to_string());
        }
    }
    if let Some(c) = rep.comm {
        if c.attempts != c.collectives {
            return Err(format!(
                "{} collective retries on a clean network",
                c.attempts - c.collectives
            ));
        }
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sets the workload up `SETUP_SAMPLES` times, then repeats the program's
/// driver in a closed loop until another rep would overrun `seconds`.
pub fn measure(
    w: Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    nature_cycles: usize,
) -> Result<(Prepared, Measured), String> {
    // Restart the kernel's high-water mark, so that in a `run` a workload's
    // `peak_rss_mb` is its own peak (on top of whatever heap the allocator
    // kept from the workloads before it), not the largest so far. Best
    // effort: where the kernel refuses, the mark stays cumulative.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut setup_samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut prepared = None;
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        prepared = Some(adapter::setup(w, shape, seed, nature_cycles)?);
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    // INVARIANT: SETUP_SAMPLES > 0, so the loop stored a value.
    let prepared = prepared.expect("at least one set-up ran");

    let misses_before = adapter::plan_cache_misses();
    let n = w.cycles;
    let mut walls = Vec::new();
    let mut failures = Vec::new();
    let mut first: Option<adapter::Rep> = None;
    let mut reps = 0;
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let outcome = adapter::run_rep(&prepared);
        let spent = t0.elapsed().as_secs_f64();
        reps += 1;
        match outcome.and_then(|rep| {
            check_rep(&rep, first.as_ref().map(|f| f.final_mean.as_slice())).map(|()| rep)
        }) {
            Ok(rep) => {
                walls.push(rep.wall_s);
                first.get_or_insert(rep);
            }
            Err(why) => failures.push(format!("rep {reps}: {why}")),
        }
        if started.elapsed().as_secs_f64() + spent > seconds {
            break;
        }
    }
    let plan_cache_misses = adapter::plan_cache_misses() - misses_before;
    let first = first.ok_or_else(|| {
        format!(
            "no rep of {} passed its checks: {}",
            w.name,
            failures.join("; ")
        )
    })?;

    let rep_cycle_s: Vec<f64> = walls.iter().map(|wall| wall / n as f64).collect();
    let attempted = (reps * n) as u64;
    let failed = (failures.len() * n) as u64;
    let tail = &first.rmse[n / 2..];
    let spread_skill_ln = first.spread[n / 2..]
        .iter()
        .zip(tail)
        .map(|(s, e)| (s / e).ln().abs())
        .sum::<f64>()
        / tail.len() as f64;

    let mut metrics = Vec::new();
    // More rank threads than cores time-slice: the counts stay exact, the
    // wall clock says nothing about the program.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if w.ranks <= cores {
        metrics.push(metric("cycle_s", median(&rep_cycle_s), "s"));
        metrics.push(metric(
            "cycles_per_s",
            (walls.len() * n) as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ));
    }
    metrics.push(metric("steady_rmse", first.steady_rmse, "state"));
    metrics.push(metric("spread_skill_ln", spread_skill_ln, "ln"));
    metrics.push(metric(
        "failed_share",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    metrics.push(metric("setup_s", median(&setup_samples), "s"));
    if let Some(mb) = peak_rss_mb() {
        metrics.push(metric("peak_rss_mb", mb, "MiB"));
    }

    let measured = Measured {
        workload: w,
        reps,
        attempted,
        failed,
        failures,
        metrics,
        rep_cycle_s,
        setup_samples,
        comm: first.comm,
        final_mean: first.final_mean,
        plan_cache_misses,
    };
    Ok((prepared, measured))
}

/// The traced pass of one workload.
pub struct Layers {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Cycles the replica drove.
    pub cycles: usize,
    /// Failed checks (replica not bitwise the driver, budget not closed).
    pub failures: Vec<String>,
    /// Chrome trace-event document of the replica's spans.
    pub chrome: Json,
}

/// Per-cycle maximum over the lanes: ranks proceed in lockstep between
/// collectives, so the slowest rank sets a cycle's time.
fn max_over_lanes(per_lane: &[Vec<f64>]) -> Vec<f64> {
    let cycles = per_lane[0].len();
    (0..cycles)
        .map(|c| per_lane.iter().map(|lane| lane[c]).fold(0.0, f64::max))
        .collect()
}

fn chrome_events(lanes: &[Vec<Span>]) -> Json {
    let events: Vec<TraceEvent> = lanes
        .iter()
        .flatten()
        .map(|s| TraceEvent {
            name: s.name.to_string(),
            cat: match s.name {
                "cycle" => "cycle",
                "gather" => "comm",
                _ => "compute",
            }
            .to_string(),
            pid: 1,
            tid: s.lane as u32,
            ts_us: s.start * 1e6,
            dur_us: s.dur() * 1e6,
            args: vec![
                ("cycle".to_string(), Json::from(s.cycle)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, Json::from),
                ),
            ],
        })
        .collect();
    chrome_trace(&events)
}

/// Drives the traced replica and the probes, and derives the per-layer
/// metrics. `measured` is the untraced pass of the same process: its
/// `final_mean` pins the replica to the driver's computation and its
/// `cycle_s` is the base of the tracing overhead.
pub fn trace_pass(p: &Prepared, measured: &Measured) -> Result<Layers, String> {
    let w = p.workload;
    let cycles = w.trace_cycles;
    let traced = adapter::trace_rep(p, cycles)?;
    let mut failures = Vec::new();
    for (lane, mean) in traced.mean_at_n.iter().enumerate() {
        if !bitwise_eq(mean, &measured.final_mean) {
            failures.push(format!(
                "traced replica (lane {lane}) differs bitwise from the driver after cycle {}",
                w.cycles
            ));
        }
    }

    let lanes = &traced.lanes;
    let series = |name: &str| -> Vec<Vec<f64>> {
        lanes.iter().map(|l| per_cycle(l, name, cycles)).collect()
    };
    let total = |name: &str| -> f64 { series(name).iter().flatten().sum() };
    let p50 = |name: &str| median(&max_over_lanes(&series(name)));

    let cycle = max_over_lanes(&series("cycle"));
    let forecast = series("forecast");
    // The sharded analysis is the tile kernel plus the block gather, which
    // the driver's own telemetry also books as one analysis phase.
    let analysis: Vec<f64> = ["analysis", "dist_analyze", "gather"]
        .iter()
        .map(|name| max_over_lanes(&series(name)))
        .fold(vec![0.0; cycles], |acc, v| {
            acc.iter().zip(v).map(|(a, b)| a + b).collect()
        });
    let loop_self: Vec<Vec<f64>> = lanes
        .iter()
        .map(|l| per_cycle_self(l, "cycle", cycles))
        .collect();

    let cycle_p50 = median(&cycle);
    let forecast_p50 = median(&max_over_lanes(&forecast));
    let analysis_p50 = median(&analysis);
    let cycle_total = total("cycle");
    let analysis_total = total("analysis") + total("dist_analyze") + total("gather");
    let other_total = total("verify") + total("feedback") + loop_self.iter().flatten().sum::<f64>();

    let mut m = vec![layer("traced", "core.cycle_s_p50", cycle_p50, "s")];
    if let Some((p, v)) = tail_percentile(&cycle) {
        m.push(layer("traced", &format!("core.cycle_s_p{p}"), v, "s"));
    }
    let forecast_total = total("forecast");
    m.extend([
        layer("traced", "core.forecast_s_p50", forecast_p50, "s"),
        layer("traced", "core.analysis_s_p50", analysis_p50, "s"),
        layer("traced", "core.verify_s_p50", p50("verify"), "s"),
        layer(
            "traced",
            "core.loop_self_s_p50",
            median(&max_over_lanes(&loop_self)),
            "s",
        ),
        layer(
            "traced",
            "core.forecast_share",
            forecast_total / cycle_total,
            "ratio",
        ),
        layer(
            "traced",
            "core.analysis_share",
            analysis_total / cycle_total,
            "ratio",
        ),
        layer(
            "traced",
            "core.other_share",
            other_total / cycle_total,
            "ratio",
        ),
    ]);
    let shares = (forecast_total + analysis_total + other_total) / cycle_total;
    if (shares - 1.0).abs() > 0.05 {
        failures.push(format!("layer shares sum to {shares}, not 1 within 0.05"));
    }
    if let Some(untraced) = value_of(&measured.metrics, "cycle_s") {
        let traced_mean = cycle.iter().sum::<f64>() / cycles as f64;
        m.push(layer(
            "traced",
            "core.driver_gap_share",
            (untraced - cycle_p50) / untraced,
            "ratio",
        ));
        m.push(layer(
            "traced",
            "trace.overhead_share",
            (traced_mean - untraced) / untraced,
            "ratio",
        ));
    }

    let probes = adapter::probes(p);
    let probe = |name: &str| {
        probes
            .iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    let steps = (ENS_SIZE * p.steps_per_window()) as f64;
    let (rk4, fft2) = (probe("sqg.rk4_step_s_p50"), probe("fft.fft2_s_p50"));
    m.extend(
        probes
            .iter()
            .map(|x| layer("probe", x.name, x.value, x.unit)),
    );
    if measured.plan_cache_misses != 0 {
        failures.push(format!(
            "{} FFT plan-cache misses inside the timed reps",
            measured.plan_cache_misses
        ));
    }
    // Two P x P x d GEMMs per reverse-SDE step (Gram matrix, recombination).
    let gemm_flops = (2 * 2 * ENS_SIZE * ENS_SIZE * p.dim() * N_STEPS) as f64;
    let mean_spread: Vec<f64> = max_over_lanes(&series("mean"))
        .iter()
        .zip(max_over_lanes(&series("spread")))
        .map(|(a, b)| a + b)
        .collect();
    m.extend([
        layer("count", "sqg.steps_per_cycle", steps, "count"),
        layer(
            "computed",
            "sqg.step_share_of_forecast",
            steps * rk4 / forecast_p50,
            "ratio",
        ),
        layer(
            "computed",
            "fft.share_of_step",
            FFTS_PER_STEP * fft2 / rk4,
            "ratio",
        ),
        layer(
            "count",
            "fft.plan_cache_misses",
            measured.plan_cache_misses as f64,
            "count",
        ),
        layer("traced", "ensf.step_s", analysis_p50 / N_STEPS as f64, "s"),
        layer(
            "computed",
            "ensf.gflops_achieved",
            gemm_flops / analysis_p50 / 1e9,
            "Gflop/s",
        ),
        layer(
            "traced",
            "stats.mean_spread_s_p50",
            median(&mean_spread),
            "s",
        ),
    ]);

    // The sharded layers; on the serial workloads they are not on the path
    // and every one of these is truthfully zero.
    let skew = match forecast.as_slice() {
        [a, b] => median(
            &a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .collect::<Vec<_>>(),
        ),
        _ => 0.0,
    };
    let comm = measured.comm.unwrap_or_default();
    let n = w.cycles as f64;
    m.extend([
        layer("traced", "dist.analyze_s_p50", p50("dist_analyze"), "s"),
        layer("traced", "dist.gather_s_p50", p50("gather"), "s"),
        layer("traced", "dist.forecast_skew_s_p50", skew, "s"),
        layer(
            "computed",
            "dist.redundant_forecast_cpu_s",
            (w.ranks - 1) as f64 * forecast_p50,
            "s",
        ),
        layer(
            "count",
            "dist.collectives_per_cycle",
            comm.collectives as f64 / n,
            "count",
        ),
        layer("count", "dist.bytes_per_cycle", comm.bytes as f64 / n, "B"),
        layer(
            "count",
            "dist.modeled_comm_s_per_cycle",
            comm.modeled_secs / n,
            "s",
        ),
        layer(
            "count",
            "hpc.collective_retries",
            (comm.attempts - comm.collectives) as f64,
            "count",
        ),
    ]);

    Ok(Layers {
        metrics: m,
        cycles,
        failures,
        chrome: chrome_events(lanes),
    })
}
