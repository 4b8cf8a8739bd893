//! The only file that names the repository's crates.
//!
//! Everything the harness knows about the program lives here: how a
//! workload's configuration is built, how the program's own cycling driver
//! is called, how the same cycle is re-driven through the layers' public
//! functions for the traced pass, and which public functions the probes
//! time. The rest of the harness sees `setup / run_rep / trace_rep / probes`
//! and plain data, so an API refactor in the program is a one-file change
//! here.

use crate::stat::median;
use crate::trace::{Span, Tracer};
use da_core::osse::{initial_ensemble, nature_run, run_experiment, NatureRun, OsseConfig};
use da_core::{AnalysisScheme, EnsfScheme, ForecastModel, SqgForecast};
use dist::{
    dist_analyze, dist_obs_for, measure_analysis, run_dist_experiment, CommSpec, CommStats,
    DistCycleConfig, ShardPlan,
};
use ensf::EnsfConfig;
use fft::{plan_cache, Complex, Direction, Fft2Scratch};
use hpc::mpi::{run_world, Comm};
use linalg::gemm::{matmul_abt_into, matmul_slices_into};
use sqg::{SqgModel, SqgParams, SqgState};
use stats::gaussian::fill_standard_normal;
use stats::metrics::rmse;
use stats::rng::seeded;
use std::hint::black_box;
use std::time::Instant;

pub use telemetry::json::{parse as parse_json, Json};
pub use telemetry::{chrome_trace, TraceEvent};

/// Ensemble size of every workload (the paper's 20 members).
pub const ENS_SIZE: usize = 20;
/// Observation error standard deviation of every workload.
pub const OBS_SIGMA: f64 = 0.005;
/// Reverse-SDE steps per analysis.
pub const N_STEPS: usize = 100;
/// One model step (`dt` = 900 s): the rapid cadence's window.
const RAPID_WINDOW_HOURS: f64 = 0.25;
const IC_SIGMA: f64 = 0.01;
const TILE: usize = 64;

/// One cell of the {serial, 2 ranks} x {forecast-bound, analysis-bound} grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// 1 = the serial driver, 2 = the sharded driver on two rank threads.
    pub ranks: usize,
    /// Hours between observations: 12 (48 model steps) or 0.25 (one step).
    pub window_hours: f64,
    /// Cycles per repetition of the driver (`N`).
    pub cycles: usize,
    /// Cycles of the traced replica.
    pub trace_cycles: usize,
}

/// The workload grid. Paper-cadence reps stay at 3 cycles because under the
/// default spread relaxation the ensemble spread grows about fourfold per
/// 12 h cycle; longer reps would time a degenerate ensemble.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_sde",
        why: "serial driver, 12 h window: the forecast (sqg+fft) is ~96% of the cycle, so forecast work shows and analysis work does not",
        ranks: 1,
        window_hours: 12.0,
        cycles: 3,
        trace_cycles: 3,
    },
    Workload {
        name: "rapid_sde",
        why: "serial driver, observations every model step: the EnSF analysis (ensf+linalg+stats) is ~60% and per-call forecast set-up counts",
        ranks: 1,
        window_hours: RAPID_WINDOW_HOURS,
        cycles: 40,
        trace_cycles: 100,
    },
    Workload {
        name: "paper_dist2",
        why: "sharded driver on 2 ranks, 12 h window: the forecast replicated on both ranks is >90%, so member-sharded forecasts show",
        ranks: 2,
        window_hours: 12.0,
        cycles: 3,
        trace_cycles: 3,
    },
    Workload {
        name: "rapid_dist2",
        why: "sharded driver on 2 ranks, observations every step: the tile kernel and 101 allgathers per cycle dominate",
        ranks: 2,
        window_hours: RAPID_WINDOW_HOURS,
        cycles: 32,
        trace_cycles: 100,
    },
];

/// Grid size and spin-up. Reported numbers always use [`Shape::PAPER`].
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Grid points per side (`d = 2 n²`).
    pub n: usize,
    /// Nature-run spin-up steps.
    pub spinup_steps: usize,
}

impl Shape {
    /// 64² x 2 SQG, 500-step spin-up.
    pub const PAPER: Shape = Shape {
        n: 64,
        spinup_steps: 500,
    };
    /// Seconds-long smoke shape for the harness's own tests.
    #[cfg(test)]
    pub const TINY: Shape = Shape {
        n: 16,
        spinup_steps: 40,
    };
}

/// A workload's generated inputs: all the program ever sees of the seed.
pub struct Prepared {
    /// The workload these inputs belong to.
    pub workload: Workload,
    cfg: DistCycleConfig,
    nature: NatureRun,
}

impl Prepared {
    /// State dimension `d`.
    pub fn dim(&self) -> usize {
        self.cfg.osse.params.state_dim()
    }

    /// Model steps one member takes per cycle.
    pub fn steps_per_window(&self) -> usize {
        SqgModel::new(self.cfg.osse.params.clone()).steps_per_hours(self.workload.window_hours)
    }
}

/// Collective accounting of one sharded rep (rank 0's; the ranks agree).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommCounts {
    /// Collectives executed.
    pub collectives: u64,
    /// Attempts including retries.
    pub attempts: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Alpha-beta modelled time of the collectives, seconds.
    pub modeled_secs: f64,
}

impl From<CommStats> for CommCounts {
    fn from(s: CommStats) -> Self {
        CommCounts {
            collectives: s.collectives,
            attempts: s.attempts,
            bytes: s.bytes,
            modeled_secs: s.modeled_comm_secs,
        }
    }
}

/// What one timed call of the program's driver returned.
pub struct Rep {
    /// Wall time of the driver call, seconds.
    pub wall_s: f64,
    /// Per-cycle analysis RMSE.
    pub rmse: Vec<f64>,
    /// Per-cycle analysis spread.
    pub spread: Vec<f64>,
    /// `CycleSeries::steady_rmse()`.
    pub steady_rmse: f64,
    /// Analysis mean after the last cycle.
    pub final_mean: Vec<f64>,
    /// Collective counts (sharded workloads only).
    pub comm: Option<CommCounts>,
}

/// Builds a workload's inputs from the seed — nature run with spin-up,
/// configurations — and makes one 1-cycle warm-up call of the driver so the
/// FFT plan cache and lazy tables are filled before anything is timed. The
/// warm-up cycle uses a one-step window on every workload: it runs the same
/// code as a 12 h one, and 47 more steps per member would warm nothing more.
/// `nature_cycles` is how many cycles of truth and observations to generate
/// (at least the workload's `N`; the traced replica may need more).
pub fn setup(
    w: Workload,
    shape: Shape,
    seed: u64,
    nature_cycles: usize,
) -> Result<Prepared, String> {
    let mut osse = OsseConfig {
        params: SqgParams {
            n: shape.n,
            ..Default::default()
        },
        cycles: nature_cycles.max(w.cycles),
        obs_interval_hours: w.window_hours,
        obs_sigma: OBS_SIGMA,
        ens_size: ENS_SIZE,
        ic_sigma: IC_SIGMA,
        spinup_steps: shape.spinup_steps,
        seed,
        ..Default::default()
    };
    let nature = nature_run(&osse);
    osse.cycles = w.cycles;
    let cfg = DistCycleConfig {
        osse,
        ensf: EnsfConfig {
            n_steps: N_STEPS,
            seed,
            ..Default::default()
        },
        tile: TILE,
        comm: Some(CommSpec::clean(w.ranks)),
    };
    let mut warm = Prepared {
        workload: w,
        cfg,
        nature,
    };
    warm.cfg.osse.cycles = 1;
    warm.cfg.osse.obs_interval_hours = RAPID_WINDOW_HOURS;
    run_rep(&warm)?;
    warm.cfg.osse.cycles = w.cycles;
    warm.cfg.osse.obs_interval_hours = w.window_hours;
    Ok(warm)
}

/// One timed call of the program's own cycling driver over the workload's
/// `N` cycles. Model and scheme are built fresh, outside the timed region,
/// so every rep computes the same bits.
pub fn run_rep(p: &Prepared) -> Result<Rep, String> {
    let osse = &p.cfg.osse;
    if p.workload.ranks == 1 {
        let mut model = SqgForecast::perfect(osse.params.clone());
        let mut scheme = EnsfScheme::new(p.cfg.ensf.clone(), p.dim(), osse.obs_sigma);
        let t0 = Instant::now();
        let series = run_experiment(p.workload.name, osse, &p.nature, &mut model, &mut scheme);
        let wall_s = t0.elapsed().as_secs_f64();
        let series = series.map_err(|e| format!("run_experiment failed: {e}"))?;
        Ok(Rep {
            wall_s,
            steady_rmse: series.steady_rmse(),
            rmse: series.rmse,
            spread: series.spread,
            final_mean: series.final_mean,
            comm: None,
        })
    } else {
        let t0 = Instant::now();
        let results = run_world(p.workload.ranks, |c| {
            run_dist_experiment(c, &p.cfg, &p.nature)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut results = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("run_dist_experiment failed: {e}"))?;
        let first = results.remove(0);
        for (r, other) in results.iter().enumerate() {
            if !bitwise_eq_rows(&other.cycle_means, &first.cycle_means)
                || !bitwise_eq(other.ensemble.as_slice(), first.ensemble.as_slice())
            {
                return Err(format!(
                    "rank {} disagrees with rank 0 on the analysis bits",
                    r + 1
                ));
            }
        }
        Ok(Rep {
            wall_s,
            steady_rmse: first.series.steady_rmse(),
            rmse: first.series.rmse,
            spread: first.series.spread,
            final_mean: first.series.final_mean,
            comm: Some(first.stats.into()),
        })
    }
}

/// Bitwise equality of two float slices (NaN-safe, sign-of-zero exact).
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bitwise_eq_rows(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bitwise_eq(x, y))
}

/// The traced replica's record.
pub struct Traced {
    /// Spans per rank lane.
    pub lanes: Vec<Vec<Span>>,
    /// Ensemble mean after the workload's `N`-th cycle, per lane: must equal
    /// the driver's `final_mean` bitwise, or the trace measured something
    /// else than the driver computes.
    pub mean_at_n: Vec<Vec<f64>>,
}

/// Re-drives `cycles` cycles through the layers' public calls, one span per
/// call. The replica calls `forecast_ensemble`, never a member loop of its
/// own, so a batched or parallel override is what gets traced.
pub fn trace_rep(p: &Prepared, cycles: usize) -> Result<Traced, String> {
    if p.nature.observations.len() < cycles {
        return Err(format!(
            "nature run has {} cycles, trace needs {cycles}",
            p.nature.observations.len()
        ));
    }
    let epoch = Instant::now();
    let lanes = if p.workload.ranks == 1 {
        vec![Ok(trace_serial(p, cycles, Tracer::new(0, epoch)))]
    } else {
        run_world(p.workload.ranks, |c| {
            trace_rank(p, cycles, c, Tracer::new(c.rank(), epoch))
        })
    };
    let mut out = Traced {
        lanes: Vec::new(),
        mean_at_n: Vec::new(),
    };
    for lane in lanes {
        let (spans, mean) = lane?;
        out.lanes.push(spans);
        out.mean_at_n.push(mean);
    }
    Ok(out)
}

/// `cycle` ⊃ `forecast` · `analysis` · `verify` (⊃ `mean` · `rmse` ·
/// `spread`) · `feedback`: the loop of `run_experiment`.
fn trace_serial(p: &Prepared, cycles: usize, mut tr: Tracer) -> (Vec<Span>, Vec<f64>) {
    let osse = &p.cfg.osse;
    let mut model = SqgForecast::perfect(osse.params.clone());
    let mut scheme = EnsfScheme::new(p.cfg.ensf.clone(), p.dim(), osse.obs_sigma);
    let mut ensemble = initial_ensemble(osse, &p.nature.truth[0]);
    let mut prev_mean = ensemble.mean();
    let mut mean_at_n = Vec::new();
    for cycle in 0..cycles {
        tr.set_cycle(cycle);
        tr.span("cycle", |tr| {
            tr.span("forecast", |_| {
                model.forecast_ensemble(&mut ensemble, osse.obs_interval_hours)
            });
            ensemble = tr.span("analysis", |_| {
                scheme.analyze(&ensemble, &p.nature.observations[cycle])
            });
            let mean = tr.span("verify", |tr| {
                let mean = tr.span("mean", |_| ensemble.mean());
                tr.span("rmse", |_| {
                    black_box(rmse(&mean, &p.nature.truth[cycle + 1]))
                });
                tr.span("spread", |_| black_box(ensemble.spread()));
                mean
            });
            tr.span("feedback", |_| model.assimilate_feedback(&prev_mean, &mean));
            prev_mean = mean;
        });
        if cycle + 1 == p.workload.cycles {
            mean_at_n = prev_mean.clone();
        }
    }
    (tr.into_spans(), mean_at_n)
}

/// Per rank: `cycle` ⊃ `forecast` · `dist_analyze` · `gather` · `verify`:
/// the loop of `run_dist_experiment`.
fn trace_rank(
    p: &Prepared,
    cycles: usize,
    comm: &Comm,
    mut tr: Tracer,
) -> Result<(Vec<Span>, Vec<f64>), String> {
    let osse = &p.cfg.osse;
    let dim = p.dim();
    let plan = ShardPlan::new(dim, p.cfg.tile, comm.size());
    let obs = dist_obs_for(osse);
    let mut model = SqgForecast::perfect(osse.params.clone());
    let mut ensemble = initial_ensemble(osse, &p.nature.truth[0]);
    let mut stats = CommStats::default();
    let mut mean_at_n = Vec::new();
    for cycle in 0..cycles {
        tr.set_cycle(cycle);
        let mean = tr.span("cycle", |tr| {
            tr.span("forecast", |_| {
                model.forecast_ensemble(&mut ensemble, osse.obs_interval_hours)
            });
            let local = tr.span("dist_analyze", |_| {
                dist_analyze(
                    comm,
                    &plan,
                    &p.cfg.ensf,
                    cycle as u64,
                    &ensemble,
                    &p.nature.observations[cycle],
                    &obs,
                    p.cfg.comm.as_ref(),
                    &mut stats,
                )
            });
            let local = local.map_err(|e| format!("dist_analyze failed: {e}"))?;
            tr.span("gather", |_| {
                let blocks = comm
                    .try_allgather(&local)
                    .map_err(|e| format!("gather failed: {e}"))?;
                for (r, block) in blocks.iter().enumerate() {
                    let (lo, hi) = plan.rank_range(r);
                    let len = hi - lo;
                    for m in 0..ensemble.members() {
                        ensemble.member_mut(m)[lo..hi]
                            .copy_from_slice(&block[m * len..(m + 1) * len]);
                    }
                }
                Ok::<(), String>(())
            })?;
            Ok::<Vec<f64>, String>(tr.span("verify", |tr| {
                let mean = tr.span("mean", |_| ensemble.mean());
                tr.span("rmse", |_| {
                    black_box(rmse(&mean, &p.nature.truth[cycle + 1]))
                });
                tr.span("spread", |_| black_box(ensemble.spread()));
                mean
            }))
        })?;
        if cycle + 1 == p.workload.cycles {
            mean_at_n = mean;
        }
    }
    Ok((tr.into_spans(), mean_at_n))
}

/// One probe result: a short timed loop on a layer's public function at the
/// workload's shape, for quantities that cannot be seen from outside a call.
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median seconds per call of `f` over `samples` timed calls, after one
/// untimed call.
fn time_calls(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Runs every probe at the prepared workload's shape.
pub fn probes(p: &Prepared) -> Vec<Probe> {
    let params = p.cfg.osse.params.clone();
    let (n, dim, ens) = (params.n, p.dim(), ENS_SIZE);
    let truth0 = &p.nature.truth[0];
    let mut out = Vec::new();
    let mut push = |name, value, unit| out.push(Probe { name, value, unit });

    let mut model = SqgModel::new(params);
    let mut spectral = SqgState::from_state_vector(n, truth0);
    push(
        "sqg.rk4_step_s_p50",
        time_calls(60, || model.step_spectral(&mut spectral, 1)),
        "s",
    );
    let mut state = truth0.clone();
    push(
        "sqg.convert_s_p50",
        time_calls(60, || {
            state = black_box(SqgState::from_state_vector(n, &state).to_state_vector())
        }),
        "s",
    );
    let steps = model.steps_per_hours(p.workload.window_hours);
    let mut state = truth0.clone();
    push(
        "sqg.member_forecast_s_p50",
        time_calls(5, || model.forecast(&mut state, steps)),
        "s",
    );

    // One transform of a pristine field per call: repeating the unnormalised
    // transform in place would overflow to infinity within a hundred calls.
    let plan = plan_cache::fft2(n, n, Direction::Forward);
    let field: Vec<Complex> = truth0[..n * n]
        .iter()
        .map(|&v| Complex::new(v, 0.0))
        .collect();
    let mut work = field.clone();
    let mut scratch = Fft2Scratch::new();
    push(
        "fft.fft2_s_p50",
        time_calls(200, || {
            work.copy_from_slice(&field);
            plan.process_with_scratch(black_box(&mut work), &mut scratch);
        }),
        "s",
    );

    // The two GEMM shapes of one batched score evaluation: the P x P Gram
    // matrix over d, and the P x P weights applied to the P x d ensemble.
    let mut rng = seeded(p.cfg.osse.seed);
    let mut a = vec![0.0; ens * dim];
    let mut b = vec![0.0; ens * dim];
    fill_standard_normal(&mut rng, &mut a);
    fill_standard_normal(&mut rng, &mut b);
    let mut gram = vec![0.0; ens * ens];
    let flops = (2 * ens * ens * dim) as f64;
    let secs = time_calls(200, || {
        matmul_abt_into(&a, &b, ens, ens, dim, black_box(&mut gram))
    });
    push("linalg.abt_gflops", flops / secs / 1e9, "Gflop/s");
    let mut applied = vec![0.0; ens * dim];
    let secs = time_calls(200, || {
        matmul_slices_into(&gram, &b, ens, ens, dim, black_box(&mut applied))
    });
    push("linalg.slices_gflops", flops / secs / 1e9, "Gflop/s");

    let secs = time_calls(50, || fill_standard_normal(&mut rng, black_box(&mut a)));
    push("stats.normal_fill_ns", secs * 1e9 / a.len() as f64, "ns");

    let tile_1r = measure_analysis(dim, TILE, ens, &p.cfg.ensf, 1, p.cfg.osse.seed);
    push("dist.tile_kernel_1r_s", tile_1r.analysis_secs, "s");

    // The two payloads a 2-rank sharded analysis exchanges: per SDE step each
    // rank's tile partials (P² per tile), and once per cycle its analysis
    // block (P x d/2).
    let tiles_per_rank = dim.div_ceil(TILE).div_ceil(2);
    for (name, len) in [
        ("hpc.allgather_step_s_p50", tiles_per_rank * ens * ens),
        ("hpc.allgather_block_s_p50", ens * dim / 2),
    ] {
        let per_rank = run_world(2, |c| {
            let payload = vec![c.rank() as f64; len];
            // INVARIANT: no rank of this two-thread world is ever killed.
            time_calls(100, || {
                drop(black_box(
                    c.try_allgather_concat(&payload).expect("clean world"),
                ))
            })
        });
        push(name, per_rank.into_iter().fold(0.0, f64::max), "s");
    }
    out
}

/// Cumulative FFT plan-cache misses of this process.
pub fn plan_cache_misses() -> u64 {
    plan_cache::stats().1
}

/// SIMD level the dispatched kernels use in this process.
pub fn simd_level() -> String {
    format!("{:?}", linalg::simd::level())
}
