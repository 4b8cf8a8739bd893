//! Cross-rank trace timelines for the distributed analysis.
//!
//! A traced variant of the [`crate::bench`] sequential driver: it runs the
//! same sharded-analysis protocol (same kernels, same per-step allgather,
//! same α–β comm pricing) over one or more cycles, but instead of folding
//! the measurements into scalars it maintains a **simulated per-rank
//! clock** and emits one [`telemetry::TraceEvent`] per phase — per-rank
//! `forecast` / `tile_partials` / `apply_step` / `finish` compute boxes on
//! each rank's lane, plus one `allgather` / `block_gather` comm box per
//! collective on a dedicated comm lane (tid = `ranks`), carrying the byte
//! count in its `args`.
//!
//! Because the comm durations come from the same pure α–β model the
//! scaling suite uses, the per-cycle comm totals in [`CycleBreakdown`]
//! reconcile **exactly** with `BENCH_scaling.json`'s `modeled_comm_secs`
//! for the same `(dim, tile, members, n_steps, ranks)` shape — the
//! `trace_report` bin asserts this.

use crate::analysis::{CommSpec, ShardKernel};
use crate::shard::ShardPlan;
use da_core::{ForecastModel, SqgForecast};
use ensf::{EnsfConfig, ObsSpec, TimeGrid};
use hpc::{collective_with_retry, Collective};
use sqg::SqgParams;
use stats::gaussian::fill_standard_normal;
use stats::rng::member_rng;
use stats::Ensemble;
use std::time::Instant;
use telemetry::{Json, TraceEvent};

/// Shape of a traced distributed run.
#[derive(Debug, Clone)]
pub struct TimelineSpec {
    /// State dimension.
    pub dim: usize,
    /// Tile width of the state partition.
    pub tile: usize,
    /// Ensemble size.
    pub members: usize,
    /// Simulated rank count.
    pub ranks: usize,
    /// Assimilation cycles to trace.
    pub cycles: usize,
    /// EnSF filter settings (steps, kernel, seed, relaxation).
    pub ensf: EnsfConfig,
    /// Seed of the synthetic forecast ensemble.
    pub seed: u64,
    /// Forecast window per cycle in simulated hours; `0.0` skips the
    /// forecast phase and traces the analysis alone (the scaling suite's
    /// shape). Requires `dim == 2n²` for some grid size `n` when positive.
    pub forecast_hours: f64,
}

/// Comm-vs-compute decomposition of one traced cycle.
#[derive(Debug, Clone)]
pub struct CycleBreakdown {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Replicated forecast seconds (identical on every rank; `0.0` when
    /// the forecast phase is disabled).
    pub forecast_secs: f64,
    /// Measured analysis compute seconds per rank.
    pub compute_secs: Vec<f64>,
    /// Modeled per-step allgather seconds (zero for a single rank). This
    /// is the quantity `BENCH_scaling.json` reports as `modeled_comm_secs`.
    pub analysis_comm_secs: f64,
    /// Modeled post-analysis block-gather seconds (zero for a single
    /// rank). The scaling suite times the analysis alone, so this is kept
    /// separate from [`Self::analysis_comm_secs`].
    pub gather_comm_secs: f64,
    /// Per-step exchanges modeled during the analysis (== `n_steps`).
    pub analysis_collectives: u64,
    /// Bytes exchanged by the per-step allgathers.
    pub analysis_bytes: u64,
    /// Bytes exchanged by the block gather (`members × dim × 8`).
    pub gather_bytes: u64,
    /// End-to-end critical path of the cycle: slowest-rank compute plus
    /// every synchronization the lanes wait on.
    pub critical_path_secs: f64,
}

impl CycleBreakdown {
    /// Serializes to a JSON object (used by the `trace_report` bin).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycle", Json::from(self.cycle)),
            ("forecast_secs", Json::Num(self.forecast_secs)),
            (
                "compute_secs",
                Json::Arr(self.compute_secs.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("analysis_comm_secs", Json::Num(self.analysis_comm_secs)),
            ("gather_comm_secs", Json::Num(self.gather_comm_secs)),
            ("analysis_collectives", Json::from(self.analysis_collectives)),
            ("analysis_bytes", Json::from(self.analysis_bytes)),
            ("gather_bytes", Json::from(self.gather_bytes)),
            ("critical_path_secs", Json::Num(self.critical_path_secs)),
        ])
    }
}

/// Result of a traced run: the event stream plus per-cycle breakdowns.
#[derive(Debug, Clone)]
pub struct TimelineResult {
    /// Chrome trace events: compute boxes on lanes `0..ranks`, comm boxes
    /// on lane `ranks`.
    pub events: Vec<TraceEvent>,
    /// One breakdown per traced cycle.
    pub breakdown: Vec<CycleBreakdown>,
}

const US: f64 = 1e6;

fn compute_event(name: &str, rank: usize, start: f64, dur: f64, cycle: usize) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        cat: "compute".to_string(),
        pid: 1,
        tid: rank as u32,
        ts_us: start * US,
        dur_us: dur * US,
        args: vec![("cycle".to_string(), Json::from(cycle))],
    }
}

fn comm_event(
    name: &str,
    comm_lane: usize,
    start: f64,
    dur: f64,
    cycle: usize,
    bytes: u64,
) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        cat: "comm".to_string(),
        pid: 1,
        tid: comm_lane as u32,
        ts_us: start * US,
        dur_us: dur * US,
        args: vec![
            ("cycle".to_string(), Json::from(cycle)),
            ("bytes".to_string(), Json::from(bytes)),
        ],
    }
}

/// Runs a traced distributed experiment and returns its event stream.
///
/// The numerics are the production sharded-analysis path (the same
/// [`ShardKernel`] protocol [`crate::dist_analyze`] drives); compute boxes
/// carry *measured* per-rank seconds, comm boxes carry *modeled* α–β
/// seconds, and every collective is a synchronization point where all rank
/// clocks advance to the collective's end.
///
/// # Panics
/// Panics on invalid configuration (see [`ShardKernel::new`]) or when
/// `forecast_hours > 0` and `dim` is not `2n²` for an integer grid size.
pub fn trace_timeline(spec: &TimelineSpec) -> TimelineResult {
    let mut ensemble = Ensemble::zeros(spec.members, spec.dim);
    for m in 0..spec.members {
        let mut rng = member_rng(spec.seed, m);
        fill_standard_normal(&mut rng, ensemble.member_mut(m));
    }
    let y = vec![0.1; spec.dim];
    let obs = ObsSpec::identity(0.3);
    let plan = ShardPlan::new(spec.dim, spec.tile, spec.ranks);
    let comm = CommSpec::clean(spec.ranks);
    let comm_lane = spec.ranks;
    let times = TimeGrid::LogSpaced.points(&spec.ensf.schedule, spec.ensf.n_steps);

    let mut model = (spec.forecast_hours > 0.0).then(|| {
        let n = ((spec.dim / 2) as f64).sqrt() as usize;
        assert_eq!(2 * n * n, spec.dim, "forecast phase needs dim = 2n², got {}", spec.dim);
        SqgForecast::perfect(SqgParams { n, ..Default::default() })
    });

    let mut events = Vec::new();
    let mut breakdown = Vec::new();
    let mut clocks = vec![0.0f64; spec.ranks];

    for cycle in 0..spec.cycles {
        let cycle_start = clocks[0];

        // Replicated forecast: every rank does identical work, so one
        // measurement stamps every lane.
        let mut forecast_secs = 0.0;
        if let Some(model) = model.as_mut() {
            let t0 = Instant::now();
            model.forecast_ensemble(&mut ensemble, spec.forecast_hours);
            forecast_secs = t0.elapsed().as_secs_f64();
            for (r, clock) in clocks.iter_mut().enumerate() {
                events.push(compute_event("forecast", r, *clock, forecast_secs, cycle));
                *clock += forecast_secs;
            }
        }

        let mut kernels: Vec<ShardKernel> = (0..spec.ranks)
            .map(|r| ShardKernel::new(&plan, r, &spec.ensf, cycle as u64, &ensemble, &y, &obs))
            .collect();
        let pj = kernels[0].partials_per_tile();
        let n_tiles = plan.n_tiles();
        let step_bytes = (n_tiles * pj * 8) as u64;
        let mut full = vec![0.0; n_tiles * pj];

        let mut compute_secs = vec![0.0f64; spec.ranks];
        let mut analysis_comm_secs = 0.0;
        let mut analysis_collectives = 0u64;

        for win in times.windows(2) {
            // Phase 1: per-rank score partials (measured independently).
            let mut offset = 0;
            for (r, kernel) in kernels.iter_mut().enumerate() {
                let t0 = Instant::now();
                let partials = kernel.tile_partials(win[0]);
                let dur = t0.elapsed().as_secs_f64();
                events.push(compute_event("tile_partials", r, clocks[r], dur, cycle));
                clocks[r] += dur;
                compute_secs[r] += dur;
                full[offset..offset + partials.len()].copy_from_slice(partials);
                offset += partials.len();
            }
            // The per-step exchange: a synchronization point — every lane
            // waits for the slowest, then pays the modeled allgather.
            analysis_collectives += 1;
            let sync = clocks.iter().cloned().fold(0.0, f64::max);
            if spec.ranks > 1 {
                // INVARIANT: a clean spec cannot exhaust the retry budget.
                let r = collective_with_retry(
                    &comm.topo,
                    Collective::AllGather,
                    spec.ranks,
                    step_bytes,
                    &comm.faults,
                    &comm.policy,
                )
                .expect("clean collective cannot fail");
                events.push(comm_event("allgather", comm_lane, sync, r.time, cycle, step_bytes));
                analysis_comm_secs += r.time;
                clocks.fill(sync + r.time);
            } else {
                clocks.fill(sync);
            }
            // Phase 2: per-rank block update.
            for (r, kernel) in kernels.iter_mut().enumerate() {
                let t0 = Instant::now();
                kernel.apply_step(win[0], win[1], &full);
                let dur = t0.elapsed().as_secs_f64();
                events.push(compute_event("apply_step", r, clocks[r], dur, cycle));
                clocks[r] += dur;
                compute_secs[r] += dur;
            }
        }

        // Spread relaxation, then reassemble the analysis blocks into the
        // replicated ensemble (as the production gather does).
        for (r, kernel) in kernels.into_iter().enumerate() {
            let t0 = Instant::now();
            let block = kernel.finish();
            let dur = t0.elapsed().as_secs_f64();
            events.push(compute_event("finish", r, clocks[r], dur, cycle));
            clocks[r] += dur;
            compute_secs[r] += dur;
            let (lo, hi) = plan.rank_range(r);
            let len = hi - lo;
            for p in 0..spec.members {
                ensemble.member_mut(p)[lo..hi].copy_from_slice(&block[p * len..(p + 1) * len]);
            }
        }

        // Block gather of the full analysis ensemble.
        let gather_bytes = (spec.members * spec.dim * 8) as u64;
        let sync = clocks.iter().cloned().fold(0.0, f64::max);
        let mut gather_comm_secs = 0.0;
        if spec.ranks > 1 {
            // INVARIANT: a clean spec cannot exhaust the retry budget.
            let r = collective_with_retry(
                &comm.topo,
                Collective::AllGather,
                spec.ranks,
                gather_bytes,
                &comm.faults,
                &comm.policy,
            )
            .expect("clean collective cannot fail");
            events.push(comm_event("block_gather", comm_lane, sync, r.time, cycle, gather_bytes));
            gather_comm_secs = r.time;
        }
        clocks.fill(sync + gather_comm_secs);

        breakdown.push(CycleBreakdown {
            cycle,
            forecast_secs,
            compute_secs,
            analysis_comm_secs,
            gather_comm_secs,
            analysis_collectives,
            analysis_bytes: analysis_collectives * step_bytes,
            gather_bytes,
            critical_path_secs: clocks[0] - cycle_start,
        });
    }

    TimelineResult { events, breakdown }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ranks: usize, cycles: usize) -> TimelineSpec {
        TimelineSpec {
            dim: 256,
            tile: 32,
            members: 6,
            ranks,
            cycles,
            ensf: EnsfConfig { n_steps: 6, seed: 1, ..Default::default() },
            seed: 7,
            forecast_hours: 0.0,
        }
    }

    #[test]
    fn comm_totals_match_the_scaling_driver_exactly() {
        // Same shape, same α–β model ⇒ the timeline's analysis comm must
        // equal measure_analysis's modeled_comm_secs to the bit.
        let s = spec(4, 1);
        let t = trace_timeline(&s);
        let m = crate::bench::measure_analysis(s.dim, s.tile, s.members, &s.ensf, s.ranks, s.seed);
        let b = &t.breakdown[0];
        assert_eq!(b.analysis_comm_secs, m.modeled_comm_secs);
        assert_eq!(b.analysis_collectives, m.stats.collectives);
        assert_eq!(b.analysis_bytes, m.stats.bytes);
    }

    #[test]
    fn single_rank_exchanges_nothing() {
        let t = trace_timeline(&spec(1, 2));
        assert_eq!(t.breakdown.len(), 2);
        for b in &t.breakdown {
            assert_eq!(b.analysis_comm_secs, 0.0);
            assert_eq!(b.gather_comm_secs, 0.0);
            assert_eq!(b.analysis_collectives, 6);
        }
        assert!(t.events.iter().all(|e| e.cat == "compute"), "no comm events on one rank");
    }

    #[test]
    fn lanes_are_well_formed() {
        let s = spec(3, 2);
        let t = trace_timeline(&s);
        // Compute events live on lanes 0..ranks, comm events on lane ranks.
        for e in &t.events {
            match e.cat.as_str() {
                "compute" => assert!((e.tid as usize) < s.ranks),
                "comm" => assert_eq!(e.tid as usize, s.ranks),
                other => panic!("unexpected category {other}"),
            }
            assert!(e.dur_us >= 0.0);
        }
        // Events on each lane are non-overlapping and time-ordered.
        for lane in 0..=s.ranks {
            let mut end = f64::NEG_INFINITY;
            for e in t.events.iter().filter(|e| e.tid as usize == lane) {
                assert!(e.ts_us >= end - 1e-6, "lane {lane} overlaps at {}", e.ts_us);
                end = e.ts_us + e.dur_us;
            }
        }
        // Critical path bounds the slowest rank's pure compute.
        for b in &t.breakdown {
            let slowest = b.compute_secs.iter().cloned().fold(0.0, f64::max);
            assert!(b.critical_path_secs + 1e-12 >= slowest);
        }
    }

    #[test]
    fn forecast_phase_stamps_every_lane() {
        let s = TimelineSpec { dim: 128, tile: 32, members: 4, forecast_hours: 6.0, ..spec(2, 1) };
        // dim = 128 = 2·8²: a valid SQG grid.
        let t = trace_timeline(&s);
        let forecasts: Vec<_> = t.events.iter().filter(|e| e.name == "forecast").collect();
        assert_eq!(forecasts.len(), 2, "one forecast box per rank lane");
        assert!(t.breakdown[0].forecast_secs > 0.0);
    }
}
