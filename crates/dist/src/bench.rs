//! Sequential per-rank-timed driver for the scaling study.
//!
//! The container running CI has a single core, so actually threading the
//! ranks would time-slice them and hide any scaling signal. This driver
//! instead runs all ranks of one sharded analysis **sequentially**,
//! interleaving them step by step exactly as the real exchange would, and
//! measures each rank's compute in isolation — the same "each rank's wall
//! time is measured independently" idiom the Fig. 10 study in
//! [`ensf::parallel`] uses. The analysis wall time of an `R`-rank run is
//! then the slowest rank's compute (ranks proceed in lockstep between
//! allgathers); communication is priced separately through the α–β
//! collective model so the two contributions stay legible in
//! `BENCH_scaling.json`.

use crate::analysis::{CommStats, CommSpec, ShardKernel};
use crate::shard::ShardPlan;
use ensf::{EnsfConfig, ObsSpec, TimeGrid};
use hpc::{collective_with_retry, Collective};
use stats::gaussian::fill_standard_normal;
use stats::rng::member_rng;
use stats::Ensemble;
use std::time::Instant;

/// Timing of one sharded analysis at a fixed rank count.
#[derive(Debug, Clone)]
pub struct ScalingMeasurement {
    /// Simulated rank count.
    pub ranks: usize,
    /// State dimension.
    pub dim: usize,
    /// Ensemble size (particles == members).
    pub members: usize,
    /// Analysis wall time: the slowest rank's measured compute (seconds).
    pub analysis_secs: f64,
    /// Measured compute seconds per rank.
    pub per_rank_secs: Vec<f64>,
    /// Sum of all ranks' compute (the serial-equivalent work).
    pub total_cpu_secs: f64,
    /// Modeled allgather time across the whole analysis (α–β model;
    /// zero for a single rank, which exchanges nothing).
    pub modeled_comm_secs: f64,
    /// Collective accounting (counts the per-step partial exchanges).
    pub stats: CommStats,
}

/// Runs one sharded analysis with all ranks interleaved sequentially and
/// each rank's compute timed independently. The numerics are identical to
/// [`crate::dist_analyze`] (same kernels, same exchange protocol), so the
/// timing exercises exactly the production code path.
///
/// # Panics
/// Panics on invalid configuration (see [`ShardKernel::new`]).
pub fn measure_analysis(
    dim: usize,
    tile: usize,
    members: usize,
    config: &EnsfConfig,
    ranks: usize,
    seed: u64,
) -> ScalingMeasurement {
    // Synthetic forecast ensemble and observation: the kernels' cost is
    // data-independent, so any well-scaled input measures the real thing.
    let mut forecast = Ensemble::zeros(members, dim);
    for m in 0..members {
        let mut rng = member_rng(seed, m);
        fill_standard_normal(&mut rng, forecast.member_mut(m));
    }
    let y = vec![0.1; dim];
    let obs = ObsSpec::identity(0.3);

    let plan = ShardPlan::new(dim, tile, ranks);
    let mut kernels: Vec<ShardKernel> = (0..ranks)
        .map(|r| ShardKernel::new(&plan, r, config, 0, &forecast, &y, &obs))
        .collect();
    let times = TimeGrid::LogSpaced.points(&config.schedule, config.n_steps);
    let pj = kernels[0].partials_per_tile();
    let n_tiles = plan.n_tiles();
    let exchanged_bytes = (n_tiles * pj * 8) as u64;
    let spec = CommSpec::clean(ranks);

    let mut per_rank_secs = vec![0.0; ranks];
    let mut stats = CommStats::default();
    let mut full = vec![0.0; n_tiles * pj];

    for win in times.windows(2) {
        // Phase 1: every rank computes its tile partials (timed per rank).
        let mut offset = 0;
        for (r, kernel) in kernels.iter_mut().enumerate() {
            let t0 = Instant::now();
            let partials = kernel.tile_partials(win[0]);
            per_rank_secs[r] += t0.elapsed().as_secs_f64();
            full[offset..offset + partials.len()].copy_from_slice(partials);
            offset += partials.len();
        }
        debug_assert_eq!(offset, full.len());
        // The exchange: modeled, not executed (ranks share an address
        // space here). Per-rank counters mirror the production path.
        stats.collectives += 1;
        stats.bytes += exchanged_bytes;
        if ranks > 1 {
            // INVARIANT: a clean spec cannot exhaust the retry budget.
            let r = collective_with_retry(
                &spec.topo,
                Collective::AllGather,
                ranks,
                exchanged_bytes,
                &spec.faults,
                &spec.policy,
            )
            .expect("clean collective cannot fail");
            stats.attempts += u64::from(r.attempts);
            stats.modeled_comm_secs += r.time;
        } else {
            stats.attempts += 1;
        }
        // Phase 2: every rank applies the step to its block (timed).
        for (r, kernel) in kernels.iter_mut().enumerate() {
            let t0 = Instant::now();
            kernel.apply_step(win[0], win[1], &full);
            per_rank_secs[r] += t0.elapsed().as_secs_f64();
        }
    }
    // Spread relaxation, timed as part of each rank's compute.
    for (r, kernel) in kernels.into_iter().enumerate() {
        let t0 = Instant::now();
        let _block = kernel.finish();
        per_rank_secs[r] += t0.elapsed().as_secs_f64();
    }

    let analysis_secs = per_rank_secs.iter().cloned().fold(0.0, f64::max);
    let total_cpu_secs = per_rank_secs.iter().sum();
    ScalingMeasurement {
        ranks,
        dim,
        members,
        analysis_secs,
        per_rank_secs,
        total_cpu_secs,
        modeled_comm_secs: stats.modeled_comm_secs,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_shapes_and_accounting() {
        let config = EnsfConfig { n_steps: 6, seed: 1, ..Default::default() };
        let m = measure_analysis(256, 32, 6, &config, 4, 7);
        assert_eq!(m.ranks, 4);
        assert_eq!(m.per_rank_secs.len(), 4);
        assert!(m.per_rank_secs.iter().all(|&s| s >= 0.0));
        assert!(m.analysis_secs <= m.total_cpu_secs + 1e-12);
        assert_eq!(m.stats.collectives, 6, "one exchange per SDE step");
        assert!(m.modeled_comm_secs > 0.0);
    }

    #[test]
    fn single_rank_has_no_comm_cost() {
        let config = EnsfConfig { n_steps: 4, seed: 1, ..Default::default() };
        let m = measure_analysis(128, 32, 4, &config, 1, 7);
        assert_eq!(m.modeled_comm_secs, 0.0);
        assert_eq!(m.per_rank_secs.len(), 1);
    }

    #[test]
    fn sequential_driver_matches_threaded_runtime_bitwise() {
        // The bench driver must time exactly the production numerics: its
        // reassembled analysis equals dist_analyze's for the same inputs.
        use hpc::mpi::run_world;
        let (dim, members) = (96, 5);
        let config = EnsfConfig { n_steps: 8, seed: 13, ..Default::default() };
        let mut forecast = Ensemble::zeros(members, dim);
        for m in 0..members {
            let mut rng = member_rng(7, m);
            fill_standard_normal(&mut rng, forecast.member_mut(m));
        }
        let y = vec![0.1; dim];
        let obs = ObsSpec::identity(0.3);
        let plan = ShardPlan::new(dim, 16, 3);

        // Sequential (the bench path, minus timing).
        let times = TimeGrid::LogSpaced.points(&config.schedule, config.n_steps);
        let mut kernels: Vec<ShardKernel> = (0..3)
            .map(|r| ShardKernel::new(&plan, r, &config, 0, &forecast, &y, &obs))
            .collect();
        for win in times.windows(2) {
            let mut full = Vec::new();
            for kernel in kernels.iter_mut() {
                full.extend_from_slice(kernel.tile_partials(win[0]));
            }
            for kernel in kernels.iter_mut() {
                kernel.apply_step(win[0], win[1], &full);
            }
        }
        let sequential: Vec<Vec<f64>> = kernels.into_iter().map(|k| k.finish()).collect();

        // Threaded over the simulated communicator.
        let threaded = run_world(3, |comm| {
            let mut stats = CommStats::default();
            crate::dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats)
                .unwrap()
        });
        assert_eq!(sequential, threaded);
    }
}
