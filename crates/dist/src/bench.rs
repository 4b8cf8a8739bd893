//! Per-rank block timing for the scaling study.
//!
//! Threading the ranks on a CI container with one or two cores would
//! time-slice them and hide any scaling signal. This driver instead runs
//! every rank's share of one sharded analysis **sequentially** and times
//! each in isolation — the same "each rank's wall time is measured
//! independently" idiom the Fig. 10 study uses. Ranks only meet at the one
//! gather, so the analysis wall time of an `R`-rank run is the slowest
//! rank's compute; the gather is priced separately through the α–β
//! collective model so the two contributions stay legible in
//! `BENCH_scaling.json`.

use crate::analysis::{model_collective, CommSpec, CommStats};
use ensf::parallel::{BlockAnalysis, RankPlan};
use ensf::{EnsfConfig, ObsSpec};
use hpc::Collective;
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
    /// Modeled time of the analysis' one allgather (α–β model; zero for a
    /// single rank, which exchanges nothing).
    pub modeled_comm_secs: f64,
    /// Collective accounting (one gather per analysis).
    pub stats: CommStats,
}

fn synthetic_forecast(members: usize, dim: usize, seed: u64) -> Ensemble {
    let mut forecast = Ensemble::zeros(members, dim);
    for m in 0..members {
        let mut rng = member_rng(seed, m);
        fill_standard_normal(&mut rng, forecast.member_mut(m));
    }
    forecast
}

/// Times each rank's share of one sharded analysis — preparing from the
/// replicated forecast and integrating its [`RankPlan`] block, exactly what
/// [`crate::dist_analyze`] runs before the gather — one rank after another.
/// The replicated spread relaxation (a few passes over `P x d`) is not
/// timed. `_tile` is ignored: ranks own particles.
///
/// # Panics
/// Panics on an invalid filter configuration.
pub fn measure_analysis(
    dim: usize,
    _tile: usize,
    members: usize,
    config: &EnsfConfig,
    ranks: usize,
    seed: u64,
) -> ScalingMeasurement {
    // Synthetic forecast ensemble and observation: the kernels' cost is
    // data-independent, so any well-scaled input measures the real thing.
    let forecast = synthetic_forecast(members, dim, seed);
    let y = vec![0.1; dim];
    let operator = ObsSpec::identity(0.3).operator();

    let per_rank_secs: Vec<f64> = RankPlan::new(members, ranks)
        .blocks
        .iter()
        .map(|&(start, end)| {
            let t0 = Instant::now();
            let prepared = BlockAnalysis::prepare(config, 0, &forecast, &y, &operator);
            std::hint::black_box(prepared.run_block(start..end));
            t0.elapsed().as_secs_f64()
        })
        .collect();

    // The gather: modeled, not executed (ranks share an address space
    // here); a single rank exchanges nothing, so nothing is priced.
    let mut stats = CommStats::default();
    let spec = (ranks > 1).then(|| CommSpec::clean(ranks));
    let bytes = (members * dim * 8) as u64;
    model_collective(spec.as_ref(), &mut stats, Collective::AllGather, ranks, bytes);

    ScalingMeasurement {
        ranks,
        dim,
        members,
        analysis_secs: per_rank_secs.iter().cloned().fold(0.0, f64::max),
        total_cpu_secs: per_rank_secs.iter().sum(),
        per_rank_secs,
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
        assert_eq!(m.stats.collectives, 1, "one gather per analysis");
        assert_eq!(m.stats.bytes, (6 * 256 * 8) as u64);
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
    fn sequential_driver_prices_what_the_threaded_runtime_exchanges() {
        // The bench driver must account exactly the production protocol:
        // its collective count, bytes and modeled seconds equal what
        // dist_analyze charges every rank for the same shape — including
        // more ranks than members.
        use hpc::mpi::run_world;
        let (dim, members, ranks) = (96, 5, 6);
        let config = EnsfConfig { n_steps: 8, seed: 13, ..Default::default() };
        let measured = measure_analysis(dim, 16, members, &config, ranks, 7);
        assert_eq!(measured.per_rank_secs.len(), ranks);

        let forecast = synthetic_forecast(members, dim, 7);
        let y = vec![0.1; dim];
        let obs = ObsSpec::identity(0.3);
        let plan = crate::ShardPlan::new(dim, 16, ranks);
        let spec = CommSpec::clean(ranks);
        let threaded = run_world(ranks, |comm| {
            let mut stats = CommStats::default();
            crate::dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, Some(&spec), &mut stats)
                .unwrap();
            stats
        });
        for stats in threaded {
            assert_eq!(stats, measured.stats);
        }
    }
}
