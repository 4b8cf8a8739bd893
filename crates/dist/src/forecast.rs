//! Member-sharded forecasts: ranks own particles in the forecast too.
//!
//! The forecast half of the paper's decomposition "along the dimension of
//! the ensemble" (§III-A3). Rank `r` forecasts members
//! `RankPlan::new(members, ranks).blocks[r]` of the replicated analysis
//! ensemble in place, one by one on its own thread, and one allgather
//! replicates the forecast ensemble. A member's bits depend only on its own
//! state, so the gathered ensemble is the member loop's bit for bit at every
//! rank count (ranks beyond the member count own an empty block).
//!
//! A rank thread never fans out (`SqgForecast::forecast`, never
//! `forecast_batch`): threads spawned from rank threads made `peak_rss_mb`
//! bimodal through glibc's arena choice (EXPERIMENTS.md, "Threads spawned
//! from rank threads").
//!
//! **The forecast gather never shrinks the group.** When a peer is missing
//! from it, the rank that meets [`MpiError::RankDead`] revokes the epoch so
//! peers parked in the broadcast wake with [`MpiError::Revoked`], and every
//! survivor forecasts the members it is missing from the pre-forecast
//! states, which its ensemble buffer still holds. That cycle's forecast is
//! therefore the replicated one, and the analysis gather meets the revoked
//! epoch and runs the shrink-retry as it would without this gather. A
//! revoked epoch stays revoked until that shrink, so after a forecast-only
//! cycle the next cycle's forecast falls back too, without a gather.

use crate::analysis::{model_collective, CommSpec, CommStats};
use da_core::ForecastModel;
use ensf::parallel::RankPlan;
use hpc::mpi::Comm;
use hpc::{Collective, MpiError};
use stats::Ensemble;

/// A rank's forecast slot for the cycle loop: `model` on this rank's
/// member block, then one gather.
pub(crate) struct ShardedForecast<'a, M> {
    comm: &'a Comm,
    model: M,
    spec: Option<&'a CommSpec>,
    /// The epoch whose forecast gather failed. It stays revoked until a
    /// shrink or rejoin moves the epoch on, so later forecasts in it skip
    /// the gather instead of sending blocks nobody receives; every
    /// survivor's gather failed alike, so they all skip.
    revoked: Option<u64>,
    /// The forecast gathers, kept apart from the analysis's ledger until
    /// the run ends.
    pub(crate) stats: CommStats,
}

impl<'a, M: ForecastModel> ShardedForecast<'a, M> {
    pub(crate) fn new(comm: &'a Comm, model: M, spec: Option<&'a CommSpec>) -> Self {
        ShardedForecast { comm, model, spec, revoked: None, stats: CommStats::default() }
    }
}

impl<M: ForecastModel> ForecastModel for ShardedForecast<'_, M> {
    fn state_dim(&self) -> usize {
        self.model.state_dim()
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        self.model.forecast(state, hours);
    }

    /// This rank's block, then the gather, priced like the analysis's. A
    /// dead peer is absorbed here (see the module docs), so the forecast
    /// stays infallible.
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        let _span = telemetry::span!("dist.forecast");
        let comm = self.comm;
        let (members, dim) = (ensemble.members(), ensemble.dim());
        let (start, end) = RankPlan::new(members, comm.size()).blocks[comm.rank()];
        for m in start..end {
            self.model.forecast(ensemble.member_mut(m), hours);
        }

        if self.revoked != Some(comm.epoch()) {
            let bytes = (members * dim * 8) as u64;
            model_collective(self.spec, &mut self.stats, Collective::AllGather, comm.size(), bytes);
            match comm.try_allgather_concat(&ensemble.as_slice()[start * dim..end * dim]) {
                Ok(gathered) => {
                    let covered = gathered.len() == members * dim;
                    assert!(covered, "gathered blocks do not cover the ensemble");
                    ensemble.as_mut_slice().copy_from_slice(&gathered);
                    return;
                }
                Err(e) => {
                    if matches!(e, MpiError::RankDead { .. }) {
                        comm.revoke();
                    }
                    self.revoked = Some(comm.epoch());
                }
            }
        }
        // The members outside this rank's block still hold their
        // pre-forecast states.
        for m in (0..start).chain(end..members) {
            self.model.forecast(ensemble.member_mut(m), hours);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::SqgForecast;
    use hpc::collective_time;
    use hpc::mpi::run_world;
    use sqg::SqgParams;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    const HOURS: f64 = 1.5;

    fn perfect() -> SqgForecast {
        SqgForecast::perfect(SqgParams { n: 16, ..Default::default() })
    }

    fn ensemble(members: usize) -> Ensemble {
        let base = sqg::SqgModel::new(SqgParams { n: 16, ..Default::default() }).spinup_nature(3, 0.05, 5);
        let rows: Vec<Vec<f64>> = (0..members)
            .map(|m| sqg::init::perturb(&base, 0.01, 50 + m as u64).to_state_vector())
            .collect();
        Ensemble::from_members(&rows)
    }

    fn bits(e: &Ensemble) -> Vec<u64> {
        e.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn member_loop(start: &Ensemble) -> Ensemble {
        let mut want = start.clone();
        perfect().forecast_ensemble(&mut want, HOURS);
        want
    }

    /// `SqgForecast` counting its member forecasts across the world.
    struct Counting<'c> {
        model: SqgForecast,
        calls: &'c AtomicUsize,
    }

    impl ForecastModel for Counting<'_> {
        fn state_dim(&self) -> usize {
            self.model.state_dim()
        }

        fn forecast(&mut self, state: &mut [f64], hours: f64) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.model.forecast(state, hours);
        }
    }

    #[test]
    fn sharded_forecast_is_the_member_loop_bitwise() {
        // Uneven blocks (3 members on 2 ranks) and empty ones (8 ranks).
        for members in [3, 8] {
            let start = ensemble(members);
            let want = bits(&member_loop(&start));
            for ranks in [1, 2, 3, 8] {
                let got = run_world(ranks, |comm| {
                    let mut e = start.clone();
                    ShardedForecast::new(comm, perfect(), None).forecast_ensemble(&mut e, HOURS);
                    e
                });
                for (r, e) in got.iter().enumerate() {
                    assert_eq!(bits(e), want, "{members} members, rank {r} of {ranks}");
                }
            }
        }
    }

    #[test]
    fn each_member_is_forecast_once_across_the_world_and_gathered_once() {
        let (members, cycles) = (8, 2);
        let start = ensemble(members);
        let dim = start.dim();
        let bytes = (members * dim * 8) as u64;
        for ranks in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let spec = CommSpec::clean(ranks);
            let stats = run_world(ranks, |comm| {
                let counting = Counting { model: perfect(), calls: &calls };
                let mut model = ShardedForecast::new(comm, counting, Some(&spec));
                let mut e = start.clone();
                for _ in 0..cycles {
                    model.forecast_ensemble(&mut e, HOURS);
                }
                model.stats
            });
            assert_eq!(calls.load(Ordering::Relaxed), cycles * members, "{ranks} ranks");
            let gather = collective_time(&spec.topo, Collective::AllGather, ranks, bytes);
            for s in stats {
                assert_eq!(
                    (s.collectives, s.attempts, s.bytes),
                    (cycles as u64, cycles as u64, cycles as u64 * bytes)
                );
                assert!(gather > 0.0);
                assert_eq!(s.modeled_comm_secs, cycles as f64 * gather);
            }
        }
    }

    #[test]
    fn dead_peer_falls_back_to_the_member_loop_without_shrinking() {
        // The victim dies before contributing, first after the root and
        // last; the survivors' epoch stays revoked, so their second
        // forecast falls back without a gather. With the victim first,
        // rank 2 only starts once the root has left: its gather then meets
        // a root gone, not one that never receives.
        let (members, ranks) = (8, 3);
        let start = ensemble(members);
        let once = member_loop(&start);
        let want = [bits(&once), bits(&member_loop(&once))];
        for victim in [1, 2] {
            let calls = AtomicUsize::new(0);
            let root_left = Barrier::new(2);
            let rank_2_late = victim == 1;
            let results = run_world(ranks, |comm| {
                if comm.rank() == victim {
                    comm.kill();
                    return None;
                }
                if rank_2_late && comm.rank() == 2 {
                    root_left.wait();
                }
                let counting = Counting { model: perfect(), calls: &calls };
                let mut model = ShardedForecast::new(comm, counting, None);
                let mut e = start.clone();
                let mut got = Vec::new();
                for _ in 0..2 {
                    model.forecast_ensemble(&mut e, HOURS);
                    got.push(bits(&e));
                }
                // Registered dead as leaving would, before rank 2 may start.
                comm.kill();
                if rank_2_late && comm.rank() == 0 {
                    root_left.wait();
                }
                Some((got, comm.size(), model.stats.collectives))
            });
            for (r, result) in results.into_iter().enumerate().filter(|&(r, _)| r != victim) {
                let (got, size, gathers) = result.expect("a survivor returns its forecasts");
                assert_eq!(got, want, "victim {victim}, survivor {r}");
                assert_eq!(size, ranks, "the forecast gather never shrinks the group");
                assert_eq!(gathers, 1, "a revoked epoch is not gathered in again");
            }
            let survivors = ranks - 1;
            assert_eq!(calls.load(Ordering::Relaxed), 2 * survivors * members, "victim {victim}");
        }
    }
}
