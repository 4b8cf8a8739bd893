//! Deterministic, seedable fault injection for the cycling loop.
//!
//! A [`FaultPlan`] is a [`Run`](crate::cycle::Run)'s `faults`: every
//! failure the cycle loop must survive — ensemble members corrupted
//! mid-forecast, observation batches dropped / delayed / thinned, analysis
//! steps that fail a set number of attempts, a simulated process kill, and
//! rank kills and rejoins. Plans are plain data — the same plan replayed
//! against the same configuration produces the same run, so chaos tests are
//! as reproducible as clean ones. The loop refuses rank channels that name
//! a rank its process group cannot lose (on one process, any rank); the
//! sharded face (`dist::run_sharded`) reads only the rank channels and
//! refuses the others. The straggler schedule that scales its modelled
//! time lives in `hpc::resilience`.

use stats::Ensemble;

/// How an ensemble member is damaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemberFaultKind {
    /// The member's state becomes all-NaN (e.g. a crashed forecast rank).
    Nan,
    /// The member's state is scaled by a factor (silent numerical blowup;
    /// use a large factor to trip the divergence guardrails).
    Corrupt {
        /// Multiplicative damage factor.
        scale: f64,
    },
}

/// One scripted member fault, applied right after the member's forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberFault {
    /// Zero-based cycle at which the fault fires.
    pub cycle: usize,
    /// Ensemble member index to damage.
    pub member: usize,
    /// Damage applied.
    pub kind: MemberFaultKind,
}

/// How an observation batch is degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFault {
    /// The batch never arrives: the loop must run a forecast-only cycle.
    Drop,
    /// The batch arrives `by` cycles late. It is unusable at its own cycle
    /// (forecast-only) and stale on arrival, where it is discarded.
    Delay {
        /// Cycles of delay.
        by: usize,
    },
    /// Only every `stride`-th component arrives (partial network outage).
    Thin {
        /// Keep-every-`stride` subsampling factor (≥ 2 to thin anything).
        stride: usize,
    },
}

/// A forced analysis failure: the first `failures` analysis attempts at
/// `cycle` return a poisoned (all-NaN) ensemble, exercising the
/// retry-with-fresh-seed and fallback-scheme recovery paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisFault {
    /// Zero-based cycle at which the analysis misbehaves.
    pub cycle: usize,
    /// Number of attempts that fail before one succeeds.
    pub failures: usize,
}

/// A scripted rank death in the distributed runtime: the victim registers
/// itself dead at the boundary entering `cycle`, so survivors observe the
/// failure inside that cycle's one gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    /// Zero-based cycle during whose analysis the rank dies.
    pub cycle: usize,
    /// World rank of the victim.
    pub rank: usize,
}

/// A scripted rank rejoin: at the start of `cycle` the coordinator grants
/// world rank `rank` re-admission, and the rejoiner restores its state
/// from the latest checkpoint before re-entering the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRejoin {
    /// Zero-based cycle at whose start the rank rejoins.
    pub cycle: usize,
    /// World rank of the rejoiner.
    pub rank: usize,
}

/// The full fault script for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Member corruptions, applied after the forecast of their cycle.
    pub member_faults: Vec<MemberFault>,
    /// Observation-batch faults, at most one per cycle (the first match
    /// wins).
    pub obs_faults: Vec<(usize, ObsFault)>,
    /// Forced analysis failures.
    pub analysis_faults: Vec<AnalysisFault>,
    /// Simulated process kill: the run stops (checkpointing if configured)
    /// after completing this many cycles. `None` runs to completion.
    pub kill_after: Option<usize>,
    /// Scripted rank deaths (distributed runtime only).
    pub rank_kills: Vec<RankKill>,
    /// Scripted rank rejoins (distributed runtime only; each rank rejoins
    /// at most once per plan).
    pub rank_rejoins: Vec<RankRejoin>,
}

impl FaultPlan {
    /// A plan injecting nothing (under a health policy the loop then behaves
    /// like the plain one, plus health monitoring).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.member_faults.is_empty()
            && self.obs_faults.is_empty()
            && self.analysis_faults.is_empty()
            && self.kill_after.is_none()
            && self.rank_kills.is_empty()
            && self.rank_rejoins.is_empty()
    }

    /// The scripted death of `rank` during `cycle`'s analysis, if any.
    pub fn rank_kill_at(&self, cycle: usize, rank: usize) -> Option<RankKill> {
        self.rank_kills.iter().copied().find(|k| k.cycle == cycle && k.rank == rank)
    }

    /// The scripted rejoin of `rank`, if any.
    pub fn rank_rejoin_of(&self, rank: usize) -> Option<RankRejoin> {
        self.rank_rejoins.iter().copied().find(|r| r.rank == rank)
    }

    /// World ranks alive at the *start* of `cycle` under this script,
    /// assuming an initial world of `world` ranks: a kill removes its rank
    /// from every later cycle, a rejoin restores it. This is the pure
    /// function every rank evaluates locally to agree on membership
    /// without a consensus protocol.
    pub fn membership_at(&self, cycle: usize, world: usize) -> Vec<usize> {
        (0..world)
            .filter(|&r| {
                // Latest scripted event effective at or before `cycle`
                // decides: a kill at cycle c takes effect at c + 1 (the
                // victim dies *during* c's analysis), a rejoin at cycle j
                // takes effect at j's start.
                let last_kill = self
                    .rank_kills
                    .iter()
                    .filter(|k| k.rank == r && k.cycle < cycle)
                    .map(|k| k.cycle + 1)
                    .max();
                let last_rejoin = self
                    .rank_rejoins
                    .iter()
                    .filter(|j| j.rank == r && j.cycle <= cycle)
                    .map(|j| j.cycle)
                    .max();
                match (last_kill, last_rejoin) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(k), Some(j)) => j >= k,
                }
            })
            .collect()
    }

    /// Applies this cycle's member faults to a freshly forecast ensemble,
    /// returning one event string per fault actually applied.
    pub fn inject_member_faults(&self, cycle: usize, ensemble: &mut Ensemble) -> Vec<String> {
        let mut events = Vec::new();
        for fault in self.member_faults.iter().filter(|f| f.cycle == cycle) {
            if fault.member >= ensemble.members() {
                continue;
            }
            let member = ensemble.member_mut(fault.member);
            match fault.kind {
                MemberFaultKind::Nan => member.fill(f64::NAN),
                MemberFaultKind::Corrupt { scale } => {
                    for v in member.iter_mut() {
                        *v *= scale;
                    }
                }
            }
            events.push(format!("member_fault_injected:{}", fault.member));
        }
        events
    }

    /// The observation fault scheduled for `cycle`, if any.
    pub fn obs_fault_at(&self, cycle: usize) -> Option<ObsFault> {
        self.obs_faults.iter().find(|(c, _)| *c == cycle).map(|(_, f)| *f)
    }

    /// How many analysis attempts are forced to fail at `cycle`.
    pub fn analysis_failures_at(&self, cycle: usize) -> usize {
        self.analysis_faults
            .iter()
            .find(|f| f.cycle == cycle)
            .map(|f| f.failures)
            .unwrap_or(0)
    }

    /// Number of delayed batches whose stale copies arrive at `cycle`
    /// (the supervisor discards them and counts the discard).
    pub fn stale_arrivals_at(&self, cycle: usize) -> usize {
        self.obs_faults
            .iter()
            .filter(|(c, f)| matches!(f, ObsFault::Delay { by } if c + by == cycle))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            member_faults: vec![
                MemberFault { cycle: 2, member: 1, kind: MemberFaultKind::Nan },
                MemberFault { cycle: 2, member: 0, kind: MemberFaultKind::Corrupt { scale: 1e6 } },
            ],
            obs_faults: vec![(3, ObsFault::Drop), (5, ObsFault::Delay { by: 2 })],
            analysis_faults: vec![AnalysisFault { cycle: 4, failures: 1 }],
            kill_after: None,
            rank_kills: Vec::new(),
            rank_rejoins: Vec::new(),
        }
    }

    #[test]
    fn member_faults_apply_only_at_their_cycle() {
        let p = plan();
        let mut e = Ensemble::from_members(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        assert!(p.inject_member_faults(0, &mut e).is_empty());
        assert!(e.as_slice().iter().all(|v| v.is_finite()));
        let events = p.inject_member_faults(2, &mut e);
        assert_eq!(events.len(), 2);
        assert!(e.member(1).iter().all(|v| v.is_nan()));
        assert_eq!(e.member(0), &[1e6, 1e6]);
        assert_eq!(e.member(2), &[3.0, 3.0], "unfaulted members untouched");
    }

    #[test]
    fn out_of_range_member_ignored() {
        let p = FaultPlan {
            member_faults: vec![MemberFault { cycle: 0, member: 9, kind: MemberFaultKind::Nan }],
            ..FaultPlan::none()
        };
        let mut e = Ensemble::from_members(&[vec![1.0]]);
        assert!(p.inject_member_faults(0, &mut e).is_empty());
        assert!(e.as_slice()[0].is_finite());
    }

    #[test]
    fn obs_and_analysis_lookups() {
        let p = plan();
        assert_eq!(p.obs_fault_at(3), Some(ObsFault::Drop));
        assert_eq!(p.obs_fault_at(5), Some(ObsFault::Delay { by: 2 }));
        assert_eq!(p.obs_fault_at(0), None);
        assert_eq!(p.analysis_failures_at(4), 1);
        assert_eq!(p.analysis_failures_at(3), 0);
        assert_eq!(p.stale_arrivals_at(7), 1, "delayed batch from cycle 5 lands at 7");
        assert_eq!(p.stale_arrivals_at(6), 0);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!plan().is_empty());
        assert!(!FaultPlan { kill_after: Some(3), ..FaultPlan::none() }.is_empty());
        assert!(!FaultPlan {
            rank_kills: vec![RankKill { cycle: 1, rank: 0 }],
            ..FaultPlan::none()
        }
        .is_empty());
    }

    #[test]
    fn membership_tracks_kills_and_rejoins() {
        let p = FaultPlan {
            rank_kills: vec![
                RankKill { cycle: 2, rank: 1 },
                RankKill { cycle: 6, rank: 1 },
            ],
            rank_rejoins: vec![RankRejoin { cycle: 5, rank: 1 }],
            ..FaultPlan::none()
        };
        // Present through its kill cycle (it dies *during* cycle 2).
        assert_eq!(p.membership_at(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(p.membership_at(2, 4), vec![0, 1, 2, 3]);
        // Absent afterwards, back at its rejoin cycle.
        assert_eq!(p.membership_at(3, 4), vec![0, 2, 3]);
        assert_eq!(p.membership_at(4, 4), vec![0, 2, 3]);
        assert_eq!(p.membership_at(5, 4), vec![0, 1, 2, 3]);
        // Killed again at cycle 6: gone from cycle 7 on.
        assert_eq!(p.membership_at(6, 4), vec![0, 1, 2, 3]);
        assert_eq!(p.membership_at(7, 4), vec![0, 2, 3]);
        assert_eq!(p.rank_kill_at(2, 1), Some(RankKill { cycle: 2, rank: 1 }));
        assert_eq!(p.rank_kill_at(2, 0), None);
        assert_eq!(p.rank_rejoin_of(1), Some(RankRejoin { cycle: 5, rank: 1 }));
        assert_eq!(p.rank_rejoin_of(2), None);
    }
}
