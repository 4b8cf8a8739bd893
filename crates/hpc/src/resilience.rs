//! Scripted stragglers: the per-rank slowdown schedule of the modelled
//! cycle time.
//!
//! At Frontier scale a bulk-synchronous DA cycle runs at the pace of its
//! slowest rank. A [`StragglerPlan`] scripts which ranks run slow in which
//! cycles; `dist::elastic`'s sharded analysis scales its modelled price
//! by the worst factor in the group. Rank *failure* is not modelled
//! here: a dead rank is [`crate::mpi`]'s live ULFM path (`RankDead`,
//! `Revoked`, `recover`) and nothing else.

/// One scripted straggler episode: a rank running slow for a cycle range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// World rank that runs slow.
    pub rank: usize,
    /// First affected cycle (inclusive).
    pub from_cycle: usize,
    /// Last affected cycle (inclusive).
    pub to_cycle: usize,
    /// Time multiplier (≥ 1): 2.0 means everything on this rank takes
    /// twice as long.
    pub slowdown: f64,
}

/// Per-rank slowdown schedule for the simulated communicator.
///
/// Stragglers model the contention/thermal slowdowns that dominate tail
/// latency at Frontier scale. The plan is plain data, so every rank
/// evaluates the identical schedule locally and deadline decisions stay
/// replicated. Slowdowns scale *modeled* time only (the α–β collective
/// costs and the modeled compute), never the real wall clock of the
/// in-process runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StragglerPlan {
    /// The scripted episodes; overlapping episodes take the worst factor.
    pub events: Vec<Straggler>,
}

impl StragglerPlan {
    /// The empty plan: every rank at full speed.
    pub fn none() -> Self {
        StragglerPlan { events: Vec::new() }
    }

    /// The slowdown factor for `rank` at `cycle` (1.0 when unaffected;
    /// overlapping episodes take the maximum).
    pub fn slowdown(&self, rank: usize, cycle: usize) -> f64 {
        self.events
            .iter()
            .filter(|s| s.rank == rank && (s.from_cycle..=s.to_cycle).contains(&cycle))
            .map(|s| s.slowdown)
            .fold(1.0, f64::max)
    }

    /// The worst slowdown among `members` at `cycle` — the factor a
    /// bulk-synchronous step pays, since every collective completes at the
    /// pace of its slowest participant.
    pub fn worst(&self, cycle: usize, members: &[usize]) -> f64 {
        members.iter().map(|&r| self.slowdown(r, cycle)).fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_plan_is_bulk_synchronous() {
        assert_eq!(StragglerPlan::none().worst(3, &[0, 1, 2]), 1.0);
        let plan = StragglerPlan {
            events: vec![
                Straggler { rank: 1, from_cycle: 2, to_cycle: 4, slowdown: 3.0 },
                Straggler { rank: 1, from_cycle: 3, to_cycle: 3, slowdown: 2.0 },
                Straggler { rank: 2, from_cycle: 0, to_cycle: 9, slowdown: 1.5 },
            ],
        };
        assert_eq!(plan.slowdown(1, 1), 1.0, "outside the episode");
        assert_eq!(plan.slowdown(1, 3), 3.0, "overlap takes the worst factor");
        assert_eq!(plan.worst(3, &[0, 1, 2]), 3.0);
        assert_eq!(plan.worst(3, &[0, 2]), 1.5, "shrunken group drops the straggler");
    }
}
