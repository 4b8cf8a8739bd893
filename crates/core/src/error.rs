//! Typed errors for the OSSE harness and the cycle loop.
//!
//! The seed harness aborted on configuration mismatches (`assert_eq!`),
//! which is fine for twin experiments run by hand but useless for callers
//! that must *report* failures — bench binaries, CI jobs, or a future
//! service layer. Everything the cycling stack can refuse to do is an
//! [`OsseError`] instead.

use crate::resilience::CheckpointError;

/// Why an OSSE experiment could not run (or could not continue).
#[derive(Debug, Clone, PartialEq)]
pub enum OsseError {
    /// The forecast model's state dimension differs from the nature run's.
    DimensionMismatch {
        /// `model.state_dim()`.
        model: usize,
        /// Dimension of the nature-run truth states.
        nature: usize,
    },
    /// The nature run carries no truth states at all.
    EmptyNatureRun,
    /// A truth state (`0..=cycles`) or an observation (`0..cycles`) of the
    /// nature run holds a NaN or an infinity.
    NonFiniteNature {
        /// The first offending index into `truth` / `observations`.
        cycle: usize,
    },
    /// The nature run holds fewer observations than the requested cycles.
    ObservationShortfall {
        /// Cycles requested by the configuration.
        cycles: usize,
        /// Observations available in the nature run.
        observations: usize,
    },
    /// The cycle loop ran out of recovery options at a cycle (e.g.
    /// every ensemble member went non-finite at once).
    Unrecoverable {
        /// Zero-based cycle index where cycling had to stop.
        cycle: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// The fault plan kills or rejoins a rank its process group cannot
    /// lose: world rank 0, which leads, or one outside the group's world.
    RankOutsideGroup {
        /// The scripted rank.
        rank: usize,
        /// The group's world size.
        world: usize,
    },
    /// Writing or reading a cycle checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for OsseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsseError::DimensionMismatch { model, nature } => {
                write!(f, "model state dimension {model} does not match nature run {nature}")
            }
            OsseError::EmptyNatureRun => write!(f, "nature run has no truth states"),
            OsseError::NonFiniteNature { cycle } => {
                write!(f, "nature run holds a non-finite truth or observation at cycle {cycle}")
            }
            OsseError::ObservationShortfall { cycles, observations } => {
                write!(f, "{cycles} cycles requested but only {observations} observations available")
            }
            OsseError::Unrecoverable { cycle, reason } => {
                write!(f, "cycle {cycle} unrecoverable: {reason}")
            }
            OsseError::RankOutsideGroup { rank, world } => {
                write!(f, "fault plan scripts rank {rank}; a {world}-rank group can lose 1..{world}")
            }
            OsseError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for OsseError {}

impl From<CheckpointError> for OsseError {
    fn from(e: CheckpointError) -> Self {
        OsseError::Checkpoint(e)
    }
}
