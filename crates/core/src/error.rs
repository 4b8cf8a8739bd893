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
            OsseError::ObservationShortfall { cycles, observations } => {
                write!(f, "{cycles} cycles requested but only {observations} observations available")
            }
            OsseError::Unrecoverable { cycle, reason } => {
                write!(f, "cycle {cycle} unrecoverable: {reason}")
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
