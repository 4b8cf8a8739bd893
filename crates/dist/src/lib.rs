//! # dist — rank-parallel distributed DA cycling runtime
//!
//! The paper runs its EnSF+SQG cycling experiments across thousands of
//! Frontier GCDs (§IV). This crate reproduces that execution shape on the
//! workspace's simulated MPI communicator ([`hpc::mpi::Comm`]): a full
//! forecast → observe → analyze OSSE loop in which the EnSF analysis is
//! sharded **along the state dimension** — each rank owns a contiguous
//! block of state components and only ever updates its block.
//!
//! ## Determinism contract
//!
//! The headline property, enforced by `tests/dist_determinism.rs` at the
//! workspace root: for a fixed configuration the entire 10-cycle experiment
//! is **bitwise identical for any rank count**. Three ingredients:
//!
//! 1. **Tile-fixed reductions** ([`ShardPlan`]): every reduction over the
//!    state dimension (the score-normalization statistics `‖z − α x_j‖²`
//!    that feed the softmax weights) is computed as per-tile partials with
//!    tile-fixed arithmetic, then folded over tiles in ascending tile order
//!    identically on every rank. Tile geometry depends only on `(d, tile)`,
//!    never on the rank count.
//! 2. **Tile-keyed RNG streams** ([`ShardKernel`]): reverse-SDE noise is
//!    drawn from one stream per `(particle, tile)` pair, seeded from global
//!    indices, with a fixed consumption order — whichever rank owns a tile
//!    draws the same numbers.
//! 3. **Replicated control flow**: forecasts, observation handling, softmax
//!    weights and retry/shrink decisions ([`CommSpec`]) are evaluated
//!    identically on every rank from identical inputs, so no rank ever
//!    branches differently from its peers.
//!
//! Changing the *tile width* legitimately reassociates floating-point sums
//! and changes low-order bits; changing the *rank count* never does.
//!
//! ## Modules
//!
//! * [`shard`] — the fixed-tile partition of the state dimension.
//! * [`analysis`] — the sharded EnSF analysis kernel and the collective
//!   driver ([`dist_analyze`]). What is observed is the OSSE's own
//!   [`ensf::ObsSpec`] ([`dist_obs_for`]); each tile's operator and slice
//!   of `y` come from [`ensf::ObsSpec::operator_on`], and reverse SDE
//!   versus probability flow is [`ensf::EnsfConfig::method`] — the same
//!   `{method, ObsSpec}` data the serial `da_core::EnsfScheme` is built
//!   from (which adds a `Completion`; the sharded kernel masks the
//!   guidance instead of completing the vector).
//! * [`elastic`] — the one sharded cycling loop: ULFM-style shrink on rank
//!   death, checkpoint-backed rejoin, and deadline-aware degraded analysis
//!   ([`run_elastic_experiment`], [`run_elastic_osse`]).
//! * [`cycle`] — its fault-free face ([`run_dist_experiment`],
//!   [`run_osse`]): the elastic loop with nothing scripted.
//! * [`bench`] — the sequential per-rank-timed driver behind the
//!   `scaling_suite` bench bin.
//! * [`timeline`] — the traced variant of the bench driver: per-rank
//!   Chrome trace-event streams with a comm-vs-compute breakdown, behind
//!   the `trace_report` bin.

#![warn(missing_docs)]

pub mod analysis;
pub mod bench;
pub mod cycle;
pub mod elastic;
pub mod shard;
pub mod timeline;

pub use analysis::{dist_analyze, CommSpec, CommStats, ShardKernel};
pub use bench::{measure_analysis, ScalingMeasurement};
pub use cycle::{dist_obs_for, run_dist_experiment, run_osse, DistCycleConfig, DistRunResult};
pub use elastic::{
    modeled_analysis_secs, run_elastic_experiment, run_elastic_from, run_elastic_osse,
    run_elastic_osse_from, CycleMode, DeadlinePolicy, ElasticCounters, ElasticCycleConfig,
    ElasticOutcome, ElasticRunResult,
};
pub use shard::ShardPlan;
pub use timeline::{trace_timeline, CycleBreakdown, TimelineResult, TimelineSpec};

/// Why a distributed experiment could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A simulated collective exhausted its retry budget or lost every rank
    /// (propagated identically on all ranks: the retry model is a pure
    /// function of the scripted faults, so no cross-rank agreement protocol
    /// is needed to fail consistently).
    Collective(hpc::CollectiveError),
    /// A live MPI collective failed typed — a peer died mid-operation or
    /// revoked the epoch. The elastic runtime ([`elastic`]) catches this,
    /// shrinks the group, and retries; it is fatal only when every rank is
    /// gone or the error escapes a non-elastic driver.
    Mpi(hpc::MpiError),
    /// The configuration and nature run disagree (dimension mismatch,
    /// too-short nature run, invalid filter settings).
    Config(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Collective(e) => write!(f, "distributed collective failed: {e}"),
            DistError::Mpi(e) => write!(f, "MPI operation failed: {e}"),
            DistError::Config(msg) => write!(f, "invalid distributed experiment: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<hpc::CollectiveError> for DistError {
    fn from(e: hpc::CollectiveError) -> Self {
        DistError::Collective(e)
    }
}

impl From<hpc::MpiError> for DistError {
    fn from(e: hpc::MpiError) -> Self {
        DistError::Mpi(e)
    }
}
