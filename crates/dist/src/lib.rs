//! # dist — rank-parallel distributed DA cycling runtime
//!
//! The paper runs its EnSF+SQG cycling experiments across thousands of
//! Frontier GCDs (§IV), the EnSF parallelized "along the dimension of the
//! ensemble". This crate reproduces that execution shape on the
//! workspace's simulated MPI communicator ([`hpc::mpi::Comm`]): a full
//! forecast → observe → analyze OSSE loop in which every rank holds the
//! whole (small) ensemble at the cycle boundaries and **owns a contiguous
//! block of particles** in between — it forecasts those members and
//! integrates those particles of the EnSF analysis — and two allgathers
//! per cycle, one after each half, replicate the results.
//!
//! ## Determinism contract
//!
//! For a fixed configuration the sharded experiment is the *serial* one —
//! `da_core::osse::run_experiment` with `da_core::EnsfScheme`, on a full
//! or a partial observation network — **bit for bit at every rank count**,
//! including more ranks than members (`tests/dist_determinism.rs` at the workspace
//! root proves it at 1/2/4/8 ranks). Two ingredients:
//!
//! 1. **Global-index streams**: a particle's `N(0, I)` start and SDE noise
//!    come from `stats::rng::member_rng(cycle_seed, global index)`, and
//!    every reduction of the score kernel is per particle, so a particle's
//!    bits cannot depend on which rank (or which block) integrated it
//!    ([`ensf::parallel::BlockAnalysis`]).
//! 2. **Replicated control flow**: the mini-batch draw, the spread
//!    relaxation, diagnostics, the analysis ladder's rung and the shrunken
//!    group after a rank death ([`elastic`]) are evaluated identically on
//!    every rank from identical inputs, so no rank ever branches
//!    differently from its peers; a member's forecast is a pure function
//!    of its own state, so it does not matter which rank ran it.
//!
//! Nothing depends on the rank count, so a shrunken group redoing a cycle
//! computes what a fresh run at the survivor count would: shrink-retry
//! equivalence holds by construction.
//!
//! ## Modules
//!
//! * [`analysis`] — one sharded analysis ([`dist_analyze`]): this rank's
//!   particle block through the serial kernel, one gather, replicated
//!   relaxation. What is observed is the OSSE's own [`ensf::ObsSpec`]
//!   ([`dist_obs_for`]), a partial network's vector completed by
//!   `da_core::Completion::Inpaint`, and reverse SDE versus probability
//!   flow is [`ensf::EnsfConfig::method`] — the same `{method, ObsSpec}`
//!   data, and the same completion call, as the serial
//!   `da_core::EnsfScheme`.
//! * `forecast` (private) — the member-sharded forecast: this rank's
//!   member block on its own thread, one gather, and a fallback to the
//!   replicated forecast when a peer is missing from it.
//! * [`elastic`] — one rank's slots for `da_core::cycle::run_cycles`: the
//!   member-sharded forecast as its model, the sharded analysis as its
//!   scheme (ULFM-style shrink on rank death) and, at a deadline's reduced
//!   step count, its fallback, the rank's membership as its process group
//!   ([`run_elastic_experiment`], [`run_elastic_osse`]).
//! * [`cycle`] — the same with nothing scripted ([`run_dist_experiment`],
//!   [`run_osse`]).
//! * [`mod@bench`] — per-rank block timing behind the `scaling_suite` bench
//!   bin.
//! * [`shard`] — the state-block geometry of [`dist_analyze`]'s
//!   compatibility face.

#![warn(missing_docs)]

pub mod analysis;
pub mod bench;
pub mod cycle;
pub mod elastic;
mod forecast;
pub mod shard;

pub use analysis::{dist_analyze, CommSpec, CommStats};
pub use bench::{measure_analysis, ScalingMeasurement};
pub use cycle::{dist_obs_for, run_dist_experiment, run_osse, DistCycleConfig, DistRunResult};
pub use elastic::{
    modeled_analysis_secs, run_elastic_experiment, run_elastic_from, run_elastic_osse,
    run_elastic_osse_from, DeadlinePolicy, ElasticCounters, ElasticCycleConfig,
    ElasticOutcome, ElasticRunResult,
};
pub use shard::ShardPlan;

/// Why a distributed experiment could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A live MPI collective failed typed — a peer died mid-operation or
    /// revoked the epoch. The elastic runtime ([`elastic`]) catches this,
    /// shrinks the group, and retries; it is fatal only when every rank is
    /// gone or the error escapes a non-elastic driver.
    Mpi(hpc::MpiError),
    /// The configuration and nature run disagree (dimension mismatch,
    /// too-short nature run, invalid filter settings).
    Config(String),
    /// A checkpoint does not fit the experiment it should resume, or could
    /// not be written — the serial resume's error, typed the same.
    Checkpoint(da_core::resilience::CheckpointError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Mpi(e) => write!(f, "MPI operation failed: {e}"),
            DistError::Config(msg) => write!(f, "invalid distributed experiment: {msg}"),
            DistError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// What the cycle loop refuses or gives up on, in this crate's terms.
impl From<da_core::OsseError> for DistError {
    fn from(e: da_core::OsseError) -> Self {
        match e {
            da_core::OsseError::Checkpoint(e) => DistError::Checkpoint(e),
            other => DistError::Config(other.to_string()),
        }
    }
}

impl From<hpc::MpiError> for DistError {
    fn from(e: hpc::MpiError) -> Self {
        DistError::Mpi(e)
    }
}
