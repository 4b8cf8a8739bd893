//! Fault-tolerant DA cycling: fault injection, health guardrails,
//! checkpoint/restore, and degraded-cycle recovery.
//!
//! At the scale the paper targets (millions of state variables, real-time
//! cadence, thousands of ranks), component failures are routine rather than
//! exceptional: forecast members crash or silently blow up, observation
//! feeds stall, and stochastic analyses occasionally produce garbage. This
//! module is what lets the cycle loop survive all of that:
//!
//! - [`fault`] — deterministic, seedable fault scripts ([`FaultPlan`]) so
//!   every failure mode can be rehearsed reproducibly in CI;
//! - [`health`] — cheap per-cycle guardrails (non-finite/outlier member
//!   scans, spread-collapse and divergence detection) and deterministic
//!   repairs (quarantine-and-resample, re-inflation);
//! - [`ladder`] — [`decide_rung`], every face's one choice between the
//!   scheme, its fallback and forecast-only;
//! - [`checkpoint`] — binary [`Checkpoint`]s of the *full* cycling state
//!   (ensemble, scheme RNG position, verification series, health state)
//!   that resume bit-identically;
//! - [`supervisor`] — what [`crate::cycle::run_cycles`] tracks when a
//!   [`Run`](crate::cycle::Run) carries a [`HealthPolicy`] (guardrails and
//!   the ladder's retry budget): the `Healthy → Degraded → Recovering →
//!   Healthy` state machine, the recovery counters and the per-cycle log,
//!   every recovery reported through telemetry.
//!
//! A [`Run`](crate::cycle::Run) switches each of them on: `faults` for the
//! script, `health` for the guardrails, `budget` for the ladder's
//! deadline and `checkpoint` for the boundary writes.

pub mod checkpoint;
pub mod fault;
pub mod health;
pub mod ladder;
pub mod supervisor;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use fault::{
    AnalysisFault, FaultPlan, MemberFault, MemberFaultKind, ObsFault, RankKill, RankRejoin,
};
pub use health::HealthPolicy;
pub use ladder::{decide_rung, Ladder, Rule, Rung};
pub use supervisor::{CheckpointConfig, LoopState, RecoveryCounters, SupervisedCycle};
