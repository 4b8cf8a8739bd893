//! # hpc — the Frontier performance-simulation substrate
//!
//! The paper's scalability results (Figs. 6–10) were measured on the
//! Frontier supercomputer; this crate replaces that hardware with calibrated
//! analytic models plus a real in-process rank runtime:
//!
//! - [`Topology`] — Frontier's node/GCD/fabric shape.
//! - [`collective`] — RCCL α–β cost models for AllReduce / AllGather /
//!   ReduceScatter, including the empirical ~256 MB AllReduce dip (Fig. 8).
//! - [`gemm_model`] — MI250X kernel-shape efficiency (Fig. 6's heatmap).
//! - [`Strategy`] — Table I's DDP/FSDP/ZeRO taxonomy with per-GCD memory
//!   and per-step communication footprints.
//! - [`simulate`] — training-step breakdown (Fig. 7), strong scaling
//!   (Fig. 9), and the EnSF weak-scaling model (Fig. 10).
//! - [`mpi`] — a simulated MPI world (threads + channels) whose one
//!   collective, the allgather, runs the EnSF rank decomposition for real
//!   at laptop scale.
//! - [`resilience`] — the scripted straggler schedule that scales modelled
//!   cycle time; a dead rank is [`mpi`]'s typed `RankDead`/`Revoked` path.
//!
//! Absolute times are model outputs, not measurements; the *shapes*
//! (who wins, crossovers, efficiency trends) are the reproduction target —
//! see DESIGN.md §2 for the substitution argument.

#![warn(missing_docs)]
// Numeric kernels here read/write several arrays at matched indices;
// explicit index loops are the clearer idiom (rank loops index multiple parallel arrays).
#![allow(clippy::needless_range_loop)]

pub mod collective;
pub mod gemm_model;
pub mod mpi;
pub mod resilience;
pub mod simulate;
mod strategy;
mod topology;

pub use collective::{bus_bandwidth, collective_time, Collective};
pub use mpi::{run_world, Comm, MpiError};
pub use resilience::{Straggler, StragglerPlan};
pub use gemm_model::{achieved_flops, fig6_heatmap, KernelShape};
pub use simulate::{
    ensf_step_time, scaling_curve, shard_step_compute_secs, simulate_step, EnsfJob,
    StepBreakdown, TrainJob,
};
pub use strategy::Strategy;
pub use topology::Topology;
