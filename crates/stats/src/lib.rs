//! # stats — stochastic & statistical substrate
//!
//! Shared statistical machinery for the DA framework:
//!
//! - [`rng`] — explicit seeding and per-member stream splitting, so whole
//!   OSSE experiments are bit-reproducible even when members run in parallel.
//! - [`gaussian`] — ziggurat standard normals (with a lane-parallel
//!   AVX-512 tier for the reverse-SDE noise block) and Cholesky-colored
//!   multivariate sampling (no external distribution crates).
//! - [`Ensemble`] — member-major ensemble container with mean/variance/
//!   spread/anomaly/inflation operations used by both filters.
//! - [`metrics`] — RMSE/bias/pattern-correlation verification.
//! - [`diagnostics`] — DA consistency statistics: innovation moments,
//!   chi-squared calibration, rank histograms, spread–skill ratio.
//! - [`softmax`] — stable log-sum-exp / softmax reductions (the EnSF score
//!   weights in batched form).
//! - [`spectrum`] — inertial-range slope fitting of KE spectra (the
//!   `k^{-5/3}` check).
//! - [`OnlineMoments`] — mergeable Welford accumulators for long series.

#![warn(missing_docs)]
// Every unsafe operation must sit in its own audited `unsafe { }` block.
#![deny(unsafe_op_in_unsafe_fn)]
// Spectral binning indexes shells and wavevectors at matched positions.
#![allow(clippy::needless_range_loop)]

pub mod diagnostics;
mod ensemble;
pub mod gaussian;
pub mod metrics;
mod moments;
pub mod rng;
pub mod softmax;
pub mod spectrum;

pub use ensemble::Ensemble;
pub use moments::OnlineMoments;
