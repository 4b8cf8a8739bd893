//! # sqg — surface quasi-geostrophic turbulence model
//!
//! A from-scratch Rust implementation of the two-level nonlinear Eady /
//! surface quasi-geostrophic (SQG) system the paper uses as its forecast
//! model, numerically following the reference implementation
//! (`jswhit/sqgturb`, after Tulloch & Smith 2009):
//!
//! - spectral (FFT) spatial discretization on a doubly periodic grid,
//! - 4th-order Runge–Kutta time stepping,
//! - 2/3-rule dealiasing of the nonlinear advection,
//! - implicit (integrating-factor) 8th-order hyperdiffusion,
//! - f-plane, uniform stratification and shear; optional Ekman damping.
//!
//! The DA-facing entry point is [`SqgModel`], which forecasts flat
//! grid-space state vectors of dimension `2 n²` (boundary buoyancy at the
//! two levels).
//!
//! ```
//! use sqg::{SqgModel, SqgParams};
//! let mut model = SqgModel::new(SqgParams { n: 16, ..Default::default() });
//! let nature = model.spinup_nature(42, 0.05, 10);
//! let mut state = nature.to_state_vector();
//! model.forecast(&mut state, 4); // one hour at dt = 900 s
//! ```

#![warn(missing_docs)]
// Numeric kernels here read/write several arrays at matched indices;
// explicit index loops are the clearer idiom (spectral kernels index multiple parallel arrays).
#![allow(clippy::needless_range_loop)]

pub mod diag;
pub mod dynamics;
mod grid;
pub mod init;
mod model;
mod params;
mod simd;
mod state;

pub use grid::SpectralGrid;
pub use model::SqgModel;
pub use params::SqgParams;
pub use state::{SqgState, LEVELS};
