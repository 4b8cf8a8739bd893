//! # vit — the SQG-ViT surrogate model
//!
//! A from-scratch vision transformer (Fig. 2 of the paper) that emulates the
//! SQG forecast model: patch embedding, multi-head self-attention, MLP with
//! GELU, pre/post normalization, Dropout and DropPath regularization —
//! all with **manual backprop** (finite-difference-checked) and Adam
//! training in `f32`, mirroring the mixed-precision GPU arithmetic the paper
//! profiles.
//!
//! The three architectures of Table II are provided by
//! [`VitConfig::table2`] (157M / 1.2B / 2.5B parameters — these are sized
//! analytically and fed to the `hpc` performance simulator; the OSSE
//! experiments train [`VitConfig::small`] networks for real).
//!
//! Eq. 18's FLOP budget (`T = 6 · tokens · E · M`) lives in [`flops`].
//!
//! ```
//! use vit::{SqgVit, VitConfig};
//! let mut model = SqgVit::new(VitConfig::small(16), 42);
//! let state = vec![0.0f32; 2 * 16 * 16];
//! let forecast = model.predict(&state);
//! assert_eq!(forecast.len(), state.len());
//! ```

#![warn(missing_docs)]
// Numeric kernels here read/write several arrays at matched indices;
// explicit index loops are the clearer idiom (backprop kernels index multiple parallel arrays).
#![allow(clippy::needless_range_loop)]

mod config;
pub mod flops;
pub mod layers;
mod model;
pub mod optim;
mod schedule;
mod tensor;
pub mod train;

pub use config::VitConfig;
pub use schedule::LrSchedule;
pub use model::SqgVit;
pub use tensor::Tensor;
