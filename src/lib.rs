//! # sqg-da — scalable real-time data assimilation for turbulent dynamics
//!
//! A Rust reproduction of *"A Scalable Real-Time Data Assimilation Framework
//! for Predicting Turbulent Atmosphere Dynamics"* (SC 2024): the Ensemble
//! Score Filter (EnSF), a ViT surrogate with online training, the SQG
//! turbulence model, an LETKF baseline, and a Frontier performance
//! simulator — everything needed to regenerate the paper's tables and
//! figures (see `DESIGN.md` and `EXPERIMENTS.md`).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! | module | contents |
//! |---|---|
//! | [`sqg`] | surface quasi-geostrophic spectral model |
//! | [`ensf`] | the Ensemble Score Filter (the paper's contribution) |
//! | [`letkf`] | the LETKF baseline |
//! | [`vit`] | the ViT surrogate with manual backprop |
//! | [`da_core`] | the DA workflow, OSSE harness and experiments |
//! | [`dist`] | the rank-parallel sharded DA cycling runtime |
//! | [`hpc`] | the Frontier performance simulator + simulated MPI |
//! | [`fft`], [`linalg`], [`stats`] | numerical substrates |
//!
//! ## Quickstart
//!
//! ```no_run
//! use sqg_da::da_core::experiments::{pretrain_surrogate, run_comparison, ComparisonConfig};
//!
//! let config = ComparisonConfig::small(10);
//! let surrogate = pretrain_surrogate(&config);
//! let comparison = run_comparison(&config, surrogate).expect("the comparison runs");
//! for series in &comparison.series {
//!     println!("{:>10}: steady RMSE {:.4}", series.label, series.steady_rmse());
//! }
//! ```

pub use da_core;
pub use dist;
pub use ensf;
pub use fft;
pub use hpc;
pub use letkf;
pub use linalg;
pub use sqg;
pub use stats;
pub use vit;
