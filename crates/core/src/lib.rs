//! # da-core — the real-time data assimilation framework
//!
//! The paper's primary deliverable (Fig. 1): a sequential DA workflow that
//! is generic in the forecast model (physics-based SQG, learned ViT
//! surrogate, or any future foundation model) and in the analysis scheme
//! (EnSF, LETKF, or none), with:
//!
//! - [`cycle`] — the one forecast → observe → analyse → verify → record
//!   loop, [`cycle::run_cycles`], and the one plain-data description of a
//!   run it takes, [`cycle::Run`] (the sharded driver, `dist::run_sharded`,
//!   takes the same value),
//! - [`osse`] — twin-experiment harness (nature run, synthetic observations
//!   every 12 h, `h = I`, diagonal R),
//! - [`ModelError`] — the 4-component stochastic model-error process of
//!   §IV-A (20/15/10/5 % occurrence, 20/30/40/50 % amplitude),
//! - [`VitSurrogate`] — offline pre-training plus the online fine-tuning
//!   channel through [`ForecastModel::assimilate_feedback`],
//! - [`experiments`] — the four architectures of Figs. 4–5
//!   (SQG-only / ViT-only / SQG+LETKF / ViT+EnSF) over a shared nature run,
//! - [`resilience`] — fault injection, ensemble health guardrails,
//!   checkpoint/restore, and the health state machine a [`cycle::Run`]
//!   with a health policy runs under.
//!
//! ```no_run
//! use da_core::experiments::{pretrain_surrogate, run_comparison, ComparisonConfig};
//!
//! let config = ComparisonConfig::small(10);
//! let surrogate = pretrain_surrogate(&config);
//! let cmp = run_comparison(&config, surrogate).expect("the comparison runs");
//! for s in &cmp.series {
//!     println!("{:>10}: steady RMSE {:.4}", s.label, s.steady_rmse());
//! }
//! ```

#![warn(missing_docs)]
// RK4 stage loops update state arrays at matched indices.
#![allow(clippy::needless_range_loop)]

pub mod cycle;
pub mod diagnostics;
mod error;
pub mod experiments;
mod forecast;
pub mod inpaint;
mod lorenz96;
mod model_error;
pub mod osse;
pub mod resilience;
pub mod scenario;
mod surrogate;
mod traits;

pub use error::OsseError;
pub use forecast::SqgForecast;
pub use lorenz96::{Lorenz96, Lorenz96Params};
pub use model_error::{ModelError, ModelErrorConfig};
pub use surrogate::VitSurrogate;
pub use osse::{MaskKind, ObsOperatorKind, ObsSpec};
pub use scenario::{run_scenario, standard_scenarios, ScenarioResult, ScenarioSpec};
pub use inpaint::Completion;
pub use traits::{Analysis, AnalysisReport, AnalysisScheme, EnsfScheme, ForecastModel};
