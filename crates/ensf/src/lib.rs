//! # ensf — the Ensemble Score Filter
//!
//! The paper's primary contribution: a training-free, score-based diffusion
//! filter for high-dimensional nonlinear data assimilation (Bao, Zhang &
//! Zhang; §III-A of the paper).
//!
//! Pipeline per analysis cycle:
//!
//! 1. [`DiffusionSchedule`] — `α_t = 1 − t`, `β_t = √t` (Eq. 9), with the
//!    damping `h(t) = 1 − t` for the likelihood score (Eq. 11).
//! 2. [`BatchedScore`] — Monte-Carlo prior score from the forecast
//!    ensemble (Eqs. 12–16), numerically stabilized with log-sum-exp and
//!    evaluated for a whole particle block per step as two GEMMs plus a
//!    row-wise softmax ([`batch`]).
//! 3. [`reverse_sde_assimilate_batched`] — Euler–Maruyama integration of
//!    the reverse-time SDE (Eq. 7) from `N(0, I)` to the Bayesian posterior
//!    over the two-sided [`time_grid`], the damped likelihood score of an
//!    [`ObsOperator`] added to the prior score.
//! 4. [`Ensf::analyze`] — the full update, parallel over particle blocks,
//!    with the paper's spread-relaxation stability safeguard.
//! 5. [`parallel`] — the particle block, the filter's one unit of work
//!    ([`parallel::BlockAnalysis`]): `Ensf::analyze`, the Fig. 10 rank
//!    decomposition and the distributed runtime all run it, so they
//!    compute the same analysis bit for bit.
//! 6. [`oracle`] — the same analysis one particle at a time
//!    ([`oracle::analyze`]): the reference the equivalence tests hold the
//!    batched kernel to at 1e-10 relative. No run selects it.
//! 7. [`flow`] — the deterministic probability-flow ODE analysis path
//!    (flow matching): the same score machinery integrated without noise,
//!    reaching SDE-level accuracy in ~5–10 steps. Selected per config via
//!    [`EnsfConfig::method`] = [`AnalysisMethod::FlowMatching`].
//!
//! ```
//! use ensf::{Ensf, EnsfConfig, ObsOperator};
//! use stats::Ensemble;
//!
//! // Forecast ensemble of 8 members in 4 dimensions around 0.
//! let members: Vec<Vec<f64>> = (0..8)
//!     .map(|m| vec![0.1 * m as f64; 4])
//!     .collect();
//! let forecast = Ensemble::from_members(&members);
//! let obs = ObsOperator::identity(0.5);
//! let mut filter = Ensf::new(EnsfConfig::default());
//! let analysis = filter.analyze(&forecast, &[0.4; 4], &obs);
//! assert_eq!(analysis.members(), 8);
//! ```

#![warn(missing_docs)]

pub mod batch;
mod filter;
pub mod flow;
mod obs;
pub mod oracle;
pub mod parallel;
mod schedule;
mod sde;

pub use batch::{reverse_sde_assimilate_batched, BatchScratch, BatchedScore};
pub use filter::{relax_spread, AnalysisMethod, Ensf, EnsfConfig};
pub use flow::{batch_variance, probability_flow_assimilate_batched, smooth_variance};
pub use obs::{MaskKind, ObsOperator, ObsOperatorKind, ObsSpec};
pub use schedule::{Damping, DiffusionSchedule};
pub use sde::time_grid;
