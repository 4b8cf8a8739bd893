//! # letkf — the Local Ensemble Transform Kalman Filter baseline
//!
//! The paper's SOTA comparison method (Hunt, Kostelich & Szunyogh 2007),
//! implemented as deployed operationally (e.g. in KENDA):
//!
//! - per-grid-point local analyses in ensemble space (embarrassingly
//!   parallel — `par::map` over state variables here, MPI ranks on a real HPC),
//! - Gaspari–Cohn **R-localization** with the horizontal/vertical extents
//!   coupled through the Rossby radius of deformation,
//! - any observation operator, through the members' values `H(x_m)`,
//! - **RTPS** (relaxation to prior spread) inflation, tuned to 0.3 in the
//!   paper's twin experiments,
//! - symmetric square-root ensemble transform via [`linalg::SymEig`].
//!
//! ```
//! use letkf::{GridGeometry, Letkf, LetkfConfig};
//! use stats::Ensemble;
//!
//! let geo = GridGeometry::new(4, 2, 4.0e5, 1.0e5);
//! let filter = Letkf::new(LetkfConfig::default(), geo);
//! let members: Vec<Vec<f64>> = (0..4).map(|m| vec![m as f64; 32]).collect();
//! let forecast = Ensemble::from_members(&members);
//! // State 0 observed through h = I: H(x_m) is each member's value there.
//! let hx: Vec<Vec<f64>> = members.iter().map(|x| vec![x[0]]).collect();
//! let analysis = filter.analyze(&forecast, &[0], &Ensemble::from_members(&hx), &[1.0], 0.5);
//! assert_eq!(analysis.members(), 4);
//! ```

#![warn(missing_docs)]
// Ensemble-space kernels index member/variable arrays at matched positions.
#![allow(clippy::needless_range_loop)]

mod filter;
pub mod inflation;
mod localization;
pub mod solver;

pub use filter::{Letkf, LetkfConfig};
pub use localization::{gaspari_cohn, GridGeometry};
