//! # fft — spectral transform substrate
//!
//! From-scratch FFTs backing the SQG turbulence model and the spectral
//! diagnostics of the data-assimilation framework:
//!
//! - [`Complex`] — a minimal `f64` complex type.
//! - [`FftPlan`] — reusable 1-D plans; radix-2 Cooley–Tukey for power-of-two
//!   lengths, Bluestein chirp-z for everything else.
//! - [`Fft2`] — 2-D transforms: a runtime-dispatched AVX2 path for
//!   radix-2 grids (transpose-free column pass; where the CPU has
//!   AVX-512F, 64-point rows held in registers and columns four complexes
//!   per vector), bitwise identical to the scalar path, and the scalar
//!   path with cache-blocked transposes;
//!   [`Fft2Scratch`] makes hot loops allocation-free via
//!   [`Fft2::process_with_scratch`].
//! - [`plan_cache`] — process-wide memoization of 2-D plans keyed on
//!   `(rows, cols, direction)`, shared as `Arc<Fft2>`.
//! - [`real`] — two real fields per complex transform (pack / Hermitian
//!   split), real-signal helpers and Hermitian-symmetry utilities.
//!
//! ## Conventions
//!
//! Forward: `X[k] = Σ_n x[n] e^{-2πi nk/N}` (unnormalized).
//! Inverse: `x[n] = (1/N) Σ_k X[k] e^{+2πi nk/N}`.
//! A forward followed by an inverse transform is the identity.
//!
//! ```
//! use fft::{Complex, Direction, FftPlan};
//!
//! let plan = FftPlan::new(8, Direction::Forward);
//! let mut data = vec![Complex::ONE; 8];
//! plan.process(&mut data);
//! assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin picks up the sum
//! ```

#![warn(missing_docs)]
// Numeric kernels here read/write several arrays at matched indices;
// explicit index loops are the clearer idiom (butterfly kernels index multiple parallel arrays).
#![allow(clippy::needless_range_loop)]

mod bluestein;
mod complex;
mod fft2;
mod plan;
pub mod plan_cache;
mod radix2;
pub mod real;
mod simd;

pub use complex::Complex;
pub use fft2::{Fft2, Fft2Scratch};
pub use plan::{Direction, FftPlan};
