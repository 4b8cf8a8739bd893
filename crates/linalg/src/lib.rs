//! # linalg — dense linear-algebra substrate
//!
//! Small, dependency-free dense `f64` kernels sized for the data-assimilation
//! workloads in this workspace:
//!
//! - [`Matrix`] — row-major dense matrix with the layout as a public contract.
//! - [`gemm`] — blocked, SIMD-dispatched matrix products and matrix-vector
//!   kernels (plus transpose-free `AᵀB` / `ABᵀ` variants the LETKF uses).
//! - [`Cholesky`] — SPD factorization for covariance sampling and solves.
//! - [`SymEig`] — cyclic Jacobi symmetric eigendecomposition; the workhorse
//!   of the LETKF ensemble-space transform, including `f(A)` evaluation
//!   (`A⁻¹`, `A^{-1/2}`).
//! - [`vector`] — slice-level dot/axpy/norm helpers.
//! - [`AlignedVec`] — an owned buffer whose first element sits on a 64-byte
//!   cache line.
//!
//! ## Alignment
//!
//! The EnSF analysis' operands start on 64-byte boundaries: the forecast
//! ensemble (`stats::Ensemble` stores its members in an [`AlignedVec`]),
//! each particle block, the [`gemm::GemmScratch`] pool, and the chain
//! arrays of [`gemm::GramChains`] and [`gemm::SqNorm`] (cache-line aligned
//! types). Rows of `d = 8192` elements are 64 KiB apart, so every row of
//! such a buffer starts on a line too and no 512-bit load or store of the
//! kernels straddles two. The kernels themselves take any alignment and
//! compute the same bits at every offset; alignment only sets their speed.
//!
//! ```
//! use linalg::{Matrix, gemm};
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let x = gemm::matvec(&a, &[1.0, 1.0]);
//! assert_eq!(x, vec![3.0, 7.0]);
//! ```

#![warn(missing_docs)]
// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a `// SAFETY:` justification (checked by the
// in-tree analyzer).
#![deny(unsafe_op_in_unsafe_fn)]
// Numeric kernels here read/write several arrays at matched indices;
// explicit index loops are the clearer idiom (dense kernels index multiple parallel arrays).
#![allow(clippy::needless_range_loop)]

mod aligned;
mod cholesky;
mod eigh;
pub mod gemm;
mod matrix;
pub mod simd;
pub mod vector;

pub use aligned::AlignedVec;
pub use cholesky::{Cholesky, NotPositiveDefinite};
pub use eigh::SymEig;
pub use matrix::Matrix;
