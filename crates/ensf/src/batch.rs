//! Step-major, GEMM-batched EnSF analysis kernel.
//!
//! The per-particle oracle ([`crate::oracle`]) evaluates the Monte-Carlo
//! prior score one particle at a time: per reverse-SDE step it walks the
//! forecast ensemble twice as strided dot products, re-multiplying every
//! ensemble element by `α_t` along the way. This module inverts the loop
//! nest to **step-major over a whole block of particles** and reformulates
//! both ensemble sweeps as matrix products:
//!
//! 1. squared distances via the norm expansion
//!    `‖z_i − α x_j‖² = ‖z_i‖² − 2α ⟨z_i, x_j⟩ + α² ‖x_j‖²`, with the Gram
//!    block `Z Xᵀ` accumulated by [`linalg::gemm::GramChains`]' register
//!    tiles and the member norms `‖x_j‖²` hoisted out of the SDE loop
//!    entirely (computed once per analysis);
//! 2. a row-wise log-sum-exp softmax into weights `W` (P×M);
//! 3. the weighted conditional score `S = (α W X − Z)/β²` as a second GEMM
//!    with the affine part fused into its store epilogue
//!    ([`linalg::gemm::matmul_slices_affine_window`]).
//!
//! All reductions are fixed-order and per-output-element independent
//! (`linalg::simd`'s specification: 8 FMA chains and a fixed tree for the
//! Gram block and norms, one ascending FMA chain per element for the
//! recombination), with the same bits at every SIMD level, so the kernel is
//! bitwise deterministic and invariant to how particles are partitioned
//! into blocks — the same contract the oracle guarantees, which
//! keeps [`crate::parallel::analyze_partitioned`]'s bitwise identity and the
//! resilience layer's bit-identical checkpoint resume intact.
//!
//! ## One sweep per step
//!
//! A step visits the block's columns **one window of [`WINDOW`] columns at
//! a time** (the last window may be ragged), so the ensemble is read once
//! and the particles are read and written once per step, each window's
//! slice of both staying in cache while all the step's work on it runs:
//!
//! 1. the window's score `S_w = (α W X_w − Z_w)/β²` into a `b × WINDOW`
//!    scratch;
//! 2. the integrator's per-element update of `Z_w`, which also extends each
//!    row's [`linalg::gemm::SqNorm`] chains. For the reverse SDE that is one
//!    pass in 8-element row chunks: the step's noise comes from
//!    [`stats::gaussian::scaled_normal_chunks`] over the window (eight
//!    particles' streams side by side in SIMD lanes, each row's stream
//!    simply continuing from one window to the next), and per chunk the pass
//!    applies the drift `fma(decay, z, σ²Δt·s)`, adds the noise and applies
//!    the damped likelihood pull; the final, noise-free step runs the same
//!    chunk body without drawing. The probability flow runs
//!    [`crate::flow`]'s per-element step on the window's rows;
//! 3. the next step's Gram chains extended with the updated `Z_w` against
//!    `X_w`.
//!
//! After the last window the chains' fixed tree plus the tail gives the next
//! step's Gram block and the norm chains its `‖z_i‖²`: bit for bit what
//! separate whole-block GEMMs and passes give. Each element keeps the
//! operation order of the separate passes (drift, then `z + v`, then the
//! pull), and each particle keeps its own RNG stream drawn in exactly the
//! oracle's order (initial `N(0, I)` fill, then one normal per component per
//! non-final step). The oracle and this kernel therefore differ only by
//! floating-point reassociation.
//!
//! All scratch lives in a caller-owned [`BatchScratch`]; after construction
//! the step loop performs no heap allocation.

use crate::obs::ObsOperator;
use crate::schedule::DiffusionSchedule;
use linalg::gemm::{
    matmul_abt_into, matmul_slices_affine_into, matmul_slices_affine_window, row_sq_norms,
    GemmScratch, GramChains, SqNorm,
};
use linalg::simd::at_widest_tier;
use linalg::AlignedVec;
use rand::rngs::StdRng;
use stats::gaussian::{scaled_normal_chunks, ChunkSink};
use stats::softmax::softmax_in_place;
use std::ops::{Deref, Range};

/// Columns a step visits at once: a multiple of 8, so every window but the
/// last holds whole 8-chunks. At `d = 8192` and 10 particles per block a
/// window's slices of the ensemble, the particles and the score take
/// 160 KiB, well inside one core's L2, where the whole block's did not fit.
pub(crate) const WINDOW: usize = 512;

/// The score's ensemble operand: the ensemble buffer itself, or the
/// mini-batch gathered into a buffer of its own on a 64-byte boundary.
enum Members<'a> {
    Borrowed(&'a [f64]),
    Gathered(AlignedVec<f64>),
}

impl Deref for Members<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Members::Borrowed(members) => members,
            Members::Gathered(members) => members,
        }
    }
}

/// Batched Monte-Carlo prior-score evaluator.
///
/// Holds the (mini-batched) forecast ensemble as a contiguous `J x d` block
/// in batch order — the ensemble buffer itself when the batch is every
/// member in order, an index-ordered gather otherwise — plus the per-member
/// squared norms, computed once per analysis and shared read-only by every
/// particle block. A gather starts on a cache line, as an
/// [`stats::Ensemble`]'s buffer does.
pub struct BatchedScore<'a> {
    /// Mini-batch members contiguously, `J x d` row-major, in batch order
    /// (matching the reference path's summation order).
    gathered: Members<'a>,
    /// `‖x_j‖²` per gathered member.
    xnorm: Vec<f64>,
    batch_len: usize,
    dim: usize,
    schedule: DiffusionSchedule,
}

impl<'a> BatchedScore<'a> {
    /// Takes `batch` members (in the given order) out of the member-major
    /// `ensemble` buffer and precomputes their squared norms.
    ///
    /// # Panics
    /// Panics on shape mismatch, an empty batch, or an out-of-range index.
    pub fn new(
        ensemble: &'a [f64],
        members: usize,
        dim: usize,
        schedule: DiffusionSchedule,
        batch: &[usize],
    ) -> Self {
        assert_eq!(ensemble.len(), members * dim, "ensemble buffer shape mismatch");
        assert!(!batch.is_empty(), "mini-batch must be nonempty");
        assert!(batch.iter().all(|&j| j < members), "batch index out of range");
        let gathered = if batch.iter().copied().eq(0..members) {
            Members::Borrowed(ensemble)
        } else {
            let mut gathered = AlignedVec::zeroed(batch.len() * dim);
            for (row, &j) in gathered.chunks_exact_mut(dim).zip(batch) {
                row.copy_from_slice(&ensemble[j * dim..(j + 1) * dim]);
            }
            Members::Gathered(gathered)
        };
        let mut xnorm = vec![0.0; batch.len()];
        row_sq_norms(&gathered, batch.len(), dim, &mut xnorm);
        BatchedScore { gathered, xnorm, batch_len: batch.len(), dim, schedule }
    }

    /// Number of members in the Monte-Carlo batch.
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Turns the Gram block `Z Xᵀ` in `weights` (`b x J`) into the
    /// normalized softmax weights at pseudo-time `t`, `znorm` (`b`) holding
    /// the rows' `‖z_i‖²` as [`row_sq_norms`] computes them.
    // lint: no_alloc
    fn weights_in_place(&self, weights: &mut [f64], znorm: &[f64], t: f64) {
        let alpha = self.schedule.alpha(t);
        let inv_2b2 = 0.5 / self.schedule.beta_sq(t);
        let alpha_sq = alpha * alpha;
        for (row, &zn) in weights.chunks_exact_mut(self.batch_len).zip(znorm) {
            for (w, &xn) in row.iter_mut().zip(&self.xnorm) {
                *w = -(zn - 2.0 * alpha * *w + alpha_sq * xn) * inv_2b2;
            }
            softmax_in_place(row);
        }
    }

    /// The affine coefficients `(α/β², −1/β²)` of `S = (α W X − Z)/β²` at
    /// pseudo-time `t`.
    fn affine(&self, t: f64) -> (f64, f64) {
        let inv_b2 = 1.0 / self.schedule.beta_sq(t);
        (self.schedule.alpha(t) * inv_b2, -inv_b2)
    }

    /// Evaluates the prior score at pseudo-time `t` for all `b` particles
    /// in `z` (`b x d` row-major) at once, writing into `out` (`b x d`):
    /// the whole-block GEMMs that the integrators' window sweep computes
    /// window by window, kept as the tests' reference for that sweep.
    ///
    /// `znorm` (`b`) holds the rows' squared norms `‖z_i‖²` as
    /// [`row_sq_norms`] computes them. `weights` (`b x J`) is scratch and
    /// holds the normalized softmax weights on return.
    pub fn score_block_into(
        &self,
        z: &[f64],
        b: usize,
        t: f64,
        out: &mut [f64],
        weights: &mut [f64],
        znorm: &[f64],
    ) {
        let (j, d) = (self.batch_len, self.dim);
        assert_eq!(z.len(), b * d);
        assert_eq!(out.len(), b * d);
        assert_eq!(weights.len(), b * j);
        assert_eq!(znorm.len(), b);
        matmul_abt_into(z, &self.gathered, b, j, d, weights);
        self.weights_in_place(weights, znorm, t);
        let (ca, cb) = self.affine(t);
        matmul_slices_affine_into(weights, &self.gathered, b, j, d, z, ca, cb, out);
    }
}

/// Caller-owned scratch for the batched integrators.
///
/// Created once per analysis (per particle block); the step loop borrows the
/// same buffers each step and never allocates. Every buffer starts on a
/// 64-byte cache line.
pub struct BatchScratch {
    /// The Gram block, then the weights (`b x J`); the rows' norms (`b`);
    /// the window's score (`b x WINDOW`).
    buffers: GemmScratch,
    /// One row's norm chains per particle, extended window by window.
    norms: Vec<SqNorm>,
    /// The next step's Gram block, extended window by window.
    gram: GramChains,
}

impl BatchScratch {
    /// Preallocates scratch for a block of `b` particles, a score batch of
    /// `j` members and state dimension `dim`.
    pub fn new(b: usize, j: usize, dim: usize) -> Self {
        let mut buffers = GemmScratch::new();
        // Prewarm so the step loop's borrows are allocation-free.
        let _ = buffers.slices([b * j, b, b * WINDOW.min(dim)]);
        BatchScratch { buffers, norms: vec![SqNorm::default(); b], gram: GramChains::new(b, j) }
    }
}

/// An integrator's per-element work, one column window at a time.
pub(crate) trait WindowStep {
    /// One step's coefficients.
    type Step;

    /// The coefficients of the step from `t` to `t_next`.
    fn step(&self, t: f64, t_next: f64) -> Self::Step;

    /// Advances columns `cols` of every row of `z` (`b x dim`) by `step`,
    /// `s` (`b x cols.len()`) holding the rows' prior score there, and
    /// extends each row's `norms` with the window's whole 8-chunks.
    fn advance(
        &mut self,
        step: &Self::Step,
        z: &mut [f64],
        dim: usize,
        cols: Range<usize>,
        s: &[f64],
        norms: &mut [SqNorm],
    );
}

/// Integrates the `b x dim` block `z` over the descending grid `times`,
/// window by window (the module doc): per step the score's weights from the
/// Gram block and norms the previous step left, then for each window the
/// score, `integrator`'s update and the next step's Gram chains.
// lint: no_alloc
pub(crate) fn integrate<I: WindowStep>(
    z: &mut [f64],
    b: usize,
    times: &[f64],
    score: &BatchedScore,
    scratch: &mut BatchScratch,
    integrator: &mut I,
) {
    let (dim, j) = (score.dim, score.batch_len);
    assert_eq!(z.len(), b * dim, "particle block shape mismatch");
    let x = &score.gathered[..];
    let whole = dim / 8 * 8;
    let [w, znorm, s] = scratch.buffers.slices([b * j, b, b * WINDOW.min(dim)]);
    let (norms, gram) = (&mut scratch.norms[..b], &mut scratch.gram);
    // The first step's norms and Gram block; every later step's come out of
    // the sweep of the step before.
    row_sq_norms(z, b, dim, znorm);
    gram.reset();
    gram.accumulate(z, x, dim, 0..dim);
    gram.finish(z, x, dim, w);

    for (n, pair) in times.windows(2).enumerate() {
        let (t, t_next) = (pair[0], pair[1]);
        let next = n + 2 < times.len();
        score.weights_in_place(w, znorm, t);
        let (ca, cb) = score.affine(t);
        let step = integrator.step(t, t_next);
        norms.fill(SqNorm::default());
        gram.reset();
        for c0 in (0..dim).step_by(WINDOW) {
            let c1 = dim.min(c0 + WINDOW);
            let s = &mut s[..b * (c1 - c0)];
            matmul_slices_affine_window(w, x, b, j, dim, z, ca, cb, c0..c1, s);
            integrator.advance(&step, z, dim, c0..c1, s, norms);
            if next {
                gram.accumulate(z, x, dim, c0..c1);
            }
        }
        for ((zn, norm), row) in znorm.iter_mut().zip(&*norms).zip(z.chunks_exact(dim)) {
            *zn = norm.finish(&row[whole..]);
        }
        if next {
            gram.finish(z, x, dim, w);
        }
    }
}

/// The likelihood pull of one reverse-SDE step on a state element `x`:
/// `x + factor · score(x)`, the likelihood score at weight `gain`.
#[derive(Clone, Copy)]
enum Pull {
    /// No pull (`gain ≤ 0`, or NaN).
    Off,
    /// Constant-Jacobian operators: one damping factor for every element;
    /// `w = gain / σ²`.
    Uniform { w: f64, factor: f64 },
    /// The damping factor from each element's own squared Jacobian `j²`:
    /// `c = gain·j²/σ²`, `factor = (1 − e^{−c})/c`, or 1 for `c ≤ 1e-8`.
    Local { gain: f64, sigma_obs_sq: f64 },
}

/// The damping factor `(1 − e^{−c})/c` that bounds a pull of stiffness `c`.
#[inline(always)]
fn damping_factor(c: f64) -> f64 {
    if c > 1e-8 {
        (1.0 - (-c).exp()) / c
    } else {
        1.0
    }
}

/// One reverse-SDE step's per-element coefficients.
#[derive(Clone, Copy)]
struct Step<'a> {
    decay: f64,
    /// `σ²·Δt`, the score's weight in the drift.
    sdt: f64,
    pull: Pull,
    obs: &'a ObsOperator,
}

impl Step<'_> {
    /// Advances a chunk of one row: the drift `fma(decay, z, σ²Δt·s)`, then
    /// `z + v` when the step draws noise, then the pull — per element, in
    /// that order.
    #[inline(always)]
    fn advance(&self, z: &mut [f64], s: &[f64], y: &[f64], noise: Option<&[f64]>) {
        for (zi, si) in z.iter_mut().zip(s) {
            *zi = self.decay.mul_add(*zi, self.sdt * si);
        }
        if let Some(v) = noise {
            for (zi, vi) in z.iter_mut().zip(v) {
                *zi += vi;
            }
        }
        match self.pull {
            Pull::Off => {}
            Pull::Uniform { w, factor } => self.obs.add_scaled_score(z, y, w, factor),
            Pull::Local { gain, sigma_obs_sq } => {
                // Out of line on a copy, so `z` stays in registers.
                let mut copy = [0.0; 8];
                let copy = &mut copy[..z.len()];
                copy.copy_from_slice(z);
                pull_local(self.obs, copy, y, gain, sigma_obs_sq);
                z.copy_from_slice(copy);
            }
        }
    }
}

/// One step's pass over a column window of the block, chunk by chunk: the
/// [`ChunkSink`] that takes the window's noise. Chunk columns are the
/// window's own, from 0.
struct StepPass<'a> {
    step: Step<'a>,
    dim: usize,
    /// The window's first column in the block.
    c0: usize,
    /// The window's width, the row stride of `s`.
    width: usize,
    z: &'a mut [f64],
    s: &'a [f64],
    y: &'a [f64],
    /// Each row's norm chains, extended by its whole chunks.
    norms: &'a mut [SqNorm],
}

impl StepPass<'_> {
    /// [`Step::advance`] on row `r`'s `n` elements from window column `c`
    /// (8 but for a row's last chunk); a whole chunk then extends the row's
    /// norm chains.
    #[inline(always)]
    fn advance(&mut self, r: usize, c: usize, n: usize, noise: Option<&[f64]>) {
        let (at, sat, yat) = (r * self.dim + self.c0 + c, r * self.width + c, self.c0 + c);
        if n == 8 {
            // A whole chunk is advanced in a local array, stored once: with
            // a constant length and no store to `z` between the loads it
            // runs as vector operations.
            let mut x = [0.0; 8];
            x.copy_from_slice(&self.z[at..at + 8]);
            self.step.advance(&mut x, &self.s[sat..sat + 8], &self.y[yat..yat + 8], noise);
            self.z[at..at + 8].copy_from_slice(&x);
            self.norms[r].chunk(&x);
        } else {
            let z = &mut self.z[at..at + n];
            self.step.advance(z, &self.s[sat..sat + n], &self.y[yat..yat + n], noise);
        }
    }
}

/// [`Pull::Local`] on a chunk `z` observed as `y`: the score and the
/// squared Jacobian of the chunk, then each element's damped update. Out of
/// line, because it costs an `atan` and an `exp` per element either way and
/// one call per chunk keeps the lane loop from saving its registers around
/// every element.
#[inline(never)]
fn pull_local(obs: &ObsOperator, z: &mut [f64], y: &[f64], gain: f64, sigma_obs_sq: f64) {
    let n = z.len();
    let (mut lik, mut jsq) = ([0.0; 8], [0.0; 8]);
    obs.likelihood_score_into(z, y, gain, &mut lik[..n]);
    obs.jacobian_sq(z, &mut jsq[..n]);
    for ((zi, li), ji) in z.iter_mut().zip(&lik).zip(&jsq) {
        *zi += damping_factor(gain * ji / sigma_obs_sq) * li;
    }
}

impl ChunkSink for StepPass<'_> {
    #[inline(always)]
    fn chunk(&mut self, r: usize, c: usize, v: &[f64]) {
        self.advance(r, c, v.len(), Some(v));
    }
}

/// The reverse SDE as a [`WindowStep`]: each step's pass over a window
/// draws the window's noise, each row's stream continuing where the
/// previous window left it.
struct ReverseSde<'a> {
    schedule: &'a DiffusionSchedule,
    obs: &'a ObsOperator,
    y: &'a [f64],
    rngs: &'a mut [StdRng],
}

impl<'a> WindowStep for ReverseSde<'a> {
    /// The per-element coefficients and the noise amplitude (0 on the
    /// final step).
    type Step = (Step<'a>, f64);

    fn step(&self, t: f64, t_next: f64) -> (Step<'a>, f64) {
        let (schedule, obs) = (self.schedule, self.obs);
        let dt = t - t_next;
        let sig2 = schedule.sigma_sq(t);
        let is_final = t_next <= 1e-300;
        let noise_amp = if is_final { 0.0 } else { sig2.sqrt() * dt.sqrt() };
        let gain = sig2 * schedule.damping(t) * dt;
        let sigma_obs_sq = obs.sigma() * obs.sigma();
        let pull = match obs.constant_jacobian_sq() {
            // The factor is the same for every element: computed once per
            // step, with the per-element branch's arithmetic.
            Some(jc) if gain > 0.0 => Pull::Uniform {
                w: gain / sigma_obs_sq,
                factor: damping_factor(gain * jc / sigma_obs_sq),
            },
            None if gain > 0.0 => Pull::Local { gain, sigma_obs_sq },
            _ => Pull::Off,
        };
        let decay = schedule.alpha(t_next) / schedule.alpha(t);
        (Step { decay, sdt: sig2 * dt, pull, obs }, noise_amp)
    }

    // lint: no_alloc
    fn advance(
        &mut self,
        &(step, noise_amp): &(Step<'a>, f64),
        z: &mut [f64],
        dim: usize,
        cols: Range<usize>,
        s: &[f64],
        norms: &mut [SqNorm],
    ) {
        let (b, width) = (self.rngs.len(), cols.len());
        let whole = width / 8 * 8;
        let mut pass = StepPass { step, dim, c0: cols.start, width, z, s, y: self.y, norms };
        // The one pass: every chunk of every row of the window, each row's
        // chunks in ascending column order.
        if noise_amp != 0.0 { // lint: allow(float-exact-compare, reason="noise_amp is set to exactly 0.0 on the final step")
            scaled_normal_chunks(width, self.rngs, noise_amp, pass);
        } else {
            at_widest_tier(|| {
                for r in 0..b {
                    for c in (0..whole).step_by(8) {
                        pass.advance(r, c, 8, None);
                    }
                    if whole < width {
                        pass.advance(r, whole, width - whole, None);
                    }
                }
            });
        }
    }
}

/// Batched counterpart of [`crate::oracle::reverse_sde_assimilate`]:
/// integrates a whole block of particles through the reverse SDE
/// step-major, evaluating the prior score for all of them at once via
/// [`BatchedScore`].
///
/// * `z` — `rngs.len() x dim` row-major block; on entry each row is a
///   sample of `N(0, I)`, on exit a posterior sample.
/// * `times` — the descending pseudo-time grid (`1 − eps = t_0 > … > t_n =
///   0`, as produced by [`crate::time_grid`]), owned by the caller so the
///   integration itself never allocates.
/// * `rngs` — one RNG per particle, positioned exactly after the initial
///   Gaussian fill (the reference stream contract).
///
/// Per particle this replicates the oracle's integrator operation for
/// operation — exponential linear step, explicit prior score, final-step
/// noise omission, damped likelihood pull — so the two paths agree to
/// floating-point reassociation and draw identical noise. Each step is one
/// sweep over the block's column windows (the module doc).
// lint: no_alloc
#[allow(clippy::too_many_arguments)]
pub fn reverse_sde_assimilate_batched(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    times: &[f64],
    score: &BatchedScore,
    obs: &ObsOperator,
    y: &[f64],
    rngs: &mut [StdRng],
    scratch: &mut BatchScratch,
) {
    assert_eq!(y.len(), score.dim(), "observation length mismatch");
    let b = rngs.len();
    let mut sde = ReverseSde { schedule, obs, y, rngs };
    integrate(z, b, times, score, scratch, &mut sde);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScoreEstimator;
    use crate::sde::time_grid;
    use stats::gaussian::{fill_standard_normal, standard_normal};
    use stats::rng::{member_rng, seeded};

    fn gaussian_block(rows: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        let mut v = vec![0.0; rows * dim];
        fill_standard_normal(&mut rng, &mut v);
        v
    }

    /// The batched score must match the reference estimator evaluation to
    /// floating-point reassociation accuracy on every row.
    #[test]
    fn block_score_matches_reference_estimator()  {
        let (members, dim, b) = (9, 17, 6);
        let ens = gaussian_block(members, dim, 3);
        let z = gaussian_block(b, dim, 4);
        let sch = DiffusionSchedule::default();
        let batch: Vec<usize> = (0..members).collect();
        let batched = BatchedScore::new(&ens, members, dim, sch, &batch);
        let reference = ScoreEstimator::new(&ens, members, dim, sch);

        for t in [0.9, 0.5, 0.1, 0.01] {
            let mut out = vec![0.0; b * dim];
            let mut w = vec![0.0; b * members];
            let mut zn = vec![0.0; b];
            row_sq_norms(&z, b, dim, &mut zn);
            batched.score_block_into(&z, b, t, &mut out, &mut w, &zn);
            for i in 0..b {
                let want = reference.score(&z[i * dim..(i + 1) * dim], t);
                for (g, wv) in out[i * dim..(i + 1) * dim].iter().zip(&want) {
                    assert!(
                        (g - wv).abs() < 1e-10 * (1.0 + wv.abs()),
                        "t={t} row {i}: {g} vs {wv}"
                    );
                }
            }
            // Weights rows are normalized distributions.
            for row in w.chunks_exact(members) {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12);
            }
        }
    }

    /// The kernel's operands start on cache lines: the scratch buffers and
    /// chains, and a mini-batch gather.
    #[test]
    fn scratch_and_gathered_members_are_cache_line_aligned() {
        let aligned = |p: *const f64| p.align_offset(64) == 0;
        for (b, j, dim) in [(1, 1, 1), (3, 5, 17), (10, 20, 8192), (7, 11, 600)] {
            let mut scratch = BatchScratch::new(b, j, dim);
            let [w, znorm, s] = scratch.buffers.slices([b * j, b, b * WINDOW.min(dim)]);
            assert!([w.as_ptr(), znorm.as_ptr(), s.as_ptr()].into_iter().all(aligned), "{b}x{j}x{dim}");
            assert_eq!(scratch.norms.as_ptr().align_offset(64), 0, "norm chains {b}x{j}x{dim}");
        }
        let ens = gaussian_block(6, 40, 5);
        let score = BatchedScore::new(&ens, 6, 40, DiffusionSchedule::default(), &[4, 1, 3]);
        assert!(aligned(score.gathered.as_ptr()));
        assert_eq!(&score.gathered[40..80], &ens[40..80]);
    }

    /// Block evaluation is bitwise invariant to how particles are grouped.
    #[test]
    fn block_score_is_partition_invariant() {
        let (members, dim, b) = (7, 33, 10);
        let ens = gaussian_block(members, dim, 8);
        let z = gaussian_block(b, dim, 9);
        let sch = DiffusionSchedule::default();
        let batch: Vec<usize> = (0..members).collect();
        let score = BatchedScore::new(&ens, members, dim, sch, &batch);

        let mut full = vec![0.0; b * dim];
        let mut w = vec![0.0; b * members];
        let mut zn = vec![0.0; b];
        row_sq_norms(&z, b, dim, &mut zn);
        score.score_block_into(&z, b, 0.3, &mut full, &mut w, &zn);

        for split in 1..b {
            for (lo, hi) in [(0, split), (split, b)] {
                let rows = hi - lo;
                let mut part = vec![0.0; rows * dim];
                let mut wp = vec![0.0; rows * members];
                let zp = &zn[lo..hi];
                score.score_block_into(&z[lo * dim..hi * dim], rows, 0.3, &mut part, &mut wp, zp);
                assert_eq!(part, full[lo * dim..hi * dim], "rows {lo}..{hi} diverged");
            }
        }
    }

    /// The batched integrator consumes RNG streams exactly like the
    /// reference (init fill + one normal per component per non-final step).
    #[test]
    fn batched_sde_draws_reference_noise_stream() {
        let (members, dim, b, n_steps) = (6, 5, 4, 12);
        let ens = gaussian_block(members, dim, 21);
        let sch = DiffusionSchedule::default();
        let batch: Vec<usize> = (0..members).collect();
        let score = BatchedScore::new(&ens, members, dim, sch, &batch);
        let obs = ObsOperator::identity(0.7);
        let y = vec![0.2; dim];

        let mut z = vec![0.0; b * dim];
        let mut rngs: Vec<_> = (0..b).map(|m| member_rng(99, m)).collect();
        for (row, rng) in z.chunks_exact_mut(dim).zip(rngs.iter_mut()) {
            fill_standard_normal(rng, row);
        }
        let mut scratch = BatchScratch::new(b, members, dim);
        let times = time_grid(&sch, n_steps);
        reverse_sde_assimilate_batched(
            &mut z, &sch, &times, &score, &obs, &y, &mut rngs, &mut scratch,
        );

        // After the run every stream must sit at the reference position:
        // the next draw equals a fresh stream fast-forwarded by the same
        // number of draws.
        let draws = dim + (times.len() - 2) * dim; // init + per non-final step
        for (m, rng) in rngs.iter_mut().enumerate() {
            let mut fresh = member_rng(99, m);
            for _ in 0..draws {
                standard_normal(&mut fresh);
            }
            assert_eq!(
                standard_normal(rng).to_bits(),
                standard_normal(&mut fresh).to_bits(),
                "particle {m} consumed a different number of draws"
            );
        }
    }
}
