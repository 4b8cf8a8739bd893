//! Matrix multiplication kernels.
//!
//! The hot entry points ([`matmul_slices_into`],
//! [`matmul_slices_affine_window`] and [`matmul_slices_affine_into`], its
//! one-window case, [`GramChains`] and [`matmul_abt_into`], its one-window
//! case, [`row_sq_norms`]) run on the widest SIMD tier the CPU has, and
//! every tier computes the portable scalar body's bits (see
//! [`crate::simd`]). The windowed forms let a caller run both score GEMMs
//! column window by column window with the whole products' bits. Every output element is a
//! fixed-order accumulation independent of row grouping, tile shape and
//! SIMD level, so results are run-to-run deterministic, partition-invariant
//! (the EnSF rank-decomposition contract) and the same on every CPU. No
//! kernel here spawns threads: their callers already run inside a parallel
//! block (an analysis block, a rank thread). The same kernel family backs
//! the ViT crate's f32 tensors (it has its own copy specialized to f32);
//! here everything is f64 for the DA math.

use crate::aligned::AlignedVec;
use crate::matrix::Matrix;
use crate::simd::{self, ChainBlock};
use std::ops::Range;

/// `C = A * B`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul: inner dimensions differ ({k} vs {kb})");
    let mut c = Matrix::zeros(m, n);
    matmul_into(a, b, &mut c);
    c
}

/// `C = A * B` writing into a preallocated `c` (overwritten, not accumulated).
fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_into: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "matmul_into: output shape mismatch");
    matmul_slices_into(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
}

/// `C = A * B` on raw row-major slices: `a` is `m x k`, `b` is `k x n`,
/// `c` (overwritten) is `m x n`.
///
/// Every output element is one ascending-`p` FMA chain that skips exact-zero
/// coefficients, so the result depends only on `(a, b)` — never on how rows
/// are grouped into parallel tasks or register tiles, nor on the SIMD level.
/// This is the determinism contract the EnSF batched kernel builds on. The
/// skip makes a peaked softmax weight matrix cost one row pass, not `k`.
pub fn matmul_slices_into(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matmul_slices_into: a shape mismatch");
    assert_eq!(b.len(), k * n, "matmul_slices_into: b shape mismatch");
    assert_eq!(c.len(), m * n, "matmul_slices_into: c shape mismatch");
    simd::dispatch!(matmul_slices(a, b, n, m, k, n, c, n, None));
}

/// `C = ca·(A·B) + cb·Z` — [`matmul_slices_into`] with the affine epilogue
/// of [`crate::vector::scale_add`] fused into the store, saving one full
/// read+write pass over `C`. Each element is `fma(ca, acc, cb·z)`, the
/// arithmetic of running the two calls back to back, so fused and unfused
/// results agree bit for bit; the determinism/partition-invariance contract
/// of [`matmul_slices_into`] carries over unchanged (the epilogue is
/// elementwise).
///
/// # Panics
/// Panics on any shape mismatch (`z` must be `m x n` like `c`).
#[allow(clippy::too_many_arguments)]
pub fn matmul_slices_affine_into(
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    z: &[f64],
    ca: f64,
    cb: f64,
    c: &mut [f64],
) {
    assert_eq!(c.len(), m * n, "matmul_slices_affine_into: c shape mismatch");
    matmul_slices_affine_window(a, b, m, k, n, z, ca, cb, 0..n, c);
}

/// [`matmul_slices_affine_into`] on the column window `cols` of `B` and
/// `Z`: `c` (`m x cols.len()`, row-major) is overwritten with columns `cols`
/// of `ca·(A·B) + cb·Z`. Every element is computed as in the whole-width
/// call, so running the windows of any split of `0..n` writes the whole
/// product's bits.
///
/// # Panics
/// Panics on any shape mismatch or a window past `n`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_slices_affine_window(
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    z: &[f64],
    ca: f64,
    cb: f64,
    cols: Range<usize>,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "matmul_slices_affine_window: a shape mismatch");
    assert_eq!(b.len(), k * n, "matmul_slices_affine_window: b shape mismatch");
    assert_eq!(z.len(), m * n, "matmul_slices_affine_window: z shape mismatch");
    assert!(cols.start <= cols.end && cols.end <= n, "matmul_slices_affine_window: window past n");
    let w = cols.len();
    assert_eq!(c.len(), m * w, "matmul_slices_affine_window: c shape mismatch");
    let (b, z) = (&b[cols.start..], &z[cols.start..]);
    simd::dispatch!(matmul_slices(a, b, n, m, k, w, c, w, Some((z, n, ca, cb))));
}

/// `C = A * B^T` on raw row-major slices: `a` is `m x k`, `b` is `n x k`
/// (so both operands stream along contiguous rows), `c` (overwritten) is
/// `m x n`.
///
/// Each `c[i][j]` is the fixed-order reduction of [`crate::simd`]: 8 FMA
/// chains over ascending `k`, a fixed pairwise tree, then the remainder. The
/// SIMD tiers run it in register tiles of independent chains, which keep the
/// FP units saturated where a single running dot product would be
/// latency-bound; full and edge tiles apply the identical per-element
/// operation sequence, so the output is bitwise independent of how the rows
/// of `a` are grouped or partitioned and of the SIMD level. The EnSF
/// analysis relies on this for its rank-decomposition bitwise-identity
/// contract.
pub fn matmul_abt_into(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matmul_abt_into: a shape mismatch");
    assert_eq!(b.len(), n * k, "matmul_abt_into: b shape mismatch");
    let mut gram = GramChains::new(m, n);
    gram.accumulate(a, b, k, 0..k);
    gram.finish(a, b, k, c);
}

/// [`matmul_abt_into`] accumulated column window by column window, as
/// [`SqNorm`] accumulates a norm: each element's 8 FMA chains live here
/// between windows, [`GramChains::accumulate`] runs them over a window's whole
/// 8-chunks, and [`GramChains::finish`] applies the fixed tree and
/// FMA-appends the `k mod 8` remainder. Over the windows of any split of
/// `0..k` (each starting at a multiple of 8) the result is
/// `matmul_abt_into`'s bits, at every SIMD level. Each element's chains
/// sit on a cache line of their own.
#[derive(Debug, Clone)]
pub struct GramChains {
    chains: Vec<ChainBlock>,
    m: usize,
    n: usize,
}

impl GramChains {
    /// Zeroed chains for an `m x n` Gram block.
    pub fn new(m: usize, n: usize) -> Self {
        GramChains { chains: vec![ChainBlock::default(); m * n], m, n }
    }

    /// Zeroes every chain, to start the next product.
    pub fn reset(&mut self) {
        self.chains.fill(ChainBlock::default());
    }

    /// Runs every element's chains over the whole 8-chunks of window
    /// `cols` of `a` (`m x k`) and `b` (`n x k`). The window starts at a
    /// multiple of 8 and ends at one or at `k`; columns past `k / 8 * 8`
    /// are [`finish`](Self::finish)'s.
    ///
    /// # Panics
    /// Panics on a shape mismatch or a misaligned window.
    pub fn accumulate(&mut self, a: &[f64], b: &[f64], k: usize, cols: Range<usize>) {
        self.accumulate_at(simd::level(), a, b, k, cols);
    }

    /// [`accumulate`](Self::accumulate) on `tier`, which must be one this CPU has.
    pub(crate) fn accumulate_at(&mut self, tier: simd::Level, a: &[f64], b: &[f64], k: usize, cols: Range<usize>) {
        let (m, n) = (self.m, self.n);
        assert_eq!(a.len(), m * k, "GramChains::accumulate: a shape mismatch");
        assert_eq!(b.len(), n * k, "GramChains::accumulate: b shape mismatch");
        assert!(
            cols.start.is_multiple_of(8) && cols.start <= cols.end && cols.end <= k,
            "GramChains::accumulate: window {cols:?} does not start an 8-chunk of {k} columns"
        );
        assert!(cols.end.is_multiple_of(8) || cols.end == k, "GramChains::accumulate: window {cols:?} ends inside an 8-chunk");
        if m == 0 || n == 0 {
            return;
        }
        let whole = cols.end / 8 * 8 - cols.start;
        let (a, b) = (&a[cols.start..], &b[cols.start..]);
        simd::dispatch!(@ tier, abt_chains(a, k, b, k, m, n, whole, &mut self.chains));
    }

    /// Writes the Gram block to `c` (`m x n`): each element's chains
    /// through the fixed tree, then its rows' columns past `k / 8 * 8`
    /// FMA-appended in ascending order.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn finish(&self, a: &[f64], b: &[f64], k: usize, c: &mut [f64]) {
        let (m, n) = (self.m, self.n);
        assert_eq!(a.len(), m * k, "GramChains::finish: a shape mismatch");
        assert_eq!(b.len(), n * k, "GramChains::finish: b shape mismatch");
        assert_eq!(c.len(), m * n, "GramChains::finish: c shape mismatch");
        let whole = k / 8 * 8;
        for i in 0..m {
            let a_tail = &a[i * k + whole..(i + 1) * k];
            for j in 0..n {
                let b_tail = &b[j * k + whole..(j + 1) * k];
                let tree = simd::scalar::tree(self.chains[i * n + j].0);
                c[i * n + j] = a_tail.iter().zip(b_tail).fold(tree, |sum, (x, y)| x.mul_add(*y, sum));
            }
        }
    }
}

/// Squared Euclidean norm of each row of a row-major `rows x cols` matrix.
///
/// Each norm is the same fixed-order reduction as the [`matmul_abt_into`]
/// per-element kernel (applied to the row with itself), keeping the EnSF
/// distance expansion deterministic and partition-invariant, with the same
/// bits at every SIMD level.
pub fn row_sq_norms(a: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "row_sq_norms: input shape mismatch");
    assert_eq!(out.len(), rows, "row_sq_norms: output length mismatch");
    for (o, row) in out.iter_mut().zip(a.chunks_exact(cols)) {
        *o = simd::dispatch!(dot(row, row));
    }
}

/// [`row_sq_norms`] for a row that arrives in 8-element chunks, in
/// ascending order, so a pass that writes the row can take its norm on the
/// way: each chunk extends the 8 FMA chains, and [`SqNorm::finish`] applies
/// the fixed tree and FMA-appends the `len mod 8` remainder. The result is
/// `row_sq_norms`' bits. The chains sit on a cache line of their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqNorm {
    chains: ChainBlock,
}

impl SqNorm {
    /// Extends chain `l` with `x[l]²` (one FMA each); `x` is the row's next
    /// whole 8-chunk.
    #[inline(always)]
    pub fn chunk(&mut self, x: &[f64; 8]) {
        for (c, &x) in self.chains.0.iter_mut().zip(x) {
            *c = x.mul_add(x, *c);
        }
    }

    /// The norm: the chains' fixed tree, then `tail` (the elements past the
    /// last whole 8-chunk) FMA-appended in ascending order.
    pub fn finish(&self, tail: &[f64]) -> f64 {
        tail.iter().fold(simd::scalar::tree(self.chains.0), |sum, &x| x.mul_add(x, sum))
    }
}

/// Reusable pool of `f64` work buffers for GEMM-based pipelines.
///
/// Callers that evaluate a fixed-shape product many times (the EnSF batched
/// analysis runs both score GEMMs every reverse-SDE step) create one scratch
/// up front and borrow the same buffers each iteration: after the first
/// [`GemmScratch::slices`] call at a given set of lengths, no further heap
/// allocation occurs. Every buffer starts on a 64-byte cache line.
#[derive(Debug, Default)]
pub struct GemmScratch {
    pool: Vec<AlignedVec<f64>>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }

    /// Borrows `N` disjoint zero-initialized-on-growth buffers of the given
    /// lengths, each on a 64-byte boundary. Buffer `i` keeps its length
    /// across calls, so repeated calls with the same lengths are
    /// allocation-free. Contents persist between calls (they are scratch,
    /// not cleared; a buffer that grows keeps its old prefix).
    pub fn slices<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [f64]; N] {
        if self.pool.len() < N {
            self.pool.resize_with(N, || AlignedVec::zeroed(0));
        }
        let mut it = self.pool.iter_mut();
        lens.map(|len| {
            // INVARIANT: the pool was just resized to at least N entries, so
            // the iterator yields one buffer per requested length.
            let buf = it.next().expect("pool sized above");
            if buf.len() < len {
                let mut grown = AlignedVec::zeroed(len);
                grown[..buf.len()].copy_from_slice(buf);
                *buf = grown;
            }
            &mut buf[..len]
        })
    }
}

/// Matrix-vector product `A * x`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let (m, k) = a.shape();
    assert_eq!(k, x.len(), "matvec: dimension mismatch");
    (0..m).map(|i| crate::vector::dot(a.row(i), x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
    }

    fn test_matrix(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f64 * seed).sin())
    }

    /// A row fed to [`SqNorm`] chunk by chunk has `row_sq_norms`' bits at
    /// every length residue.
    #[test]
    fn chunked_sq_norm_is_row_sq_norms() {
        for len in 1..50 {
            let row: Vec<f64> =
                (0..len).map(|i| ((i * 7 + 3) as f64).sin() * 10f64.powi(i as i32 % 5 - 2)).collect();
            let mut want = [0.0];
            row_sq_norms(&row, 1, len, &mut want);
            let mut norm = SqNorm::default();
            let mut chunks = row.chunks_exact(8);
            for chunk in chunks.by_ref() {
                norm.chunk(chunk.try_into().unwrap());
            }
            assert_eq!(norm.finish(chunks.remainder()).to_bits(), want[0].to_bits(), "len {len}");
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = test_matrix(3, 4, 0.7);
        let b = test_matrix(4, 5, 1.3);
        let got = matmul(&a, &b);
        let want = naive_matmul(&a, &b);
        assert!(got.sub(&want).norm_max() < 1e-12);
    }

    #[test]
    fn matmul_matches_naive_blocked_sizes() {
        // Long `p` chains, many 8-column panels and ragged column tails.
        let a = test_matrix(70, 300, 0.19);
        let b = test_matrix(300, 150, 0.41);
        let got = matmul(&a, &b);
        let want = naive_matmul(&a, &b);
        assert!(got.sub(&want).norm_max() < 1e-9);
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_matrix(6, 6, 0.23);
        let i = Matrix::identity(6);
        assert!(matmul(&a, &i).sub(&a).norm_max() < 1e-14);
        assert!(matmul(&i, &a).sub(&a).norm_max() < 1e-14);
    }

    #[test]
    fn matvec_consistency() {
        let a = test_matrix(5, 8, 0.91);
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        let y = matvec(&a, &x);
        let via_matmul = matmul(&a, &Matrix::from_vec(8, 1, x.clone()));
        for i in 0..5 {
            assert!((y[i] - via_matmul[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn associativity_within_tolerance() {
        let a = test_matrix(4, 6, 0.3);
        let b = test_matrix(6, 5, 0.5);
        let c = test_matrix(5, 3, 0.9);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.sub(&right).norm_max() < 1e-10);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn affine_fused_matches_unfused_bitwise() {
        // Fusing the scale_add epilogue into the slices kernel must be a
        // pure store-path change: same bits as the two-call sequence, at
        // every shape including scalar-remainder columns.
        for (m, k, n) in [(1, 1, 1), (4, 20, 64), (5, 7, 29), (20, 20, 83), (3, 11, 16)] {
            let a = test_matrix(m, k, 0.37);
            let b = test_matrix(k, n, 0.19);
            let z = test_matrix(m, n, 0.61);
            let (ca, cb) = (1.375, -0.625);
            let mut unfused = vec![0.0; m * n];
            matmul_slices_into(a.as_slice(), b.as_slice(), m, k, n, &mut unfused);
            crate::vector::scale_add(&mut unfused, ca, z.as_slice(), cb);
            let mut fused = vec![0.0; m * n];
            matmul_slices_affine_into(
                a.as_slice(),
                b.as_slice(),
                m,
                k,
                n,
                z.as_slice(),
                ca,
                cb,
                &mut fused,
            );
            for (f, u) in fused.iter().zip(&unfused) {
                assert_eq!(f.to_bits(), u.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn abt_tiled_matches_naive_across_edge_shapes() {
        // Cover full 4x4 tiles plus every edge-tile shape.
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (4, 4, 64), (9, 6, 33), (8, 8, 257), (5, 13, 100)] {
            let a = test_matrix(m, k, 0.17);
            let b = test_matrix(n, k, 0.29);
            let mut c = vec![0.0; m * n];
            matmul_abt_into(a.as_slice(), b.as_slice(), m, n, k, &mut c);
            let want = matmul(&a, &b.transpose());
            for (got, w) in c.iter().zip(want.as_slice()) {
                assert!((got - w).abs() < 1e-9 * (1.0 + w.abs()), "{m}x{n}x{k}: {got} vs {w}");
            }
        }
    }

    #[test]
    fn abt_tiled_is_row_grouping_invariant() {
        // Computing a sub-block of rows must reproduce the corresponding
        // rows of the full product bit for bit: the partition-invariance
        // contract the EnSF rank decomposition relies on.
        let (m, n, k) = (11, 7, 129);
        let a = test_matrix(m, k, 0.53);
        let b = test_matrix(n, k, 0.71);
        let mut full = vec![0.0; m * n];
        matmul_abt_into(a.as_slice(), b.as_slice(), m, n, k, &mut full);
        for start in 0..m {
            for end in start + 1..=m {
                let rows = end - start;
                let mut part = vec![0.0; rows * n];
                matmul_abt_into(&a.as_slice()[start * k..end * k], b.as_slice(), rows, n, k, &mut part);
                assert_eq!(part, full[start * n..end * n], "rows {start}..{end} diverged");
            }
        }
    }

    #[test]
    fn row_sq_norms_matches_dot() {
        let a = test_matrix(5, 9, 0.43);
        let mut norms = vec![0.0; 5];
        row_sq_norms(a.as_slice(), 5, 9, &mut norms);
        for i in 0..5 {
            let want: f64 = a.row(i).iter().map(|x| x * x).sum();
            assert!((norms[i] - want).abs() < 1e-12 * (1.0 + want));
        }
    }

    #[test]
    fn matmul_slices_matches_matrix_entry_point() {
        let a = test_matrix(6, 10, 0.13);
        let b = test_matrix(10, 4, 0.37);
        let want = matmul(&a, &b);
        let mut c = vec![0.0; 6 * 4];
        matmul_slices_into(a.as_slice(), b.as_slice(), 6, 10, 4, &mut c);
        assert_eq!(c, want.as_slice());
    }

    #[test]
    fn gemm_scratch_reuses_buffers() {
        let mut scratch = GemmScratch::new();
        {
            let [x, y] = scratch.slices([4, 8]);
            x.fill(1.0);
            y.fill(2.0);
            assert_eq!(x.len(), 4);
            assert_eq!(y.len(), 8);
        }
        // Same lengths again: same backing buffers, contents preserved.
        let ptrs: Vec<*const f64> = {
            let [x, y] = scratch.slices([4, 8]);
            assert!(x.iter().all(|&v| v == 1.0));
            assert!(y.iter().all(|&v| v == 2.0));
            vec![x.as_ptr(), y.as_ptr()]
        };
        let [x2, y2] = scratch.slices([4, 8]);
        assert_eq!(ptrs, vec![x2.as_ptr(), y2.as_ptr()]);
        // Growth keeps the prefix and the alignment.
        let [x3, y3] = scratch.slices([6, 8 * 8192]);
        assert_eq!(x3, &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
        assert!(y3[..8].iter().all(|&v| v == 2.0) && y3[8..].iter().all(|&v| v == 0.0));
        assert!([x3.as_ptr(), y3.as_ptr()].iter().all(|p| p.align_offset(64) == 0));
    }

    /// Chain blocks and norm chains each sit on one cache line, in a
    /// vector as in a single value.
    #[test]
    fn chain_arrays_are_cache_line_aligned() {
        assert_eq!((std::mem::size_of::<ChainBlock>(), std::mem::align_of::<ChainBlock>()), (64, 64));
        assert_eq!(std::mem::align_of::<SqNorm>(), 64);
        let gram = GramChains::new(10, 20);
        assert_eq!(gram.chains.as_ptr().align_offset(64), 0);
        let norms = vec![SqNorm::default(); 10];
        assert_eq!(norms.as_ptr().align_offset(64), 0);
    }
}
