//! Runtime SIMD dispatch for the GEMM-family kernels.
//!
//! The hot EnSF kernels ([`crate::gemm::GramChains`] and
//! [`crate::gemm::matmul_abt_into`], its one-window case;
//! [`crate::gemm::matmul_slices_affine_window`] and
//! [`crate::gemm::matmul_slices_affine_into`], its one-window case;
//! [`crate::gemm::matmul_slices_into`], [`crate::gemm::row_sq_norms`])
//! run on the widest [`Level`] the CPU has, detected at each call (std caches
//! the CPUID probe). The `scalar` module is the portable fallback and the
//! specification. [`at_widest_tier`] lends the
//! same detection to other crates' elementwise passes: their closure runs
//! compiled for the widest tier, their arithmetic unchanged.
//!
//! ## One arithmetic
//!
//! Every level computes the scalar body's bits; the lanes only decide how
//! many of its chains run at once.
//!
//! - **Reductions** (`dot`, `abt_chains`): 8 FMA chains, chain `l` taking
//!   the indices `k ≡ l (mod 8)` of the whole 8-chunks in ascending order;
//!   then the fixed tree `((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7))`; then the
//!   `k mod 8` remainder, FMA-appended in ascending order. AVX-512 holds the
//!   chains in one register, AVX2 in two (`lo`/`hi`), scalar in an
//!   `[f64; 8]`. `abt_chains` runs a block of chains over one column window
//!   of row-strided operands and leaves them in memory, so a Gram block
//!   accumulates window by window with the whole product's bits; the tree
//!   and the remainder are [`crate::gemm::GramChains::finish`]'s.
//! - **`matmul_slices`**: one ascending-`p` FMA chain per element that skips
//!   exact-zero coefficients; the affine epilogue is `fma(ca, acc, cb·z)`,
//!   the arithmetic of the scalar [`crate::vector::scale_add`]. The kernel
//!   writes a column window of row-strided operands; no element depends on
//!   the window it falls in.
//!
//! No element's arithmetic depends on its tile, its row grouping, its column
//! window, the matrix size or the level, so results are bitwise run-to-run
//! deterministic, partition-invariant (the EnSF rank-decomposition contract)
//! and the same on every CPU. `f64::mul_add` is a correctly rounded FMA on
//! every target, so the scalar body is exact wherever it runs. One nuance
//! sits outside finite arithmetic: the SIMD `matmul_slices` tiles skip a `p`
//! only when every row of the tile has a zero coefficient there, which
//! differs from the scalar per-row skip only where `b` holds an infinity or
//! NaN, or in the sign of an exactly zero sum.
//!
//! ## Tiles
//!
//! The tiers differ only in how many chains they hold in registers.
//!
//! - **`abt_chains`**: AVX-512 splits the rows into register tiles of at
//!   most 5 rows, as even as possible (`m = 10`, the EnSF particle block,
//!   runs as 5 + 5 rather than 4 + 4 + 2), and runs `IH×4` tiles over them;
//!   AVX2 runs 2×4 tiles of chain pairs; edge elements run as `1×1` tiles.
//!   A tile loads its chains, runs the window and stores them back.
//! - **`matmul_slices`**: AVX-512 uses the same row tiles, builds each
//!   tile's union skip list once (in segments of `SEGMENT` indices of `p`,
//!   the accumulators round-tripping exactly through `C` between segments),
//!   then runs 32-column panels (4 registers per row, up to 20
//!   accumulators), 8-column panels and a scalar column tail; AVX2 builds
//!   the same skip list per 4-row tile and runs 8-column panels (2
//!   registers per row), 4-column panels and the same column tail. Both
//!   read a tile's coefficients through per-row pointers.
//!
//! A chain block ([`ChainBlock`]) is 64-byte aligned, so the tiers' chain
//! loads and stores each touch one cache line.

/// One output element's 8 FMA chains, alone on a 64-byte cache line, so
/// a tier's loads and stores of a block never straddle two lines.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainBlock(pub [f64; 8]);

/// Instruction-set tier the dispatched kernels run on. Every tier computes
/// the same bits; the tier only sets the speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar loops (the specification).
    Scalar,
    /// AVX2 + FMA: the 8 chains in two 4-lane registers.
    Avx2,
    /// AVX-512F: the 8 chains in one 8-lane register.
    Avx512,
}

/// The widest tier this CPU supports.
pub fn level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Level::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Level::Avx2;
        }
    }
    Level::Scalar
}

/// Calls `f` inside a function compiled for the widest tier this CPU has, so
/// the code inlined into it — `f64::mul_add` above all, a library call in
/// the portable build — compiles to that tier's instructions. `f` computes
/// the same bits on every tier; only its speed changes.
pub fn at_widest_tier<R>(f: impl FnOnce() -> R) -> R {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` reports only tiers this CPU supports.
        Level::Avx512 => unsafe { avx512::call(f) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above for the AVX2+FMA tier.
        Level::Avx2 => unsafe { avx2::call(f) },
        _ => f(),
    }
}

/// `dispatch!(kernel(args…))` calls `kernel` on the widest tier this CPU
/// has; `dispatch!(@ tier, kernel(args…))` calls it on `tier`, which must be
/// a tier the CPU has. The caller establishes the kernel's slice-length
/// contract (every caller asserts its shapes first).
macro_rules! dispatch {
    ($f:ident($($arg:expr),* $(,)?)) => {
        $crate::simd::dispatch!(@ $crate::simd::level(), $f($($arg),*))
    };
    (@ $tier:expr, $f:ident($($arg:expr),*)) => {
        match $tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier is one this CPU supports (`level()` reports
            // only those), and the caller asserted the kernel's shapes.
            $crate::simd::Level::Avx512 => unsafe { $crate::simd::avx512::$f($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above for the AVX2+FMA tier.
            $crate::simd::Level::Avx2 => unsafe { $crate::simd::avx2::$f($($arg),*) },
            _ => $crate::simd::scalar::$f($($arg),*),
        }
    };
}
pub(crate) use dispatch;

/// The specification: portable loops that every SIMD tier reproduces bit
/// for bit.
pub(crate) mod scalar {
    use super::ChainBlock;

    /// The fixed combine of the 8 chain partials, shared by every tier's
    /// reductions.
    #[inline(always)]
    pub fn tree(l: [f64; 8]) -> f64 {
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }

    /// Dot product: 8 FMA chains over the whole 8-chunks, [`tree`], then the
    /// remainder FMA-appended in ascending order. `b.len() >= a.len()`.
    // lint: no_alloc
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        let whole = k / 8 * 8;
        let mut l = [0.0f64; 8];
        for (ca, cb) in a[..whole].chunks_exact(8).zip(b[..whole].chunks_exact(8)) {
            for c in 0..8 {
                l[c] = ca[c].mul_add(cb[c], l[c]);
            }
        }
        let mut sum = tree(l);
        for p in whole..k {
            sum = a[p].mul_add(b[p], sum);
        }
        sum
    }

    /// The Gram chains of `C = A·Bᵀ` over a column window: chain block
    /// `chains[i·n + j]` takes [`dot`]'s 8 chains of row `i` of `a` and
    /// row `j` of `b` a window further, over the window's first `cols`
    /// columns (a multiple of 8). Row `i` of `a` starts at `a[i·lda]`, row
    /// `j` of `b` at `b[j·ldb]`.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    pub fn abt_chains(
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        cols: usize,
        chains: &mut [ChainBlock],
    ) {
        for i in 0..m {
            let ar = &a[i * lda..i * lda + cols];
            for j in 0..n {
                let br = &b[j * ldb..j * ldb + cols];
                let l = &mut chains[i * n + j].0;
                for (ca, cb) in ar.chunks_exact(8).zip(br.chunks_exact(8)) {
                    for c in 0..8 {
                        l[c] = ca[c].mul_add(cb[c], l[c]);
                    }
                }
            }
        }
    }

    /// `C = A·B` as an i-p-j nest: one ascending-`p` FMA chain per element,
    /// skipping exact-zero coefficients. `epi = Some((z, ldz, ca, cb))`
    /// stores `fma(ca, acc, cb·z)` instead. `a` is `m×k` (contiguous); row
    /// `p` of `b` starts at `b[p·ldb]`, row `i` of `c` at `c[i·ldc]` and of
    /// `z` at `z[i·ldz]`, each `n` columns wide.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_slices(
        a: &[f64],
        b: &[f64],
        ldb: usize,
        m: usize,
        k: usize,
        n: usize,
        c: &mut [f64],
        ldc: usize,
        epi: Option<(&[f64], usize, f64, f64)>,
    ) {
        for i in 0..m {
            let c_row = &mut c[i * ldc..i * ldc + n];
            c_row.fill(0.0);
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero coefficient skip is a bitwise no-op")
                    continue;
                }
                for (cj, &bj) in c_row.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                    *cj = av.mul_add(bj, *cj);
                }
            }
            if let Some((z, ldz, ca, cb)) = epi {
                for (cj, &zj) in c_row.iter_mut().zip(&z[i * ldz..i * ldz + n]) {
                    *cj = ca.mul_add(*cj, cb * zj);
                }
            }
        }
    }
}

/// The read-only operands of one SIMD-tier `matmul_slices` call.
#[cfg(target_arch = "x86_64")]
struct Slices<'a> {
    a: &'a [f64],
    b: &'a [f64],
    ldb: usize,
    k: usize,
    n: usize,
    ldc: usize,
    epi: Option<(&'a [f64], usize, f64, f64)>,
}

/// Capacity of a tile's union skip list: `p` runs in segments of this
/// many indices, and a panel's accumulators round-trip through `C` (an
/// exact store and reload) between segments.
#[cfg(target_arch = "x86_64")]
const SEGMENT: usize = 128;

/// One segment of a tile's `p` range: its live indices, and whether it
/// starts the chains (else they resume from `C`) or ends them (then the
/// epilogue stores the result).
#[cfg(target_arch = "x86_64")]
struct Segment<'a> {
    live: &'a [usize],
    first: bool,
    last: bool,
}

#[cfg(target_arch = "x86_64")]
impl Slices<'_> {
    /// The segment of rows `i0..i0+IH` from `p0`, its live indices written
    /// to `live`, and the index it ends at. A `p` is live iff any of the
    /// tile's rows has a nonzero coefficient there: per-row zero
    /// coefficients are exact no-ops, so the union never changes a row's
    /// value.
    #[inline(always)]
    fn segment<'l, const IH: usize>(&self, i0: usize, p0: usize, live: &'l mut [usize; SEGMENT]) -> (Segment<'l>, usize) {
        let (a, k) = (self.a, self.k);
        let p1 = k.min(p0 + SEGMENT);
        let mut count = 0;
        for p in p0..p1 {
            if (0..IH).any(|di| a[(i0 + di) * k + p] != 0.0) { // lint: allow(float-exact-compare, reason="exact-zero coefficient skip is a bitwise no-op")
                live[count] = p;
                count += 1;
            }
        }
        (Segment { live: &live[..count], first: p0 == 0, last: p1 == k }, p1)
    }

    /// Columns `vcols..n` of rows `i0..i0+ih`: the scalar body, element by
    /// element.
    #[inline(always)]
    fn column_tail(&self, c: &mut [f64], i0: usize, ih: usize, vcols: usize) {
        let (a, k) = (self.a, self.k);
        for j in vcols..self.n {
            for di in 0..ih {
                let mut sum = 0.0f64;
                for p in 0..k {
                    let av = a[(i0 + di) * k + p];
                    if av != 0.0 { // lint: allow(float-exact-compare, reason="exact-zero coefficient skip is a bitwise no-op")
                        sum = av.mul_add(self.b[p * self.ldb + j], sum);
                    }
                }
                c[(i0 + di) * self.ldc + j] = match self.epi {
                    Some((z, ldz, ca, cb)) => ca.mul_add(sum, cb * z[(i0 + di) * ldz + j]),
                    None => sum,
                };
            }
        }
    }
}

/// AVX-512F kernels: the 8 chains in one 8-lane register.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::{ChainBlock, Segment, Slices, SEGMENT};
    use std::arch::x86_64::*;

    /// [`super::at_widest_tier`] on this tier.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn call<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// [`super::scalar::tree`] over the 8 lanes.
    ///
    /// # Safety
    /// AVX-512F must be available; every caller is itself gated on
    /// `#[target_feature(enable = "avx512f")]`.
    #[inline(always)]
    unsafe fn hsum(acc: __m512d) -> f64 {
        let mut l = [0.0f64; 8];
        // SAFETY: `l` is a 64-byte local array and `storeu` is unaligned;
        // AVX-512F availability is this fn's documented contract.
        unsafe { _mm512_storeu_pd(l.as_mut_ptr(), acc) };
        super::scalar::tree(l)
    }

    /// Dot product as one 8-lane FMA chain plus ascending scalar remainder.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime and `b.len() >= a.len()`.
    // lint: no_alloc
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        // SAFETY: each 8-lane load reads `a[c*8..c*8+8]` / `b[c*8..c*8+8]`
        // with `c*8 + 8 <= k <= b.len()`, so all pointers stay in bounds;
        // the ISA requirement is the fn's documented safety contract.
        unsafe {
            let mut acc = _mm512_setzero_pd();
            let chunks = k / 8;
            for c in 0..chunks {
                let av = _mm512_loadu_pd(a.as_ptr().add(c * 8));
                let bv = _mm512_loadu_pd(b.as_ptr().add(c * 8));
                acc = _mm512_fmadd_pd(av, bv, acc);
            }
            let mut sum = hsum(acc);
            for p in chunks * 8..k {
                sum = a[p].mul_add(b[p], sum);
            }
            sum
        }
    }

    /// The most rows a register tile holds: an `IH×4` `abt_chains` tile
    /// keeps `4·IH` accumulators and 5 operands in flight, an `IH`-row
    /// `matmul_slices` panel `4·IH` accumulators and 5 operands, so 5 rows
    /// fill 25 of the 32 registers.
    const MAX_ROWS: usize = 5;

    /// `m` rows as `(first, height)` register tiles of at most
    /// [`MAX_ROWS`], as even as possible and the taller first: `m = 10`
    /// runs as 5 + 5, `m = 8` as 4 + 4, `m = 11` as 4 + 4 + 3.
    fn row_tiles(m: usize) -> impl Iterator<Item = (usize, usize)> {
        let tiles = m.div_ceil(MAX_ROWS);
        let (base, taller) = (m / tiles.max(1), m % tiles.max(1));
        (0..tiles).map(move |t| (t * base + t.min(taller), base + usize::from(t < taller)))
    }

    /// [`super::scalar::abt_chains`]: `IH×4` register tiles of chain
    /// blocks over the row tiles of [`row_tiles`], each tile's chains
    /// loaded into registers, run over the window and stored back; edge
    /// columns (`n mod 4`) run as `1×1` tiles.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime; rows `0..m` of `a` (at
    /// stride `lda`) and `0..n` of `b` (at stride `ldb`) hold `cols`
    /// elements each, and `chains` holds `m·n` chain blocks.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn abt_chains(
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        cols: usize,
        chains: &mut [ChainBlock],
    ) {
        let op = Gram { a, lda, b, ldb, n, cols };
        for (i0, ih) in row_tiles(m) {
            let mut j0 = 0;
            while j0 + 4 <= n {
                // SAFETY: rows `i0..i0+ih` of `a` and `j0..j0+4` of `b`
                // exist (`row_tiles` stays below `m`, `j0 + 4 <= n`); the
                // ISA is this fn's safety contract.
                unsafe {
                    match ih {
                        5 => chain_tile::<5, 4>(&op, chains, i0, j0),
                        4 => chain_tile::<4, 4>(&op, chains, i0, j0),
                        3 => chain_tile::<3, 4>(&op, chains, i0, j0),
                        2 => chain_tile::<2, 4>(&op, chains, i0, j0),
                        _ => chain_tile::<1, 4>(&op, chains, i0, j0),
                    }
                }
                j0 += 4;
            }
            for i in i0..i0 + ih {
                for j in j0..n {
                    // SAFETY: row `i < m` of `a` and `j < n` of `b` exist;
                    // the ISA is this fn's safety contract.
                    unsafe { chain_tile::<1, 1>(&op, chains, i, j) };
                }
            }
        }
    }

    /// The operands of one [`abt_chains`] call.
    struct Gram<'a> {
        a: &'a [f64],
        lda: usize,
        b: &'a [f64],
        ldb: usize,
        n: usize,
        cols: usize,
    }

    /// One `IH×TJ` tile of [`abt_chains`] at rows `i0..`, columns `j0..`:
    /// each chain block an 8-lane FMA chain over the window's 8-chunks.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime; rows `i0..i0+IH` of `a` and
    /// `j0..j0+TJ` of `b` exist (`cols` elements each), and `chains` holds
    /// their blocks.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn chain_tile<const IH: usize, const TJ: usize>(
        op: &Gram,
        chains: &mut [ChainBlock],
        i0: usize,
        j0: usize,
    ) {
        let block = |di: usize, dj: usize| (i0 + di) * op.n + j0 + dj;
        // SAFETY: the row pointers address existing rows (this fn's
        // contract) and every load reads `off..off+8` with
        // `off + 8 <= cols`; each chain block is a 64-byte array.
        unsafe {
            let mut ap = [op.a.as_ptr(); IH];
            for (di, api) in ap.iter_mut().enumerate() {
                *api = api.add((i0 + di) * op.lda);
            }
            let mut bp = [op.b.as_ptr(); TJ];
            for (dj, bpj) in bp.iter_mut().enumerate() {
                *bpj = bpj.add((j0 + dj) * op.ldb);
            }
            let mut acc = [[_mm512_setzero_pd(); TJ]; IH];
            for (di, accd) in acc.iter_mut().enumerate() {
                for (dj, accdj) in accd.iter_mut().enumerate() {
                    *accdj = _mm512_loadu_pd(chains[block(di, dj)].0.as_ptr());
                }
            }
            for ch in 0..op.cols / 8 {
                let off = ch * 8;
                let mut bv = [_mm512_setzero_pd(); TJ];
                for (bvj, &bpj) in bv.iter_mut().zip(&bp) {
                    *bvj = _mm512_loadu_pd(bpj.add(off));
                }
                for (accd, &api) in acc.iter_mut().zip(&ap) {
                    let av = _mm512_loadu_pd(api.add(off));
                    for (accdj, &bvj) in accd.iter_mut().zip(&bv) {
                        *accdj = _mm512_fmadd_pd(av, bvj, *accdj);
                    }
                }
            }
            for (di, accd) in acc.iter().enumerate() {
                for (dj, &accdj) in accd.iter().enumerate() {
                    _mm512_storeu_pd(chains[block(di, dj)].0.as_mut_ptr(), accdj);
                }
            }
        }
    }

    /// [`super::scalar::matmul_slices`] (the axpy formulation): per row
    /// tile of [`row_tiles`], the `p`-ascending FMA chain runs per element,
    /// so values are independent of the tiling. A `p` index is skipped when
    /// *every* row of the tile carries a zero coefficient — an exact no-op
    /// for finite `b` that makes peaked (softmax-weight) coefficient
    /// matrices cheap. The tile's union skip list is built once, then run
    /// over 32-column panels (4 registers per row, up to 20 accumulators),
    /// 8-column panels and a scalar column tail.
    ///
    /// `epi = Some((z, ldz, ca, cb))` fuses the affine epilogue
    /// `C = ca·(A·B) + cb·z` into the store (one `fma` plus one rounded
    /// multiply per element — the same per-element arithmetic as
    /// [`crate::vector::scale_add`], so fused and unfused sequences agree bit
    /// for bit while saving a full read+write pass over `C`).
    ///
    /// # Safety
    /// AVX-512F must be available at runtime; `a` is `m×k`, rows `0..k` of
    /// `b` (at stride `ldb`) and `0..m` of `c` (at `ldc`) and of `z` (at
    /// `ldz`, when `epi` is set) hold `n` elements each.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_slices(
        a: &[f64],
        b: &[f64],
        ldb: usize,
        m: usize,
        k: usize,
        n: usize,
        c: &mut [f64],
        ldc: usize,
        epi: Option<(&[f64], usize, f64, f64)>,
    ) {
        let op = Slices { a, b, ldb, k, n, ldc, epi };
        for (i0, ih) in row_tiles(m) {
            // SAFETY: rows `i0..i0 + ih` exist in `a`, `c` and `z`
            // (`row_tiles` stays below `m`); the ISA is this fn's safety
            // contract.
            unsafe {
                match ih {
                    5 => slices_tile::<5>(&op, c, i0),
                    4 => slices_tile::<4>(&op, c, i0),
                    3 => slices_tile::<3>(&op, c, i0),
                    2 => slices_tile::<2>(&op, c, i0),
                    _ => slices_tile::<1>(&op, c, i0),
                }
            }
        }
    }

    /// Rows `i0..i0+IH` of [`matmul_slices`].
    ///
    /// # Safety
    /// AVX-512F must be available at runtime; rows `i0..i0+IH` exist in
    /// `a`, `c` and `z`, and `b` holds its `k` rows.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn slices_tile<const IH: usize>(op: &Slices, c: &mut [f64], i0: usize) {
        let vcols = op.n / 8 * 8;
        let mut live = [0usize; SEGMENT];
        let mut p0 = 0;
        loop {
            let (seg, p1) = op.segment::<IH>(i0, p0, &mut live);
            let mut jv = 0;
            // SAFETY: every panel spans columns `jv..jv + 8·W <= vcols <= n`
            // of rows that exist (this fn's contract); the ISA is this fn's
            // safety contract.
            unsafe {
                while jv + 32 <= vcols {
                    slices_panel::<IH, 4>(op, c, i0, jv, &seg);
                    jv += 32;
                }
                while jv < vcols {
                    slices_panel::<IH, 1>(op, c, i0, jv, &seg);
                    jv += 8;
                }
            }
            if seg.last {
                break;
            }
            p0 = p1;
        }
        op.column_tail(c, i0, IH, vcols);
    }

    /// An `IH`-row, `8·W`-column panel of [`slices_tile`] at column `jv`:
    /// `IH·W` accumulators, each FMA-chained over the segment's live `p`.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime; columns `jv..jv + 8·W <= n`
    /// of rows `i0..i0+IH` exist in `c` (and `z`), every live `p < k`
    /// indexes a row of `b`, and rows `i0..i0+IH` exist in `a`.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn slices_panel<const IH: usize, const W: usize>(
        op: &Slices,
        c: &mut [f64],
        i0: usize,
        jv: usize,
        seg: &Segment,
    ) {
        let epiv = op.epi.map(|(z, ldz, ca, cb)| (z, ldz, _mm512_set1_pd(ca), _mm512_set1_pd(cb)));
        // SAFETY: the loads and stores touch columns `jv..jv + 8·W` of
        // rows `i0..i0+IH` (of `c`, `z`) and of rows `p < k` (of `b`), and
        // element `p < k` of rows `i0..i0+IH` of `a`, all inside the
        // slices by this fn's contract.
        unsafe {
            let mut ap = [op.a.as_ptr(); IH];
            for (di, api) in ap.iter_mut().enumerate() {
                *api = api.add((i0 + di) * op.k);
            }
            let cp = c.as_mut_ptr();
            let mut acc = [[_mm512_setzero_pd(); W]; IH];
            if !seg.first {
                for (di, accd) in acc.iter_mut().enumerate() {
                    for (w, accdw) in accd.iter_mut().enumerate() {
                        *accdw = _mm512_loadu_pd(cp.add((i0 + di) * op.ldc + jv + 8 * w));
                    }
                }
            }
            for &p in seg.live {
                let bp = op.b.as_ptr().add(p * op.ldb + jv);
                let mut bv = [_mm512_setzero_pd(); W];
                for (w, bvw) in bv.iter_mut().enumerate() {
                    *bvw = _mm512_loadu_pd(bp.add(8 * w));
                }
                for (accd, &api) in acc.iter_mut().zip(&ap) {
                    let av = _mm512_set1_pd(*api.add(p));
                    for (accdw, &bvw) in accd.iter_mut().zip(&bv) {
                        *accdw = _mm512_fmadd_pd(av, bvw, *accdw);
                    }
                }
            }
            for (di, accd) in acc.iter().enumerate() {
                for (w, &accdw) in accd.iter().enumerate() {
                    let col = jv + 8 * w;
                    let r = match epiv {
                        Some((z, ldz, cav, cbv)) if seg.last => _mm512_fmadd_pd(
                            cav,
                            accdw,
                            _mm512_mul_pd(cbv, _mm512_loadu_pd(z.as_ptr().add((i0 + di) * ldz + col))),
                        ),
                        _ => accdw,
                    };
                    _mm512_storeu_pd(cp.add((i0 + di) * op.ldc + col), r);
                }
            }
        }
    }
}

/// AVX2 + FMA kernels: the 8 chains in two 4-lane registers (`lo` holds
/// chains 0–3, `hi` chains 4–7); otherwise the AVX-512 module's structure
/// and contracts.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{ChainBlock, Segment, Slices, SEGMENT};
    use std::arch::x86_64::*;

    /// [`super::at_widest_tier`] on this tier.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn call<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// [`super::scalar::tree`] over the lanes of `lo`, then of `hi`.
    ///
    /// # Safety
    /// AVX2 must be available; every caller is itself gated on
    /// `#[target_feature(enable = "avx2,fma")]`.
    #[inline(always)]
    unsafe fn hsum(lo: __m256d, hi: __m256d) -> f64 {
        let mut l = [0.0f64; 8];
        // SAFETY: `l` is a 64-byte local array holding both 32-byte
        // unaligned stores; AVX2 availability is this fn's documented
        // contract.
        unsafe {
            _mm256_storeu_pd(l.as_mut_ptr(), lo);
            _mm256_storeu_pd(l.as_mut_ptr().add(4), hi);
        }
        super::scalar::tree(l)
    }

    /// Dot product as two 4-lane FMA chains plus ascending scalar remainder.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime and `b.len() >= a.len()`.
    // lint: no_alloc
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        // SAFETY: each chunk reads `a[c*8..c*8+8]` / `b[c*8..c*8+8]` as two
        // 4-lane loads with `c*8 + 8 <= k <= b.len()`, so all pointers stay
        // in bounds; the ISA requirement is the fn's documented contract.
        unsafe {
            let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
            let chunks = k / 8;
            for c in 0..chunks {
                let (pa, pb) = (a.as_ptr().add(c * 8), b.as_ptr().add(c * 8));
                lo = _mm256_fmadd_pd(_mm256_loadu_pd(pa), _mm256_loadu_pd(pb), lo);
                hi = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(4)), _mm256_loadu_pd(pb.add(4)), hi);
            }
            let mut sum = hsum(lo, hi);
            for p in chunks * 8..k {
                sum = a[p].mul_add(b[p], sum);
            }
            sum
        }
    }

    /// [`super::scalar::abt_chains`]: 2x4 register tiles of chain pairs
    /// (4x4 pairs would need 32 ymm registers), each tile's chains loaded
    /// into registers, run over the window and stored back; edge rows and
    /// columns run as `1×1` tiles.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime; rows `0..m` of `a` (at stride
    /// `lda`) and `0..n` of `b` (at stride `ldb`) hold `cols` elements
    /// each, and `chains` holds `m·n` chain blocks.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn abt_chains(
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        cols: usize,
        chains: &mut [ChainBlock],
    ) {
        let op = Gram { a, lda, b, ldb, n, cols };
        let (tiled_m, tiled_n) = (m / 2 * 2, n / 4 * 4);
        for i0 in (0..tiled_m).step_by(2) {
            for j0 in (0..tiled_n).step_by(4) {
                // SAFETY: rows `i0..i0+2 <= m` of `a` and `j0..j0+4 <= n`
                // of `b` exist; the ISA is this fn's safety contract.
                unsafe { chain_tile::<2, 4>(&op, chains, i0, j0) };
            }
        }
        for i in 0..m {
            let edge = if i < tiled_m { tiled_n } else { 0 };
            for j in edge..n {
                // SAFETY: row `i < m` of `a` and `j < n` of `b` exist; the
                // ISA is this fn's safety contract.
                unsafe { chain_tile::<1, 1>(&op, chains, i, j) };
            }
        }
    }

    /// The operands of one [`abt_chains`] call.
    struct Gram<'a> {
        a: &'a [f64],
        lda: usize,
        b: &'a [f64],
        ldb: usize,
        n: usize,
        cols: usize,
    }

    /// One `TI×TJ` tile of [`abt_chains`] at rows `i0..`, columns `j0..`:
    /// each chain block a pair of 4-lane FMA chains over the window's
    /// 8-chunks.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime; rows `i0..i0+TI` of `a` and
    /// `j0..j0+TJ` of `b` exist (`cols` elements each), and `chains` holds
    /// their blocks.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn chain_tile<const TI: usize, const TJ: usize>(
        op: &Gram,
        chains: &mut [ChainBlock],
        i0: usize,
        j0: usize,
    ) {
        let block = |di: usize, dj: usize| (i0 + di) * op.n + j0 + dj;
        // SAFETY: the row pointers address existing rows (this fn's
        // contract) and every load reads `off..off+8` with
        // `off + 8 <= cols`; each chain block is a 64-byte array.
        unsafe {
            let mut ap = [op.a.as_ptr(); TI];
            for (di, api) in ap.iter_mut().enumerate() {
                *api = api.add((i0 + di) * op.lda);
            }
            let mut bp = [op.b.as_ptr(); TJ];
            for (dj, bpj) in bp.iter_mut().enumerate() {
                *bpj = bpj.add((j0 + dj) * op.ldb);
            }
            let zero = _mm256_setzero_pd();
            let mut acc = [[(zero, zero); TJ]; TI];
            for (di, accd) in acc.iter_mut().enumerate() {
                for (dj, accdj) in accd.iter_mut().enumerate() {
                    let l = chains[block(di, dj)].0.as_ptr();
                    *accdj = (_mm256_loadu_pd(l), _mm256_loadu_pd(l.add(4)));
                }
            }
            for ch in 0..op.cols / 8 {
                let off = ch * 8;
                let mut av = [(zero, zero); TI];
                for (avi, &api) in av.iter_mut().zip(&ap) {
                    *avi = (_mm256_loadu_pd(api.add(off)), _mm256_loadu_pd(api.add(off + 4)));
                }
                for (dj, &bpj) in bp.iter().enumerate() {
                    let blo = _mm256_loadu_pd(bpj.add(off));
                    let bhi = _mm256_loadu_pd(bpj.add(off + 4));
                    for (accd, &(alo, ahi)) in acc.iter_mut().zip(&av) {
                        let (lo, hi) = accd[dj];
                        accd[dj] = (_mm256_fmadd_pd(alo, blo, lo), _mm256_fmadd_pd(ahi, bhi, hi));
                    }
                }
            }
            for (di, accd) in acc.iter().enumerate() {
                for (dj, &(lo, hi)) in accd.iter().enumerate() {
                    let l = chains[block(di, dj)].0.as_mut_ptr();
                    _mm256_storeu_pd(l, lo);
                    _mm256_storeu_pd(l.add(4), hi);
                }
            }
        }
    }

    /// [`super::scalar::matmul_slices`] (the axpy formulation) in 4-row
    /// tiles, as the AVX-512 variant runs it: each tile's union skip list
    /// built once per segment of `p`, then run over 8-column panels (2
    /// registers per row), 4-column panels and a scalar column tail, the
    /// coefficients read through per-row pointers. `epi` fuses the affine
    /// epilogue `C = ca·(A·B) + cb·z` exactly as the AVX-512 variant does.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime; `a` is `m×k`, rows `0..k` of
    /// `b` (at stride `ldb`) and `0..m` of `c` (at `ldc`) and of `z` (at
    /// `ldz`, when `epi` is set) hold `n` elements each.
    // lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_slices(
        a: &[f64],
        b: &[f64],
        ldb: usize,
        m: usize,
        k: usize,
        n: usize,
        c: &mut [f64],
        ldc: usize,
        epi: Option<(&[f64], usize, f64, f64)>,
    ) {
        let op = Slices { a, b, ldb, k, n, ldc, epi };
        for i0 in (0..m).step_by(4) {
            // SAFETY: rows `i0..i0 + ih` exist in `a`, `c` and `z` (the
            // tile stays below `m`); the ISA is this fn's safety contract.
            unsafe {
                match 4.min(m - i0) {
                    4 => slices_tile::<4>(&op, c, i0),
                    3 => slices_tile::<3>(&op, c, i0),
                    2 => slices_tile::<2>(&op, c, i0),
                    _ => slices_tile::<1>(&op, c, i0),
                }
            }
        }
    }

    /// Rows `i0..i0+IH` of [`matmul_slices`].
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime; rows `i0..i0+IH` exist in
    /// `a`, `c` and `z`, and `b` holds its `k` rows.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn slices_tile<const IH: usize>(op: &Slices, c: &mut [f64], i0: usize) {
        let vcols = op.n / 4 * 4;
        let mut live = [0usize; SEGMENT];
        let mut p0 = 0;
        loop {
            let (seg, p1) = op.segment::<IH>(i0, p0, &mut live);
            let mut jv = 0;
            // SAFETY: every panel spans columns `jv..jv + 4·W <= vcols <= n`
            // of rows that exist (this fn's contract); the ISA is this fn's
            // safety contract.
            unsafe {
                while jv + 8 <= vcols {
                    slices_panel::<IH, 2>(op, c, i0, jv, &seg);
                    jv += 8;
                }
                while jv < vcols {
                    slices_panel::<IH, 1>(op, c, i0, jv, &seg);
                    jv += 4;
                }
            }
            if seg.last {
                break;
            }
            p0 = p1;
        }
        op.column_tail(c, i0, IH, vcols);
    }

    /// An `IH`-row, `4·W`-column panel of [`slices_tile`] at column `jv`:
    /// `IH·W` accumulators, each FMA-chained over the segment's live `p`.
    ///
    /// # Safety
    /// AVX2+FMA must be available at runtime; columns `jv..jv + 4·W <= n`
    /// of rows `i0..i0+IH` exist in `c` (and `z`), every live `p < k`
    /// indexes a row of `b`, and rows `i0..i0+IH` exist in `a`.
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn slices_panel<const IH: usize, const W: usize>(
        op: &Slices,
        c: &mut [f64],
        i0: usize,
        jv: usize,
        seg: &Segment,
    ) {
        let epiv = op.epi.map(|(z, ldz, ca, cb)| (z, ldz, _mm256_set1_pd(ca), _mm256_set1_pd(cb)));
        // SAFETY: the loads and stores touch columns `jv..jv + 4·W` of
        // rows `i0..i0+IH` (of `c`, `z`) and of rows `p < k` (of `b`), and
        // element `p < k` of rows `i0..i0+IH` of `a`, all inside the
        // slices by this fn's contract.
        unsafe {
            let mut ap = [op.a.as_ptr(); IH];
            for (di, api) in ap.iter_mut().enumerate() {
                *api = api.add((i0 + di) * op.k);
            }
            let cp = c.as_mut_ptr();
            let mut acc = [[_mm256_setzero_pd(); W]; IH];
            if !seg.first {
                for (di, accd) in acc.iter_mut().enumerate() {
                    for (w, accdw) in accd.iter_mut().enumerate() {
                        *accdw = _mm256_loadu_pd(cp.add((i0 + di) * op.ldc + jv + 4 * w));
                    }
                }
            }
            for &p in seg.live {
                let bp = op.b.as_ptr().add(p * op.ldb + jv);
                let mut bv = [_mm256_setzero_pd(); W];
                for (w, bvw) in bv.iter_mut().enumerate() {
                    *bvw = _mm256_loadu_pd(bp.add(4 * w));
                }
                for (accd, &api) in acc.iter_mut().zip(&ap) {
                    let av = _mm256_set1_pd(*api.add(p));
                    for (accdw, &bvw) in accd.iter_mut().zip(&bv) {
                        *accdw = _mm256_fmadd_pd(av, bvw, *accdw);
                    }
                }
            }
            for (di, accd) in acc.iter().enumerate() {
                for (w, &accdw) in accd.iter().enumerate() {
                    let col = jv + 4 * w;
                    let r = match epiv {
                        Some((z, ldz, cav, cbv)) if seg.last => _mm256_fmadd_pd(
                            cav,
                            accdw,
                            _mm256_mul_pd(cbv, _mm256_loadu_pd(z.as_ptr().add((i0 + di) * ldz + col))),
                        ),
                        _ => accdw,
                    };
                    _mm256_storeu_pd(cp.add((i0 + di) * op.ldc + col), r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul_abt_into, matmul_slices_affine_into, matmul_slices_affine_window, GramChains};
    use proptest::prelude::*;

    /// The SIMD tiers this CPU can run; each is compared with `scalar`.
    fn simd_tiers() -> Vec<Level> {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            let avx512 = is_x86_feature_detected!("avx512f");
            [(Level::Avx2, avx2), (Level::Avx512, avx512)]
                .into_iter()
                .filter_map(|(tier, present)| present.then_some(tier))
                .collect()
        }
        #[cfg(not(target_arch = "x86_64"))]
        Vec::new()
    }

    /// `len` finite values over twenty binades (so a reordered sum rounds
    /// differently), a `zeros` fraction of them exactly zero.
    fn values(len: usize, seed: u64, zeros: f64) -> Vec<f64> {
        let mut rng = proptest::TestRng::new(seed);
        (0..len)
            .map(|_| {
                let (u, e) = (rng.unit_f64(), rng.unit_f64());
                if rng.unit_f64() < zeros {
                    0.0
                } else {
                    (u - 0.5) * (e * 20.0 - 10.0).round().exp2()
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every tier's `matmul_slices`, plain and affine, against `scalar`.
    fn assert_slices_match(
        m: usize,
        k: usize,
        n: usize,
        zeros: f64,
        seed: u64,
        (ca, cb): (f64, f64),
    ) {
        let (a, b) = (values(m * k, seed, zeros), values(k * n, seed ^ 1, 0.0));
        let z = values(m * n, seed ^ 2, 0.0);
        for epi in [None, Some((&z[..], n, ca, cb))] {
            let mut want = vec![0.0; m * n];
            scalar::matmul_slices(&a, &b, n, m, k, n, &mut want, n, epi);
            for tier in simd_tiers() {
                let mut got = vec![f64::NAN; m * n];
                dispatch!(@ tier, matmul_slices(&a, &b, n, m, k, n, &mut got, n, epi));
                let form = if epi.is_some() { "affine" } else { "plain" };
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{tier:?} {form} {m}x{k}x{n} zeros={zeros}"
                );
            }
        }
    }

    /// `0..k` split into windows at the multiples of 8 that `cuts` picks
    /// (in units of 8 columns, sorted, deduplicated), the last window
    /// ragged.
    fn windows(k: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
        let mut edges: Vec<usize> = cuts.iter().map(|c| 8 * c).filter(|&e| e > 0 && e < k).collect();
        edges.sort_unstable();
        edges.dedup();
        edges.insert(0, 0);
        edges.push(k);
        edges.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// `k` past the AVX-512 tile's skip-list segment: the chains resume
    /// from `C` across segment boundaries and end with one epilogue.
    #[test]
    fn matmul_slices_spans_skip_list_segments() {
        for k in [127, 128, 129, 300] {
            for zeros in [0.0, 0.95] {
                assert_slices_match(6, k, 41, zeros, k as u64, (0.7, -1.1));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `dot`, and so `row_sq_norms` (a row with itself), at every
        /// `k mod 8` residue and chunk count.
        #[test]
        fn dot_is_the_scalar_body_at_every_tier(k in 0usize..50, seed in any::<u64>()) {
            let (a, b) = (values(k, seed, 0.0), values(k, seed ^ 1, 0.0));
            for tier in simd_tiers() {
                for (x, y) in [(&a, &b), (&a, &a)] {
                    let want = scalar::dot(x, y);
                    let got = dispatch!(@ tier, dot(x, y));
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} k={}", tier, k);
                }
            }
        }

        /// The Gram block window by window: for any split of the columns
        /// into windows starting at multiples of 8, [`GramChains`] at every
        /// tier (the scalar specification included) gives the bits of the
        /// one-window scalar product and of `matmul_abt_into`. Every row-tile
        /// split of the AVX-512 tier up to 4 × 5 rows (the EnSF blocks of 10
        /// and 20 included), the AVX2 2x4 tiles with every edge shape, every
        /// `k mod 8` residue.
        #[test]
        fn gram_chains_over_windows_are_the_whole_product_at_every_tier(
            m in 1usize..=20, n in 1usize..10, k in 0usize..90,
            cuts in prop::collection::vec(0usize..12, 0..4), seed in any::<u64>(),
        ) {
            let (a, b) = (values(m * k, seed, 0.0), values(n * k, seed ^ 1, 0.0));
            let mut want = vec![0.0; m * n];
            let mut whole = GramChains::new(m, n);
            whole.accumulate_at(Level::Scalar, &a, &b, k, 0..k);
            whole.finish(&a, &b, k, &mut want);
            let mut dispatched = vec![f64::NAN; m * n];
            matmul_abt_into(&a, &b, m, n, k, &mut dispatched);
            prop_assert_eq!(bits(&dispatched), bits(&want), "matmul_abt_into {}x{}x{}", m, n, k);
            let split = windows(k, &cuts);
            for tier in std::iter::once(Level::Scalar).chain(simd_tiers()) {
                let mut gram = GramChains::new(m, n);
                for cols in &split {
                    gram.accumulate_at(tier, &a, &b, k, cols.clone());
                }
                let mut got = vec![f64::NAN; m * n];
                gram.finish(&a, &b, k, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "{:?} {}x{}x{} {:?}", tier, m, n, k, split);
            }
        }

        /// The recombination window by window: for any split of the columns
        /// into windows (multiples of 8, then a ragged tail), each tier's
        /// affine `matmul_slices` on the windows of row-strided operands
        /// gives the bits of `matmul_slices_affine_into` over the whole
        /// width.
        #[test]
        fn recombination_over_windows_is_the_whole_product_at_every_tier(
            m in 1usize..=20, k in 1usize..24, n in 1usize..90,
            cuts in prop::collection::vec(0usize..12, 0..4), zeros in 0.0f64..0.9,
            seed in any::<u64>(), (ca, cb) in (-2.0f64..2.0, -2.0f64..2.0),
        ) {
            let (a, b) = (values(m * k, seed, zeros), values(k * n, seed ^ 1, 0.0));
            let z = values(m * n, seed ^ 2, 0.0);
            let mut want = vec![0.0; m * n];
            matmul_slices_affine_into(&a, &b, m, k, n, &z, ca, cb, &mut want);
            let split = windows(n, &cuts);
            for tier in std::iter::once(Level::Scalar).chain(simd_tiers()) {
                let mut got = vec![f64::NAN; m * n];
                for cols in &split {
                    let w = cols.len();
                    let mut c = vec![f64::NAN; m * w];
                    let (bw, zw) = (&b[cols.start..], &z[cols.start..]);
                    dispatch!(@ tier, matmul_slices(&a, bw, n, m, k, w, &mut c, w, Some((zw, n, ca, cb))));
                    for (row, c_row) in got.chunks_exact_mut(n).zip(c.chunks_exact(w)) {
                        row[cols.clone()].copy_from_slice(c_row);
                    }
                }
                prop_assert_eq!(bits(&got), bits(&want), "{:?} {}x{}x{} {:?}", tier, m, k, n, split);
            }
            let mut windowed = vec![f64::NAN; m * n];
            for cols in &split {
                let mut c = vec![f64::NAN; m * cols.len()];
                matmul_slices_affine_window(&a, &b, m, k, n, &z, ca, cb, cols.clone(), &mut c);
                for (row, c_row) in windowed.chunks_exact_mut(n).zip(c.chunks_exact(cols.len())) {
                    row[cols.clone()].copy_from_slice(c_row);
                }
            }
            prop_assert_eq!(bits(&windowed), bits(&want), "matmul_slices_affine_window {:?}", split);
        }

        /// `A·B` with and without the affine epilogue: every row-tile split
        /// up to 20 rows, 32-, 8- and 4-column panels with every tail, dense
        /// to 60 % zero coefficients and peaked (softmax-like, 85–100 %
        /// zero) rows, so whole tile columns and whole tiles are skipped.
        #[test]
        fn matmul_slices_is_the_scalar_body_at_every_tier(
            m in 1usize..=20, k in 0usize..12, n in 1usize..90, zeros in 0.0f64..0.6,
            peaked in any::<bool>(), seed in any::<u64>(),
            (ca, cb) in (-2.0f64..2.0, -2.0f64..2.0),
        ) {
            let zeros = if peaked { 0.85 + zeros / 4.0 } else { zeros };
            assert_slices_match(m, k, n, zeros, seed, (ca, cb));
        }
    }
}
