//! Gaussian sampling.
//!
//! Standard normals via a 256-layer ziggurat (no external distribution
//! crate). The EnSF update consumes O(M · d · n_steps) standard normals per
//! analysis cycle — tens of millions per OSSE run — so [`standard_normal`]
//! is engineered for the common case: one 64-bit RNG word, one table
//! lookup, one multiply and one compare (~98.5% of draws take that path;
//! the rest fall into the wedge/tail rejection). This replaced a polar Box–Muller sampler whose
//! per-draw `ln`/`sqrt` dominated the reverse-SDE noise cost.
//!
//! The sampler is exact (the ziggurat is a rejection method, not an
//! approximation) and deterministic: tables are fixed at first use from
//! closed-form constants, so a given RNG stream always maps to the same
//! sample stream.
//!
//! ## The lane kernel
//!
//! [`scaled_normal_chunks`] is the reverse SDE's noise for a whole particle
//! block: `amp · N(0, I)` for every row, each row on its own stream, handed
//! to the caller's [`ChunkSink`] in 8-element row chunks so the caller folds
//! the noise into its own pass over the block ([`add_scaled_normals`] is
//! the sink `row += chunk`). Its specification is the per-row scalar loop;
//! on a CPU with AVX-512F+DQ, groups of eight rows keep their xoshiro256++
//! states in the lanes of four registers and take the ziggurat's fast path
//! lane-wise, and a lane that misses it finishes that draw in registers:
//! its four state words and its word are extracted, the scalar loop's
//! `#[cold]` resume runs on them, and the new words and the value are set
//! back into that lane alone. The contract is the scalar loop's bits *and*
//! its final stream states, on every CPU: every lane performs the scalar
//! draw's operations on the scalar draw's word, and the scale is one
//! rounded multiply. Leftover rows and elements past the last 8-chunk draw
//! through the scalar loop, leftover rows two at a time so that the two
//! streams' dependency chains overlap. Every tier compiles the sink into itself, so
//! the caller's per-chunk work runs with the tier's instructions.

use linalg::simd::at_widest_tier;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// Number of ziggurat layers.
const ZIG_LAYERS: usize = 256;
/// Rightmost layer edge `R` for 256 layers (Marsaglia & Tsang).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common layer area `V` for 256 layers.
const ZIG_V: f64 = 0.004_928_673_233_992_336;
/// Scale turning the top 53 bits of a word into a uniform in `[0, 1)`.
const U53: f64 = 1.0 / (1u64 << 53) as f64;

/// Layer edges `x[i]` (descending, `x[0]` is the virtual base-strip edge,
/// `x[1] = R`, `x[256] = 0`), the pdf values `f[i] = exp(-x[i]²/2)`, and
/// the premultiplied widths `w[i] = x[i] · 2⁻⁵³` so the fast path maps the
/// raw 53-bit integer to a candidate with a single multiply. (2⁻⁵³ is a
/// power of two, so `u53 · w[i]` is bitwise identical to `(u53 · 2⁻⁵³) ·
/// x[i]` — the premultiply changes no sample.)
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
    w: [f64; ZIG_LAYERS],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        // Virtual base strip: width chosen so area x[0]·f(R) equals V.
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        f[0] = 0.0; // unused: layer 0 resolves via the tail, never the wedge
        f[1] = pdf(x[1]);
        // Each layer above has the same area V: f grows by V / x[i].
        for i in 2..ZIG_LAYERS {
            f[i] = f[i - 1] + ZIG_V / x[i - 1];
            x[i] = (-2.0 * f[i].ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        f[ZIG_LAYERS] = 1.0;
        let mut w = [0.0; ZIG_LAYERS];
        for i in 0..ZIG_LAYERS {
            w[i] = x[i] * U53;
        }
        ZigTables { x, f, w }
    })
}

/// Ziggurat draw against a resolved table reference — lets bulk fills hoist
/// the table lookup out of their loop.
#[inline(always)]
fn standard_normal_with<R: Rng + ?Sized>(t: &ZigTables, rng: &mut R) -> f64 {
    let bits = rng.next_u64();
    match inside_layer(t, bits) {
        Some(v) => v,
        None => resume(t, rng, bits),
    }
}

/// The fast path (~98.5% of words): the sample `bits` funds when it falls
/// inside its layer. One word funds the layer index (8 bits), the sign
/// (1 bit) and a 53-bit uniform, so draws stay a strict function of the
/// u64 stream. Branchless sign: OR-ing bit 8 into the IEEE sign bit is
/// bitwise identical to multiplying the (nonnegative) candidate by ±1.0.
#[inline(always)]
fn inside_layer(t: &ZigTables, bits: u64) -> Option<f64> {
    let i = (bits & 0xFF) as usize;
    let x = (bits >> 11) as f64 * t.w[i];
    (x < t.x[i + 1]).then(|| f64::from_bits(x.to_bits() | ((bits & 0x100) << 55)))
}

/// The rest of the rejection loop for a word `bits` that missed
/// [`inside_layer`]: its tail or wedge test, then fresh words until one is
/// accepted. The lane kernel resumes a missed lane's draw here on that
/// lane's own stream, so both tiers run one loop.
#[cold]
#[inline(never)]
fn resume<R: Rng + ?Sized>(t: &ZigTables, rng: &mut R, mut bits: u64) -> f64 {
    loop {
        let i = (bits & 0xFF) as usize;
        let sign = f64::from_bits(1.0f64.to_bits() | ((bits & 0x100) << 55));
        let x = (bits >> 11) as f64 * t.w[i];
        if i == 0 {
            // Tail (|x| > R): Marsaglia's exact tail sampler.
            loop {
                let u1: f64 = rng.random();
                let u2: f64 = rng.random();
                let tx = -(1.0 - u1).ln() / ZIG_R;
                let ty = -(1.0 - u2).ln();
                if 2.0 * ty > tx * tx {
                    return sign * (ZIG_R + tx);
                }
            }
        }
        // Wedge: accept with probability proportional to the pdf overhang.
        let u2: f64 = rng.random();
        if t.f[i] + u2 * (t.f[i + 1] - t.f[i]) < (-0.5 * x * x).exp() {
            return sign * x;
        }
        bits = rng.next_u64();
        if let Some(v) = inside_layer(t, bits) {
            return v;
        }
    }
}

/// Draws one standard normal sample (ziggurat method).
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_with(zig_tables(), rng)
}

/// A row chunk's eight values on one cache line, where every tier builds
/// the chunks it hands a sink.
#[repr(C, align(64))]
#[derive(Clone, Copy, Default)]
struct Chunk([f64; 8]);

/// The caller's work on the row chunks of [`scaled_normal_chunks`].
///
/// Every closure `FnMut(usize, usize, &[f64])` is one. A sink whose work
/// must compile into the generator's tier — so that its `mul_add`s become
/// FMA instructions there, and its 8-element loops vector operations —
/// implements the trait with an `#[inline(always)]` method: a closure is
/// inlined only where the optimizer's size heuristic lets it.
pub trait ChunkSink {
    /// Row `r`'s values at columns `c..c + v.len()`.
    fn chunk(&mut self, r: usize, c: usize, v: &[f64]);
}

impl<F: FnMut(usize, usize, &[f64])> ChunkSink for F {
    #[inline(always)]
    fn chunk(&mut self, r: usize, c: usize, v: &[f64]) {
        self(r, c, v)
    }
}

/// Draws `amp · N(0, I)` for `rngs.len()` rows of `dim` elements, row `r`
/// from `rngs[r]`, and hands the values to `sink.chunk(r, c, v)` in row
/// chunks: `v[e]` is row `r`'s value at column `c + e`, every chunk holds 8
/// values but a row's last one when `dim % 8 != 0` (it starts at
/// `dim / 8 * 8`), and each row's chunks come in ascending `c`. Rows may
/// interleave. Per row the values are exactly
///
/// ```text
/// for _ in 0..dim { amp * standard_normal(rng) }
/// ```
///
/// (one rounded multiply), and every stream ends where that loop leaves it.
/// That loop is the specification; on a CPU with AVX-512F+DQ whole groups
/// of eight rows run the lane tier (`avx512::scaled_normal_chunks`), which
/// computes its bits and its final stream states. Without that tier the
/// loop runs at [`at_widest_tier`], so an inlined sink's `mul_add`s are
/// instructions.
// lint: no_alloc
pub fn scaled_normal_chunks<S: ChunkSink>(dim: usize, rngs: &mut [StdRng], amp: f64, mut sink: S) {
    let t = zig_tables();
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        // SAFETY: the CPU has AVX-512F and AVX-512DQ (just checked).
        unsafe { avx512::scaled_normal_chunks(t, dim, rngs, amp, &mut sink) };
        return;
    }
    at_widest_tier(|| scaled_normal_chunks_scalar(t, dim, rngs, amp, &mut sink));
}

/// The specification of [`scaled_normal_chunks`], row by row.
// lint: no_alloc
#[inline(always)]
fn scaled_normal_chunks_scalar<S: ChunkSink>(
    t: &ZigTables,
    dim: usize,
    rngs: &mut [StdRng],
    amp: f64,
    sink: &mut S,
) {
    for (r, rng) in rngs.iter_mut().enumerate() {
        row_chunks(t, r, 0, dim, rng, amp, sink);
    }
}

/// The specification of [`scaled_normal_chunks`] for row `r` from column
/// `from` (a multiple of 8): scalar draws, handed over 8 at a time, then
/// the shorter last chunk.
// lint: no_alloc
#[inline(always)]
fn row_chunks<S: ChunkSink>(
    t: &ZigTables,
    r: usize,
    from: usize,
    dim: usize,
    rng: &mut StdRng,
    amp: f64,
    sink: &mut S,
) {
    let mut v = Chunk::default();
    let mut c = from;
    while c + 8 <= dim {
        for x in &mut v.0 {
            *x = amp * standard_normal_with(t, rng);
        }
        sink.chunk(r, c, &v.0);
        c += 8;
    }
    if c < dim {
        let tail = &mut v.0[..dim - c];
        for x in tail.iter_mut() {
            *x = amp * standard_normal_with(t, rng);
        }
        sink.chunk(r, c, tail);
    }
}

/// [`row_chunks`] for rows `r` and `r + 1` at once: the two streams draw
/// element by element in turn, so their independent dependency chains
/// overlap, and each row keeps its own draws in its own order.
// lint: no_alloc
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_pair_chunks<S: ChunkSink>(
    t: &ZigTables,
    r: usize,
    dim: usize,
    rng_a: &mut StdRng,
    rng_b: &mut StdRng,
    amp: f64,
    sink: &mut S,
) {
    let (mut va, mut vb) = (Chunk::default(), Chunk::default());
    let mut c = 0;
    while c + 8 <= dim {
        for (a, b) in va.0.iter_mut().zip(&mut vb.0) {
            *a = amp * standard_normal_with(t, rng_a);
            *b = amp * standard_normal_with(t, rng_b);
        }
        sink.chunk(r, c, &va.0);
        sink.chunk(r + 1, c, &vb.0);
        c += 8;
    }
    row_chunks(t, r, c, dim, rng_a, amp, sink);
    row_chunks(t, r + 1, c, dim, rng_b, amp, sink);
}

/// Adds `amp` times a standard normal to every element of `rows`
/// (`rngs.len() x dim` row-major), row `r` drawing from `rngs[r]` in
/// ascending element order: per row exactly
///
/// ```text
/// for z in row { *z += amp * standard_normal(rng) }
/// ```
///
/// (a rounded multiply, then a rounded add — never an FMA): the chunks of
/// [`scaled_normal_chunks`] added to the rows.
///
/// # Panics
/// Panics unless `rows.len() == rngs.len() * dim`.
// lint: no_alloc
pub fn add_scaled_normals(rows: &mut [f64], dim: usize, rngs: &mut [StdRng], amp: f64) {
    assert_eq!(rows.len(), rngs.len() * dim, "noise block shape mismatch");
    scaled_normal_chunks(dim, rngs, amp, add_into(rows, dim));
}

/// The sink of [`add_scaled_normals`]: row `r`'s chunk at `c` is added
/// into `rows[r * dim + c..]`.
fn add_into(rows: &mut [f64], dim: usize) -> impl FnMut(usize, usize, &[f64]) + '_ {
    move |r, c, v| {
        for (z, v) in rows[r * dim + c..].iter_mut().zip(v) {
            *z += v;
        }
    }
}

/// Fills `out` with i.i.d. standard normals.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let t = zig_tables();
    for x in out.iter_mut() {
        *x = standard_normal_with(t, rng);
    }
}

/// AVX-512 tier of [`scaled_normal_chunks`]: eight rows' xoshiro256++
/// streams advance together, one stream per lane of four state registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{resume, row_chunks, row_pair_chunks, Chunk, ChunkSink, ZigTables};
    use rand::rngs::StdRng;
    use std::arch::x86_64::*;

    /// Whether this CPU runs the tier (AVX-512F for the lanes, DQ for the
    /// exact `u64 → f64` conversion).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// [`super::scaled_normal_chunks`] with rows in groups of eight: lane
    /// `l` of every register belongs to row `8g + l`, and all eight rows
    /// draw element `e` together, so each stream still runs in its row's
    /// element order. A draw is the scalar fast path lane-wise — the layer
    /// index and sign from the word's low bits, gathers of `w[i]` and
    /// `x[i+1]`, the exact conversion of `bits >> 11`, one multiply, one
    /// compare, the sign OR-ed in — and a lane that misses it finishes that
    /// draw in [`draw`]. Eight draws per row are scaled, transposed into
    /// row chunks and handed to `sink` row by row. Elements past the last
    /// 8-chunk and rows past the last group of eight run the scalar loop,
    /// the leftover rows two at a time ([`row_pair_chunks`]).
    ///
    /// # Safety
    /// AVX-512F and AVX-512DQ must be available at runtime.
    // lint: no_alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn scaled_normal_chunks<S: ChunkSink>(
        t: &ZigTables,
        dim: usize,
        rngs: &mut [StdRng],
        amp: f64,
        sink: &mut S,
    ) {
        let whole = dim / 8 * 8;
        let grouped = rngs.len() / 8 * 8;
        let ampv = _mm512_set1_pd(amp);
        for (g, streams) in rngs[..grouped].chunks_exact_mut(8).enumerate() {
            if whole > 0 {
                let mut s = load_states(streams);
                let mut c = 0;
                while c < whole {
                    let mut v = [_mm512_setzero_pd(); 8];
                    for ve in &mut v {
                        *ve = _mm512_mul_pd(ampv, draw(t, &mut s));
                    }
                    for (l, row) in transpose(v).into_iter().enumerate() {
                        let mut buf = Chunk::default();
                        // SAFETY: one 64-byte store into a 64-byte local array.
                        unsafe { _mm512_storeu_pd(buf.0.as_mut_ptr(), row) };
                        sink.chunk(8 * g + l, c, &buf.0);
                    }
                    c += 8;
                }
                store_states(&s, streams);
            }
            for (l, rng) in streams.iter_mut().enumerate() {
                row_chunks(t, 8 * g + l, whole, dim, rng, amp, sink);
            }
        }
        let rows = rngs.len();
        let mut left = rngs[grouped..].chunks_exact_mut(2);
        for (p, pair) in left.by_ref().enumerate() {
            let (a, b) = pair.split_at_mut(1);
            row_pair_chunks(t, grouped + 2 * p, dim, &mut a[0], &mut b[0], amp, sink);
        }
        for rng in left.into_remainder() {
            row_chunks(t, rows - 1, 0, dim, rng, amp, sink);
        }
    }

    /// The eight streams' state words as lanes: register `w` holds word
    /// `s[w]` of every stream.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_states(streams: &[StdRng]) -> [__m512i; 4] {
        let mut words = [[0u64; 8]; 4];
        for (l, rng) in streams.iter().enumerate() {
            for (w, &sw) in rng.to_state().iter().enumerate() {
                words[w][l] = sw;
            }
        }
        let mut s = [_mm512_setzero_si512(); 4];
        for (sw, w) in s.iter_mut().zip(&words) {
            // SAFETY: one 64-byte load from a 64-byte local array.
            *sw = unsafe { _mm512_loadu_si512(w.as_ptr().cast()) };
        }
        s
    }

    /// Inverse of [`load_states`]: writes the lanes back into the streams.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_states(s: &[__m512i; 4], streams: &mut [StdRng]) {
        let mut words = [[0u64; 8]; 4];
        for (w, sw) in words.iter_mut().zip(s) {
            // SAFETY: one 64-byte store into a 64-byte local array.
            unsafe { _mm512_storeu_si512(w.as_mut_ptr().cast(), *sw) };
        }
        for (l, rng) in streams.iter_mut().enumerate() {
            *rng = StdRng::from_state([words[0][l], words[1][l], words[2][l], words[3][l]]);
        }
    }

    /// One standard normal per lane, each from its lane's stream. A lane
    /// that misses the fast path finishes its draw here: its four state
    /// words and its word come out of the registers, the scalar [`resume`]
    /// runs on them, and the new words and the value go back into that lane
    /// alone.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn draw(t: &ZigTables, s: &mut [__m512i; 4]) -> __m512d {
        // SAFETY: the gathers read `w[i]` and `x[i + 1]` with
        // `i = bits & 0xFF < 256`, inside both tables.
        unsafe {
            let bits = next_u64(s);
            let i = _mm512_and_si512(bits, _mm512_set1_epi64(0xFF));
            let sign = _mm512_slli_epi64::<55>(_mm512_and_si512(bits, _mm512_set1_epi64(0x100)));
            // `bits >> 11 < 2^53`: the conversion is exact, as in the
            // scalar `as f64`.
            let u = _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(bits));
            let x = _mm512_mul_pd(u, _mm512_i64gather_pd::<8>(i, t.w.as_ptr()));
            let edge = _mm512_i64gather_pd::<8>(i, t.x.as_ptr().add(1));
            let hit = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, edge);
            let mut v = _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(x), sign));
            let mut miss = !hit;
            while miss != 0 {
                let lane = miss & miss.wrapping_neg();
                let mut rng = StdRng::from_state(s.map(|w| lane_word(w, lane)));
                let value = resume(t, &mut rng, lane_word(bits, lane));
                v = _mm512_mask_mov_pd(v, lane, _mm512_set1_pd(value));
                for (sw, w) in s.iter_mut().zip(rng.to_state()) {
                    *sw = _mm512_mask_set1_epi64(*sw, lane, w as i64);
                }
                miss &= miss - 1;
            }
            v
        }
    }

    /// The word in the one lane set in `lane`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lane_word(w: __m512i, lane: __mmask8) -> u64 {
        _mm_cvtsi128_si64(_mm512_castsi512_si128(_mm512_maskz_compress_epi64(lane, w))) as u64
    }

    /// xoshiro256++ on every lane: `StdRng::next_u64`'s step, word for word.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn next_u64(s: &mut [__m512i; 4]) -> __m512i {
        let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        result
    }

    /// 8x8 transpose: lane `l` of input `e` becomes lane `e` of output `l`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512d; 8]) -> [__m512d; 8] {
        // Row pairs interleaved per 128-bit lane: `t[2q]` holds the even
        // columns of rows 2q and 2q+1, `t[2q+1]` the odd ones.
        let mut t = [_mm512_setzero_pd(); 8];
        for q in 0..4 {
            t[2 * q] = _mm512_unpacklo_pd(r[2 * q], r[2 * q + 1]);
            t[2 * q + 1] = _mm512_unpackhi_pd(r[2 * q], r[2 * q + 1]);
        }
        // Row quads: `u[q]` holds columns q and q+4 of rows 0-3 (`.0`) and
        // of rows 4-7 (`.1`).
        let lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        let mut u = [(_mm512_setzero_pd(), _mm512_setzero_pd()); 4];
        for (q, uq) in u.iter_mut().enumerate() {
            let (a, idx) = (q % 2, if q < 2 { lo } else { hi });
            *uq = (
                _mm512_permutex2var_pd(t[a], idx, t[a + 2]),
                _mm512_permutex2var_pd(t[a + 4], idx, t[a + 6]),
            );
        }
        let first = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
        let second = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        let mut out = [_mm512_setzero_pd(); 8];
        for (col, o) in out.iter_mut().enumerate() {
            let (top, bottom) = u[col % 4];
            *o = _mm512_permutex2var_pd(top, if col < 4 { first } else { second }, bottom);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{member_rng, seeded};

    /// A fresh vector of `n` i.i.d. standard normals.
    fn standard_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        fill_standard_normal(rng, &mut v);
        v
    }

    #[test]
    fn moments_of_standard_normal() {
        let mut rng = seeded(11);
        let n = 200_000;
        let xs = standard_normal_vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let skew = xs.iter().map(|x| x.powi(3)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
    }

    /// A generator of [`scaled_normal_chunks`] at one tier.
    type Generator = fn(usize, &mut [StdRng], f64, &mut dyn FnMut(usize, usize, &[f64]));

    /// The generators this CPU runs: the scalar specification, the same
    /// loop at the widest tier, and the AVX-512 lanes where present.
    fn noise_tiers() -> Vec<(&'static str, Generator)> {
        let mut tiers: Vec<(&'static str, Generator)> = vec![("scalar", |d, r, a, mut f| {
            scaled_normal_chunks_scalar(zig_tables(), d, r, a, &mut f)
        })];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(("widest", |d, r, a, mut f| {
                at_widest_tier(|| scaled_normal_chunks_scalar(zig_tables(), d, r, a, &mut f))
            }));
            if avx512::available() {
                // SAFETY: the CPU has the tier (checked).
                tiers.push(("avx512", |d, r, a, mut f| unsafe {
                    avx512::scaled_normal_chunks(zig_tables(), d, r, a, &mut f)
                }));
            }
        }
        tiers
    }

    fn streams(seed: u64, rows: usize) -> Vec<StdRng> {
        (0..rows).map(|r| member_rng(seed, r)).collect()
    }

    /// A tier's chunks added into a block, and its final stream states, as
    /// bits.
    fn noise_run(gen: Generator, rows: usize, dim: usize, amp: f64) -> (Vec<u64>, Vec<[u64; 4]>) {
        let mut z = standard_normal_vec(&mut seeded(rows as u64 ^ dim as u64), rows * dim);
        let mut rngs = streams(41, rows);
        gen(dim, &mut rngs, amp, &mut add_into(&mut z, dim));
        (
            z.iter().map(|v| v.to_bits()).collect(),
            rngs.iter().map(StdRng::to_state).collect(),
        )
    }

    /// The dispatched kernel is the documented per-row loop over
    /// [`standard_normal`], multiply then add.
    #[test]
    fn noise_block_is_the_per_row_loop() {
        for (rows, dim) in [(1, 3), (8, 16), (10, 8192), (11, 19)] {
            let mut z = standard_normal_vec(&mut seeded(5), rows * dim);
            let mut want = z.clone();
            let mut rngs = streams(7, rows);
            let mut want_rngs = rngs.clone();
            add_scaled_normals(&mut z, dim, &mut rngs, 0.37);
            for (row, rng) in want.chunks_exact_mut(dim).zip(&mut want_rngs) {
                for v in row {
                    *v += 0.37 * standard_normal(rng);
                }
            }
            assert!(
                z.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{rows}x{dim}: values"
            );
            assert_eq!(rngs, want_rngs, "{rows}x{dim}: streams left elsewhere");
        }
    }

    /// Every tier computes the scalar body's bits and leaves every stream
    /// in its state: whole groups of eight and leftover rows, `dim` with
    /// and without a remainder past the last 8-chunk.
    #[test]
    fn noise_tiers_are_the_scalar_body() {
        let tiers = noise_tiers();
        for rows in 1..=17 {
            for dim in [0, 1, 5, 8, 16, 21, 64, 67] {
                let want = noise_run(tiers[0].1, rows, dim, -1.3);
                for &(name, gen) in &tiers[1..] {
                    assert!(
                        noise_run(gen, rows, dim, -1.3) == want,
                        "{name} {rows}x{dim}"
                    );
                }
            }
        }
    }

    /// Over ≥ 200 k draws per lane both rejections occur (the wedge and,
    /// visible as |v| > R, the tail), and every tier still agrees: eight
    /// lane rows, then three leftover rows (a pair and one alone).
    #[test]
    fn noise_tiers_agree_through_wedge_and_tail() {
        let (rows, dim) = (11, 200_003);
        let tiers = noise_tiers();
        let mut z = vec![0.0; rows * dim];
        let mut rngs = streams(43, rows);
        let fresh = rngs.clone();
        tiers[0].1(dim, &mut rngs, 1.0, &mut add_into(&mut z, dim));
        for (r, row) in z.chunks_exact(dim).enumerate() {
            assert!(
                row.iter().any(|v| v.abs() > ZIG_R),
                "row {r} drew no tail sample"
            );
            let mut plain = fresh[r].clone();
            (0..dim).for_each(|_| {
                plain.next_u64();
            });
            assert_ne!(plain, rngs[r], "row {r} never rejected a word");
        }
        for &(name, gen) in &tiers[1..] {
            let mut got = vec![0.0; rows * dim];
            let mut got_rngs = fresh.clone();
            gen(dim, &mut got_rngs, 1.0, &mut add_into(&mut got, dim));
            assert!(
                got.iter().zip(&z).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{name} values"
            );
            assert_eq!(got_rngs, rngs, "{name} stream states");
        }
    }

    /// Every tier hands row `r` its chunks in ascending column order, 8
    /// values each but a shorter last one, and the values are
    /// `amp · standard_normal` from that row's stream, through ≥ 200 k
    /// draws per lane (misses dense: wedge and tail), lane rows and
    /// leftover rows alike.
    #[test]
    fn noise_chunks_are_each_rows_draws_in_column_order() {
        let (rows, dim, amp) = (11, 200_003, -0.75);
        for (name, gen) in noise_tiers() {
            let mut next = vec![0usize; rows];
            let mut want_rngs = streams(47, rows);
            let mut rngs = want_rngs.clone();
            gen(dim, &mut rngs, amp, &mut |r, c, v| {
                assert_eq!(c, next[r], "{name} row {r}: chunk out of order");
                assert_eq!(v.len(), 8.min(dim - c), "{name} row {r} at {c}: chunk length");
                for (e, &x) in v.iter().enumerate() {
                    let want = amp * standard_normal(&mut want_rngs[r]);
                    assert_eq!(x.to_bits(), want.to_bits(), "{name} row {r} col {}", c + e);
                }
                next[r] = c + v.len();
            });
            assert!(next.iter().all(|&n| n == dim), "{name}: rows left unfinished");
            assert_eq!(rngs, want_rngs, "{name} stream states");
        }
    }

    #[test]
    fn kurtosis_is_gaussian() {
        let mut rng = seeded(23);
        let n = 200_000;
        let xs = standard_normal_vec(&mut rng, n);
        let kurt = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n as f64;
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }
}
