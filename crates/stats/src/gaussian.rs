//! Gaussian sampling.
//!
//! Standard normals via a 256-layer ziggurat (no external distribution
//! crate), plus correlated sampling through a Cholesky factor. The EnSF
//! update consumes O(M · d · n_steps) standard normals per analysis cycle —
//! tens of millions per OSSE run — so [`standard_normal`] is engineered for
//! the common case: one 64-bit RNG word, one table lookup, one multiply and
//! one compare (~98.5% of draws take that path; the rest fall into the
//! wedge/tail rejection). This replaced a polar Box–Muller sampler whose
//! per-draw `ln`/`sqrt` dominated the reverse-SDE noise cost.
//!
//! The sampler is exact (the ziggurat is a rejection method, not an
//! approximation) and deterministic: tables are fixed at first use from
//! closed-form constants, so a given RNG stream always maps to the same
//! sample stream.
//!
//! ## The lane kernel
//!
//! [`add_scaled_normals`] is the reverse SDE's noise for a whole particle
//! block: `row += amp · N(0, I)`, each row on its own stream. Its
//! specification is the per-row scalar loop; on a CPU with AVX-512F+DQ,
//! groups of eight rows keep their xoshiro256++ states in the lanes of four
//! registers and take the ziggurat's fast path lane-wise, and a lane that
//! misses it finishes that draw on its own stream through the scalar loop's
//! `#[cold]` resume. The contract is the scalar loop's bits *and* its final
//! stream states, on every CPU: every lane performs the scalar draw's
//! operations on the scalar draw's word, and multiplies then adds (no FMA).
//! Leftover rows and elements past the last 8-chunk run the scalar loop.

use linalg::Cholesky;
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

/// Adds `amp` times a standard normal to every element of `rows`
/// (`rngs.len() x dim` row-major), row `r` drawing from `rngs[r]` in
/// ascending element order: per row exactly
///
/// ```text
/// for z in row { *z += amp * standard_normal(rng) }
/// ```
///
/// (a rounded multiply, then a rounded add — never an FMA). That loop is
/// the specification; on a CPU with AVX-512F+DQ whole groups of eight rows
/// run the lane tier (`avx512::add_scaled_normals`), which computes its
/// bits and leaves every stream in the same state.
///
/// # Panics
/// Panics unless `rows.len() == rngs.len() * dim`.
// lint: no_alloc
pub fn add_scaled_normals(rows: &mut [f64], dim: usize, rngs: &mut [StdRng], amp: f64) {
    assert_eq!(rows.len(), rngs.len() * dim, "noise block shape mismatch");
    let t = zig_tables();
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        // SAFETY: the CPU has AVX-512F and AVX-512DQ (just checked) and the
        // block holds `rngs.len()` rows of `dim` elements (asserted above).
        unsafe { avx512::add_scaled_normals(t, rows, dim, rngs, amp) };
        return;
    }
    add_scaled_normals_scalar(t, rows, dim, rngs, amp);
}

/// The specification of [`add_scaled_normals`], row by row.
// lint: no_alloc
fn add_scaled_normals_scalar(
    t: &ZigTables,
    rows: &mut [f64],
    dim: usize,
    rngs: &mut [StdRng],
    amp: f64,
) {
    for (r, rng) in rngs.iter_mut().enumerate() {
        for z in &mut rows[r * dim..(r + 1) * dim] {
            *z += amp * standard_normal_with(t, rng);
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

/// Returns a fresh vector of `n` i.i.d. standard normals.
pub fn standard_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    fill_standard_normal(rng, &mut v);
    v
}

/// Draws `x ~ N(mean, sigma^2)` elementwise with a shared scalar sigma.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, mean: &[f64], sigma: f64) -> Vec<f64> {
    mean.iter().map(|&m| m + sigma * standard_normal(rng)).collect()
}

/// Draws a sample from `N(mean, Sigma)` given the Cholesky factor of `Sigma`.
pub fn multivariate_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: &[f64],
    chol: &Cholesky,
) -> Vec<f64> {
    let z = standard_normal_vec(rng, mean.len());
    let mut x = chol.apply_l(&z);
    for (xi, mi) in x.iter_mut().zip(mean) {
        *xi += mi;
    }
    x
}

/// Log-density of `N(mean, sigma^2 I)` evaluated at `x`, up to the additive
/// normalization constant (which cancels in every score/weight computation).
pub fn log_density_isotropic(x: &[f64], mean: &[f64], sigma: f64) -> f64 {
    debug_assert_eq!(x.len(), mean.len());
    let inv2s2 = 0.5 / (sigma * sigma);
    -x.iter().zip(mean).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() * inv2s2
}

/// AVX-512 tier of [`add_scaled_normals`]: eight rows' xoshiro256++ streams
/// advance together, one stream per lane of four state registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{resume, standard_normal_with, ZigTables};
    use rand::rngs::StdRng;
    use std::arch::x86_64::*;

    /// Whether this CPU runs the tier (AVX-512F for the lanes, DQ for the
    /// exact `u64 → f64` conversion).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// [`super::add_scaled_normals`] with rows in groups of eight: lane `l`
    /// of every register belongs to row `8g + l`, and all eight rows draw
    /// element `e` together, so each stream still runs in its row's element
    /// order. A draw is the scalar fast path lane-wise — the layer index and
    /// sign from the word's low bits, gathers of `w[i]` and `x[i+1]`, the
    /// exact conversion of `bits >> 11`, one multiply, one compare, the sign
    /// OR-ed in — and a lane that misses it finishes that draw on its own
    /// stream in [`resume`]. Eight draws per row are transposed into the
    /// rows and added as `z + amp·v` (multiply, then add). Rows past the
    /// last group of eight and elements past the last 8-chunk run the
    /// scalar loop.
    ///
    /// # Safety
    /// AVX-512F and AVX-512DQ must be available at runtime, and
    /// `rows.len() == rngs.len() * dim`.
    // lint: no_alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn add_scaled_normals(
        t: &ZigTables,
        rows: &mut [f64],
        dim: usize,
        rngs: &mut [StdRng],
        amp: f64,
    ) {
        let whole = dim / 8 * 8;
        let grouped = rngs.len() / 8 * 8;
        let ampv = _mm512_set1_pd(amp);
        for (g, streams) in rngs[..grouped].chunks_exact_mut(8).enumerate() {
            let block = &mut rows[g * 8 * dim..(g + 1) * 8 * dim];
            if whole > 0 {
                let mut s = load_states(streams);
                let mut c = 0;
                while c < whole {
                    let mut v = [_mm512_setzero_pd(); 8];
                    for ve in &mut v {
                        *ve = _mm512_mul_pd(ampv, draw(t, &mut s));
                    }
                    for (l, col) in transpose(v).into_iter().enumerate() {
                        // SAFETY: row `l` of the group spans
                        // `block[l*dim..(l+1)*dim]` and `c + 8 <= whole <=
                        // dim`, so the 8-lane load and store stay inside it.
                        unsafe {
                            let p = block.as_mut_ptr().add(l * dim + c);
                            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), col));
                        }
                    }
                    c += 8;
                }
                store_states(&s, streams);
            }
            for (l, rng) in streams.iter_mut().enumerate() {
                for z in &mut block[l * dim + whole..(l + 1) * dim] {
                    *z += amp * standard_normal_with(t, rng);
                }
            }
        }
        let rest = &mut rows[grouped * dim..];
        super::add_scaled_normals_scalar(t, rest, dim, &mut rngs[grouped..], amp);
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

    /// One standard normal per lane, each from its lane's stream.
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
            let v = _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(x), sign));
            if hit == 0xFF {
                v
            } else {
                let (state, v) = resume_lanes(t, *s, bits, v, !hit);
                *s = state;
                v
            }
        }
    }

    /// Finishes the draws of the lanes in `miss` on their own streams
    /// through the scalar [`resume`]: the state is stored, each missed
    /// lane's stream runs from its words, and its new words and value go
    /// back into its lane. The state travels by value, so the hot loop in
    /// [`draw`] keeps it in registers.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    fn resume_lanes(
        t: &ZigTables,
        mut s: [__m512i; 4],
        bits: __m512i,
        mut v: __m512d,
        miss: __mmask8,
    ) -> ([__m512i; 4], __m512d) {
        let mut words = [[0u64; 8]; 4];
        let mut b = [0u64; 8];
        // SAFETY: every store writes one 64-byte local array.
        unsafe {
            for (w, sw) in words.iter_mut().zip(&s) {
                _mm512_storeu_si512(w.as_mut_ptr().cast(), *sw);
            }
            _mm512_storeu_si512(b.as_mut_ptr().cast(), bits);
        }
        for l in (0..8).filter(|l| (miss >> l) & 1 == 1) {
            let mut rng = StdRng::from_state([words[0][l], words[1][l], words[2][l], words[3][l]]);
            let lane = 1 << l;
            v = _mm512_mask_mov_pd(v, lane, _mm512_set1_pd(resume(t, &mut rng, b[l])));
            for (sw, w) in s.iter_mut().zip(rng.to_state()) {
                *sw = _mm512_mask_set1_epi64(*sw, lane, w as i64);
            }
        }
        (s, v)
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
    use linalg::{gemm, Matrix};

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

    /// The kernels of [`add_scaled_normals`] this CPU runs: the scalar
    /// specification and, where present, the AVX-512 lanes.
    type NoiseKernel = fn(&mut [f64], usize, &mut [StdRng], f64);

    fn noise_tiers() -> Vec<(&'static str, NoiseKernel)> {
        let mut tiers: Vec<(&'static str, NoiseKernel)> = vec![("scalar", |z, d, r, a| {
            add_scaled_normals_scalar(zig_tables(), z, d, r, a)
        })];
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            // SAFETY: the CPU has the tier (checked) and every caller below
            // passes `rngs.len()` rows of `dim` elements.
            tiers.push(("avx512", |z, d, r, a| unsafe {
                avx512::add_scaled_normals(zig_tables(), z, d, r, a)
            }));
        }
        tiers
    }

    fn streams(seed: u64, rows: usize) -> Vec<StdRng> {
        (0..rows).map(|r| member_rng(seed, r)).collect()
    }

    /// Each tier's block result and final stream states, as bits.
    fn noise_run(
        kernel: NoiseKernel,
        rows: usize,
        dim: usize,
        amp: f64,
    ) -> (Vec<u64>, Vec<[u64; 4]>) {
        let mut z = standard_normal_vec(&mut seeded(rows as u64 ^ dim as u64), rows * dim);
        let mut rngs = streams(41, rows);
        kernel(&mut z, dim, &mut rngs, amp);
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
                for &(name, kernel) in &tiers[1..] {
                    assert!(
                        noise_run(kernel, rows, dim, -1.3) == want,
                        "{name} {rows}x{dim}"
                    );
                }
            }
        }
    }

    /// Over ≥ 200 k draws per lane both rejections occur (the wedge and,
    /// visible as |v| > R, the tail), and every tier still agrees.
    #[test]
    fn noise_tiers_agree_through_wedge_and_tail() {
        let (rows, dim) = (9, 200_003);
        let tiers = noise_tiers();
        let mut z = vec![0.0; rows * dim];
        let mut rngs = streams(43, rows);
        let fresh = rngs.clone();
        tiers[0].1(&mut z, dim, &mut rngs, 1.0);
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
        for &(name, kernel) in &tiers[1..] {
            let mut got = vec![0.0; rows * dim];
            let mut got_rngs = fresh.clone();
            kernel(&mut got, dim, &mut got_rngs, 1.0);
            assert!(
                got.iter().zip(&z).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{name} values"
            );
            assert_eq!(got_rngs, rngs, "{name} stream states");
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

    #[test]
    fn normal_vec_shifts_and_scales() {
        let mut rng = seeded(7);
        let mean = vec![5.0; 50_000];
        let xs = normal_vec(&mut rng, &mean, 2.0);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m - 5.0).abs() < 0.05);
        assert!((v - 4.0).abs() < 0.1);
    }

    #[test]
    fn multivariate_respects_covariance() {
        // Sigma = [[2, 1], [1, 2]]
        let sigma = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let chol = linalg::Cholesky::new(&sigma).unwrap();
        let mut rng = seeded(31);
        let n = 100_000;
        let mut s = Matrix::zeros(2, 2);
        let mean = [1.0, -1.0];
        let mut msum = [0.0f64; 2];
        let samples: Vec<Vec<f64>> =
            (0..n).map(|_| multivariate_normal(&mut rng, &mean, &chol)).collect();
        for x in &samples {
            msum[0] += x[0];
            msum[1] += x[1];
        }
        let m = [msum[0] / n as f64, msum[1] / n as f64];
        for x in &samples {
            let d = [x[0] - m[0], x[1] - m[1]];
            for r in 0..2 {
                for c in 0..2 {
                    s[(r, c)] += d[r] * d[c] / n as f64;
                }
            }
        }
        assert!((m[0] - 1.0).abs() < 0.02 && (m[1] + 1.0).abs() < 0.02);
        assert!(s.sub(&sigma).norm_max() < 0.05, "{s:?}");
        // sanity: the Cholesky factor actually reproduces sigma
        let back = gemm::matmul_a_bt(chol.l(), chol.l());
        assert!(back.sub(&sigma).norm_max() < 1e-12);
    }

    #[test]
    fn log_density_peaks_at_mean() {
        let mean = [0.5, -0.5, 1.0];
        let at_mean = log_density_isotropic(&mean, &mean, 1.0);
        let off = log_density_isotropic(&[0.0, 0.0, 0.0], &mean, 1.0);
        assert_eq!(at_mean, 0.0);
        assert!(off < at_mean);
    }

    #[test]
    fn log_density_scales_with_sigma() {
        let x = [1.0];
        let m = [0.0];
        let tight = log_density_isotropic(&x, &m, 0.5);
        let loose = log_density_isotropic(&x, &m, 2.0);
        assert!(tight < loose, "tighter sigma should penalize more");
    }
}
