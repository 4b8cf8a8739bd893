//! Runtime-dispatched vector path for [`crate::Fft2`]: AVX2, with AVX-512F
//! tiers for 64-point rows and for columns.
//!
//! [`fft2`] transforms a grid with vector lanes when the CPU has AVX2
//! (`is_x86_feature_detected!`) and both axes are radix-2 plans at least 4
//! long. Otherwise it leaves the data alone and the caller runs the scalar
//! path: `radix2::fft_in_place` on every row, then on every row of the
//! transpose. Within the vector path, the row pass takes the AVX-512 row
//! tier when the CPU also has AVX-512F and the rows are 64 long (the SQG
//! paper grid), and the column pass takes the AVX-512 column tier when the
//! CPU has AVX-512F and the row width is a multiple of 4; every other row
//! length and row width runs on AVX2.
//!
//! ## Bitwise contract
//!
//! The lanes do the scalar kernel's arithmetic and nothing else: the same
//! butterflies with the same table twiddles, every output element reached
//! through the same sequence of roundings. Only `mul`, `add`, `sub`,
//! `addsub` and lane moves are used, never FMA, so the product `b·w` is
//! `(b.re·w.re − b.im·w.im, b.im·w.re + b.re·w.im)`, which is the scalar
//! `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)` because IEEE addition
//! commutes. AVX-512 has no `addsub`: its twiddles carry the imaginary
//! part negated in the real lane, and `b.re·w.re + b.im·(−w.im)` is the
//! same rounding, since `x·(−y)` is exactly `−(x·y)` and `x + (−y)`
//! exactly `x − y`. No twiddle is special-cased (`cis(π/2)` has real part 6e-17,
//! not 0, and even `cis(0)` is multiplied, so signed zeros and infinities
//! propagate as in the scalar kernel). The path therefore equals the scalar
//! path bit for bit, up to NaN payloads, and has no switch: there is
//! nothing to cap.
//!
//! ## Structure
//!
//! - **Row pass, AVX2.** Each contiguous row is bit-reversed with the
//!   plan's swaps. Stages 0 and 1 run fused on groups of four complexes,
//!   the remaining stages in radix-2² pairs with two butterflies per
//!   `__m256d` and the twiddle pair loaded from the plan's table; an odd
//!   count of remaining stages ends with one radix-2 stage.
//! - **Row pass, AVX-512, 64 points.** A row lives in 16 `__m512d` of four
//!   complexes each from load to store. The loads do the bit reversal:
//!   register `r` loads the four complexes at `4·rev4(r)` and swaps its two
//!   middle 128-bit lanes, so lane `l` holds bit-reversed position
//!   `16·l + r`. Stages 0–3 pair registers `r` and `r | 2^s` under one
//!   broadcast twiddle; a 4×4 transpose of 128-bit lanes within each group
//!   of four registers then makes stages 4–5 register pairs too, with one
//!   twiddle per lane, and leaves each register holding four consecutive
//!   outputs for a plain store. Every twiddle vector comes from the plan's
//!   `row64` table, built once per plan.
//!   The tier stores row `r` at row `rev(r)`, the bit reversal of `r`
//!   below the row count, which is the column pass's first permutation: a
//!   row that is its own reversal is stored in place, and of a pair
//!   `r < rev(r)` one row goes through an aligned stack row.
//! - **Column pass, no transpose.** Bit reversal permutes whole rows, and a
//!   butterfly between two rows is a whole-row operation with one broadcast
//!   twiddle. Stages run in radix-2² pairs (the four products of two stages
//!   stay in registers), so one sweep over the grid does two stages; an odd
//!   stage count ends with one radix-2 sweep. The sweeps are written once
//!   (`column_pass!`) and compiled for AVX2, two complexes per vector, and
//!   for AVX-512F, four per vector with the twiddle in the row tier's
//!   signed form. The permutation is a sweep of row swaps before them,
//!   unless the row tier already stored the rows reversed.
//! - The inverse `1/n` scaling stays per 1-D pass, as in
//!   `FftPlan::process_buffered`: each pass multiplies the outputs of its
//!   last stage by `1/n` as it stores them.

use crate::complex::Complex;
use crate::plan::FftPlan;

/// Transforms the row-major grid `data` (`col_plan.len()` rows of
/// `row_plan.len()` complexes) in place on the vector path and returns
/// `true`, or returns `false` without touching `data` when the CPU lacks
/// AVX2 or an axis is not a radix-2 plan at least 4 long.
///
/// # Panics
/// Panics if `data.len()` is not `row_plan.len() * col_plan.len()`.
// lint: no_alloc
#[cfg(target_arch = "x86_64")]
pub(crate) fn fft2(row_plan: &FftPlan, col_plan: &FftPlan, data: &mut [Complex]) -> bool {
    let (Some(row), Some(col)) = (row_plan.radix2(), col_plan.radix2()) else {
        return false;
    };
    if row.n < 4 || col.n < 4 || !is_x86_feature_detected!("avx2") {
        return false;
    }
    assert_eq!(data.len(), row.n * col.n, "buffer must be rows*cols");
    let inverse = row_plan.direction() == crate::Direction::Inverse;
    let reversed = rows64(row_plan, data);
    if !reversed {
        // SAFETY: AVX2 was detected just above, the row plan is radix-2
        // with `n >= 4`, and `data` is whole rows of `row.n` complexes.
        unsafe { avx2::rows(row, inverse, data) };
    }
    if !cols512(col_plan, row.n, reversed, data) {
        // SAFETY: AVX2 was detected just above, the column plan is radix-2
        // with `n >= 4`, and `data` holds `col.n` rows of `row.n` complexes
        // (asserted), a power of two at least 4: the whole contract of
        // `avx2::cols`.
        unsafe { avx2::cols(col, row.n, inverse, reversed, data) };
    }
    true
}

/// Transforms every row of `data` (a power-of-two count of rows of 64
/// complexes) on the AVX-512 row tier, storing row `r`'s transform at row
/// `rev(r)` (the row count's bit reversal, the column pass's first
/// permutation), and returns `true`; or returns `false` without touching
/// `data` when the CPU lacks AVX-512F or `plan` is not a 64-point radix-2
/// plan.
///
/// # Panics
/// Panics on the tier if `data` is not a power-of-two count of rows of 64.
// lint: no_alloc
#[cfg(target_arch = "x86_64")]
fn rows64(plan: &FftPlan, data: &mut [Complex]) -> bool {
    let Some(twiddles) = plan.radix2().and_then(|row| row.row64.as_deref()) else {
        return false;
    };
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    let rows = data.len() / 64;
    assert!(data.len().is_multiple_of(64) && rows.is_power_of_two(), "buffer must be 2^k rows of 64");
    let inverse = plan.direction() == crate::Direction::Inverse;
    // SAFETY: AVX-512F was detected just above, and `data` is a power of
    // two count of rows of 64 (asserted).
    unsafe { avx512::rows(twiddles, inverse, data) };
    true
}

/// Transforms every column of `data` (`plan.len()` rows of `width`
/// complexes, in bit-reversed row order when `reversed`) in place on the
/// AVX-512 column tier and returns `true`, or returns `false` without
/// touching `data` when the CPU lacks AVX-512F, `plan` is not a radix-2
/// plan at least 4 long or `width` is not a multiple of 4.
///
/// # Panics
/// Panics on the tier if `data.len()` is not `plan.len() * width`.
// lint: no_alloc
#[cfg(target_arch = "x86_64")]
fn cols512(plan: &FftPlan, width: usize, reversed: bool, data: &mut [Complex]) -> bool {
    let Some(col) = plan.radix2().filter(|col| col.n >= 4) else {
        return false;
    };
    if !width.is_multiple_of(4) || !is_x86_feature_detected!("avx512f") {
        return false;
    }
    assert_eq!(data.len(), col.n * width, "buffer must be rows*cols");
    let inverse = plan.direction() == crate::Direction::Inverse;
    // SAFETY: AVX-512F was detected just above, the plan is radix-2 with
    // `n >= 4`, `width` is a multiple of 4 and `data` holds `n` rows of
    // `width` complexes (asserted).
    unsafe { avx512::cols(col, width, inverse, reversed, data) };
    true
}

/// Off x86-64 there are no tiers.
#[cfg(all(test, not(target_arch = "x86_64")))]
fn rows64(_plan: &FftPlan, _data: &mut [Complex]) -> bool {
    false
}

/// Off x86-64 there are no tiers.
#[cfg(all(test, not(target_arch = "x86_64")))]
fn cols512(_plan: &FftPlan, _width: usize, _reversed: bool, _data: &mut [Complex]) -> bool {
    false
}

/// Off x86-64 there is no vector path; every grid takes the scalar one.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fft2(_row_plan: &FftPlan, _col_plan: &FftPlan, _data: &mut [Complex]) -> bool {
    false
}

/// The column pass, written once for every lane width. Invoked inside a
/// lane module, it builds `radix4` and `cols` from that module's vector
/// `V`, `Twiddle` and `LANES` (complexes per vector) and its `load`,
/// `store`, `splat`, `set1`, `butterfly` and `scaled`, all compiled for
/// `$feature`.
#[cfg(target_arch = "x86_64")]
macro_rules! column_pass {
    ($feature:literal) => {
        /// One radix-2² butterfly: stage `s` on the pairs `(x0, x1)` and
        /// `(x2, x3)` with twiddle `ws`, then stage `s + 1` on `(x0, x2)`
        /// with `wa` and on `(x1, x3)` with `wb`; the scalar kernel's four
        /// products.
        #[inline]
        #[target_feature(enable = $feature)]
        fn radix4(x: [V; 4], ws: Twiddle, wa: Twiddle, wb: Twiddle) -> [V; 4] {
            let (y0, y1) = butterfly(x[0], x[1], ws);
            let (y2, y3) = butterfly(x[2], x[3], ws);
            let (z0, z2) = butterfly(y0, y2, wa);
            let (z1, z3) = butterfly(y1, y3, wb);
            [z0, z1, z2, z3]
        }

        /// Transform of every column of the row-major grid `data` (`plan.n`
        /// rows of `width` complexes) in place, without a transpose; the last
        /// sweep is scaled by `1/n` when `inverse`. The rows are first put
        /// in bit-reversed order with the plan's swaps, whole rows at a time,
        /// unless they arrive `reversed`. Each sweep is then two stages
        /// (radix-2²) with one broadcast twiddle per row group, or one stage
        /// for an odd stage count's last.
        ///
        /// # Safety
        /// `$feature` must be available at runtime; `plan` is a radix-2 plan
        /// with `n >= 4`, `width` a multiple of `LANES`, and
        /// `data.len() == plan.n * width`.
        // lint: no_alloc
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn cols(plan: &Radix2Plan, width: usize, inverse: bool, reversed: bool, data: &mut [Complex]) {
            let (n, tw) = (plan.n, &plan.twiddles);
            if !reversed {
                for &(i, j) in &plan.swaps {
                    let (i, j) = (i as usize, j as usize);
                    let (lo, hi) = data.split_at_mut(j * width);
                    lo[i * width..(i + 1) * width].swap_with_slice(&mut hi[..width]);
                }
            }
            let scale = inverse.then_some(set1(1.0 / n as f64));
            let p = data.as_mut_ptr();
            let mut s = 0;
            while s + 1 < tw.len() {
                let h = 1usize << s;
                let sc = if s + 2 == tw.len() { scale } else { None };
                for base in (0..n).step_by(4 * h) {
                    for j in 0..h {
                        let (ws, wa, wb) = (splat(tw[s][j]), splat(tw[s + 1][j]), splat(tw[s + 1][j + h]));
                        // SAFETY: rows `base + j + {0, h, 2h, 3h}` are below
                        // `base + 4h <= n`, so each row start lies inside
                        // the grid.
                        let (q, step) = (unsafe { p.add((base + j) * width) }, h * width);
                        for c in (0..width).step_by(LANES) {
                            // SAFETY: `c + LANES <= width`, so each vector
                            // stays inside its row.
                            unsafe {
                                let q = q.add(c);
                                let x = [load(q), load(q.add(step)), load(q.add(2 * step)), load(q.add(3 * step))];
                                let y = radix4(x, ws, wa, wb);
                                store(q, scaled(y[0], sc));
                                store(q.add(step), scaled(y[1], sc));
                                store(q.add(2 * step), scaled(y[2], sc));
                                store(q.add(3 * step), scaled(y[3], sc));
                            }
                        }
                    }
                }
                s += 2;
            }
            if s < tw.len() {
                let h = 1usize << s;
                for base in (0..n).step_by(2 * h) {
                    for j in 0..h {
                        let w = splat(tw[s][j]);
                        // SAFETY: rows `base + j` and `base + j + h` are
                        // below `base + 2h <= n`.
                        let (qa, qb) = unsafe { (p.add((base + j) * width), p.add((base + j + h) * width)) };
                        for c in (0..width).step_by(LANES) {
                            // SAFETY: `c + LANES <= width`.
                            unsafe {
                                let (a, b) = butterfly(load(qa.add(c)), load(qb.add(c)), w);
                                store(qa.add(c), scaled(a, scale));
                                store(qb.add(c), scaled(b, scale));
                            }
                        }
                    }
                }
            }
        }
    };
}

/// AVX2 kernels (two complexes per `__m256d`), no FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::complex::Complex;
    use crate::plan::Radix2Plan;
    use std::arch::x86_64::*;

    type V = __m256d;

    /// A twiddle per complex lane: its real part in both of the lane's
    /// `f64`s, then its imaginary part in both.
    type Twiddle = (__m256d, __m256d);

    /// Complexes per vector.
    const LANES: usize = 2;

    /// `b·w` for the two complexes in `b`: `mul`, `permute`, `mul`,
    /// `addsub`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cmul(b: __m256d, (wr, wi): Twiddle) -> __m256d {
        _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(_mm256_permute_pd(b, 0b0101), wi))
    }

    /// The butterfly on `(a, b)` with twiddle `w`: `(a + b·w, a − b·w)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn butterfly(a: __m256d, b: __m256d, w: Twiddle) -> (__m256d, __m256d) {
        let t = cmul(b, w);
        (_mm256_add_pd(a, t), _mm256_sub_pd(a, t))
    }

    /// Splits a loaded twiddle pair `[w0, w1]` into a [`Twiddle`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn split(w: __m256d) -> Twiddle {
        (_mm256_movedup_pd(w), _mm256_permute_pd(w, 0b1111))
    }

    /// Broadcasts one twiddle to both complex lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(w: Complex) -> Twiddle {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// `x` in every `f64` lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn set1(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }

    /// Loads complexes `p[0..2]`.
    ///
    /// # Safety
    /// `p` must be valid for reading two complexes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(p: *const Complex) -> __m256d {
        // SAFETY: the caller guarantees two readable complexes, i.e. four
        // `f64`s (`Complex` is `#[repr(C)]` `{re, im}`); `loadu` needs no
        // alignment.
        unsafe { _mm256_loadu_pd(p.cast()) }
    }

    /// Stores `v` to complexes `p[0..2]`.
    ///
    /// # Safety
    /// `p` must be valid for writing two complexes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(p: *mut Complex, v: __m256d) {
        // SAFETY: the caller guarantees two writable complexes (four
        // `f64`s); `storeu` needs no alignment.
        unsafe { _mm256_storeu_pd(p.cast(), v) }
    }

    /// `v` times `scale` when it is set: an inverse pass's `1/n`, applied
    /// as its last stage stores, which rounds exactly as the scalar path's
    /// `z *= 1/n` after that stage.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scaled(v: __m256d, scale: Option<__m256d>) -> __m256d {
        match scale {
            Some(s) => _mm256_mul_pd(v, s),
            None => v,
        }
    }

    column_pass!("avx2");

    /// Transforms every row of `data` (whole rows of `row.n` complexes) in
    /// place, each scaled by `1/n` when `inverse`.
    ///
    /// # Safety
    /// AVX2 must be available at runtime; `row` is a radix-2 plan with
    /// `n >= 4` and `data.len()` a multiple of `row.n`.
    // lint: no_alloc
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rows(row: &Radix2Plan, inverse: bool, data: &mut [Complex]) {
        let scale = inverse.then_some(set1(1.0 / row.n as f64));
        for r in data.chunks_exact_mut(row.n) {
            // SAFETY: `r` is one whole row of `row.n >= 4` complexes.
            unsafe { row_fft(row, r, scale) };
        }
    }

    /// Transform of one contiguous row, its last stage scaled by `scale`.
    ///
    /// # Safety
    /// AVX2 must be available at runtime; `plan` is a radix-2 plan with
    /// `n >= 4` and `data.len() == plan.n`.
    // lint: no_alloc
    #[target_feature(enable = "avx2")]
    unsafe fn row_fft(plan: &Radix2Plan, data: &mut [Complex], scale: Option<__m256d>) {
        let n = plan.n;
        for &(i, j) in &plan.swaps {
            data.swap(i as usize, j as usize);
        }
        let p = data.as_mut_ptr();
        let tw = &plan.twiddles;

        // Stages 0 and 1 on each group of four: [d0, d1] and [d2, d3] are
        // regrouped as [d0, d2] / [d1, d3] for stage 0's twiddle, then as
        // [d0', d1'] / [d2', d3'] for stage 1's twiddle pair.
        let w0 = splat(tw[0][0]);
        // SAFETY: stage 1's table holds two twiddles.
        let w1 = split(unsafe { load(tw[1].as_ptr()) });
        let sc = if tw.len() == 2 { scale } else { None };
        for k in (0..n).step_by(4) {
            // SAFETY: `k + 4 <= n` (n is a multiple of 4), so both pairs lie
            // inside the row.
            unsafe {
                let (x, y) = (load(p.add(k)), load(p.add(k + 2)));
                let (s, d) = butterfly(_mm256_permute2f128_pd(x, y, 0x20), _mm256_permute2f128_pd(x, y, 0x31), w0);
                let (s, d) = butterfly(_mm256_permute2f128_pd(s, d, 0x20), _mm256_permute2f128_pd(s, d, 0x31), w1);
                store(p.add(k), scaled(s, sc));
                store(p.add(k + 2), scaled(d, sc));
            }
        }

        let mut s = 2;
        while s + 1 < tw.len() {
            let h = 1usize << s;
            let sc = if s + 2 == tw.len() { scale } else { None };
            for base in (0..n).step_by(4 * h) {
                for j in (0..h).step_by(2) {
                    // SAFETY: `h >= 4` and `j + 2 <= h`, so the four pairs at
                    // `base + j + {0, h, 2h, 3h}` lie inside the block
                    // `base..base + 4h <= n`, and the twiddle pairs at `j`
                    // (stage `s`, `h` entries) and `j`, `j + h` (stage
                    // `s + 1`, `2h` entries) inside their tables.
                    unsafe {
                        let q = p.add(base + j);
                        let x = [load(q), load(q.add(h)), load(q.add(2 * h)), load(q.add(3 * h))];
                        let ws = split(load(tw[s].as_ptr().add(j)));
                        let wa = split(load(tw[s + 1].as_ptr().add(j)));
                        let wb = split(load(tw[s + 1].as_ptr().add(j + h)));
                        let y = radix4(x, ws, wa, wb);
                        store(q, scaled(y[0], sc));
                        store(q.add(h), scaled(y[1], sc));
                        store(q.add(2 * h), scaled(y[2], sc));
                        store(q.add(3 * h), scaled(y[3], sc));
                    }
                }
            }
            s += 2;
        }
        if s < tw.len() {
            let h = 1usize << s;
            for base in (0..n).step_by(2 * h) {
                for j in (0..h).step_by(2) {
                    // SAFETY: `j + 2 <= h`, so the pairs at `base + j` and
                    // `base + j + h` lie inside the block `base..base + 2h
                    // <= n`, and the twiddle pair at `j` inside stage `s`'s
                    // `h` entries.
                    unsafe {
                        let q = p.add(base + j);
                        let (a, b) = butterfly(load(q), load(q.add(h)), split(load(tw[s].as_ptr().add(j))));
                        store(q, scaled(a, scale));
                        store(q.add(h), scaled(b, scale));
                    }
                }
            }
        }
    }
}

/// AVX-512F kernels (four complexes per `__m512d`), no FMA: the 64-point
/// row tier, one row in 16 registers, and the column tier.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use crate::complex::Complex;
    use crate::plan::{Radix2Plan, Row64Twiddles};
    use std::arch::x86_64::*;

    type V = __m512d;

    /// A twiddle per complex lane: each real part in both of its lanes, and
    /// each imaginary part negated in the real lane (`[−im, im]`), as the
    /// plan's `row64` runs store them.
    type Twiddle = (__m512d, __m512d);

    /// Complexes per vector.
    const LANES: usize = 4;

    /// `b·w` for the four complexes in `b`: `b·wr + swap(b)·wi`, which is
    /// `(b.re·w.re + (−b.im·w.im), b.im·w.re + b.re·w.im)`. IEEE arithmetic
    /// makes `x·(−y)` exactly `−(x·y)` and `x + (−y)` exactly `x − y`, so
    /// these are the scalar product's roundings.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cmul(b: __m512d, (wr, wi): Twiddle) -> __m512d {
        _mm512_add_pd(_mm512_mul_pd(b, wr), _mm512_mul_pd(_mm512_permute_pd::<0b0101_0101>(b), wi))
    }

    /// The butterfly on `(a, b)` with twiddle `w`: `(a + b·w, a − b·w)`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn butterfly(a: __m512d, b: __m512d, w: Twiddle) -> (__m512d, __m512d) {
        let t = cmul(b, w);
        (_mm512_add_pd(a, t), _mm512_sub_pd(a, t))
    }

    /// Broadcasts one twiddle to all four complex lanes, in the signed
    /// form.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(w: Complex) -> Twiddle {
        (_mm512_set1_pd(w.re), _mm512_setr_pd(-w.im, w.im, -w.im, w.im, -w.im, w.im, -w.im, w.im))
    }

    /// `x` in every `f64` lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn set1(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    /// Loads complexes `p[0..4]`.
    ///
    /// # Safety
    /// `p` must be valid for reading four complexes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const Complex) -> __m512d {
        // SAFETY: the caller guarantees four readable complexes, i.e. eight
        // `f64`s (`Complex` is `#[repr(C)]` `{re, im}`); `loadu` needs no
        // alignment.
        unsafe { _mm512_loadu_pd(p.cast()) }
    }

    /// Stores `v` to complexes `p[0..4]`.
    ///
    /// # Safety
    /// `p` must be valid for writing four complexes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(p: *mut Complex, v: __m512d) {
        // SAFETY: the caller guarantees four writable complexes (eight
        // `f64`s); `storeu` needs no alignment.
        unsafe { _mm512_storeu_pd(p.cast(), v) }
    }

    /// `v` times `scale` when it is set (an inverse pass's `1/n` on its
    /// last stores).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn scaled(v: __m512d, scale: Option<__m512d>) -> __m512d {
        match scale {
            Some(s) => _mm512_mul_pd(v, s),
            None => v,
        }
    }

    column_pass!("avx512f");

    /// The 4×4 transpose of the 128-bit lanes of four registers: lane `l`
    /// of register `m` becomes lane `m` of register `l`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512d; 4]) -> [__m512d; 4] {
        let t0 = _mm512_shuffle_f64x2::<0x44>(r[0], r[1]);
        let t1 = _mm512_shuffle_f64x2::<0xEE>(r[0], r[1]);
        let t2 = _mm512_shuffle_f64x2::<0x44>(r[2], r[3]);
        let t3 = _mm512_shuffle_f64x2::<0xEE>(r[2], r[3]);
        [
            _mm512_shuffle_f64x2::<0x88>(t0, t2),
            _mm512_shuffle_f64x2::<0xDD>(t0, t2),
            _mm512_shuffle_f64x2::<0x88>(t1, t3),
            _mm512_shuffle_f64x2::<0xDD>(t1, t3),
        ]
    }

    /// The eight `f64`s of a twiddle run.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn run(v: &[f64; 8]) -> __m512d {
        // SAFETY: a reference to eight `f64`s is valid for reading them;
        // `loadu` needs no alignment.
        unsafe { _mm512_loadu_pd(v.as_ptr()) }
    }

    /// One row of 64 complexes on a 64-byte boundary.
    #[repr(align(64))]
    struct Row([Complex; 64]);

    /// Transforms every row of `data` (a power-of-two count `m` of rows of
    /// 64 complexes) with the 64-point plan's twiddle vectors, each row
    /// scaled by `1/64` when `inverse`, and stores row `r`'s transform at
    /// row `rev(r)`, the bit reversal of `r` below `m`. A row that is its
    /// own reversal is transformed in place; of a pair `r < rev(r)`, row
    /// `r` goes through an aligned stack row while row `rev(r)` lands on
    /// row `r`.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime, and `data.len()` must be 64
    /// times a power of two.
    // lint: no_alloc
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn rows(twiddles: &Row64Twiddles, inverse: bool, data: &mut [Complex]) {
        let scale = inverse.then_some(set1(1.0 / 64.0));
        let w: [Twiddle; 27] = std::array::from_fn(|v| (run(&twiddles[v][0]), run(&twiddles[v][1])));
        let m = data.len() / 64;
        let shift = usize::BITS - m.trailing_zeros();
        let p = data.as_mut_ptr();
        let mut tmp = Row([Complex::ZERO; 64]);
        for r in 0..m {
            let q = r.reverse_bits().checked_shr(shift).unwrap_or(0);
            // SAFETY: `r` and `q` are below `m`, so both rows lie inside
            // `data`, and `tmp` is a row of its own.
            unsafe {
                let (pr, pq) = (p.add(64 * r), p.add(64 * q));
                if q == r {
                    row64(&w, pr, pr, scale);
                } else if r < q {
                    row64(&w, pr, tmp.0.as_mut_ptr(), scale);
                    row64(&w, pq, pr, scale);
                    std::ptr::copy_nonoverlapping(tmp.0.as_ptr(), pq, 64);
                }
            }
        }
    }

    /// The scalar kernel's transform of the 64 complexes at `src`, stored
    /// to `dst` multiplied by `scale`.
    ///
    /// Bit-reversed position `q` lives in lane `q / 16` of register
    /// `q % 16` until the transpose, and in lane `q % 4` of register
    /// `4·(q / 4 % 4) + q / 16` after it. Stages 0–3 pair registers, so
    /// their twiddles are one per register (`w[0..15]`); stages 4–5 pair
    /// registers after the transpose, with one twiddle per lane
    /// (`w[15..27]`). Every register index is a literal, so the row stays
    /// in registers.
    ///
    /// # Safety
    /// AVX-512F must be available at runtime, `src` must be valid for
    /// reading 64 complexes and `dst` for writing 64 (`src` itself is
    /// allowed: every load comes before the first store).
    // lint: no_alloc
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn row64(w: &[Twiddle; 27], src: *const Complex, dst: *mut Complex, scale: Option<__m512d>) {
        // Register `r` takes the four elements from `4·rev4(r)` with its
        // middle 128-bit lanes swapped: lane `l` holds element
        // `4·rev4(r) + rev2(l)`, bit-reversed position `16·l + r`.
        macro_rules! load {
            ($($at:literal)*) => {
                [$({
                    // SAFETY: `$at + 4 <= 64`.
                    let v = unsafe { load(src.add($at)) };
                    _mm512_shuffle_f64x2::<0b11_01_10_00>(v, v)
                }),*]
            };
        }
        let mut x = load!(0 32 16 48 8 40 24 56 4 36 20 52 12 44 28 60);
        macro_rules! butterflies {
            ($($a:literal $b:literal $w:expr;)*) => {
                $( (x[$a], x[$b]) = butterfly(x[$a], x[$b], $w); )*
            };
        }
        butterflies! {
            0 1 w[0]; 2 3 w[0]; 4 5 w[0]; 6 7 w[0]; 8 9 w[0]; 10 11 w[0]; 12 13 w[0]; 14 15 w[0];
            0 2 w[1]; 1 3 w[2]; 4 6 w[1]; 5 7 w[2]; 8 10 w[1]; 9 11 w[2]; 12 14 w[1]; 13 15 w[2];
            0 4 w[3]; 1 5 w[4]; 2 6 w[5]; 3 7 w[6]; 8 12 w[3]; 9 13 w[4]; 10 14 w[5]; 11 15 w[6];
            0 8 w[7]; 1 9 w[8]; 2 10 w[9]; 3 11 w[10]; 4 12 w[11]; 5 13 w[12]; 6 14 w[13]; 7 15 w[14];
        }
        // After the transpose register `4g + a` holds positions
        // `16a + 4g .. 16a + 4g + 4`; stage 4 pairs `a` with `a + 1` under
        // run `15 + g`, stage 5 pairs `a` with `a + 2` under run
        // `19 + 4a + g`.
        macro_rules! group {
            ($r0:literal $r1:literal $r2:literal $r3:literal; $g:literal $g5:literal $g6:literal) => {
                [x[$r0], x[$r1], x[$r2], x[$r3]] = transpose([x[$r0], x[$r1], x[$r2], x[$r3]]);
                butterflies! {
                    $r0 $r1 w[$g]; $r2 $r3 w[$g];
                    $r0 $r2 w[$g5]; $r1 $r3 w[$g6];
                }
            };
        }
        group!(0 1 2 3; 15 19 23);
        group!(4 5 6 7; 16 20 24);
        group!(8 9 10 11; 17 21 25);
        group!(12 13 14 15; 18 22 26);
        macro_rules! store {
            ($($r:literal $at:literal)*) => {
                $(
                    // SAFETY: `$at + 4 <= 64`.
                    unsafe { store(dst.add($at), scaled(x[$r], scale)) };
                )*
            };
        }
        store!(0 0 1 16 2 32 3 48 4 4 5 20 6 36 7 52 8 8 9 24 10 40 11 56 12 12 13 28 14 44 15 60);
    }
}

/// The dispatched [`crate::Fft2`] against its scalar path, bit for bit.
///
/// On a CPU without AVX2, or off x86-64, the dispatcher declines every
/// shape, so these tests then compare the scalar path with itself.
#[cfg(test)]
mod tests {
    use crate::{Complex, Direction, Fft2, Fft2Scratch};

    fn avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Finite data over many binades, with exact and signed zeros mixed in.
    fn grid(len: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match s >> 60 {
                0 => 0.0,
                1 => -0.0,
                k => unit * 2f64.powi(k as i32 * 3 - 20),
            }
        };
        (0..len).map(|_| Complex::new(next(), next())).collect()
    }

    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// A value's bits, or `None` for any NaN: a NaN's payload and sign may
    /// depend on operand order (the AVX2 lanes add `b.im·w.re + b.re·w.im`
    /// where the scalar code adds `b.re·w.im + b.im·w.re`), so NaN matches
    /// any NaN and every other value, infinities and signed zeros included,
    /// must match bitwise.
    fn class(x: f64) -> Option<u64> {
        (!x.is_nan()).then_some(x.to_bits())
    }

    /// Finite data and then one grid per non-finite class (and a huge, a
    /// negative-zero and a subnormal value) planted at a few positions.
    fn specials(len: usize, seed: u64) -> impl Iterator<Item = (f64, Vec<Complex>)> {
        let specials = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0, f64::MIN_POSITIVE / 4.0];
        specials.into_iter().enumerate().map(move |(k, special)| {
            let mut input = grid(len, seed + k as u64);
            if k > 0 {
                for idx in [0, 3, len / 4 + 1, len / 2 + 1] {
                    input[idx].re = special;
                }
                input[len - 1].im = special;
            }
            (special, input)
        })
    }

    /// Asserts `got` is `want` up to NaN payloads.
    fn assert_classes(got: &[Complex], want: &[Complex], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!((class(g.re), class(g.im)), (class(w.re), class(w.im)), "{what} at {i}: {g:?} vs {w:?}");
        }
    }

    /// A buffer of `len + 3` complexes: its slices starting at 0..4 lie at
    /// each 16-byte offset modulo 64 (the tiers' loads and stores are
    /// unaligned).
    fn offset_buffer(len: usize) -> Vec<Complex> {
        let buf = vec![Complex::ZERO; len + 3];
        let at: std::collections::BTreeSet<usize> = (0..4).map(|k| buf[k..].as_ptr() as usize % 64).collect();
        assert_eq!(at, [0, 16, 32, 48].into(), "the allocator aligns to 16 bytes");
        buf
    }

    /// Transforms `input` through the dispatched entry (with `scratch`) and
    /// through the scalar path, and checks that the vector path ran exactly
    /// when it should.
    fn both(input: &[Complex], plan: &Fft2, scratch: &mut Fft2Scratch) -> (Vec<Complex>, Vec<Complex>) {
        let (rows, cols) = (plan.rows(), plan.cols());
        let mut want = input.to_vec();
        plan.process_scalar(&mut want, &mut Fft2Scratch::new());
        let mut got = input.to_vec();
        plan.process_with_scratch(&mut got, scratch);
        let mut direct = input.to_vec();
        let took = super::fft2(&plan.row_plan, &plan.col_plan, &mut direct);
        let eligible = rows.is_power_of_two() && cols.is_power_of_two() && rows >= 4 && cols >= 4;
        assert_eq!(took, avx2() && eligible, "dispatch at {rows}x{cols}");
        if !took {
            assert_eq!(bits(&direct), bits(input), "a declined call touched the data");
        }
        (want, got)
    }

    #[test]
    fn every_power_of_two_shape_is_the_scalar_path_bitwise() {
        // 1x1 .. 256x256, square, rectangular and degenerate (1x64, 64x1,
        // 2x64, 8x256, ...), both directions, one scratch across all.
        let mut scratch = Fft2Scratch::new();
        for re in 0..=8 {
            for ce in 0..=8 {
                let (rows, cols) = (1usize << re, 1usize << ce);
                let input = grid(rows * cols, (re * 9 + ce) as u64);
                for dir in [Direction::Forward, Direction::Inverse] {
                    let (want, got) = both(&input, &Fft2::new(rows, cols, dir), &mut scratch);
                    assert_eq!(bits(&got), bits(&want), "{rows}x{cols} {dir:?}");
                }
            }
        }
    }

    fn avx512f() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// `r` bit-reversed below the power of two `n`.
    fn rev(r: usize, n: usize) -> usize {
        r.reverse_bits().checked_shr(usize::BITS - n.trailing_zeros()).unwrap_or(0)
    }

    #[test]
    fn row_tier_is_the_1d_plan_row_by_row_bitwise() {
        // 1, 4, 8 and 128 rows of 64 at each 16-byte offset modulo 64, both
        // directions, finite data and each non-finite class: row `r`'s
        // transform by the 1-D plan lands on row `rev(r)`.
        for m in [1, 4, 8, 128] {
            let len = m * 64;
            let mut buf = offset_buffer(len);
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = crate::FftPlan::new(64, dir);
                for (special, input) in specials(len, 100 + m as u64) {
                    let mut want = input.clone();
                    for (r, row) in input.chunks_exact(64).enumerate() {
                        let out = &mut want[64 * rev(r, m)..][..64];
                        out.copy_from_slice(row);
                        plan.process(out);
                    }
                    for start in 0..4 {
                        let got = &mut buf[start..start + len];
                        got.copy_from_slice(&input);
                        let took = super::rows64(&plan, got);
                        assert_eq!(took, avx512f(), "dispatch");
                        if !took {
                            return;
                        }
                        assert_classes(got, &want, &format!("{m} rows {dir:?} special {special} offset {start}"));
                    }
                }
            }
        }
    }

    #[test]
    fn col_tier_is_the_scalar_path_bitwise() {
        // Column lengths 4..=256 by row widths 4..=256 at each 16-byte
        // offset modulo 64, both directions, finite data and each
        // non-finite class: the tier against the 1-D plan column by column,
        // from rows in natural order and from rows already bit-reversed.
        for (re, we) in (2..=8).flat_map(|re| (2..=8).map(move |we| (re, we))) {
            let (n, width) = (1usize << re, 1usize << we);
            let len = n * width;
            let mut buf = offset_buffer(len);
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = crate::FftPlan::new(n, dir);
                for (special, input) in specials(len, (re * 9 + we) as u64) {
                    let mut want = input.clone();
                    let mut col = vec![Complex::ZERO; n];
                    for c in 0..width {
                        for r in 0..n {
                            col[r] = want[r * width + c];
                        }
                        plan.process(&mut col);
                        for r in 0..n {
                            want[r * width + c] = col[r];
                        }
                    }
                    let mut reversed = input.clone();
                    for (r, row) in input.chunks_exact(width).enumerate() {
                        reversed[width * rev(r, n)..][..width].copy_from_slice(row);
                    }
                    for (rows_reversed, from) in [(false, &input), (true, &reversed)] {
                        for start in 0..4 {
                            let got = &mut buf[start..start + len];
                            got.copy_from_slice(from);
                            let took = super::cols512(&plan, width, rows_reversed, got);
                            assert_eq!(took, avx512f(), "dispatch");
                            if !took {
                                return;
                            }
                            let what = format!("{n}x{width} {dir:?} reversed {rows_reversed} special {special} offset {start}");
                            assert_classes(got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col_tier_declines_other_shapes() {
        // Rows 1 and 2 wide keep AVX2, a Bluestein or too short plan the
        // scalar path; none of them touches the data.
        for (n, width) in [(8, 1), (8, 2), (64, 2), (12, 4), (2, 4)] {
            let mut data = grid(n * width, 3);
            let before = bits(&data);
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = crate::FftPlan::new(n, dir);
                for reversed in [false, true] {
                    assert!(!super::cols512(&plan, width, reversed, &mut data), "{n}x{width}");
                }
            }
            assert_eq!(bits(&data), before);
        }
    }

    #[test]
    fn row_tier_grids_are_the_scalar_path_bitwise() {
        // 64-wide grids through the dispatcher at each 16-byte offset, where
        // the row tier hands the column pass bit-reversed rows: 4 rows (one
        // column sweep), 8 (a radix-2 last sweep) and 128 (three radix-2²
        // sweeps and a radix-2 one).
        let mut scratch = Fft2Scratch::new();
        for n in [4, 8, 128] {
            let len = n * 64;
            let mut buf = offset_buffer(len);
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = Fft2::new(n, 64, dir);
                for (special, input) in specials(len, n as u64) {
                    let mut want = input.clone();
                    plan.process_scalar(&mut want, &mut scratch);
                    for start in 0..4 {
                        let got = &mut buf[start..start + len];
                        got.copy_from_slice(&input);
                        let took = super::fft2(&plan.row_plan, &plan.col_plan, got);
                        assert_eq!(took, avx2(), "dispatch");
                        let what = format!("{n}x64 {dir:?} special {special} offset {start}");
                        assert_classes(got, if took { &want } else { &input }, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn row_tier_declines_other_plans() {
        let mut data = grid(4 * 64, 1);
        let before = bits(&data);
        for plan in [crate::FftPlan::new(32, Direction::Forward), crate::FftPlan::new(128, Direction::Inverse)] {
            assert!(!super::rows64(&plan, &mut data));
        }
        let mut odd = grid(4 * 96, 2);
        assert!(!super::rows64(&crate::FftPlan::new(96, Direction::Forward), &mut odd));
        assert_eq!(bits(&data), before);
    }

    #[test]
    fn bluestein_shapes_keep_the_scalar_path() {
        let mut scratch = Fft2Scratch::new();
        for (rows, cols) in [(6, 10), (96, 96), (64, 96), (96, 64), (3, 64)] {
            let input = grid(rows * cols, (rows * cols) as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let (want, got) = both(&input, &Fft2::new(rows, cols, dir), &mut scratch);
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols} {dir:?}");
            }
        }
    }

    #[test]
    fn non_finite_inputs_classify_like_the_scalar_path() {
        // NaN matches any NaN (see `class`).
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0, f64::MIN_POSITIVE / 4.0];
        let mut scratch = Fft2Scratch::new();
        for (rows, cols) in [(4, 4), (8, 16), (64, 64)] {
            for (k, &special) in specials.iter().enumerate() {
                let mut input = grid(rows * cols, k as u64);
                for idx in [0, 3, rows * cols / 2 + 1] {
                    input[idx].re = special;
                }
                input[rows * cols - 1].im = special;
                for dir in [Direction::Forward, Direction::Inverse] {
                    let (want, got) = both(&input, &Fft2::new(rows, cols, dir), &mut scratch);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            (class(g.re), class(g.im)),
                            (class(w.re), class(w.im)),
                            "{rows}x{cols} {dir:?} special {special} at {i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }
}
