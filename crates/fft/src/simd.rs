//! Runtime-dispatched AVX2 path for [`crate::Fft2`].
//!
//! [`fft2`] transforms a grid with 256-bit lanes when the CPU has AVX2
//! (`is_x86_feature_detected!`) and both axes are radix-2 plans at least 4
//! long. Otherwise it leaves the data alone and the caller runs the scalar
//! path: `radix2::fft_in_place` on every row, then on every row of the
//! transpose.
//!
//! ## Bitwise contract
//!
//! The lanes do the scalar kernel's arithmetic and nothing else: the same
//! butterflies with the same table twiddles, every output element reached
//! through the same sequence of roundings. Only `mul`, `add`, `sub` and
//! `addsub` are used, never FMA, so the product `b·w` is
//! `(b.re·w.re − b.im·w.im, b.im·w.re + b.re·w.im)`, which is the scalar
//! `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)` because IEEE addition
//! commutes. No twiddle is special-cased (`cis(π/2)` has real part 6e-17,
//! not 0, and even `cis(0)` is multiplied, so signed zeros and infinities
//! propagate as in the scalar kernel). The path therefore equals the scalar
//! path bit for bit, up to NaN payloads, and has no switch: there is
//! nothing to cap.
//!
//! ## Structure
//!
//! - **Row pass.** Each contiguous row is bit-reversed with the plan's
//!   swaps. Stages 0 and 1 run fused on groups of four complexes, the
//!   remaining stages in radix-2² pairs with two butterflies per `__m256d`
//!   and the twiddle pair loaded from the plan's table; an odd count of
//!   remaining stages ends with one radix-2 stage.
//! - **Column pass, no transpose.** Bit-reversal swaps whole rows, and a
//!   butterfly between two rows is a whole-row operation with one broadcast
//!   twiddle. Stages run in radix-2² pairs (the four products of two stages
//!   stay in registers), so one sweep over the grid does two stages; an odd
//!   stage count ends with one radix-2 sweep.
//! - The inverse `1/n` scaling stays per 1-D pass, as in
//!   `FftPlan::process_buffered`: each pass multiplies the outputs of its
//!   last stage by `1/n` as it stores them.

use crate::complex::Complex;
use crate::plan::FftPlan;

/// Transforms the row-major grid `data` (`col_plan.len()` rows of
/// `row_plan.len()` complexes) in place on the AVX2 path and returns
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
    // SAFETY: AVX2 was detected just above, both plans are radix-2 with
    // `n >= 4`, and `data` holds `col.n` rows of `row.n` complexes
    // (asserted): the whole contract of `avx2::fft2`.
    unsafe { avx2::fft2(row, col, inverse, data) };
    true
}

/// Off x86-64 there is no vector path; every grid takes the scalar one.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fft2(_row_plan: &FftPlan, _col_plan: &FftPlan, _data: &mut [Complex]) -> bool {
    false
}

/// AVX2 kernels (two complexes per `__m256d`), no FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::complex::Complex;
    use crate::plan::Radix2Plan;
    use std::arch::x86_64::*;

    /// `b·w` for the two complexes in `b`, with `wr`/`wi` holding each
    /// twiddle's real/imaginary part in both of its lanes: `mul`, `permute`,
    /// `mul`, `addsub`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cmul(b: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(_mm256_permute_pd(b, 0b0101), wi))
    }

    /// Splits a loaded twiddle pair `[w0, w1]` into `([w0.re; 2, w1.re; 2],
    /// [w0.im; 2, w1.im; 2])`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn split(w: __m256d) -> (__m256d, __m256d) {
        (_mm256_movedup_pd(w), _mm256_permute_pd(w, 0b1111))
    }

    /// Broadcasts one twiddle to both complex lanes, split as in [`split`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(w: Complex) -> (__m256d, __m256d) {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// One radix-2² butterfly: stage `s` on the pairs `(x0, x1)` and
    /// `(x2, x3)` with twiddle `ws`, then stage `s + 1` on `(x0, x2)` with
    /// `wa` and on `(x1, x3)` with `wb`; the scalar kernel's four products.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn radix4(
        x: [__m256d; 4],
        ws: (__m256d, __m256d),
        wa: (__m256d, __m256d),
        wb: (__m256d, __m256d),
    ) -> [__m256d; 4] {
        let t1 = cmul(x[1], ws.0, ws.1);
        let t3 = cmul(x[3], ws.0, ws.1);
        let (y0, y1) = (_mm256_add_pd(x[0], t1), _mm256_sub_pd(x[0], t1));
        let (y2, y3) = (_mm256_add_pd(x[2], t3), _mm256_sub_pd(x[2], t3));
        let u2 = cmul(y2, wa.0, wa.1);
        let u3 = cmul(y3, wb.0, wb.1);
        [_mm256_add_pd(y0, u2), _mm256_add_pd(y1, u3), _mm256_sub_pd(y0, u2), _mm256_sub_pd(y1, u3)]
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

    /// Transforms `data` (`col.n` rows of `row.n` complexes) in place: the
    /// row pass, then the column pass, each scaled by `1/n` when `inverse`.
    ///
    /// # Safety
    /// AVX2 must be available at runtime; `row` and `col` are radix-2 plans
    /// with `n >= 4` and `data.len() == row.n * col.n`.
    // lint: no_alloc
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fft2(row: &Radix2Plan, col: &Radix2Plan, inverse: bool, data: &mut [Complex]) {
        let row_scale = inverse.then_some(_mm256_set1_pd(1.0 / row.n as f64));
        for r in data.chunks_exact_mut(row.n) {
            // SAFETY: `r` is one whole row of `row.n >= 4` complexes.
            unsafe { row_fft(row, r, row_scale) };
        }
        let col_scale = inverse.then_some(_mm256_set1_pd(1.0 / col.n as f64));
        // SAFETY: `data` is `col.n >= 4` rows of `row.n >= 4` complexes.
        unsafe { col_fft(col, row.n, data, col_scale) };
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
                let a = _mm256_permute2f128_pd(x, y, 0x20);
                let b = cmul(_mm256_permute2f128_pd(x, y, 0x31), w0.0, w0.1);
                let (s, d) = (_mm256_add_pd(a, b), _mm256_sub_pd(a, b));
                let a = _mm256_permute2f128_pd(s, d, 0x20);
                let b = cmul(_mm256_permute2f128_pd(s, d, 0x31), w1.0, w1.1);
                store(p.add(k), scaled(_mm256_add_pd(a, b), sc));
                store(p.add(k + 2), scaled(_mm256_sub_pd(a, b), sc));
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
                        let (a, w) = (load(q), split(load(tw[s].as_ptr().add(j))));
                        let b = cmul(load(q.add(h)), w.0, w.1);
                        store(q, scaled(_mm256_add_pd(a, b), scale));
                        store(q.add(h), scaled(_mm256_sub_pd(a, b), scale));
                    }
                }
            }
        }
    }

    /// Transform of every column of a row-major grid with `plan.n` rows of
    /// `cols` complexes, without a transpose; the last sweep is scaled by
    /// `scale`.
    ///
    /// # Safety
    /// AVX2 must be available at runtime; `plan` is a radix-2 plan with
    /// `n >= 4`, `cols` is even and `data.len() == plan.n * cols`.
    // lint: no_alloc
    #[target_feature(enable = "avx2")]
    unsafe fn col_fft(plan: &Radix2Plan, cols: usize, data: &mut [Complex], scale: Option<__m256d>) {
        let n = plan.n;
        for &(i, j) in &plan.swaps {
            let (i, j) = (i as usize, j as usize);
            let (lo, hi) = data.split_at_mut(j * cols);
            lo[i * cols..(i + 1) * cols].swap_with_slice(&mut hi[..cols]);
        }
        let p = data.as_mut_ptr();
        let tw = &plan.twiddles;

        let mut s = 0;
        while s + 1 < tw.len() {
            let h = 1usize << s;
            let sc = if s + 2 == tw.len() { scale } else { None };
            for base in (0..n).step_by(4 * h) {
                for j in 0..h {
                    let ws = splat(tw[s][j]);
                    let wa = splat(tw[s + 1][j]);
                    let wb = splat(tw[s + 1][j + h]);
                    // SAFETY: rows `base + j + {0, h, 2h, 3h}` are below
                    // `base + 4h <= n`, so each row start lies inside the grid.
                    let q = unsafe { p.add((base + j) * cols) };
                    let step = h * cols;
                    for c in (0..cols).step_by(2) {
                        // SAFETY: `c + 2 <= cols`, so each pair stays inside
                        // its row.
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
                    for c in (0..cols).step_by(2) {
                        // SAFETY: rows `base + j` and `base + j + h` are
                        // below `base + 2h <= n` and `c + 2 <= cols`.
                        unsafe {
                            let qa = p.add((base + j) * cols + c);
                            let qb = p.add((base + j + h) * cols + c);
                            let a = load(qa);
                            let b = cmul(load(qb), w.0, w.1);
                            store(qa, scaled(_mm256_add_pd(a, b), scale));
                            store(qb, scaled(_mm256_sub_pd(a, b), scale));
                        }
                    }
                }
            }
        }
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
        // A NaN's payload and sign may depend on operand order (the lanes
        // add `b.im·w.re + b.re·w.im` where the scalar code adds
        // `b.re·w.im + b.im·w.re`), so NaN matches any NaN; every other
        // value, infinities and signed zeros included, must match bitwise.
        fn class(x: f64) -> Option<u64> {
            (!x.is_nan()).then_some(x.to_bits())
        }
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
