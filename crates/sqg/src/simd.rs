//! The AVX-512 tier of the SQG step's three sweeps (`crate::dynamics`'s
//! `pack`, `product` and `assemble`).
//!
//! ## Bitwise contract
//!
//! Four modes per zmm register on the interleaved `Complex` layout, lanes
//! `[re, im]` per mode. Each lane does the scalar sweep's operations on its
//! element in the scalar order, with only `mul`, `add`, `sub`, masked
//! blends and moves, and a sign `xor` for negation; never FMA. A complex
//! product `(ar + i·ai)·z` is `ar·z + ai'·swap(z)`, with `ai'` the factor
//! `ai` negated in the real lanes, which is the scalar
//! `(ar·z.re − ai·z.im, ar·z.im + ai·z.re)` because IEEE multiplication and
//! addition commute, `(−x)·y` is exactly `−(x·y)` and `x + (−y)` exactly
//! `x − y`; a `0.0·x` or `1.0·x` the scalar product rounds is
//! rounded here too, so signed zeros and infinities propagate as there.
//! Per-mode tables load four entries at a time, each duplicated into both
//! lanes of its mode. The tier therefore equals the scalar sweeps bit for
//! bit, up to NaN payloads, and has no switch.
//!
//! ## Conjugate pairs
//!
//! Pack and assemble visit the blocks of columns `0..=n/2` of each row `i`.
//! A block stores the modes it computes with a mask (columns past `n/2`
//! belong to the mirrors), and the modes of paired columns
//! (`dynamics::mirror_column`) reversed into row `−i` with a lane
//! permutation and a second mask: the block at column `j ≥ 4` mirrors to
//! columns `n − j − 3 ..= n − j`, the block at column 0 mirrors lanes 1–3 to
//! columns `n − 1, n − 2, n − 3`. Pack forms the mirrored fields from
//! `conj ψ̂`, `conj x̂` and `−kx`; assemble stores the conjugate of each
//! value it stores.
//!
//! ## Dispatch
//!
//! [`Avx512::detect`] is the only way to the kernels: it checks AVX-512F
//! and AVX-512DQ (for `xor_pd`) at runtime, and a grid side `n` with
//! `n % 4 == 0` and `n ≥ 8`, so every 4-mode block lies inside one row.
//! Ekman damping and thermal relaxation run inside the tier; nothing else
//! selects it.

use crate::dynamics::Assembly;
use crate::grid::SpectralGrid;
use crate::state::LEVELS;
use fft::Complex;

/// Proof that the tier runs on this CPU for the grid side it was detected
/// for. Off x86-64 it is uninhabited.
#[derive(Clone, Copy)]
pub(crate) struct Avx512(Proof);

#[cfg(target_arch = "x86_64")]
type Proof = ();
#[cfg(not(target_arch = "x86_64"))]
type Proof = std::convert::Infallible;

impl Avx512 {
    /// The tier, if this CPU has AVX-512F+DQ and `n` is a multiple of 4 and
    /// at least 8.
    pub(crate) fn detect(n: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if n.is_multiple_of(4)
            && n >= 8
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
        {
            return Some(Avx512(()));
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = n;
        None
    }

    /// `crate::dynamics::pack`'s bits.
    ///
    /// # Safety
    /// `self` was detected for `grid.n`, and both levels of `x` and the four
    /// `fields` hold `grid.n²` modes.
    // lint: no_alloc
    pub(crate) unsafe fn pack<F: AsMut<[Complex]>>(
        self,
        grid: &SpectralGrid,
        x: &[Vec<Complex>; LEVELS],
        fields: &mut [F; 4],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the token proves AVX-512F+DQ and the grid side; the caller
        // guarantees the lengths.
        unsafe {
            avx512::pack(grid, x, fields)
        };
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }

    /// `crate::dynamics::product`'s bits.
    ///
    /// # Safety
    /// `self` was detected for the grid side `n`, and the four `fields` and
    /// `adv` hold `n²` modes.
    // lint: no_alloc
    pub(crate) unsafe fn product<F: AsRef<[Complex]>>(self, fields: &[F; 4], adv: &mut [Complex]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the token proves AVX-512F+DQ; the caller guarantees the
        // lengths, and `n² % 4 == 0` since `n % 4 == 0`.
        unsafe {
            avx512::product(fields, adv)
        };
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }

    /// `crate::dynamics::assemble`'s bits.
    ///
    /// # Safety
    /// `self` was detected for `a.grid.n`, and `adv`, both levels of
    /// `theta`, `acc`, `tmp` and of the stage's reference (if any) hold
    /// `a.grid.n²` modes.
    // lint: no_alloc
    pub(crate) unsafe fn assemble(
        self,
        a: &Assembly<'_>,
        adv: &[Complex],
        theta: &mut [Vec<Complex>; LEVELS],
        acc: &mut [Vec<Complex>; LEVELS],
        tmp: &mut [Vec<Complex>; LEVELS],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the token proves AVX-512F+DQ and the grid side; the caller
        // guarantees the lengths.
        unsafe {
            avx512::assemble(a, adv, theta, acc, tmp)
        };
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }
}

/// AVX-512F+DQ kernels, four complexes per `__m512d`, no FMA.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::LEVELS;
    use crate::dynamics::{self, Assembly, Stage};
    use crate::grid::SpectralGrid;
    use fft::Complex;
    use std::arch::x86_64::*;

    /// The imaginary lanes.
    const IM: __mmask8 = 0b1010_1010;

    /// Loads complexes `p[0..4]`.
    ///
    /// # Safety
    /// `p` must be valid for reading four complexes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const Complex) -> __m512d {
        // SAFETY: four readable complexes are eight `f64`s (`Complex` is
        // `#[repr(C)]` `{re, im}`); `loadu` needs no alignment.
        unsafe { _mm512_loadu_pd(p.cast()) }
    }

    /// Stores `v` to complexes `p[0..4]`.
    ///
    /// # Safety
    /// `p` must be valid for writing four complexes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(p: *mut Complex, v: __m512d) {
        // SAFETY: four writable complexes are eight `f64`s; `storeu` needs
        // no alignment.
        unsafe { _mm512_storeu_pd(p.cast(), v) }
    }

    /// Table entries `p[0..4]`, each in both lanes of its mode.
    ///
    /// # Safety
    /// `p` must be valid for reading four `f64`s.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn dup(p: *const f64) -> __m512d {
        // SAFETY: the caller guarantees four readable `f64`s; `loadu` needs
        // no alignment.
        let v = unsafe { _mm256_loadu_pd(p) };
        _mm512_permutexvar_pd(
            _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3),
            _mm512_castpd256_pd512(v),
        )
    }

    /// Each mode's real and imaginary lanes exchanged.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn swap(z: __m512d) -> __m512d {
        _mm512_permute_pd::<0b0101_0101>(z)
    }

    /// `(re + i·im)·z` per mode, `re` duplicated per mode and `im` given
    /// [`signed`]: `re·z + im·swap(z)`, which is `re·z.re + (−im)·z.im` and
    /// `re·z.im + im·z.re`. IEEE arithmetic makes `(−x)·y` exactly `−(x·y)`
    /// and `x + (−y)` exactly `x − y`, so the real lane rounds as the scalar
    /// `re·z.re − im·z.im`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cmul(re: __m512d, im: __m512d, z: __m512d) -> __m512d {
        _mm512_add_pd(_mm512_mul_pd(re, z), _mm512_mul_pd(im, swap(z)))
    }

    /// A per-mode duplicated factor with its real lanes negated, the form
    /// [`cmul`] takes its imaginary part in.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn signed(im: __m512d) -> __m512d {
        _mm512_mask_xor_pd(im, !IM, im, _mm512_set1_pd(-0.0))
    }

    /// `−z`: every sign bit flipped, as the scalar negation does.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn neg(z: __m512d) -> __m512d {
        _mm512_xor_pd(z, _mm512_set1_pd(-0.0))
    }

    /// `dynamics::invert_mode` on four modes: `fnk`, `it`, `is` are the
    /// duplicated `inv_nk`, `inv_tanh_mu`, `inv_sinh_mu`; modes with
    /// `fnk == 0` get `+0`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn invert(
        fnk: __m512d,
        it: __m512d,
        is: __m512d,
        tb: __m512d,
        tt: __m512d,
    ) -> [__m512d; LEVELS] {
        let flow = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(fnk, _mm512_setzero_pd());
        let bottom = _mm512_mul_pd(
            _mm512_sub_pd(_mm512_mul_pd(tt, is), _mm512_mul_pd(tb, it)),
            fnk,
        );
        let top = _mm512_mul_pd(
            _mm512_sub_pd(_mm512_mul_pd(tt, it), _mm512_mul_pd(tb, is)),
            fnk,
        );
        [
            _mm512_maskz_mov_pd(flow, bottom),
            _mm512_maskz_mov_pd(flow, top),
        ]
    }

    /// ψ̂ of both levels at the four modes from `idx` on.
    ///
    /// # Safety
    /// `idx + 4 <= grid.n²`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn invert_at(
        grid: &SpectralGrid,
        idx: usize,
        x: [__m512d; LEVELS],
    ) -> [__m512d; LEVELS] {
        // SAFETY: the three tables hold `n²` entries and `idx + 4 <= n²`.
        let (fnk, it, is) = unsafe {
            (
                dup(grid.inv_nk.as_ptr().add(idx)),
                dup(grid.inv_tanh_mu.as_ptr().add(idx)),
                dup(grid.inv_sinh_mu.as_ptr().add(idx)),
            )
        };
        invert(fnk, it, is, x[0], x[1])
    }

    /// Each mode's imaginary part negated.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn conj(z: __m512d) -> __m512d {
        _mm512_mask_xor_pd(z, IM, z, _mm512_set1_pd(-0.0))
    }

    /// The mask of the lanes of the modes `m` in `0..4` with `keep(m)`.
    fn modes(keep: impl Fn(usize) -> bool) -> __mmask8 {
        (0..4).filter(|&m| keep(m)).fold(0, |mask, m| mask | 0b11 << (2 * m))
    }

    /// Where a sweep writes the four modes from column `j` of row `i`:
    /// the modes it computes at `idx` (`own`), and the modes of the paired
    /// columns mirrored to row `−i`, which `order` places at `mirror`
    /// (`mirrored`). The mirror of column `j + m` is column `n − j − m`: a
    /// block at `j ≥ 4` mirrors, reversed, to columns `n − j − 3 ..= n − j`;
    /// the block at `j = 0` mirrors lanes 1–3 to columns `n − 1, n − 2,
    /// n − 3`, since column 0 is its own.
    #[derive(Clone, Copy)]
    struct Block {
        idx: usize,
        own: __mmask8,
        mirror: usize,
        order: __m512i,
        mirrored: __mmask8,
    }

    impl Block {
        /// The block at column `j`, a multiple of 4 with `j <= n/2`, of row
        /// `i` of a grid of side `n`, a multiple of 4 and at least 8.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(n: usize, i: usize, j: usize) -> Self {
            let row = (n - i) % n * n;
            let paired = |col: usize| dynamics::mirror_column(n, col).is_some();
            let own = modes(|m| dynamics::computed(n, j + m));
            if j == 0 {
                let order = _mm512_setr_epi64(0, 1, 6, 7, 4, 5, 2, 3);
                Block { idx: i * n, own, mirror: row + n - 4, order, mirrored: modes(|p| p >= 1) }
            } else {
                let order = _mm512_setr_epi64(6, 7, 4, 5, 2, 3, 0, 1);
                let mirrored = modes(|p| paired(j + 3 - p));
                Block { idx: i * n + j, own, mirror: row + n - j - 3, order, mirrored }
            }
        }

        /// Stores `v` at the block's own modes of `f`.
        ///
        /// # Safety
        /// `f` must be an `n²` grid.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn put(self, f: *mut Complex, v: __m512d) {
            // SAFETY: `idx + 4 <= n²` (`j + 4 <= n`); masked lanes are not
            // touched.
            unsafe { _mm512_mask_storeu_pd(f.add(self.idx).cast(), self.own, v) }
        }

        /// Stores `v`'s paired modes of `f` at their mirrors.
        ///
        /// # Safety
        /// `f` must be an `n²` grid.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn put_mirror(self, f: *mut Complex, v: __m512d) {
            let v = _mm512_permutexvar_pd(self.order, v);
            // SAFETY: `mirror` is column `n − 4` or `n − j − 3 >= 1` of a
            // row, so its four modes lie in that row.
            unsafe { _mm512_mask_storeu_pd(f.add(self.mirror).cast(), self.mirrored, v) }
        }
    }

    /// The four packed fields at the four modes of `kx`, `ky` ([`signed`])
    /// from ψ̂ and x̂ there (`dynamics::packed`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn packed(
        kx: __m512d,
        ky: __m512d,
        psi: [__m512d; LEVELS],
        x: [__m512d; LEVELS],
    ) -> [__m512d; 4] {
        let (zero, one) = (_mm512_setzero_pd(), signed(_mm512_set1_pd(1.0)));
        [
            neg(cmul(kx, ky, psi[0])),
            cmul(zero, one, cmul(kx, ky, x[0])),
            neg(cmul(kx, ky, psi[1])),
            cmul(zero, one, cmul(kx, ky, x[1])),
        ]
    }

    /// See `Avx512::pack`.
    ///
    /// # Safety
    /// AVX-512F+DQ must be available, `grid.n` a multiple of 4 and at least
    /// 8, and both levels of `x` and the four `fields` must hold `grid.n²`
    /// modes.
    // lint: no_alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn pack<F: AsMut<[Complex]>>(
        grid: &SpectralGrid,
        x: &[Vec<Complex>; LEVELS],
        fields: &mut [F; 4],
    ) {
        let n = grid.n;
        let fields = fields.each_mut().map(|f| f.as_mut().as_mut_ptr());
        for i in 0..n {
            let ky = signed(_mm512_set1_pd(grid.ky[i]));
            let ky_neg = signed(_mm512_set1_pd(grid.ky[(n - i) % n]));
            for j in (0..=n / 2).step_by(4) {
                let b = Block::new(n, i, j);
                let idx = b.idx;
                // SAFETY: `j + 4 <= n` (`n % 4 == 0`), so the block's four
                // modes `idx..idx + 4` lie in row `i` of every `n²` grid, and
                // `kx` holds `n` entries; `Block` keeps its stores in the
                // grids.
                unsafe {
                    let kx = dup(grid.kx.as_ptr().add(j));
                    let xb = [load(x[0].as_ptr().add(idx)), load(x[1].as_ptr().add(idx))];
                    let psi = invert_at(grid, idx, xb);
                    for (&f, v) in fields.iter().zip(packed(kx, ky, psi, xb)) {
                        b.put(f, v);
                    }
                    if b.mirrored != 0 {
                        let at_neg_k = packed(neg(kx), ky_neg, psi.map(|p| conj(p)), xb.map(|x| conj(x)));
                        for (&f, v) in fields.iter().zip(at_neg_k) {
                            b.put_mirror(f, v);
                        }
                    }
                }
            }
        }
    }

    /// See `Avx512::product`: per mode `v.re·g.re + v.im·g.im` of level 0
    /// into the real lane and of level 1 into the imaginary lane.
    ///
    /// # Safety
    /// AVX-512F must be available, and the four `fields` and `adv` must
    /// hold the same multiple of 4 modes.
    // lint: no_alloc
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn product<F: AsRef<[Complex]>>(fields: &[F; 4], adv: &mut [Complex]) {
        let [u0, g0, u1, g1] = fields.each_ref().map(|f| f.as_ref().as_ptr());
        let out = adv.as_mut_ptr();
        for idx in (0..adv.len()).step_by(4) {
            // SAFETY: `idx + 4 <= adv.len()`, the length of every field.
            unsafe {
                let p0 = _mm512_mul_pd(load(u0.add(idx)), load(g0.add(idx)));
                let p1 = _mm512_mul_pd(load(u1.add(idx)), load(g1.add(idx)));
                store(
                    out.add(idx),
                    _mm512_add_pd(_mm512_unpacklo_pd(p0, p1), _mm512_unpackhi_pd(p0, p1)),
                );
            }
        }
    }

    /// See `Avx512::assemble`. The advection at the mirrored modes of a
    /// block `(i, j..j + 4)` is columns `n − j − 3 ..= n − j` of row
    /// `−i`, reversed; the block at `j = 0` mirrors to columns
    /// `0, n − 1, n − 2, n − 3`.
    ///
    /// # Safety
    /// AVX-512F+DQ must be available, `a.grid.n` a multiple of 4 and at
    /// least 8, and `adv`, both levels of `theta`, `acc`, `tmp` and of the
    /// stage's reference (if any) must hold `a.grid.n²` modes.
    // lint: no_alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn assemble(
        a: &Assembly<'_>,
        adv: &[Complex],
        theta: &mut [Vec<Complex>; LEVELS],
        acc: &mut [Vec<Complex>; LEVELS],
        tmp: &mut [Vec<Complex>; LEVELS],
    ) {
        let grid = a.grid;
        let n = grid.n;
        let adv = adv.as_ptr();
        let theta = theta.each_mut().map(|l| l.as_mut_ptr());
        let acc = acc.each_mut().map(|l| l.as_mut_ptr());
        let tmp = tmp.each_mut().map(|l| l.as_mut_ptr());
        let x = if a.stage.reads_theta() { theta } else { tmp };
        let (zero, half, two) = (
            _mm512_setzero_pd(),
            _mm512_set1_pd(0.5),
            _mm512_set1_pd(2.0),
        );
        let ubg = a.ubg.map(|u| _mm512_set1_pd(u));
        let bbar_y = _mm512_set1_pd(a.bbar_y);
        let ekman = a.ekman_on().then(|| _mm512_set1_pd(a.ekman));
        let reverse = _mm512_setr_epi64(6, 7, 4, 5, 2, 3, 0, 1);
        let wrap = _mm512_setr_epi64(0, 1, 14, 15, 12, 13, 10, 11);
        for i in 0..n {
            // SAFETY: row `(n − i) % n` of the `n²` advection grid.
            let mirror = unsafe { adv.add((n - i) % n * n) };
            for j in (0..=n / 2).step_by(4) {
                let b = Block::new(n, i, j);
                let idx = b.idx;
                // Stores the stage's value `v` at the block's own modes and
                // its conjugate at their mirrors.
                let put = |f: *mut Complex, v: __m512d| {
                    // SAFETY: `f` is one of the `n²` grids.
                    unsafe {
                        b.put(f, v);
                        if b.mirrored != 0 {
                            b.put_mirror(f, conj(v));
                        }
                    }
                };
                // SAFETY: `j + 4 <= n`, so `idx..idx + 4` lies in row `i` of
                // every `n²` grid and `kx` holds `j + 4` entries. The mirror
                // loads read columns `0..4` and `n − 4..n` (for `j = 0`) or
                // `n − j − 3..n − j + 1` (`j ≥ 4`) of one row.
                unsafe {
                    let z = load(adv.add(idx));
                    let zn = if j == 0 {
                        _mm512_permutex2var_pd(load(mirror), wrap, load(mirror.add(n - 4)))
                    } else {
                        _mm512_permutexvar_pd(reverse, load(mirror.add(n - j - 3)))
                    };
                    // The Hermitian split (`fft::real::split_pair_mode`).
                    let (s, d, e) = (
                        _mm512_add_pd(z, zn),
                        _mm512_sub_pd(z, zn),
                        _mm512_sub_pd(zn, z),
                    );
                    let split = [
                        _mm512_mul_pd(half, _mm512_mask_blend_pd(IM, s, d)),
                        _mm512_mul_pd(half, swap(_mm512_mask_blend_pd(IM, e, s))),
                    ];
                    let xb = [load(x[0].add(idx)), load(x[1].add(idx))];
                    let psi = invert_at(grid, idx, xb);
                    let ikx = signed(dup(grid.kx.as_ptr().add(j)));
                    let mask = dup(grid.dealias_mask.as_ptr().add(idx));
                    let mut k = [zero; LEVELS];
                    for l in 0..LEVELS {
                        let mut dt = neg(_mm512_mul_pd(split[l], mask));
                        dt = _mm512_sub_pd(dt, _mm512_mul_pd(cmul(zero, ikx, xb[l]), ubg[l]));
                        dt = _mm512_sub_pd(dt, _mm512_mul_pd(cmul(zero, ikx, psi[l]), bbar_y));
                        k[l] = dt;
                    }
                    if let Some(ekman) = ekman {
                        let kmag = dup(grid.kmag.as_ptr().add(idx));
                        let damp = _mm512_mul_pd(ekman, _mm512_mul_pd(kmag, kmag));
                        k[0] = _mm512_add_pd(k[0], _mm512_mul_pd(psi[0], damp));
                    }
                    for l in 0..LEVELS {
                        let k = k[l];
                        match a.stage {
                            Stage::First(c) => {
                                put(acc[l], k);
                                let c = _mm512_set1_pd(c);
                                put(tmp[l], _mm512_add_pd(xb[l], _mm512_mul_pd(k, c)));
                            }
                            Stage::Inner(c) => {
                                let sum =
                                    _mm512_add_pd(load(acc[l].add(idx)), _mm512_mul_pd(k, two));
                                put(acc[l], sum);
                                let c = _mm512_set1_pd(c);
                                let th = load(theta[l].add(idx));
                                put(tmp[l], _mm512_add_pd(th, _mm512_mul_pd(k, c)));
                            }
                            Stage::Last {
                                sixth,
                                relax,
                                reference,
                            } => {
                                let sum = _mm512_add_pd(load(acc[l].add(idx)), k);
                                let incr = _mm512_mul_pd(sum, _mm512_set1_pd(sixth));
                                let th = load(theta[l].add(idx));
                                let hyper = dup(grid.hyperdiff.as_ptr().add(idx));
                                let mut next = _mm512_mul_pd(_mm512_add_pd(th, incr), hyper);
                                if relax < 1.0 {
                                    let r = match reference {
                                        Some(r) => load(r[l].as_ptr().add(idx)),
                                        None => zero,
                                    };
                                    let pull = _mm512_mul_pd(
                                        _mm512_sub_pd(next, r),
                                        _mm512_set1_pd(relax),
                                    );
                                    next = _mm512_add_pd(r, pull);
                                }
                                put(theta[l], next);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The tier against the scalar sweeps, bit for bit. On a CPU without
/// AVX-512F+DQ, or off x86-64, no grid is eligible: the step test then
/// compares the scalar step with itself and the sweep test has nothing to
/// compare.
#[cfg(test)]
mod tests {
    use super::Avx512;
    use crate::dynamics::{self, Assembly, Stage, StepWorkspace, Stepper};
    use crate::grid::SpectralGrid;
    use crate::state::LEVELS;
    use crate::{init, SqgParams};
    use fft::Complex;

    fn avx512() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    fn bits(fields: &[Vec<Complex>]) -> Vec<(u64, u64)> {
        fields
            .iter()
            .flatten()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// A spun-up-like state: large scales plus white noise at every mode,
    /// exactly Hermitian.
    fn state(n: usize, seed: u64) -> [Vec<Complex>; LEVELS] {
        let s = init::perturb(&init::random_large_scale(n, 0.05, seed), 1e-3, seed + 1);
        [s.level(0).to_vec(), s.level(1).to_vec()]
    }

    #[test]
    fn tier_runs_when_eligible_and_steps_the_scalar_bits() {
        // 4 is scalar only, 12 transforms with Bluestein, 64 is the paper
        // grid; the jet reference makes the relaxation pull toward nonzero
        // modes.
        for n in [4, 8, 12, 16, 64] {
            let eligible = n % 4 == 0 && n >= 8;
            assert_eq!(
                Avx512::detect(n).is_some(),
                avx512() && eligible,
                "dispatch at n = {n}"
            );
            for ekman in [0.0, 0.05] {
                for tdiab in [0.0, 5.0 * 86400.0] {
                    for dealias in [true, false] {
                        let p = SqgParams {
                            n,
                            ekman,
                            tdiab,
                            dealias,
                            ..Default::default()
                        };
                        let mut stepper = Stepper::new(p);
                        if tdiab > 0.0 {
                            let jet = init::zonal_jet(n, 0.05);
                            stepper.set_reference([jet.level(0).to_vec(), jet.level(1).to_vec()]);
                        }
                        let (mut ws, mut ws_scalar) =
                            (StepWorkspace::new(n), StepWorkspace::new(n));
                        let mut got = state(n, n as u64);
                        let mut want = got.clone();
                        for step in 0..20 {
                            stepper.step(&mut got, &mut ws);
                            stepper.step_scalar(&mut want, &mut ws_scalar);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "n {n}, ekman {ekman}, tdiab {tdiab}, dealias {dealias}, step {step}"
                            );
                        }
                        assert!(got.iter().flatten().all(|z| z.is_finite()), "n {n} blew up");
                    }
                }
            }
        }
    }

    /// Finite data over many binades, with exact and signed zeros mixed in,
    /// and `special` at a few modes including K = 0 and the last. A zero
    /// `special` makes every value a zero of random sign, so that each
    /// combination of signed-zero operands occurs.
    fn field(len: usize, seed: u64, special: f64) -> Vec<Complex> {
        let mut s = seed | 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match s >> 60 {
                0 => 0.0,
                1 => -0.0,
                _ if special == 0.0 => 0f64.copysign(unit),
                k => unit * 2f64.powi(k as i32 * 3 - 20),
            }
        };
        let mut v: Vec<Complex> = (0..len).map(|_| Complex::new(next(), next())).collect();
        for idx in [0, 5, len / 2 + 1] {
            v[idx].re = special;
        }
        v[len - 1].im = special;
        v
    }

    fn levels(len: usize, seed: u64, special: f64) -> [Vec<Complex>; LEVELS] {
        [field(len, seed, special), field(len, seed + 1, special)]
    }

    /// A NaN's payload and sign may depend on operand order, so NaN matches
    /// any NaN; every other value, infinities and signed zeros included,
    /// must match bitwise.
    fn assert_classified(got: &[Vec<Complex>], want: &[Vec<Complex>], what: &str) {
        fn class(x: f64) -> Option<u64> {
            (!x.is_nan()).then_some(x.to_bits())
        }
        for (i, (g, w)) in got.iter().flatten().zip(want.iter().flatten()).enumerate() {
            assert_eq!(
                (class(g.re), class(g.im)),
                (class(w.re), class(w.im)),
                "{what} at {i}: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn non_finite_inputs_classify_like_the_scalar_sweeps() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
        ];
        for n in [8, 16] {
            let Some(tier) = Avx512::detect(n) else {
                return;
            };
            let m = n * n;
            let grid = SpectralGrid::new(&SqgParams {
                n,
                ..Default::default()
            });
            let jet = levels(m, 99, 0.5);
            for (s, &special) in specials.iter().enumerate() {
                let seed = 10 * s as u64;
                let what = format!("n {n}, special {special}");

                let x = levels(m, seed, special);
                let mut want: [Vec<Complex>; 4] = std::array::from_fn(|_| vec![Complex::ZERO; m]);
                let mut got = want.clone();
                dynamics::pack(&grid, &x, &mut want);
                // SAFETY: the tier was detected for `n`; every grid holds n².
                unsafe { tier.pack(&grid, &x, &mut got) };
                assert_classified(&got, &want, &format!("pack, {what}"));

                let fields: [Vec<Complex>; 4] =
                    std::array::from_fn(|f| field(m, seed + f as u64, special));
                let (mut want, mut got) = (vec![Complex::ZERO; m], vec![Complex::ZERO; m]);
                dynamics::product(&fields, &mut want);
                // SAFETY: as above.
                unsafe { tier.product(&fields, &mut got) };
                assert_classified(&[got], &[want], &format!("product, {what}"));

                let adv = field(m, seed + 5, special);
                let stages = [
                    Stage::First(450.0),
                    Stage::Inner(900.0),
                    Stage::Last {
                        sixth: 150.0,
                        relax: 1.0,
                        reference: None,
                    },
                    Stage::Last {
                        sixth: 150.0,
                        relax: 0.99,
                        reference: None,
                    },
                    Stage::Last {
                        sixth: 150.0,
                        relax: 0.99,
                        reference: Some(&jet),
                    },
                ];
                // Both signs of the linear terms: which zeros come out
                // negative depends on them.
                let linear = [([-15.0, 15.0], -3e-4), ([15.0, -15.0], 3e-4)];
                for (stage, (ubg, bbar_y)) in stages
                    .into_iter()
                    .flat_map(|st| linear.map(|lin| (st, lin)))
                {
                    for ekman in [0.0, 0.05] {
                        let a = Assembly {
                            grid: &grid,
                            ubg,
                            bbar_y,
                            ekman,
                            stage,
                        };
                        let mut want = [
                            levels(m, seed + 6, special),
                            levels(m, seed + 8, -special),
                            levels(m, seed + 10, special),
                        ];
                        let mut got = want.clone();
                        let [theta, acc, tmp] = &mut want;
                        dynamics::assemble(&a, &adv, theta, acc, tmp);
                        let [theta, acc, tmp] = &mut got;
                        // SAFETY: as above; the reference holds n² modes too.
                        unsafe { tier.assemble(&a, &adv, theta, acc, tmp) };
                        assert_classified(
                            got.as_flattened(),
                            want.as_flattened(),
                            &format!("assemble, ekman {ekman}, {what}"),
                        );
                    }
                }
            }
        }
    }
}
