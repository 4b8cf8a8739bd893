//! FFT plans: precomputed twiddle factors and bit-reversal permutations.
//!
//! A [`FftPlan`] is created once for a given length and direction and can be
//! reused across many transforms (an SQG RK4 step runs 20 2-D transforms,
//! each a 1-D transform per row and per column, so amortizing the
//! trigonometric setup matters). Plans are immutable after construction and
//! therefore `Sync`, so one cached plan serves every forecast worker thread.

use crate::complex::Complex;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward transform: `X[k] = sum_n x[n] exp(-2*pi*i*n*k/N)`.
    Forward,
    /// Inverse transform: `x[n] = (1/N) sum_k X[k] exp(+2*pi*i*n*k/N)`.
    ///
    /// The `1/N` normalization is applied by the executor, so a forward
    /// transform followed by an inverse transform is the identity.
    Inverse,
}

impl Direction {
    /// Sign of the exponent in the transform kernel.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// The 64-point AVX-512 row tier's twiddles (`crate::simd`), four per run:
/// runs 0–14 are stages 0–3's fifteen twiddles, stage `s`'s from run
/// `2^s − 1` on, each repeated in all four lanes; runs 15–26 are stage 4's
/// table and then stage 5's, four consecutive twiddles each. A run is
/// `[re, re]` per twiddle, then `[−im, im]` per twiddle.
pub(crate) type Row64Twiddles = [[[f64; 8]; 2]; 27];

/// Precomputed data for a radix-2 transform of a power-of-two length.
#[derive(Debug)]
pub(crate) struct Radix2Plan {
    /// Transform length; always a power of two.
    pub n: usize,
    /// Per-stage twiddle factors, stage `s` holding `2^s` entries
    /// (`w^0 .. w^(2^s - 1)` for the stage's butterfly half-length `2^s`).
    pub twiddles: Vec<Vec<Complex>>,
    /// Bit-reversal permutation of `0..n` as its disjoint swaps `(i, r)`,
    /// `r` the bit reversal of `i` and `i < r`, in ascending `i`.
    pub swaps: Vec<(u32, u32)>,
    /// The 64-point AVX-512 row tier's twiddle vectors, `None` for any
    /// other length.
    pub row64: Option<Box<Row64Twiddles>>,
}

impl Radix2Plan {
    pub(crate) fn new(n: usize, dir: Direction) -> Self {
        assert!(n.is_power_of_two(), "radix-2 plan requires power-of-two length, got {n}");
        let stages = n.trailing_zeros() as usize;
        let sign = dir.sign();
        let mut twiddles = Vec::with_capacity(stages);
        for s in 0..stages {
            let half = 1usize << s; // butterfly half-length at this stage
            let step = std::f64::consts::PI / half as f64; // 2*pi / (2*half)
            let tw: Vec<Complex> =
                (0..half).map(|j| Complex::cis(sign * step * j as f64)).collect();
            twiddles.push(tw);
        }
        let mut swaps = Vec::new();
        if stages > 0 {
            let shift = u32::BITS - stages as u32;
            for i in 0..n as u32 {
                let r = i.reverse_bits() >> shift;
                if i < r {
                    swaps.push((i, r));
                }
            }
        }
        let row64 = (n == 64).then(|| {
            let run = |v: usize| -> [Complex; 4] {
                if v < 15 {
                    let s = (v + 1).ilog2() as usize;
                    [twiddles[s][v + 1 - (1 << s)]; 4]
                } else {
                    let (s, r) = if v < 19 { (4, v - 15) } else { (5, v - 19) };
                    std::array::from_fn(|l| twiddles[s][4 * r + l])
                }
            };
            Box::new(std::array::from_fn(|v| {
                let run = run(v);
                let im = |l: usize| if l.is_multiple_of(2) { -run[l / 2].im } else { run[l / 2].im };
                [std::array::from_fn(|l| run[l / 2].re), std::array::from_fn(im)]
            }))
        });
        Radix2Plan { n, twiddles, swaps, row64 }
    }
}

/// Strategy used by a plan, chosen from the transform length.
#[derive(Debug)]
pub(crate) enum PlanKind {
    /// Pure power-of-two Cooley-Tukey.
    Radix2(Radix2Plan),
    /// Bluestein chirp-z for arbitrary lengths (internally uses a radix-2
    /// convolution of length `>= 2n - 1`).
    Bluestein(crate::bluestein::BluesteinPlan),
}

/// Reusable FFT plan for one length and direction.
///
/// Construct with [`FftPlan::new`] and execute with
/// [`FftPlan::process`] / [`FftPlan::process_buffered`].
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    dir: Direction,
    kind: PlanKind,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n` in direction `dir`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n > 0, "cannot plan a zero-length FFT");
        let kind = if n.is_power_of_two() {
            PlanKind::Radix2(Radix2Plan::new(n, dir))
        } else {
            PlanKind::Bluestein(crate::bluestein::BluesteinPlan::new(n, dir))
        };
        FftPlan { n, dir, kind }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the (disallowed) zero length; kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The radix-2 tables, or `None` for a Bluestein plan.
    pub(crate) fn radix2(&self) -> Option<&Radix2Plan> {
        match &self.kind {
            PlanKind::Radix2(p) => Some(p),
            PlanKind::Bluestein(_) => None,
        }
    }

    /// Executes the transform in place.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        match &self.kind {
            PlanKind::Radix2(p) => {
                crate::radix2::fft_in_place(p, data);
                if self.dir == Direction::Inverse {
                    let inv = 1.0 / self.n as f64;
                    for z in data.iter_mut() {
                        *z *= inv;
                    }
                }
            }
            PlanKind::Bluestein(p) => p.process(data),
        }
    }

    /// Executes the transform in place, reusing `scratch` for intermediate
    /// storage (only needed by Bluestein plans; radix-2 ignores it).
    ///
    /// `scratch` is resized as needed; passing the same buffer across calls
    /// avoids per-transform allocations in hot loops.
    pub fn process_buffered(&self, data: &mut [Complex], scratch: &mut Vec<Complex>) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        match &self.kind {
            PlanKind::Radix2(p) => {
                crate::radix2::fft_in_place(p, data);
                if self.dir == Direction::Inverse {
                    let inv = 1.0 / self.n as f64;
                    for z in data.iter_mut() {
                        *z *= inv;
                    }
                }
            }
            PlanKind::Bluestein(p) => p.process_buffered(data, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_sign_and_reverse() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
        assert_eq!(Direction::Forward.reverse(), Direction::Inverse);
        assert_eq!(Direction::Inverse.reverse(), Direction::Forward);
    }

    #[test]
    fn bitrev_is_an_involution() {
        let p = Radix2Plan::new(16, Direction::Forward);
        let mut idx: Vec<u32> = (0..16).collect();
        for &(i, j) in &p.swaps {
            idx.swap(i as usize, j as usize);
        }
        let want = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];
        assert_eq!(idx, want);
        for &(i, j) in &p.swaps {
            idx.swap(i as usize, j as usize);
        }
        assert_eq!(idx, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn twiddle_counts_per_stage() {
        let p = Radix2Plan::new(32, Direction::Forward);
        assert_eq!(p.twiddles.len(), 5);
        for (s, tw) in p.twiddles.iter().enumerate() {
            assert_eq!(tw.len(), 1 << s);
        }
    }

    #[test]
    fn twiddles_unit_modulus() {
        let p = Radix2Plan::new(64, Direction::Inverse);
        for tw in &p.twiddles {
            for z in tw {
                assert!((z.abs() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let _ = FftPlan::new(0, Direction::Forward);
    }

    #[test]
    fn plan_reports_metadata() {
        let p = FftPlan::new(8, Direction::Forward);
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
        assert_eq!(p.direction(), Direction::Forward);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_length_panics() {
        let p = FftPlan::new(8, Direction::Forward);
        let mut buf = vec![Complex::ZERO; 4];
        p.process(&mut buf);
    }
}
