//! Minimal in-tree shim for the `rand` crate (offline build).
//!
//! Implements exactly the surface this workspace uses: [`Rng::random`],
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`] and
//! [`seq::SliceRandom::shuffle`]. `StdRng` is xoshiro256++ seeded through a
//! splitmix64 expansion — deterministic and statistically solid, though its
//! stream differs from upstream `rand`'s ChaCha12 (nothing here relies on
//! cross-crate stream compatibility, only on within-tree determinism).
//!
//! One extension goes beyond upstream's API: [`rngs::StdRng::to_state`] /
//! [`rngs::StdRng::from_state`], which `stats::gaussian`'s lane-parallel
//! noise kernel uses to carry eight particle streams in SIMD registers.

#![warn(missing_docs)]

/// Types samplable uniformly from an RNG's raw 64-bit output stream.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the high 53 bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` from the high 24 bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Random number generator core trait.
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value (`[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift.
    fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply maps the 64-bit stream onto [0, bound) with
        // negligible (unrejected) bias — fine for shuffles and sampling.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Splitmix64 step: the standard seed-expansion generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ (Blackman & Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is the one forbidden state; splitmix64 cannot
            // produce four zeros from any seed, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl StdRng {
        /// The raw xoshiro256++ state words `s[0..4]`.
        ///
        /// Extension beyond upstream `rand`: together with
        /// [`StdRng::from_state`] it lets a lane-parallel sampler advance
        /// several streams in SIMD registers and hand each back exactly
        /// where the scalar generator would have left it.
        #[inline]
        pub fn to_state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds the generator from state words taken with
        /// [`StdRng::to_state`] (or advanced from them by the xoshiro256++
        /// step); the next output is the one the original would produce.
        ///
        /// # Panics
        /// Panics on the all-zero state, which xoshiro256++ never reaches.
        #[inline]
        pub fn from_state(s: [u64; 4]) -> Self {
            assert_ne!(s, [0; 4], "xoshiro256++ has no all-zero state");
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        // Inline across crates: this sits on the floor of every sampling
        // hot loop in the workspace (without the hint, non-generic methods
        // stay out-of-line absent LTO).
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice sampling/shuffling extensions.
pub mod seq {
    use super::Rng;

    /// Shuffle support for slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_below(i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut a = StdRng::seed_from_u64(11);
        a.next_u64();
        let mut b = StdRng::from_state(a.to_state());
        assert_eq!(a, b);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn random_below_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for bound in [1u64, 2, 3, 17, 1000] {
            for _ in 0..1000 {
                assert!(rng.random_below(bound) < bound);
            }
        }
    }
}
