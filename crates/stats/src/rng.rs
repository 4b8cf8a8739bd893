//! Seeded RNG plumbing.
//!
//! Every stochastic component in the framework (initial ensembles, model
//! error, observation noise, diffusion sampling) draws from an explicitly
//! seeded stream, so whole OSSE experiments are bit-reproducible. Ensembles
//! additionally need *independent* per-member streams that remain stable when
//! the member loop is parallelized — [`split_seed`] derives those.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from `(seed, stream)` with good avalanche behaviour
/// (splitmix64 finalizer). Distinct `(seed, stream)` pairs give decorrelated
/// streams; the mapping is pure, so parallel member loops can derive
/// their own RNGs without any shared mutable state.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG for ensemble member `m` of an experiment seeded with `seed`.
pub fn member_rng(seed: u64, member: usize) -> StdRng {
    seeded(split_seed(seed, member as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let same = (0..16).filter(|_| a.random::<u64>() == b.random::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_seed_is_pure_and_spreads() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        let children: std::collections::HashSet<u64> =
            (0..1000).map(|m| split_seed(99, m)).collect();
        assert_eq!(children.len(), 1000, "child seeds must not collide");
    }

    #[test]
    fn member_streams_are_decorrelated() {
        let mut a = member_rng(5, 0);
        let mut b = member_rng(5, 1);
        let xs: Vec<f64> = (0..1000).map(|_| a.random::<f64>() - 0.5).collect();
        let ys: Vec<f64> = (0..1000).map(|_| b.random::<f64>() - 0.5).collect();
        let corr: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum::<f64>()
            / (xs.iter().map(|x| x * x).sum::<f64>().sqrt()
                * ys.iter().map(|y| y * y).sum::<f64>().sqrt());
        assert!(corr.abs() < 0.1, "member streams correlated: {corr}");
    }
}
