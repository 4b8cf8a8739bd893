//! Process-wide cache of planned 2-D FFTs.
//!
//! Building an [`Fft2`] is not free: power-of-two lengths precompute twiddle
//! tables and Bluestein lengths precompute chirp sequences plus an inner
//! convolution plan. The SQG hot path (RK4 stages, state round-trips,
//! diagnostics) keeps asking for the same few `(rows, cols, direction)`
//! shapes, so [`fft2`] memoizes plans behind an `RwLock`ed map and hands
//! out `Arc` clones. A poisoned lock is taken anyway: the map only ever
//! holds fully built plans, so a panic elsewhere cannot leave it torn.
//!
//! Concurrency: the fast path takes a read lock only; on a miss the plan is
//! built *outside* any lock and inserted under a short write lock (first
//! inserter wins, losers drop their duplicate). Plans are immutable after
//! construction, so sharing one across threads is safe — `Fft2::process`
//! takes `&self`.

use crate::fft2::Fft2;
use crate::plan::Direction;
// lint: allow(nondeterministic-api, reason="keyed get/insert only; the plan map is never iterated")
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Key = (usize, usize, Direction);
// lint: allow(nondeterministic-api, reason="keyed get/insert only; the plan map is never iterated")
type Plans = HashMap<Key, Arc<Fft2>>;

fn cache() -> &'static RwLock<Plans> {
    static CACHE: OnceLock<RwLock<Plans>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(Plans::default()))
}

fn read() -> RwLockReadGuard<'static, Plans> {
    cache().read().unwrap_or_else(PoisonError::into_inner)
}

fn write() -> RwLockWriteGuard<'static, Plans> {
    cache().write().unwrap_or_else(PoisonError::into_inner)
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Returns the cached 2-D plan for `rows x cols` grids in direction `dir`,
/// building and memoizing it on first request.
///
/// # Panics
/// Panics if `rows == 0 || cols == 0` (same contract as [`Fft2::new`]).
pub fn fft2(rows: usize, cols: usize, dir: Direction) -> Arc<Fft2> {
    let key = (rows, cols, dir);
    if let Some(plan) = read().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(plan);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // Build outside the lock: plan construction can be expensive and must
    // not serialize unrelated lookups behind a write guard.
    let built = Arc::new(Fft2::new(rows, cols, dir));
    let mut map = write();
    Arc::clone(map.entry(key).or_insert(built))
}

/// Number of distinct plans currently cached.
pub fn len() -> usize {
    read().len()
}

/// Drops every cached plan (outstanding `Arc`s stay valid). Mainly for
/// tests and memory-sensitive embedders.
pub fn clear() {
    write().clear();
}

/// Cumulative `(hits, misses)` since process start.
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn same_key_returns_same_plan() {
        let a = fft2(16, 8, Direction::Forward);
        let b = fft2(16, 8, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups must share one plan");
        let c = fft2(16, 8, Direction::Inverse);
        assert!(!Arc::ptr_eq(&a, &c), "direction is part of the key");
    }

    #[test]
    fn cached_plan_matches_fresh_plan() {
        let (rows, cols) = (12, 20); // non-power-of-two: Bluestein path
        let input: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.13).cos()))
            .collect();
        let mut via_cache = input.clone();
        fft2(rows, cols, Direction::Forward).process(&mut via_cache);
        let mut fresh = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut fresh);
        assert_eq!(via_cache, fresh, "cache must be transparent bit-for-bit");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let (h0, m0) = stats();
        let _ = fft2(31, 7, Direction::Forward); // unique shape: miss
        let _ = fft2(31, 7, Direction::Forward); // hit
        let (h1, m1) = stats();
        assert!(m1 > m0, "first lookup of a new shape must miss");
        assert!(h1 > h0, "second lookup must hit");
        assert!(len() >= 1);
    }
}
