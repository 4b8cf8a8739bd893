//! Hierarchical RAII span timers.
//!
//! A [`SpanGuard`] measures wall-clock time from creation to drop and folds
//! the measurement into a process-global registry keyed by the span's
//! dotted path. Nesting is tracked per thread: opening `"analysis"` while
//! `"osse.cycle"` is active records under `"osse.cycle.analysis"`.
//!
//! The registry is sharded (path-hash → shard) so concurrent spans from
//! parallel workers rarely contend on the same lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

const SHARDS: usize = 16;

/// Aggregated timing for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Dotted span path, e.g. `"osse.cycle.analysis"`.
    pub path: String,
    /// Number of completed spans recorded under this path.
    pub count: u64,
    /// Total wall-clock seconds across all completions.
    pub total_secs: f64,
    /// Shortest single completion, seconds.
    pub min_secs: f64,
    /// Longest single completion, seconds.
    pub max_secs: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    count: u64,
    total_secs: f64,
    min_secs: f64,
    max_secs: f64,
}

struct Registry {
    shards: [Mutex<HashMap<String, Accum>>; SHARDS],
}

impl Registry {
    fn new() -> Self {
        Registry { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    fn shard_for(&self, path: &str) -> MutexGuard<'_, HashMap<String, Accum>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        lock(&self.shards[(h as usize) % SHARDS])
    }

    fn record(&self, path: &str, secs: f64) {
        let mut shard = self.shard_for(path);
        let a = shard.entry(path.to_string()).or_default();
        if a.count == 0 {
            a.min_secs = secs;
            a.max_secs = secs;
        } else {
            a.min_secs = a.min_secs.min(secs);
            a.max_secs = a.max_secs.max(secs);
        }
        a.count += 1;
        a.total_secs += secs;
    }
}

static REGISTRY: std::sync::LazyLock<Registry> = std::sync::LazyLock::new(Registry::new);

/// Takes a shard's lock even if a panic unwound while it was held: a shard
/// is only ever updated one whole `Accum` at a time, so it is never torn.
fn lock(shard: &Mutex<HashMap<String, Accum>>) -> MutexGuard<'_, HashMap<String, Accum>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Stack of active span names on this thread, joined with '.' to form
    /// the full path of newly opened spans.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span!`](crate::span!); records on drop.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    /// `None` when telemetry is disabled — drop is then a no-op.
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: String,
    start: Instant,
}

/// Opens a span named `name` under the thread's current span path.
///
/// Use the [`span!`](crate::span!) macro rather than calling this directly.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join(".")
    });
    SpanGuard { active: Some(ActiveSpan { path, start: Instant::now() }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let secs = active.start.elapsed().as_secs_f64();
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            REGISTRY.record(&active.path, secs);
        }
    }
}

/// A thread's active span path, captured by [`span_path`] so that a worker
/// it spawns can open its spans under the same parent.
///
/// Span nesting is a per-thread stack; without this, a span opened in a
/// spawned worker would record at the root while the same span opened on
/// the spawning thread records under its parents — paths would depend on
/// how many workers a call happened to use.
#[derive(Debug)]
pub struct SpanPath(Vec<&'static str>);

/// Captures the calling thread's active span path (empty when telemetry is
/// disabled: one relaxed load, no allocation).
#[inline]
pub fn span_path() -> SpanPath {
    if !crate::enabled() {
        return SpanPath(Vec::new());
    }
    SpanPath(SPAN_STACK.with(|stack| stack.borrow().clone()))
}

impl SpanPath {
    /// Makes the captured path this thread's span parents until the guard
    /// drops. Nothing is recorded for the adoption itself.
    pub fn adopt(&self) -> AdoptedPath {
        SPAN_STACK.with(|stack| stack.borrow_mut().extend_from_slice(&self.0));
        AdoptedPath { len: self.0.len() }
    }
}

/// Guard returned by [`SpanPath::adopt`]; pops the adopted path on drop.
#[must_use = "the adopted path is dropped with the guard"]
pub struct AdoptedPath {
    len: usize,
}

impl Drop for AdoptedPath {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let keep = stack.len().saturating_sub(self.len);
            stack.truncate(keep);
        });
    }
}

/// Snapshot of all recorded span statistics, sorted by path.
pub fn span_snapshot() -> Vec<SpanStat> {
    let mut out = Vec::new();
    for shard in &REGISTRY.shards {
        for (path, a) in lock(shard).iter() {
            out.push(SpanStat {
                path: path.clone(),
                count: a.count,
                total_secs: a.total_secs,
                min_secs: a.min_secs,
                max_secs: a.max_secs,
            });
        }
    }
    out.sort_by(|x, y| x.path.cmp(&y.path));
    out
}

/// Clears all recorded span statistics.
pub fn reset_spans() {
    for shard in &REGISTRY.shards {
        lock(shard).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_paths_and_counts() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _outer = crate::span!("outer");
            for _ in 0..3 {
                let _inner = crate::span!("inner");
            }
        }
        let snap = span_snapshot();
        let outer = snap.iter().find(|s| s.path == "outer").unwrap();
        let inner = snap.iter().find(|s| s.path == "outer.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total_secs >= inner.total_secs, "parent covers children");
        assert!(inner.min_secs <= inner.max_secs);
    }

    #[test]
    fn spawned_worker_adopts_its_spawners_path() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _parent = crate::span!("adopt_parent");
            let path = span_path();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _path = path.adopt();
                    let _child = crate::span!("child");
                });
            });
            // The spawner's own stack is untouched by the worker.
            let _sibling = crate::span!("sibling");
        }
        let snap = span_snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"adopt_parent.child"), "{paths:?}");
        assert!(paths.contains(&"adopt_parent.sibling"), "{paths:?}");
        assert!(!paths.contains(&"child"), "worker span rooted at the top: {paths:?}");
    }

    #[test]
    fn adoption_while_disabled_records_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        crate::set_enabled(false);
        let path = span_path();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _path = path.adopt();
                let _child = crate::span!("ghost_child");
            });
        });
        crate::set_enabled(true);
        assert!(span_snapshot().is_empty(), "{:?}", span_snapshot());
    }

    #[test]
    fn disabled_records_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        crate::set_enabled(false);
        {
            let _g = crate::span!("ghost");
        }
        crate::set_enabled(true);
        assert!(span_snapshot().iter().all(|s| s.path != "ghost"));
    }
}
