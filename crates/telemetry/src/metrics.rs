//! Named counters, gauges, and histograms with thread-safe aggregation.
//!
//! * **Counters** are monotonically increasing `u64` sums (FFT invocations,
//!   SDE Euler steps, simulated collective bytes). Increments go to one of
//!   several `AtomicU64` shards picked by thread identity, so concurrent
//!   workers do not serialize on a single cache line; reads sum the shards.
//! * **Gauges** are last-write-wins `f64` values (current ensemble spread,
//!   latest epoch loss), stored as bit patterns in an `AtomicU64`.
//! * **Histograms** record `f64` samples into log2-spaced buckets plus
//!   exact count / sum / min / max, supporting approximate quantiles with
//!   well-defined edge cases (empty → `None`, single sample → that sample).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const COUNTER_SHARDS: usize = 16;
const BUCKETS: usize = 64;

struct Counter {
    shards: [AtomicU64; COUNTER_SHARDS],
}

impl Counter {
    fn new() -> Self {
        Counter { shards: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn add(&self, delta: u64) {
        self.shards[shard_index()].fetch_add(delta, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread sticks to one counter shard, assigned round-robin.
    static SHARD_INDEX: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

fn shard_index() -> usize {
    SHARD_INDEX.with(|i| *i)
}

struct Histogram {
    bucket_counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum / min / max as f64 bit patterns, updated under the stats lock.
    stats: Mutex<HistStats>,
}

#[derive(Debug, Clone, Copy)]
struct HistStats {
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket index for a sample: log2-spaced so the histogram covers values
/// from ~1e-9 (sub-nanosecond seconds, tiny norms) to ~1e9 in 64 buckets.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    (v.log2() as i64 + 30).clamp(0, BUCKETS as i64 - 1) as usize
}

/// Lower edge of bucket `i`, the inverse of [`bucket_of`] spacing.
fn bucket_low(i: usize) -> f64 {
    (2.0f64).powi(i as i32 - 30)
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            bucket_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            stats: Mutex::new(HistStats { sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }),
        }
    }

    fn record(&self, v: f64) {
        self.bucket_counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut s = self.stats.lock();
        s.sum += v;
        s.min = s.min.min(v);
        s.max = s.max.max(v);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let stats = *self.stats.lock();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum: stats.sum,
            min: stats.min,
            max: stats.max,
            bucket_counts: self.bucket_counts.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: f64,
    /// Smallest sample (`inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    /// Per-bucket sample counts, log2-spaced.
    pub bucket_counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Edge cases: an empty histogram returns `None`; a single sample
    /// returns that sample (the exact min) for every `q`. Otherwise the
    /// answer interpolates within the bucket containing the target rank and
    /// is clamped to the exact `[min, max]` observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            return Some(self.min);
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in [1, count] of the sample we want.
        let target = (q * (self.count - 1) as f64).floor() as u64 + 1;
        let mut seen = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let within = (target - seen) as f64 / c as f64;
                let lo = bucket_low(i);
                let hi = bucket_low(i + 1);
                let est = lo + within * (hi - lo);
                return Some(est.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }
}

#[derive(Default)]
struct MetricsStore {
    counters: HashMap<String, &'static Counter>,
    gauges: HashMap<String, &'static AtomicU64>,
    histograms: HashMap<String, &'static Histogram>,
}

/// Name → metric maps. Metrics themselves are leaked `'static` so the hot
/// increment path holds no lock while touching the atomics; the map lock is
/// only taken on first registration or for snapshots.
static STORE: Mutex<Option<MetricsStore>> = Mutex::new(None);

fn with_store<T>(f: impl FnOnce(&mut MetricsStore) -> T) -> T {
    let mut guard = STORE.lock();
    f(guard.get_or_insert_with(MetricsStore::default))
}

fn counter(name: &str) -> &'static Counter {
    with_store(|s| {
        if let Some(c) = s.counters.get(name) {
            return *c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new())); // lint: allow(no-alloc-reachable, reason="one-time registration on first use; the steady-state add path only loads the cached &'static")
        s.counters.insert(name.to_string(), c); // lint: allow(no-alloc-reachable, reason="one-time registration on first use; the steady-state add path only loads the cached &'static")
        c
    })
}

/// Adds `delta` to the named counter (no-op while telemetry is disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    counter(name).add(delta);
}

/// Current value of the named counter (0 if never written).
pub fn counter_value(name: &str) -> u64 {
    with_store(|s| s.counters.get(name).map(|c| c.value()).unwrap_or(0))
}

/// Sets the named gauge to `value` (no-op while telemetry is disabled).
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let g = with_store(|s| {
        if let Some(g) = s.gauges.get(name) {
            return *g;
        }
        let g: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        s.gauges.insert(name.to_string(), g);
        g
    });
    g.store(value.to_bits(), Ordering::Relaxed);
}

/// Last value written to the named gauge, or `None` if never set.
pub fn gauge_value(name: &str) -> Option<f64> {
    with_store(|s| s.gauges.get(name).map(|g| f64::from_bits(g.load(Ordering::Relaxed))))
}

/// Records `value` into the named histogram (no-op while disabled).
pub fn histogram_record(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let h = with_store(|s| {
        if let Some(h) = s.histograms.get(name) {
            return *h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new())); // lint: allow(no-alloc-reachable, reason="one-time registration on first use; the steady-state record path only loads the cached &'static")
        s.histograms.insert(name.to_string(), h); // lint: allow(no-alloc-reachable, reason="one-time registration on first use; the steady-state record path only loads the cached &'static")
        h
    });
    h.record(value);
}

/// Snapshot of the named histogram, or `None` if it was never written.
pub fn histogram_snapshot(name: &str) -> Option<HistogramSnapshot> {
    with_store(|s| s.histograms.get(name).map(|h| h.snapshot(name)))
}

/// Names and values of all counters, sorted by name.
pub fn all_counters() -> Vec<(String, u64)> {
    let mut v: Vec<_> =
        with_store(|s| s.counters.iter().map(|(k, c)| (k.clone(), c.value())).collect());
    v.sort();
    v
}

/// Names and values of all gauges, sorted by name.
pub fn all_gauges() -> Vec<(String, f64)> {
    let mut v: Vec<_> = with_store(|s| {
        s.gauges
            .iter()
            .map(|(k, g)| (k.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect()
    });
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Snapshots of all histograms, sorted by name.
pub fn all_histograms() -> Vec<HistogramSnapshot> {
    let mut v: Vec<_> =
        with_store(|s| s.histograms.iter().map(|(k, h)| h.snapshot(k)).collect());
    v.sort_by(|a, b| a.name.cmp(&b.name));
    v
}

/// Drops every registered metric. (The leaked metric cells themselves are
/// intentionally retained — a bounded set of names over a process lifetime.)
pub fn reset_metrics() {
    let mut guard = STORE.lock();
    *guard = Some(MetricsStore::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_metrics();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter_add("test.concurrent", 1);
                    }
                });
            }
        });
        assert_eq!(counter_value("test.concurrent"), 8000);
    }

    #[test]
    fn gauge_last_write_wins() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_metrics();
        gauge_set("g", 1.5);
        gauge_set("g", -2.25);
        assert_eq!(gauge_value("g"), Some(-2.25));
        assert_eq!(gauge_value("missing"), None);
    }

    #[test]
    fn histogram_quantile_edges() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_metrics();
        // Empty: no snapshot at all.
        assert!(histogram_snapshot("h").is_none());
        // Single sample: every quantile is that sample.
        histogram_record("h", 3.0);
        let snap = histogram_snapshot("h").unwrap();
        assert_eq!(snap.quantile(0.0), Some(3.0));
        assert_eq!(snap.quantile(0.5), Some(3.0));
        assert_eq!(snap.quantile(1.0), Some(3.0));
        // Many samples: quantiles are ordered and clamped to [min, max].
        for i in 1..=100 {
            histogram_record("h", i as f64);
        }
        let snap = histogram_snapshot("h").unwrap();
        let q10 = snap.quantile(0.1).unwrap();
        let q50 = snap.quantile(0.5).unwrap();
        let q99 = snap.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
        assert!(q10 >= snap.min && q99 <= snap.max);
        assert_eq!(snap.count, 101);
    }

    #[test]
    fn bucket_monotone() {
        let vals = [1e-9, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e9];
        for w in vals.windows(2) {
            assert!(bucket_of(w[0]) <= bucket_of(w[1]));
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
    }
}
