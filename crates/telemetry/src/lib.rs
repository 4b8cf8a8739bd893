//! Workspace-wide telemetry: hierarchical span timers, the per-cycle record
//! type, and Chrome traces.
//!
//! Spans are the one instrument. They route through a process-global
//! registry so instrumentation can be dropped into any crate without
//! plumbing a context object through hot call paths, and they sit behind a
//! single enable switch:
//!
//! * Set `SQG_DA_TELEMETRY=1` (or `true` / `on`) in the environment, or call
//!   [`set_enabled(true)`](set_enabled), to turn collection on.
//! * When disabled (the default), opening a span reduces to one relaxed
//!   atomic load — a few nanoseconds — so instrumented hot loops cost
//!   effectively nothing (`tests/overhead.rs` holds it to a budget).
//!
//! The main entry points:
//!
//! * [`span!`] — RAII wall-clock timer; nested spans build dotted paths like
//!   `osse.cycle.analysis`. A span's count is also the number of times its
//!   scope ran (analyses, model steps, RK4 stages).
//! * [`CycleRecord`] — one assimilation cycle's facts (RMSE, spread,
//!   per-phase timings, events, innovation diagnostics), JSONL-serializable.
//!   It holds no global state and ignores the switch: the cycle loop builds
//!   one per cycle into the run's own log, and the leader's postmortems
//!   carry the latest of them.
//! * [`snapshot_json`](report::snapshot_json) — one JSON object with every
//!   span, used by the bench binaries' `--json` flag and by postmortems.
//! * [`TraceEvent`] + [`chrome_trace`] — Chrome trace-event timelines, one
//!   lane per rank (written by `cyclebench --trace 1`).

use std::sync::atomic::{AtomicU8, Ordering};

pub mod cycle;
pub mod diagnostics;
pub mod json;
pub mod report;
pub mod span;
pub mod trace;

pub use cycle::CycleRecord;
pub use diagnostics::DaDiagnostics;
pub use json::Json;
pub use span::{span_enter, span_path, span_snapshot, SpanGuard, SpanPath, SpanStat};
pub use trace::{chrome_trace, TraceEvent};

/// Tri-state enable flag: 0 = unresolved, 1 = disabled, 2 = enabled.
///
/// Unresolved collapses to the environment's answer on first query, so the
/// steady-state check is a single relaxed load of a cached value.
static ENABLED: AtomicU8 = AtomicU8::new(0);

// State 0 is "unresolved"; `resolve_from_env` collapses it on first query.
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var("SQG_DA_TELEMETRY")
        .map(|v| matches!(v.trim(), "1" | "true" | "TRUE" | "on" | "ON"))
        .unwrap_or(false);
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether telemetry collection is currently on.
///
/// This is the hot-path check every instrumentation macro performs first;
/// after the first call it is a single relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

/// Programmatically enables or disables collection, overriding the
/// `SQG_DA_TELEMETRY` environment variable.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Resets all collected spans without touching the enable state. Intended
/// for tests and between-experiment boundaries.
pub fn reset() {
    span::reset_spans();
}

/// Opens a named wall-clock span for the enclosing scope.
///
/// ```
/// # telemetry::set_enabled(true);
/// {
///     let _span = telemetry::span!("ensf.analysis");
///     // ... timed work ...
/// }
/// assert!(telemetry::span_snapshot().iter().any(|s| s.path == "ensf.analysis"));
/// ```
///
/// Spans nest: a span opened while another is active on the same thread
/// records under the dotted concatenation of the active paths. When
/// telemetry is disabled this costs one atomic load and returns a no-op
/// guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Serializes unit tests that toggle the global enable flag or reset the
/// global registry, since the test harness runs tests concurrently. A test
/// that panics while holding it does not fail the others.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trip() {
        let _lock = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
