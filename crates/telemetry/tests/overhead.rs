//! Disabled-path overhead budget: with telemetry off, opening a span must
//! cost no more than a few nanoseconds (one relaxed atomic load
//! plus a branch). This is a regression test on the *shape* of the fast
//! path — if someone accidentally moves work (allocation, locking,
//! formatting) in front of the `enabled()` check, per-op cost jumps by
//! orders of magnitude and this trips long before a profiler would.
//!
//! The budget is deliberately generous (well above the ~3 ns target) so CI
//! machines under load do not flake, while still catching the failure mode
//! that matters: accidental O(work) before the gate.

use std::time::Instant;

/// Per-op budget in nanoseconds. The real disabled cost is ~1–3 ns in
/// release; 250 ns absorbs debug builds and noisy shared runners while
/// remaining far below any accidental lock/alloc/format (≥ microseconds
/// when contended, ~50–100 ns even uncontended).
const BUDGET_NS: f64 = 250.0;
const ITERS: u64 = 2_000_000;

fn per_op_ns(f: impl Fn()) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

#[test]
fn disabled_telemetry_stays_within_budget_and_records_nothing() {
    // Integration tests run in their own process, so this cannot race the
    // unit tests' lock-serialized state.
    telemetry::set_enabled(false);
    telemetry::reset();

    let span = per_op_ns(|| {
        let _g = telemetry::span!("overhead.span");
    });

    println!("disabled per-op: span {span:.1} ns (budget {BUDGET_NS} ns)");
    assert!(span < BUDGET_NS, "span disabled path costs {span:.1} ns > {BUDGET_NS} ns budget");

    // And none of it may have leaked into the store.
    assert!(telemetry::span_snapshot().is_empty(), "spans recorded while disabled");
}
