//! Disabled-path overhead budget: with telemetry off, every hot-path entry
//! point must cost no more than a few nanoseconds (one relaxed atomic load
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

fn per_op_ns(f: impl Fn(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..ITERS {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

#[test]
fn disabled_telemetry_stays_within_budget_and_records_nothing() {
    // Integration tests run in their own process, so this cannot race the
    // unit tests' TEST_LOCK-serialized state.
    telemetry::set_enabled(false);
    telemetry::reset();

    let counter = per_op_ns(|i| telemetry::counter_add("overhead.counter", i));
    let gauge = per_op_ns(|i| telemetry::gauge_set("overhead.gauge", i as f64));
    let span = per_op_ns(|_| {
        let _g = telemetry::span!("overhead.span");
    });

    println!(
        "disabled per-op: counter {counter:.1} ns, gauge {gauge:.1} ns, \
         span {span:.1} ns (budget {BUDGET_NS} ns)"
    );
    for (name, ns) in [("counter_add", counter), ("gauge_set", gauge), ("span", span)] {
        assert!(ns < BUDGET_NS, "{name} disabled path costs {ns:.1} ns > {BUDGET_NS} ns budget");
    }

    // And none of it may have leaked into the stores.
    assert_eq!(telemetry::counter_value("overhead.counter"), 0);
    assert_eq!(telemetry::gauge_value("overhead.gauge"), None);
    assert!(telemetry::span_snapshot().is_empty(), "spans recorded while disabled");
}
