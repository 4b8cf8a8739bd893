//! Telemetry overhead micro-benchmarks.
//!
//! The telemetry layer's contract is that *disabled* instrumentation is
//! effectively free: one relaxed atomic load per call site, no allocation,
//! no locking. These benches measure that directly — the disabled-mode
//! `enabled()` check and span figures should stay in the low-nanosecond
//! range (the budget documented in `crates/bench/README.md` is < 20 ns/call)
//! so the hot loops of the SQG stepper and the filters can stay
//! instrumented unconditionally. The enabled-mode figures are reported alongside for
//! contrast, not held to a budget.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_disabled(c: &mut Criterion) {
    telemetry::set_enabled(false);
    let mut group = c.benchmark_group("telemetry_disabled");
    group.bench_function("enabled_check", |b| {
        b.iter(|| black_box(telemetry::enabled()))
    });
    group.bench_function("span", |b| {
        b.iter(|| {
            let guard = telemetry::span!("bench.disabled.span");
            black_box(&guard);
        })
    });
    group.finish();
}

fn bench_enabled(c: &mut Criterion) {
    telemetry::set_enabled(true);
    telemetry::reset();
    let mut group = c.benchmark_group("telemetry_enabled");
    group.bench_function("span", |b| {
        b.iter(|| {
            let guard = telemetry::span!("bench.enabled.span");
            black_box(&guard);
        })
    });
    group.finish();
    telemetry::set_enabled(false);
    telemetry::reset();
}

criterion_group!(benches, bench_disabled, bench_enabled);
criterion_main!(benches);
