//! Cost-model evaluation speed benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use hpc::{bus_bandwidth, collective_time, simulate_step, Collective, Strategy, Topology, TrainJob};
use std::hint::black_box;

const MB: u64 = 1024 * 1024;

fn bench_cost_model(c: &mut Criterion) {
    let topo = Topology::frontier(1024);
    c.bench_function("collective_time_eval", |b| {
        b.iter(|| {
            collective_time(black_box(&topo), Collective::AllReduce, 1024, 256 * MB)
        })
    });
    c.bench_function("bus_bandwidth_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for s in [8u64, 64, 256, 1024] {
                acc += bus_bandwidth(&topo, Collective::AllGather, 1024, s * MB);
            }
            acc
        })
    });
    c.bench_function("simulate_step_eval", |b| {
        let job = TrainJob::table2(128);
        b.iter(|| simulate_step(&topo, black_box(&job), Strategy::Ddp, 1024, 120 * MB))
    });
}

criterion_group!(benches, bench_cost_model);
criterion_main!(benches);
