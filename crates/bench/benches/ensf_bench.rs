//! EnSF analysis cost: score estimation (the per-particle oracle's), SDE
//! integration, full update — including the DESIGN.md ablations (SDE
//! steps, mini-batch, time grid).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ensf::oracle::ScoreEstimator;
use ensf::{DiffusionSchedule, Ensf, EnsfConfig, ObsOperator};
use stats::gaussian::standard_normal;
use stats::rng::seeded;
use stats::Ensemble;
use std::hint::black_box;

fn gaussian_ensemble(members: usize, dim: usize, seed: u64) -> Ensemble {
    let mut rng = seeded(seed);
    let mut e = Ensemble::zeros(members, dim);
    for m in 0..members {
        for x in e.member_mut(m) {
            *x = standard_normal(&mut rng);
        }
    }
    e
}

fn bench_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensf_score_eval");
    for dim in [1024usize, 8192] {
        let ens = gaussian_ensemble(20, dim, 1);
        let est = ScoreEstimator::new(ens.as_slice(), 20, dim, DiffusionSchedule::default());
        let z = vec![0.1; dim];
        let mut out = vec![0.0; dim];
        let mut scratch = vec![0.0; 20];
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| est.score_into(black_box(&z), 0.5, &mut out, &mut scratch))
        });
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensf_analysis");
    group.sample_size(10);
    // Dimension sweep (the Fig. 10 x-axis at laptop scale).
    for dim in [1024usize, 8192] {
        let fc = gaussian_ensemble(20, dim, 2);
        let obs = ObsOperator::identity(0.5);
        let y = vec![0.3; dim];
        group.bench_with_input(BenchmarkId::new("dim", dim), &dim, |b, _| {
            let mut filter = Ensf::new(EnsfConfig { n_steps: 30, seed: 3, ..Default::default() });
            b.iter(|| filter.analyze(black_box(&fc), &y, &obs))
        });
    }
    group.finish();
}

fn bench_ablation_sde_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensf_ablation_sde_steps");
    group.sample_size(10);
    let dim = 2048;
    let fc = gaussian_ensemble(20, dim, 4);
    let obs = ObsOperator::identity(0.5);
    let y = vec![0.3; dim];
    for steps in [10usize, 30, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, &s| {
            let mut filter = Ensf::new(EnsfConfig { n_steps: s, seed: 5, ..Default::default() });
            b.iter(|| filter.analyze(black_box(&fc), &y, &obs))
        });
    }
    group.finish();
}

fn bench_ablation_minibatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensf_ablation_minibatch");
    group.sample_size(10);
    let dim = 2048;
    let fc = gaussian_ensemble(40, dim, 6);
    let obs = ObsOperator::identity(0.5);
    let y = vec![0.3; dim];
    for j in [5usize, 10, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(j), &j, |b, &jj| {
            let mut filter = Ensf::new(EnsfConfig {
                n_steps: 30,
                minibatch: Some(jj),
                seed: 7,
                ..Default::default()
            });
            b.iter(|| filter.analyze(black_box(&fc), &y, &obs))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_score,
    bench_analysis,
    bench_ablation_sde_steps,
    bench_ablation_minibatch
);
criterion_main!(benches);
