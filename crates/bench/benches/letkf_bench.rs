//! LETKF analysis cost, including the localization-radius ablation from
//! DESIGN.md (cost grows with the local observation count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use letkf::{GridGeometry, Letkf, LetkfConfig};
use stats::gaussian::standard_normal;
use stats::rng::seeded;
use stats::Ensemble;
use std::hint::black_box;

fn setup(n: usize, members: usize) -> (Letkf, Ensemble) {
    let geo = GridGeometry::new(n, 2, 20.0e6, 1.0e6);
    let dim = geo.state_dim();
    let letkf = Letkf::new(LetkfConfig::default(), geo);
    let mut rng = seeded(1);
    let mut e = Ensemble::zeros(members, dim);
    for m in 0..members {
        for x in e.member_mut(m) {
            *x = standard_normal(&mut rng);
        }
    }
    (letkf, e)
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("letkf_analysis");
    group.sample_size(10);
    for n in [16usize, 32] {
        let (letkf, fc) = setup(n, 20);
        // The identity network: H(x_m) is the forecast itself.
        let observed: Vec<usize> = (0..fc.dim()).collect();
        let y = vec![0.1; fc.dim()];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| letkf.analyze(black_box(&fc), &observed, &fc, &y, 0.5))
        });
    }
    group.finish();
}

fn bench_ablation_cutoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("letkf_ablation_cutoff");
    group.sample_size(10);
    let n = 16;
    let geo = GridGeometry::new(n, 2, 20.0e6, 1.0e6);
    let dim = geo.state_dim();
    let mut rng = seeded(2);
    let mut fc = Ensemble::zeros(20, dim);
    for m in 0..20 {
        for x in fc.member_mut(m) {
            *x = standard_normal(&mut rng);
        }
    }
    // The identity network: H(x_m) is the forecast itself.
    let observed: Vec<usize> = (0..dim).collect();
    let y = vec![0.1; dim];
    for cutoff_km in [1000u64, 2000, 4000] {
        let letkf = Letkf::new(
            LetkfConfig { cutoff: cutoff_km as f64 * 1e3, rtps_alpha: 0.3 },
            geo.clone(),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(cutoff_km),
            &cutoff_km,
            |b, _| b.iter(|| letkf.analyze(black_box(&fc), &observed, &fc, &y, 0.5)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_analysis, bench_ablation_cutoff);
criterion_main!(benches);
