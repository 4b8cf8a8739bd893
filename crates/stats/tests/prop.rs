//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use stats::{metrics, Ensemble, OnlineMoments};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RMSE is a metric-like quantity: nonnegative, zero iff equal,
    /// symmetric, and bounded by max error.
    #[test]
    fn rmse_properties(
        a in prop::collection::vec(-100.0f64..100.0, 1..64),
        noise in prop::collection::vec(-1.0f64..1.0, 64),
    ) {
        let b: Vec<f64> = a.iter().zip(&noise).map(|(x, n)| x + n).collect();
        let r = metrics::rmse(&a, &b);
        prop_assert!(r >= 0.0);
        prop_assert_eq!(metrics::rmse(&a, &a), 0.0);
        prop_assert!((metrics::rmse(&b, &a) - r).abs() < 1e-12);
        let max_err = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
        prop_assert!(r <= max_err + 1e-12);
        // rmse >= |bias|
        prop_assert!(r + 1e-12 >= metrics::bias(&a, &b).abs());
    }

    /// Pattern correlation is in [-1, 1] and invariant under affine maps
    /// with positive slope.
    #[test]
    fn correlation_affine_invariant(
        a in prop::collection::vec(-10.0f64..10.0, 3..32),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let b: Vec<f64> = a.iter().enumerate().map(|(i, x)| x + (i as f64 * 0.7).sin()).collect();
        let c = metrics::pattern_correlation(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        let a2: Vec<f64> = a.iter().map(|x| scale * x + shift).collect();
        let c2 = metrics::pattern_correlation(&a2, &b);
        prop_assert!((c - c2).abs() < 1e-8, "{c} vs {c2}");
    }

    /// Ensemble statistics: inflation scales spread exactly; recentring
    /// moves the mean exactly and keeps the spread.
    #[test]
    fn ensemble_operations(
        data in prop::collection::vec(-10.0f64..10.0, 4 * 6),
        factor in 0.1f64..3.0,
        target in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        let members: Vec<Vec<f64>> = data.chunks(6).map(|c| c.to_vec()).collect();
        let mut e = Ensemble::from_members(&members);
        let sp = e.spread();
        e.inflate(factor);
        prop_assert!((e.spread() - factor * sp).abs() < 1e-9 * (1.0 + sp));
        e.recenter(&target);
        for (m, t) in e.mean().iter().zip(&target) {
            prop_assert!((m - t).abs() < 1e-9);
        }
        prop_assert!((e.spread() - factor * sp).abs() < 1e-9 * (1.0 + sp));
    }

    /// Anomalies have zero mean and the same variance as the ensemble.
    #[test]
    fn anomalies_properties(data in prop::collection::vec(-10.0f64..10.0, 3 * 8)) {
        let members: Vec<Vec<f64>> = data.chunks(8).map(|c| c.to_vec()).collect();
        let e = Ensemble::from_members(&members);
        let a = e.anomalies();
        for m in a.mean() {
            prop_assert!(m.abs() < 1e-9);
        }
        for (va, ve) in a.variance().iter().zip(e.variance()) {
            prop_assert!((va - ve).abs() < 1e-9 * (1.0 + ve));
        }
    }

    /// Welford merging is order-independent.
    #[test]
    fn moments_merge_associative(
        xs in prop::collection::vec(-100.0f64..100.0, 1..32),
        ys in prop::collection::vec(-100.0f64..100.0, 1..32),
        zs in prop::collection::vec(-100.0f64..100.0, 1..32),
    ) {
        let acc = |v: &[f64]| {
            let mut m = OnlineMoments::new();
            m.extend(v.iter().copied());
            m
        };
        // (x + y) + z
        let mut a = acc(&xs);
        a.merge(&acc(&ys));
        a.merge(&acc(&zs));
        // x + (y + z)
        let mut b = acc(&ys);
        b.merge(&acc(&zs));
        let mut c = acc(&xs);
        c.merge(&b);
        prop_assert!((a.mean() - c.mean()).abs() < 1e-9 * (1.0 + a.mean().abs()));
        prop_assert!((a.variance() - c.variance()).abs() < 1e-7 * (1.0 + a.variance()));
        prop_assert_eq!(a.count(), c.count());
    }

    /// Seed splitting is collision-free over contiguous ranges.
    #[test]
    fn split_seed_injective_on_range(seed in any::<u64>(), base in 0u64..1_000_000) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            prop_assert!(seen.insert(stats::rng::split_seed(seed, base + i)));
        }
    }
}
