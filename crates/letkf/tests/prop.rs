//! Property-based tests for the LETKF.

use letkf::solver::{apply_transform, solve_local};
use letkf::{gaspari_cohn, GridGeometry, Letkf, LetkfConfig};
use linalg::Matrix;
use proptest::prelude::*;
use stats::Ensemble;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gaspari–Cohn is a valid localization taper everywhere.
    #[test]
    fn gc_is_taper(r in -5.0f64..5.0) {
        let v = gaspari_cohn(r);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert_eq!(gaspari_cohn(-r), v);
        if r.abs() >= 2.0 {
            prop_assert_eq!(v, 0.0);
        }
    }

    /// Periodic distances form a metric on the grid (symmetry, identity,
    /// triangle inequality on sampled triples).
    #[test]
    fn grid_distance_metric(
        a in 0usize..128,
        b in 0usize..128,
        c in 0usize..128,
    ) {
        let g = GridGeometry::new(8, 2, 8.0e5, 2.0e5);
        prop_assert_eq!(g.distance(a, b), g.distance(b, a));
        prop_assert_eq!(g.distance(a, a), 0.0);
        prop_assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c) + 1e-9);
    }

    /// The scalar local solve reproduces the exact Kalman update for any
    /// ensemble and observation.
    #[test]
    fn scalar_solve_matches_kf(
        mut x in prop::collection::vec(-5.0f64..5.0, 4..12),
        y in -5.0f64..5.0,
        sigma in 0.1f64..3.0,
    ) {
        // Ensure nonzero spread.
        x[0] += 2.0;
        let m = x.len();
        let mean_b: f64 = x.iter().sum::<f64>() / m as f64;
        let var_b: f64 =
            x.iter().map(|v| (v - mean_b) * (v - mean_b)).sum::<f64>() / (m - 1) as f64;
        prop_assume!(var_b > 1e-6);

        let gain = var_b / (var_b + sigma * sigma);
        let mean_kf = mean_b + gain * (y - mean_b);
        let var_kf = (1.0 - gain) * var_b;

        let anom: Vec<f64> = x.iter().map(|v| v - mean_b).collect();
        let yb = Matrix::from_vec(1, m, anom);
        let t = solve_local(&yb, &[y - mean_b], &[1.0 / (sigma * sigma)]);
        let xa = apply_transform(&x, &t);
        let mean_a: f64 = xa.iter().sum::<f64>() / m as f64;
        let var_a: f64 =
            xa.iter().map(|v| (v - mean_a) * (v - mean_a)).sum::<f64>() / (m - 1) as f64;

        prop_assert!((mean_a - mean_kf).abs() < 1e-7 * (1.0 + mean_kf.abs()));
        prop_assert!((var_a - var_kf).abs() < 1e-7 * (1.0 + var_kf));
    }

    /// A full LETKF analysis is finite, preserves shape, and contracts the
    /// analysis toward observations without inflating variance beyond the
    /// forecast's (RTPS off).
    #[test]
    fn analysis_invariants(
        data in prop::collection::vec(-2.0f64..2.0, 6 * 32),
        obs_val in -2.0f64..2.0,
        sigma in 0.1f64..2.0,
    ) {
        let members: Vec<Vec<f64>> = data.chunks(32).map(|c| c.to_vec()).collect();
        let fc = Ensemble::from_members(&members);
        let geo = GridGeometry::new(4, 2, 4.0e5, 1.0e5);
        let letkf = Letkf::new(
            LetkfConfig { cutoff: 3.0e5, rtps_alpha: 0.0 },
            geo,
        );
        let an = point_obs(&letkf, &fc, &(0..32).collect::<Vec<_>>(), &[obs_val; 32], sigma);
        prop_assert_eq!(an.members(), 6);
        prop_assert!(an.as_slice().iter().all(|v| v.is_finite()));
        // Per-variable variance never grows (square-root filter property).
        let vf = fc.variance();
        let va = an.variance();
        for (a, f) in va.iter().zip(&vf) {
            prop_assert!(*a <= f + 1e-9, "variance grew: {a} > {f}");
        }
    }

    /// Observation order never matters.
    #[test]
    fn analysis_permutation_invariant(
        data in prop::collection::vec(-1.0f64..1.0, 5 * 32),
        seed in any::<u64>(),
    ) {
        let members: Vec<Vec<f64>> = data.chunks(32).map(|c| c.to_vec()).collect();
        let fc = Ensemble::from_members(&members);
        let geo = GridGeometry::new(4, 2, 4.0e5, 1.0e5);
        let letkf = Letkf::new(LetkfConfig::default(), geo);
        let mut observed: Vec<usize> = (0..32).collect();
        let values =
            |obs: &[usize]| -> Vec<f64> { obs.iter().map(|&i| (i as f64 * 0.37).sin()).collect() };
        let a1 = point_obs(&letkf, &fc, &observed, &values(&observed), 0.5);
        // Deterministic shuffle from the seed.
        let mut s = seed | 1;
        for i in (1..observed.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            observed.swap(i, j);
        }
        let a2 = point_obs(&letkf, &fc, &observed, &values(&observed), 0.5);
        for (x, y) in a1.as_slice().iter().zip(a2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-8, "obs order changed the analysis");
        }
    }
}

/// Point observations (`h = I`) of `y` at `observed`.
fn point_obs(letkf: &Letkf, fc: &Ensemble, observed: &[usize], y: &[f64], sigma: f64) -> Ensemble {
    let hx: Vec<Vec<f64>> = fc.iter().map(|x| observed.iter().map(|&i| x[i]).collect()).collect();
    letkf.analyze(fc, observed, &Ensemble::from_members(&hx), y, sigma)
}
