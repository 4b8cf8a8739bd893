//! Property-based tests for the SQG model.

use proptest::prelude::*;
use sqg::{dynamics, SpectralGrid, SqgModel, SqgParams, SqgState};

fn small_params() -> SqgParams {
    SqgParams { n: 16, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Grid/state round trip: any real field survives
    /// grid → spectral → grid.
    #[test]
    fn state_vector_round_trip(v in prop::collection::vec(-10.0f64..10.0, 512)) {
        let st = SqgState::from_state_vector(16, &v);
        let back = st.to_state_vector();
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The inversion is linear: invert(a·θ) == a·invert(θ).
    #[test]
    fn inversion_homogeneous(
        v in prop::collection::vec(-1.0f64..1.0, 512),
        a in -5.0f64..5.0,
    ) {
        let p = small_params();
        let grid = SpectralGrid::new(&p);
        let st = SqgState::from_state_vector(16, &v);
        let theta = [st.level(0).to_vec(), st.level(1).to_vec()];
        let mut psi = theta.clone();
        dynamics::invert(&grid, &theta, &mut psi);

        let scaled: Vec<f64> = v.iter().map(|x| a * x).collect();
        let st2 = SqgState::from_state_vector(16, &scaled);
        let theta2 = [st2.level(0).to_vec(), st2.level(1).to_vec()];
        let mut psi2 = theta2.clone();
        dynamics::invert(&grid, &theta2, &mut psi2);

        for l in 0..2 {
            for (z1, z2) in psi[l].iter().zip(&psi2[l]) {
                let want = *z1 * a;
                prop_assert!((*z2 - want).abs() < 1e-6 * (1.0 + want.abs()));
            }
        }
    }

    /// Time stepping preserves the domain means of both levels exactly and
    /// keeps the state finite, from any moderate initial condition.
    #[test]
    fn step_preserves_means_and_finiteness(
        v in prop::collection::vec(-0.05f64..0.05, 512),
        steps in 1usize..5,
    ) {
        let mut model = SqgModel::new(small_params());
        let mut state = v.clone();
        let mean_before: [f64; 2] = [
            v[..256].iter().sum::<f64>() / 256.0,
            v[256..].iter().sum::<f64>() / 256.0,
        ];
        model.forecast(&mut state, steps);
        prop_assert!(state.iter().all(|x| x.is_finite()));
        let mean_after: [f64; 2] = [
            state[..256].iter().sum::<f64>() / 256.0,
            state[256..].iter().sum::<f64>() / 256.0,
        ];
        for l in 0..2 {
            prop_assert!(
                (mean_before[l] - mean_after[l]).abs() < 1e-9 * (1.0 + mean_before[l].abs()),
                "level {l}: {} -> {}", mean_before[l], mean_after[l]
            );
        }
    }

    /// Determinism: the same initial state always evolves identically.
    #[test]
    fn forecast_deterministic(v in prop::collection::vec(-0.05f64..0.05, 512)) {
        let mut m1 = SqgModel::new(small_params());
        let mut m2 = SqgModel::new(small_params());
        let mut a = v.clone();
        let mut b = v;
        m1.forecast(&mut a, 3);
        m2.forecast(&mut b, 3);
        prop_assert_eq!(a, b);
    }
}
