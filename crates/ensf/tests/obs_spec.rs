//! The observation model of an [`ObsSpec`], in the one place it lives: for
//! every operator × mask kind the observation-vector length, the observed
//! index list and `project` agree with the dense operator restricted to the
//! observed components.

use ensf::{MaskKind, ObsOperatorKind, ObsSpec};
use proptest::prelude::*;
use stats::gaussian::fill_standard_normal;
use stats::rng::member_rng;

/// Decodes a sampled `(selector, a, b)` triple into a mask; every variant
/// of the enum is reachable and the parameters are clamped to `dim`.
fn decode_mask(selector: u8, a: usize, b: usize, dim: usize) -> MaskKind {
    match selector % 4 {
        0 => MaskKind::Full,
        1 => MaskKind::Block { start: a % dim, len: b % (dim + 1) },
        2 => MaskKind::Strided { stride: a % 7 + 1, phase: b },
        _ => MaskKind::Track { width: a % dim + 1, speed: b % (dim + 3) },
    }
}

fn decode_operator(arctan: bool, gain: f64) -> ObsOperatorKind {
    if arctan {
        ObsOperatorKind::Arctan { gain }
    } else {
        ObsOperatorKind::Identity
    }
}

fn normals(seed: u64, stream: usize, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    fill_standard_normal(&mut member_rng(seed, stream), &mut v);
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn project_and_obs_len_agree_with_the_whole_state_operator(
        arctan in 0u8..2,
        gain in 0.5f64..50.0,
        selector in 0u8..4,
        a in 0usize..512,
        b in 0usize..512,
        dim in 4usize..160,
        cycle in 0u64..50,
        seed in 0u64..1000,
    ) {
        let spec = ObsSpec {
            operator: decode_operator(arctan == 1, gain),
            mask: decode_mask(selector, a, b, dim),
            sigma: 0.4,
        };
        let state = normals(seed, 0, dim);
        let observed = spec.observed(dim, cycle);
        prop_assert_eq!(observed.len(), spec.obs_len(dim, cycle));

        // `project` is the dense operator's h(x) at the observed components.
        let mut hx = vec![0.0; dim];
        spec.operator().apply(&state, &mut hx);
        let selected: Vec<f64> = observed.iter().map(|&i| hx[i]).collect();
        prop_assert_eq!(bits(&spec.project(&state, cycle)), bits(&selected), "project ≠ h|observed");
    }
}

#[test]
fn strided_networks_observe_exactly_their_comb() {
    let spec = |stride| ObsSpec {
        mask: MaskKind::Strided { stride, phase: 0 },
        ..ObsSpec::identity(1.0)
    };
    // (state, stride, expected observation vector)
    let cases: [(&[f64], usize, &[f64]); 3] = [
        (&[10.0, 11.0, 12.0, 13.0, 14.0, 15.0], 2, &[10.0, 12.0, 14.0]),
        // Stride 1 is the identity network.
        (&[1.0, -2.0, 3.0, -4.0, 5.0], 1, &[1.0, -2.0, 3.0, -4.0, 5.0]),
        // Stride wider than the state keeps component 0 alone.
        (&[9.0, 8.0, 7.0, 6.0], 10, &[9.0]),
    ];
    for (state, stride, want) in cases {
        let spec = spec(stride);
        assert_eq!(spec.project(state, 0), want, "stride {stride}");
        assert_eq!(spec.obs_len(state.len(), 0), want.len(), "stride {stride}");
        let comb: Vec<usize> = (0..state.len()).step_by(stride).collect();
        assert_eq!(spec.observed(state.len(), 0), comb, "stride {stride}");
    }
}
