//! The observation model of an [`ObsSpec`], in the one place it lives: for
//! every operator × mask kind the observation-vector length, the observed
//! index list, `project` and the whole-state operator agree, and an index
//! list naming every component is the dense operator bit for bit.

use ensf::{MaskKind, MaskedObs, ObsOperatorKind, ObsSpec, ObservationOperator};
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

/// `(h(x), score, jacobian²)` of `op` at `state` against `y`.
fn evaluate(op: &MaskedObs, state: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut hx = vec![0.0; op.obs_dim()];
    op.apply(state, &mut hx);
    let mut score = vec![0.0; state.len()];
    op.add_likelihood_score(state, y, 1.3, &mut score);
    let mut jsq = vec![f64::NAN; state.len()];
    op.jacobian_sq(state, &mut jsq);
    (hx, score, jsq)
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
        let obs_len = spec.obs_len(dim, cycle);
        prop_assert_eq!(observed.len(), obs_len);
        let y = normals(seed, 1, obs_len);

        let op = spec.operator(dim, cycle);
        prop_assert_eq!(op.obs_dim(), obs_len);
        let (hx, score, jsq) = evaluate(&op, &state, &y);
        prop_assert_eq!(bits(&spec.project(&state, cycle)), bits(&hx), "project ≠ whole-state h");
        // Guidance exists exactly on the observed components.
        for i in 0..dim {
            let seen = observed.binary_search(&i).is_ok();
            prop_assert_eq!(jsq[i] != 0.0, seen, "jacobian² at {}", i);
            prop_assert!(seen || score[i] == 0.0, "score leaked to unobserved {}", i);
        }
    }

    /// The indexed loops mirror the dense ones' expression order: an index
    /// list naming every component reproduces the dense operator bit for
    /// bit, for both componentwise maps.
    #[test]
    fn listing_every_index_reduces_to_the_dense_operator_bitwise(
        arctan in 0u8..2,
        gain in 0.5f64..50.0,
        dim in 1usize..64,
        seed in 0u64..1000,
    ) {
        let operator = decode_operator(arctan == 1, gain);
        let state = normals(seed, 0, dim);
        let y = normals(seed, 1, dim);
        let dense = evaluate(&MaskedObs::new(dim, operator, None, 0.7), &state, &y);
        let listed =
            evaluate(&MaskedObs::new(dim, operator, Some((0..dim).collect()), 0.7), &state, &y);
        prop_assert_eq!(bits(&dense.0), bits(&listed.0));
        prop_assert_eq!(bits(&dense.1), bits(&listed.1));
        prop_assert_eq!(bits(&dense.2), bits(&listed.2));
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
        let op = spec(stride).operator(state.len(), 0);
        let y = vec![0.0; want.len()];
        let (hx, score, jsq) = evaluate(&op, state, &y);
        assert_eq!(hx, want, "stride {stride}");
        for i in 0..state.len() {
            let on_comb = i % stride == 0;
            assert_eq!(score[i] != 0.0, on_comb, "stride {stride}: score at {i}"); // lint: allow(float-exact-compare, reason="off-comb score slots are never written")
            assert_eq!(jsq[i], if on_comb { 1.0 } else { 0.0 });
        }
    }
}
