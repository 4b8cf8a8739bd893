//! Property-based tests for the partial-observation mask algebra and the
//! inpainting EnSF's dense-limit behavior.

use da_core::osse::MaskKind;
use da_core::{AnalysisScheme, Completion, EnsfScheme, ObsOperatorKind, ObsSpec};
use ensf::{EnsfConfig, ObsOperator};
use proptest::prelude::*;
use stats::gaussian::fill_standard_normal;
use stats::rng::member_rng;
use stats::Ensemble;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `observed_indices` is a bijection onto the unmasked components:
    /// strictly ascending (hence injective), every listed index is
    /// observed, every omitted index is not, and the count matches
    /// `obs_dim`.
    #[test]
    fn observed_indices_biject_onto_unmasked_components(
        selector in 0u8..4,
        a in 0usize..512,
        b in 0usize..512,
        dim in 4usize..160,
        cycle in 0u64..50,
    ) {
        let mask = decode_mask(selector, a, b, dim);
        let observed = mask.observed_indices(dim, cycle);
        prop_assert_eq!(observed.len(), mask.obs_dim(dim, cycle));
        prop_assert!(observed.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
        let mut in_list = vec![false; dim];
        for &i in &observed {
            prop_assert!(i < dim, "index {} out of range {}", i, dim);
            in_list[i] = true;
        }
        for (i, &listed) in in_list.iter().enumerate() {
            prop_assert_eq!(
                listed,
                mask.is_observed(i, dim, cycle),
                "index {} listed ≠ observed", i
            );
        }
    }

    /// Composing the arctan operator with a mask commutes with component
    /// selection: the spec's shrunk projection equals dense-apply
    /// restricted to the observed indices, bit for bit.
    #[test]
    fn arctan_mask_composition_commutes_with_selection(
        selector in 0u8..4,
        a in 0usize..512,
        b in 0usize..512,
        gain in 0.5f64..50.0,
        seed in 0u64..1000,
        cycle in 0u64..20,
    ) {
        let dim = 32;
        let mask = decode_mask(selector, a, b, dim);
        let observed = mask.observed_indices(dim, cycle);
        let mut rng = member_rng(seed, 0);
        let mut state = vec![0.0; dim];
        fill_standard_normal(&mut rng, &mut state);

        let operator = ObsOperatorKind::Arctan { gain };
        let mut dense = vec![0.0; dim];
        ObsOperator::new(operator, 0.1).apply(&state, &mut dense);

        let shrunk = ObsSpec { operator, mask, sigma: 0.1 }.project(&state, cycle);

        prop_assert_eq!(shrunk.len(), observed.len());
        for (k, &i) in observed.iter().enumerate() {
            prop_assert_eq!(
                shrunk[k].to_bits(),
                dense[i].to_bits(),
                "component {} (obs slot {})", i, k
            );
        }
    }

    /// Moving-track masks never go dark and are periodic in the cycle
    /// index: advancing the cycle by `dim` returns the window to the same
    /// set of live sensors.
    #[test]
    fn track_masks_are_periodic_and_never_empty(
        width in 1usize..96,
        speed in 0usize..100,
        dim in 4usize..96,
        cycle in 0u64..200,
    ) {
        let mask = MaskKind::Track { width, speed };
        let now = mask.observed_indices(dim, cycle);
        prop_assert!(!now.is_empty(), "track went dark at cycle {}", cycle);
        let later = mask.observed_indices(dim, cycle + dim as u64);
        prop_assert_eq!(now, later, "track not periodic with period {}", dim);
    }

    /// When the mask observes everything, the inpainting scheme reduces
    /// exactly — bit for bit — to the standard dense EnSF: the inpainting
    /// path must be a strict generalization, not a parallel numerics.
    #[test]
    fn full_mask_inpainting_reduces_to_dense_ensf(
        seed in 0u64..1000,
        members in 4usize..9,
        y_shift in -2.0f64..2.0,
    ) {
        let dim = 8; // 2-level 2×2 grid, the smallest inpaintable state
        let mut forecast = Ensemble::zeros(members, dim);
        for m in 0..members {
            let mut rng = member_rng(seed, m);
            fill_standard_normal(&mut rng, forecast.member_mut(m));
        }
        let y: Vec<f64> = (0..dim).map(|i| y_shift + 0.1 * i as f64).collect();
        let config = EnsfConfig { n_steps: 4, seed: 7, ..Default::default() };

        let mut dense = EnsfScheme::new(config.clone(), dim, 0.3);
        // A zero-length outage: full, but only by `is_full()`'s account.
        let full = ObsSpec { mask: MaskKind::Block { start: 3, len: 0 }, ..ObsSpec::identity(0.3) };
        let mut masked = EnsfScheme::with_obs(config, dim, full, Completion::Inpaint);
        let a = dense.analyze(&forecast, &y);
        let b = masked.analyze(&forecast, &y);
        prop_assert_eq!(a.as_slice(), b.as_slice(), "full-mask inpainting drifted from dense");
    }
}
