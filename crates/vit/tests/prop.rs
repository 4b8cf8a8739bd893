//! Property-based tests for the ViT surrogate's numerics.

use proptest::prelude::*;
use vit::train::mse_loss;
use vit::{SqgVit, Tensor, VitConfig};

fn tiny_config() -> VitConfig {
    VitConfig {
        input_size: 8,
        patch_size: 4,
        in_chans: 2,
        depth: 1,
        heads: 2,
        embed_dim: 16,
        mlp_ratio: 2,
        dropout: 0.0,
        drop_path: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tensor matmul is associative within f32 tolerance.
    #[test]
    fn matmul_associative(
        a in prop::collection::vec(-1.0f32..1.0, 3 * 4),
        b in prop::collection::vec(-1.0f32..1.0, 4 * 5),
        c in prop::collection::vec(-1.0f32..1.0, 5 * 2),
    ) {
        let ta = Tensor::from_vec(3, 4, a);
        let tb = Tensor::from_vec(4, 5, b);
        let tc = Tensor::from_vec(5, 2, c);
        let left = ta.matmul(&tb).matmul(&tc);
        let right = ta.matmul(&tb.matmul(&tc));
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matmul_bt / matmul_at agree with explicit transposes.
    #[test]
    fn transpose_variants_agree(
        a in prop::collection::vec(-1.0f32..1.0, 4 * 6),
        b in prop::collection::vec(-1.0f32..1.0, 3 * 6),
    ) {
        let ta = Tensor::from_vec(4, 6, a);
        let tb = Tensor::from_vec(3, 6, b);
        let fused = ta.matmul_bt(&tb);
        let explicit = ta.matmul(&tb.transpose());
        for (x, y) in fused.data.iter().zip(&explicit.data) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// MSE loss is nonnegative, zero iff identical, and its gradient points
    /// from target to prediction.
    #[test]
    fn mse_properties(
        p in prop::collection::vec(-10.0f32..10.0, 1..64),
        delta in prop::collection::vec(-1.0f32..1.0, 64),
    ) {
        let t: Vec<f32> = p.iter().zip(&delta).map(|(a, d)| a + d).collect();
        let (loss, grad) = mse_loss(&p, &t);
        prop_assert!(loss >= 0.0);
        let (self_loss, _) = mse_loss(&p, &p);
        prop_assert_eq!(self_loss, 0.0);
        for ((g, pi), ti) in grad.iter().zip(&p).zip(&t) {
            // gradient sign matches (pred - target)
            if (pi - ti).abs() > 1e-6 {
                prop_assert!(g.signum() == (pi - ti).signum());
            }
        }
    }

    /// The model is a deterministic function of (config seed, input) and
    /// maps finite inputs to finite outputs of the same shape.
    #[test]
    fn model_deterministic_and_finite(
        img in prop::collection::vec(-2.0f32..2.0, 128),
        seed in 0u64..50,
    ) {
        let mut m = SqgVit::new(tiny_config(), seed);
        let y1 = m.predict(&img);
        let y2 = m.predict(&img);
        prop_assert_eq!(&y1, &y2);
        prop_assert_eq!(y1.len(), 128);
        prop_assert!(y1.iter().all(|v| v.is_finite()));
    }

    /// Eq. 18 FLOP accounting is linear in epochs and images and positive.
    #[test]
    fn flops_linear(images in 1u64..10_000, epochs in 1u64..100) {
        let c = tiny_config();
        let one = vit::flops::training_flops(&c, 1, 1);
        let many = vit::flops::training_flops(&c, images, epochs);
        prop_assert!(one > 0.0);
        prop_assert!((many / one - (images * epochs) as f64).abs() < 1e-6 * (images * epochs) as f64);
    }
}
