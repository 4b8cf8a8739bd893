//! The SQG-ViT surrogate model.
//!
//! Images are `[channels, n, n]` fields flattened channel-major (exactly the
//! DA state-vector layout: level-0 grid then level-1 grid). The model
//! patchifies, embeds, adds a learned positional embedding, runs the
//! transformer blocks of Fig. 2, and de-patchifies back to an image — i.e.
//! it learns the 12 h flow map of the SQG system.

use crate::config::VitConfig;
use crate::layers::{Block, ForwardCtx, Layer, LayerNorm, Linear, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use stats::rng::seeded;

/// The ViT surrogate.
pub struct SqgVit {
    config: VitConfig,
    embed: Linear,
    pos: Param,
    blocks: Vec<Block>,
    norm: LayerNorm,
    head: Linear,
    cache_batch: usize,
}

impl SqgVit {
    /// Builds a model with Gaussian(0, 0.02) initialization from `seed`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: VitConfig, seed: u64) -> Self {
        config.validate().expect("invalid ViT configuration");
        let mut rng: StdRng = seeded(seed);
        let tokens = config.tokens();
        let d = config.embed_dim;
        let pd = config.patch_dim();
        let blocks = (0..config.depth)
            .map(|_| {
                Block::new(
                    d,
                    config.heads,
                    config.mlp_ratio,
                    tokens,
                    config.dropout,
                    config.drop_path,
                    &mut rng,
                )
            })
            .collect();
        SqgVit {
            embed: Linear::new(pd, d, &mut rng),
            pos: Param::new(crate::layers::gauss_init(&mut rng, tokens * d, 0.02)),
            blocks,
            norm: LayerNorm::new(d),
            head: Linear::new(d, pd, &mut rng),
            config,
            cache_batch: 0,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &VitConfig {
        &self.config
    }

    /// Total learnable parameters (must agree with
    /// [`VitConfig::param_count`]).
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Splits a batch of flattened images into patch tokens
    /// `[batch * tokens, patch_dim]`.
    fn patchify(&self, images: &[Vec<f32>]) -> Tensor {
        let c = self.config.in_chans;
        let n = self.config.input_size;
        let p = self.config.patch_size;
        let per_side = n / p;
        let tokens = self.config.tokens();
        let pd = self.config.patch_dim();
        let mut out = Tensor::zeros(images.len() * tokens, pd);
        for (b, img) in images.iter().enumerate() {
            assert_eq!(img.len(), c * n * n, "image length mismatch");
            for ty in 0..per_side {
                for tx in 0..per_side {
                    let tok = ty * per_side + tx;
                    let dst = out.row_mut(b * tokens + tok);
                    let mut w = 0;
                    for ch in 0..c {
                        for py in 0..p {
                            for px in 0..p {
                                let gy = ty * p + py;
                                let gx = tx * p + px;
                                dst[w] = img[ch * n * n + gy * n + gx];
                                w += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`SqgVit::patchify`].
    fn unpatchify(&self, tokens_t: &Tensor, batch: usize) -> Vec<Vec<f32>> {
        let c = self.config.in_chans;
        let n = self.config.input_size;
        let p = self.config.patch_size;
        let per_side = n / p;
        let tokens = self.config.tokens();
        let mut out = vec![vec![0.0f32; c * n * n]; batch];
        for (b, img) in out.iter_mut().enumerate() {
            for ty in 0..per_side {
                for tx in 0..per_side {
                    let tok = ty * per_side + tx;
                    let src = tokens_t.row(b * tokens + tok);
                    let mut w = 0;
                    for ch in 0..c {
                        for py in 0..p {
                            for px in 0..p {
                                let gy = ty * p + py;
                                let gx = tx * p + px;
                                img[ch * n * n + gy * n + gx] = src[w];
                                w += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Forward pass on a batch of flattened images; returns predictions of
    /// the same shape. `rng` drives dropout when `train` is true.
    pub fn forward(&mut self, images: &[Vec<f32>], train: bool, rng: &mut StdRng) -> Vec<Vec<f32>> {
        let batch = images.len();
        assert!(batch > 0, "empty batch");
        self.cache_batch = batch;
        let tokens = self.config.tokens();
        let d = self.config.embed_dim;
        let mut ctx = ForwardCtx { train, rng };

        let patches = self.patchify(images);
        let mut h = self.embed.forward(&patches, &mut ctx);
        // Add positional embedding (broadcast over the batch).
        for b in 0..batch {
            for tok in 0..tokens {
                let row = h.row_mut(b * tokens + tok);
                for (v, p) in row.iter_mut().zip(&self.pos.value[tok * d..(tok + 1) * d]) {
                    *v += p;
                }
            }
        }
        for blk in &mut self.blocks {
            h = blk.forward(&h, &mut ctx);
        }
        let h = self.norm.forward(&h, &mut ctx);
        let y = self.head.forward(&h, &mut ctx);
        self.unpatchify(&y, batch)
    }

    /// Backward pass from per-image output gradients (`dL/dŷ`, same shape
    /// as the forward output). Accumulates parameter gradients and returns
    /// the mean gradient norm (diagnostic).
    pub fn backward(&mut self, grad_images: &[Vec<f32>]) -> f32 {
        let batch = grad_images.len();
        assert_eq!(batch, self.cache_batch, "backward batch mismatch");
        let tokens = self.config.tokens();
        let d = self.config.embed_dim;

        let gtok = self.patchify(grad_images); // same gather as the input path
        let g = self.head.backward(&gtok);
        let g = self.norm.backward(&g);
        let mut g = g;
        for blk in self.blocks.iter_mut().rev() {
            g = blk.backward(&g);
        }
        // Positional-embedding gradient: sum over the batch.
        for b in 0..batch {
            for tok in 0..tokens {
                let row = g.row(b * tokens + tok);
                for (pg, v) in self.pos.grad[tok * d..(tok + 1) * d].iter_mut().zip(row) {
                    *pg += v;
                }
            }
        }
        let g_in = self.embed.backward(&g);
        g_in.norm() / (g_in.len() as f32).sqrt()
    }

    /// Visits every parameter in a stable order (embed, pos, blocks, norm,
    /// head).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        f(&mut self.pos);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.norm.visit_params(f);
        self.head.visit_params(f);
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Convenience inference on one image.
    pub fn predict(&mut self, image: &[f32]) -> Vec<f32> {
        let mut rng = seeded(0);
        // INVARIANT: forward returns one output per input image.
        self.forward(&[image.to_vec()], false, &mut rng).pop().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> VitConfig {
        VitConfig {
            input_size: 8,
            patch_size: 4,
            in_chans: 2,
            depth: 2,
            heads: 2,
            embed_dim: 16,
            mlp_ratio: 2,
            dropout: 0.0,
            drop_path: 0.0,
        }
    }

    fn test_image(seed: f32, len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * seed).sin()).collect()
    }

    #[test]
    fn patchify_round_trip() {
        let m = SqgVit::new(tiny_config(), 1);
        let img = test_image(0.31, 2 * 64);
        let t = m.patchify(std::slice::from_ref(&img));
        assert_eq!(t.rows, 4); // (8/4)^2 tokens
        assert_eq!(t.cols, 32); // 4*4*2
        let back = m.unpatchify(&t, 1);
        assert_eq!(back[0], img);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut m = SqgVit::new(tiny_config(), 2);
        let img = test_image(0.17, 128);
        let y1 = m.predict(&img);
        let y2 = m.predict(&img);
        assert_eq!(y1.len(), 128);
        assert_eq!(y1, y2);
        assert!(y1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn param_count_matches_config() {
        let cfg = tiny_config();
        let want = cfg.param_count() as usize;
        let mut m = SqgVit::new(cfg, 3);
        assert_eq!(m.num_params(), want);
    }

    #[test]
    fn different_seeds_different_models() {
        let mut a = SqgVit::new(tiny_config(), 1);
        let mut b = SqgVit::new(tiny_config(), 2);
        let img = test_image(0.23, 128);
        assert_ne!(a.predict(&img), b.predict(&img));
    }

    #[test]
    fn end_to_end_gradcheck() {
        // Full-model finite-difference check on a few parameters, with
        // L = 0.5 || f(x) - y ||².
        let mut m = SqgVit::new(tiny_config(), 4);
        let x = test_image(0.29, 128);
        let target = test_image(0.41, 128);
        let mut rng = seeded(0);

        let loss_of = |m: &mut SqgVit, x: &[f32], tgt: &[f32]| -> f32 {
            let mut r = seeded(0);
            let y = m.forward(&[x.to_vec()], false, &mut r).pop().unwrap();
            0.5 * y.iter().zip(tgt).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };

        // Analytic grads.
        m.zero_grad();
        let y = m.forward(std::slice::from_ref(&x), false, &mut rng).pop().unwrap();
        let dy: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        let _ = m.backward(&[dy]);

        // Collect (flat copies of) grads in visit order.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        m.visit_params(&mut |p| grads.push(p.grad.clone()));

        // Spot-check a handful of parameters from different tensors.
        let h = 1e-2f32;
        let mut pidx = 0usize;
        let mut checked = 0usize;
        let n_params = grads.len();
        for target_param in 0..n_params {
            if target_param % 3 != 0 {
                pidx += 1;
                continue;
            }
            // Perturb element 0 of this parameter.
            let mut k = 0usize;
            m.visit_params(&mut |p| {
                if k == target_param {
                    p.value[0] += h;
                }
                k += 1;
            });
            let lp = loss_of(&mut m, &x, &target);
            k = 0;
            m.visit_params(&mut |p| {
                if k == target_param {
                    p.value[0] -= 2.0 * h;
                }
                k += 1;
            });
            let lm = loss_of(&mut m, &x, &target);
            k = 0;
            m.visit_params(&mut |p| {
                if k == target_param {
                    p.value[0] += h;
                }
                k += 1;
            });
            let fd = (lp - lm) / (2.0 * h);
            let an = grads[target_param][0];
            assert!(
                (an - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "param {target_param}: analytic {an} vs fd {fd}"
            );
            checked += 1;
            pidx += 1;
        }
        let _ = pidx;
        assert!(checked >= 5, "gradcheck must cover several parameter tensors");
    }

    #[test]
    #[should_panic]
    fn wrong_image_length_panics() {
        let mut m = SqgVit::new(tiny_config(), 6);
        let _ = m.predict(&[0.0; 10]);
    }
}
