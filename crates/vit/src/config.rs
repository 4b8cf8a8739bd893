//! ViT architecture configuration and parameter accounting (Table II).

/// Architecture of an SQG-ViT surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct VitConfig {
    /// Input image side length (the SQG grid size `n`).
    pub input_size: usize,
    /// Square patch side length.
    pub patch_size: usize,
    /// Input channels (2 for the two SQG boundary levels).
    pub in_chans: usize,
    /// Number of transformer blocks.
    pub depth: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Embedding (token) dimension.
    pub embed_dim: usize,
    /// MLP hidden dim = `mlp_ratio * embed_dim`.
    pub mlp_ratio: usize,
}

impl Default for VitConfig {
    fn default() -> Self {
        VitConfig {
            input_size: 64,
            patch_size: 4,
            in_chans: 2,
            depth: 12,
            heads: 8,
            embed_dim: 1024,
            mlp_ratio: 4,
        }
    }
}

impl VitConfig {
    /// The three architectures of Table II.
    ///
    /// # Panics
    /// Panics for input sizes other than the paper's 64/128/256.
    pub fn table2(input_size: usize) -> VitConfig {
        match input_size {
            64 => VitConfig { input_size: 64, depth: 12, embed_dim: 1024, ..Default::default() },
            128 => VitConfig { input_size: 128, depth: 24, embed_dim: 2048, ..Default::default() },
            256 => VitConfig { input_size: 256, depth: 48, embed_dim: 2048, ..Default::default() },
            other => panic!("Table II defines inputs 64/128/256, got {other}"),
        }
    }

    /// A small configuration that actually trains fast on a CPU; used by the
    /// OSSE experiments and tests.
    pub fn small(input_size: usize) -> VitConfig {
        VitConfig {
            input_size,
            patch_size: 8,
            in_chans: 2,
            depth: 2,
            heads: 4,
            embed_dim: 64,
            mlp_ratio: 2,
        }
    }

    /// Number of tokens (patches) per image.
    pub fn tokens(&self) -> usize {
        let per_side = self.input_size / self.patch_size;
        per_side * per_side
    }

    /// Flattened dimension of one patch.
    pub fn patch_dim(&self) -> usize {
        self.patch_size * self.patch_size * self.in_chans
    }

    /// Validates divisibility constraints.
    pub fn validate(&self) -> Result<(), String> {
        if !self.input_size.is_multiple_of(self.patch_size) {
            return Err(format!(
                "patch size {} must divide input size {}",
                self.patch_size, self.input_size
            ));
        }
        if !self.embed_dim.is_multiple_of(self.heads) {
            return Err(format!(
                "heads {} must divide embed dim {}",
                self.heads, self.embed_dim
            ));
        }
        if self.depth == 0 || self.embed_dim == 0 || self.heads == 0 {
            return Err("depth, embed_dim and heads must be positive".into());
        }
        Ok(())
    }

    /// Exact learnable-parameter count of the implementation.
    ///
    /// Per block: QKV (`3d² + 3d`), attention projection (`d² + d`), MLP
    /// (`d·rd + rd + rd·d + d`), two LayerNorms (`2·2d`). Plus patch
    /// embedding, learned positional embedding, final LayerNorm and the
    /// de-patchify head.
    pub fn param_count(&self) -> u64 {
        let d = self.embed_dim as u64;
        let r = self.mlp_ratio as u64;
        let per_block = (3 * d * d + 3 * d) + (d * d + d) + (d * r * d + r * d + r * d * d + d)
            + 2 * (2 * d);
        let pd = self.patch_dim() as u64;
        let embed = pd * d + d; // patch embedding (linear)
        let pos = self.tokens() as u64 * d; // learned positional embedding
        let head = d * pd + pd; // linear de-patchify head
        let final_norm = 2 * d;
        per_block * self.depth as u64 + embed + pos + head + final_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameter_counts_match_paper() {
        // Paper: 157M / 1.2B / 2.5B. The exact bookkeeping of embeddings and
        // head differs slightly between implementations; require agreement
        // within 5%.
        let close = |got: u64, want: f64| {
            let rel = (got as f64 - want).abs() / want;
            assert!(rel < 0.05, "{got} vs {want} (rel {rel:.3})");
        };
        close(VitConfig::table2(64).param_count(), 157.0e6);
        close(VitConfig::table2(128).param_count(), 1.2e9);
        close(VitConfig::table2(256).param_count(), 2.5e9);
    }

    #[test]
    fn table2_architectures() {
        let c = VitConfig::table2(128);
        assert_eq!(c.depth, 24);
        assert_eq!(c.embed_dim, 2048);
        assert_eq!(c.heads, 8);
        assert_eq!(c.mlp_ratio, 4);
        assert_eq!(c.patch_size, 4);
        assert_eq!(c.tokens(), 1024);
    }

    #[test]
    fn tokens_and_patch_dim() {
        let c = VitConfig { input_size: 64, patch_size: 4, in_chans: 2, ..Default::default() };
        assert_eq!(c.tokens(), 256);
        assert_eq!(c.patch_dim(), 32);
    }

    #[test]
    fn validation() {
        assert!(VitConfig::default().validate().is_ok());
        assert!(VitConfig { patch_size: 5, ..Default::default() }.validate().is_err());
        assert!(VitConfig { heads: 3, ..Default::default() }.validate().is_err());
        assert!(VitConfig { depth: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn table2_unknown_size_panics() {
        let _ = VitConfig::table2(512);
    }

    #[test]
    fn small_config_is_valid_and_small() {
        let c = VitConfig::small(64);
        assert!(c.validate().is_ok());
        assert!(c.param_count() < 1_000_000, "small config must stay CPU-trainable");
    }
}
