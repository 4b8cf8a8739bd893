//! Computational budget estimation (Eq. 18 and Fig. 3).
//!
//! `T = 6 · Π_i (L_i / P_i) · E · M`: six floating-point operations per
//! token per parameter (one multiply-accumulate forward, two backward),
//! times tokens per image, epochs and parameters.

use crate::config::VitConfig;

/// Total training FLOPs per Eq. 18 for `images` training images over
/// `epochs` epochs.
pub fn training_flops(config: &VitConfig, images: u64, epochs: u64) -> f64 {
    let tokens = config.tokens() as u64;
    6.0 * tokens as f64 * images as f64 * epochs as f64 * config.param_count() as f64
}

/// Converts a FLOP total into node-hours given a per-node sustained rate
/// [FLOP/s].
pub fn node_hours(total_flops: f64, sustained_flops_per_node: f64) -> f64 {
    total_flops / sustained_flops_per_node / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq18_scaling_in_each_factor() {
        let c = VitConfig::small(64);
        let base = training_flops(&c, 1000, 10);
        assert!((training_flops(&c, 2000, 10) / base - 2.0).abs() < 1e-12);
        assert!((training_flops(&c, 1000, 20) / base - 2.0).abs() < 1e-12);
        // Quadrupling the input area quadruples the token count.
        let c2 = VitConfig { input_size: 128, ..VitConfig::small(64) };
        let f2 = training_flops(&c2, 1000, 10);
        let tokens_ratio = c2.tokens() as f64 / c.tokens() as f64;
        let param_ratio = c2.param_count() as f64 / c.param_count() as f64;
        assert!((f2 / base - tokens_ratio * param_ratio).abs() < 1e-9);
    }

    #[test]
    fn factor_six_forward_backward() {
        let c = VitConfig::small(64);
        let train = training_flops(&c, 1, 1);
        // Forward-only: 2 ops per token per parameter.
        let infer = 2.0 * c.tokens() as f64 * c.param_count() as f64;
        assert!((train / infer - 3.0).abs() < 1e-12, "training = 3x inference per image");
    }

    #[test]
    fn fig3_magnitudes() {
        // Sanity against Fig. 3's order of magnitude: the 2.5B model on 1M
        // images for 100 epochs lands around 6e21 FLOPs.
        let c = VitConfig::table2(256);
        let t = training_flops(&c, 1_000_000, 100);
        assert!(t > 1e21 && t < 1e23, "Fig. 3 magnitude check: {t:.3e}");
        // And the 157M model should be ~two decades cheaper.
        let small = training_flops(&VitConfig::table2(64), 1_000_000, 100);
        assert!(small < t / 50.0);
    }

    #[test]
    fn node_hours_conversion() {
        // 3.6e15 FLOPs at 1e12 FLOP/s = 3600 s = 1 node-hour.
        assert!((node_hours(3.6e15, 1.0e12) - 1.0).abs() < 1e-12);
    }
}
