//! MI250X GEMM-shape efficiency model (Fig. 6).
//!
//! Training throughput on a GCD is dominated by GEMMs whose shapes are set
//! by the architecture: the paper's single-node heatmap (20–52 TFLOPS over
//! the search space) shows
//!
//! * throughput peaking at embedding dimension 2048,
//! * decreasing with the number of attention heads (per-head GEMMs shrink),
//! * increasing with the MLP:attention ratio (more big GEMMs).
//!
//! This module reproduces those trends with a calibrated analytic model:
//! `achieved = peak · (f_mlp · e(d_mlp) + (1 − f_mlp) · e(d_head)) · κ(d)`
//! with `e` a saturating size-efficiency and `κ` a cache-pressure penalty
//! past d = 2048.

/// Peak matrix-engine throughput of one GCD [FLOP/s] (fp16/bf16 with fp32
/// accumulate; half of an MI250X's 383 TFLOPS).
const GCD_PEAK_FLOPS: f64 = 95.7e12;

/// Architecture knobs relevant to kernel sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShape {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// MLP hidden ratio.
    pub mlp_ratio: usize,
}

/// Saturating efficiency of a GEMM with inner dimension `d`.
fn size_eff(d: f64) -> f64 {
    // Half-efficiency near 192; saturates toward ~0.62 of peak (real
    // attention/MLP kernels never hit the matrix-engine peak).
    0.62 * d / (d + 192.0)
}

/// Cache/LDS pressure penalty: best at 2048, mild decline below it
/// (under-utilized compute units) and a steeper decline above it (working
/// sets spill out of LDS/L2) — the paper's observed optimum.
fn cache_penalty(d: f64) -> f64 {
    let x = (d / 2048.0).ln() / std::f64::consts::LN_2; // octaves from 2048
    if x <= 0.0 {
        1.0 - 0.06 * x * x
    } else {
        1.0 - 0.18 * x * x
    }
}

/// Fraction of training FLOPs spent in the MLP vs attention projections,
/// from the parameter balance `2 r d²` (MLP) vs `4 d²` (QKV + proj).
fn mlp_fraction(mlp_ratio: f64) -> f64 {
    2.0 * mlp_ratio / (2.0 * mlp_ratio + 4.0)
}

/// Achieved training throughput on one GCD [FLOP/s].
pub fn achieved_flops(shape: KernelShape) -> f64 {
    assert!(shape.embed_dim > 0 && shape.heads > 0 && shape.mlp_ratio > 0);
    assert_eq!(shape.embed_dim % shape.heads, 0, "heads must divide embed dim");
    let d = shape.embed_dim as f64;
    let dh = (shape.embed_dim / shape.heads) as f64;
    let f_mlp = mlp_fraction(shape.mlp_ratio as f64);
    let e_mlp = size_eff(d * (shape.mlp_ratio as f64).min(4.0));
    let e_attn = size_eff(dh);
    GCD_PEAK_FLOPS * (f_mlp * e_mlp + (1.0 - f_mlp) * e_attn) * cache_penalty(d).max(0.2)
}

/// The heatmap grid of Fig. 6: achieved TFLOPS over
/// (embed dim × heads × MLP ratio) for a 256² input on one node.
pub fn fig6_heatmap(
    embed_dims: &[usize],
    heads: &[usize],
    mlp_ratios: &[usize],
) -> Vec<(KernelShape, f64)> {
    let mut out = Vec::new();
    for &d in embed_dims {
        for &h in heads {
            if d % h != 0 {
                continue;
            }
            for &r in mlp_ratios {
                let shape = KernelShape { embed_dim: d, heads: h, mlp_ratio: r };
                out.push((shape, achieved_flops(shape) / 1e12));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tf(d: usize, h: usize, r: usize) -> f64 {
        achieved_flops(KernelShape { embed_dim: d, heads: h, mlp_ratio: r }) / 1e12
    }

    #[test]
    fn range_matches_paper_heatmap() {
        // Paper: single-node training performance varies from ~20 to
        // ~52 TFLOPS over the search space.
        let grid = fig6_heatmap(&[512, 1024, 2048, 4096], &[4, 8, 16, 32], &[1, 2, 4, 8]);
        let min = grid.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let max = grid.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        assert!(min > 10.0 && min < 30.0, "min {min:.1}");
        assert!(max > 42.0 && max < 60.0, "max {max:.1}");
    }

    #[test]
    fn embed_2048_is_best() {
        for &(h, r) in &[(8usize, 4usize), (16, 4), (8, 8)] {
            let at_2048 = tf(2048, h, r);
            assert!(at_2048 > tf(512, h, r), "2048 must beat 512");
            assert!(at_2048 > tf(4096, h, r), "2048 must beat 4096");
        }
    }

    #[test]
    fn more_heads_hurt() {
        // Paper: "higher number of attention heads reduce the performance".
        assert!(tf(2048, 8, 4) > tf(2048, 32, 4));
        assert!(tf(1024, 4, 4) > tf(1024, 16, 4));
    }

    #[test]
    fn more_mlp_helps() {
        // Paper: "Increasing the weight of MLP operations will improve the
        // performance overall."
        assert!(tf(2048, 8, 8) > tf(2048, 8, 2));
        assert!(tf(1024, 16, 8) > tf(1024, 16, 1));
    }

    #[test]
    fn achieved_below_peak() {
        let grid = fig6_heatmap(&[512, 1024, 2048, 4096], &[4, 8, 16, 32], &[1, 2, 4, 8]);
        for (shape, v) in grid {
            assert!(v * 1e12 < GCD_PEAK_FLOPS, "{shape:?} exceeds peak");
            assert!(v > 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn indivisible_heads_rejected() {
        let _ = achieved_flops(KernelShape { embed_dim: 100, heads: 3, mlp_ratio: 4 });
    }
}
