//! Distributed-training strategies (Table I) and their memory /
//! communication footprints.
//!
//! | partitioned state      | FSDP            | ZeRO    |
//! |------------------------|-----------------|---------|
//! | optimizer              | n/a             | stage 1 |
//! | optimizer + gradient   | `shard_grad_op` | stage 2 |
//! | + weights (everything) | `full_shard`    | stage 3 |
//! | hierarchical           | `hybrid_shard`  | n/a     |
//!
//! Memory model (mixed precision, Adam): fp16 weights (2 B) + fp16
//! gradients (2 B) + fp32 Adam moments (8 B) + ~2× weights of transient
//! all-gather / activation working space — the "≈12× parameter size" the
//! paper quotes. Communication per step: DDP all-reduces gradients (bucketed
//! ZeRO-1/2 do the same volume through AllReduce in their PyTorch-Lightning
//! configuration); full sharding adds a parameter all-gather in forward and
//! backward, ≈50 % more volume.

use crate::collective::Collective;

/// A data-parallel distribution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Plain data parallelism: everything replicated.
    Ddp,
    /// DeepSpeed ZeRO stage 1: optimizer states sharded.
    ZeroStage1,
    /// DeepSpeed ZeRO stage 2 / FSDP `shard_grad_op`: optimizer + grads.
    ZeroStage2,
    /// DeepSpeed ZeRO stage 3 / FSDP `full_shard`: everything sharded.
    ZeroStage3,
    /// FSDP `shard_grad_op` (alias of stage 2 partitioning).
    FsdpShardGradOp,
    /// FSDP `full_shard` (alias of stage 3 partitioning).
    FsdpFullShard,
    /// FSDP `hybrid_shard`: full shard within a node, replicate across.
    FsdpHybrid,
}

/// Bytes per parameter of each memory component (mixed precision + Adam).
pub mod bytes_per_param {
    /// fp16 master copy used in compute.
    pub const WEIGHTS: f64 = 2.0;
    /// fp16 gradients.
    pub const GRADS: f64 = 2.0;
    /// fp32 Adam first+second moments.
    pub const OPTIMIZER: f64 = 8.0;
    /// Transient working set (FSDP units, activation slack) ≈ 2× weights.
    pub const TRANSIENT: f64 = 4.0;
}

impl Strategy {
    /// Memory per GCD [bytes] for a model of `params` parameters over
    /// `ranks` data-parallel ranks (`ranks_per_node` only matters for
    /// hybrid sharding).
    pub fn memory_per_gcd(self, params: u64, ranks: usize, ranks_per_node: usize) -> f64 {
        assert!(ranks >= 1 && ranks_per_node >= 1);
        use bytes_per_param::*;
        let p = params as f64;
        let n = ranks as f64;
        let shard = |x: f64, over: f64| x / over;
        // The transient working set follows the weights: strategies that
        // keep weights replicated materialize full-size buffers, while
        // full sharding only ever holds one FSDP unit (bounded by the
        // weight shard).
        let (w, g, o, t) = match self {
            Strategy::Ddp => (WEIGHTS, GRADS, OPTIMIZER, TRANSIENT),
            Strategy::ZeroStage1 => (WEIGHTS, GRADS, shard(OPTIMIZER, n), TRANSIENT),
            Strategy::ZeroStage2 | Strategy::FsdpShardGradOp => {
                (WEIGHTS, shard(GRADS, n), shard(OPTIMIZER, n), TRANSIENT)
            }
            Strategy::ZeroStage3 | Strategy::FsdpFullShard => (
                shard(WEIGHTS, n),
                shard(GRADS, n),
                shard(OPTIMIZER, n),
                shard(TRANSIENT, n),
            ),
            Strategy::FsdpHybrid => {
                let within = ranks_per_node.min(ranks) as f64;
                (
                    shard(WEIGHTS, within),
                    shard(GRADS, within),
                    shard(OPTIMIZER, within),
                    shard(TRANSIENT, within),
                )
            }
        };
        (w + g + o + t) * p
    }

    /// Per-step communication as `(collective, bytes-per-rank)` pairs for a
    /// model of `params` parameters (fp16 wire format).
    pub fn comm_pattern(self, params: u64) -> Vec<(Collective, u64)> {
        let bytes = params * 2; // fp16
        match self {
            // DDP and the bucketed ZeRO-1/2 configurations the paper runs
            // synchronize gradients with AllReduce.
            Strategy::Ddp | Strategy::ZeroStage1 | Strategy::ZeroStage2 => {
                vec![(Collective::AllReduce, bytes)]
            }
            // shard_grad_op: gradients reduce-scattered, updated params
            // all-gathered.
            Strategy::FsdpShardGradOp => vec![
                (Collective::ReduceScatter, bytes),
                (Collective::AllGather, bytes),
            ],
            // Full sharding: parameter all-gather in forward AND backward,
            // plus gradient reduce-scatter — the "~50% more volume".
            Strategy::ZeroStage3 | Strategy::FsdpFullShard | Strategy::FsdpHybrid => vec![
                (Collective::AllGather, bytes),
                (Collective::AllGather, bytes),
                (Collective::ReduceScatter, bytes),
            ],
        }
    }

    /// Total data *moved* per step [bytes], weighting each collective by
    /// its asymptotic ring traffic factor (AllReduce moves 2S, AG/RS move
    /// S). This is the quantity behind the paper's "FSDP incurs ~50% more
    /// communication volume than data parallelism".
    pub fn comm_volume(self, params: u64) -> u64 {
        self.comm_pattern(params)
            .iter()
            .map(|(c, b)| match c {
                Collective::AllReduce => 2 * b,
                Collective::AllGather | Collective::ReduceScatter => *b,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn ddp_memory_is_about_12x_plus_transient() {
        // Paper: "approximately 12 times the model parameter size".
        let p = 1_000_000_000u64;
        let m = Strategy::Ddp.memory_per_gcd(p, 64, 8);
        assert!((m / p as f64 - 16.0).abs() < 1e-9); // 12 + 4 transient
    }

    #[test]
    fn sharding_strictly_reduces_memory() {
        let p = 2_500_000_000u64;
        let n = 1024;
        let ddp = Strategy::Ddp.memory_per_gcd(p, n, 8);
        let s1 = Strategy::ZeroStage1.memory_per_gcd(p, n, 8);
        let s2 = Strategy::ZeroStage2.memory_per_gcd(p, n, 8);
        let s3 = Strategy::ZeroStage3.memory_per_gcd(p, n, 8);
        assert!(ddp > s1 && s1 > s2 && s2 > s3);
    }

    #[test]
    fn fsdp_aliases_match_zero_stages() {
        let p = 1_000_000_000u64;
        assert_eq!(
            Strategy::FsdpShardGradOp.memory_per_gcd(p, 128, 8),
            Strategy::ZeroStage2.memory_per_gcd(p, 128, 8)
        );
        assert_eq!(
            Strategy::FsdpFullShard.memory_per_gcd(p, 128, 8),
            Strategy::ZeroStage3.memory_per_gcd(p, 128, 8)
        );
    }

    #[test]
    fn hybrid_shards_within_node_only() {
        let p = 1_000_000_000u64;
        let hybrid = Strategy::FsdpHybrid.memory_per_gcd(p, 1024, 8);
        let full = Strategy::FsdpFullShard.memory_per_gcd(p, 1024, 8);
        let ddp = Strategy::Ddp.memory_per_gcd(p, 1024, 8);
        assert!(hybrid > full, "hybrid shards over fewer ranks");
        assert!(hybrid < ddp);
        // Hybrid at 1024 ranks equals full shard at 8 ranks.
        assert_eq!(hybrid, Strategy::FsdpFullShard.memory_per_gcd(p, 8, 8));
    }

    #[test]
    fn full_shard_fits_2_5b_where_ddp_does_not() {
        // The 2.5B model: DDP wants 2.5e9 * 16 B = 40 GB... fits in 64 GB,
        // but a 25B model would not — check the boundary logic at 25B.
        let p = 25_000_000_000u64;
        let hbm = 64.0 * GB;
        assert!(Strategy::Ddp.memory_per_gcd(p, 1024, 8) > hbm);
        assert!(Strategy::ZeroStage3.memory_per_gcd(p, 1024, 8) < hbm);
    }

    #[test]
    fn full_shard_is_1_5x_comm_volume() {
        // Paper: "FSDP incurs approximately 50% more communication volume
        // compared to data parallelism".
        let p = 1_000_000_000u64;
        let ddp = Strategy::Ddp.comm_volume(p) as f64;
        let full = Strategy::FsdpFullShard.comm_volume(p) as f64;
        assert!((full / ddp - 1.5).abs() < 1e-9);
    }

    #[test]
    fn comm_patterns_use_expected_collectives() {
        let p = 1_000u64;
        assert_eq!(Strategy::Ddp.comm_pattern(p), vec![(Collective::AllReduce, 2000)]);
        let full = Strategy::FsdpFullShard.comm_pattern(p);
        assert_eq!(full.len(), 3);
        assert!(full.iter().filter(|(c, _)| *c == Collective::AllGather).count() == 2);
    }
}
