//! Training-step and EnSF performance simulation (Figs. 7, 9, 10).
//!
//! A training step = compute (GEMM model) + exposed communication
//! (collective model, bucketed, partially overlapped with backprop) + IO
//! (dataset reads + amortized checkpointing). Strong-scaling curves follow
//! by sweeping the GCD count with the per-GCD batch fixed.

use crate::collective::{collective_time, Collective};
use crate::gemm_model::{achieved_flops, KernelShape};
use crate::strategy::Strategy;
use crate::topology::Topology;

/// A distributed training job description.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainJob {
    /// Model parameters.
    pub params: u64,
    /// Tokens per sample (`(input/patch)²`).
    pub tokens_per_sample: usize,
    /// Samples per GCD per step.
    pub batch_per_gcd: usize,
    /// GEMM shape knobs for the compute model.
    pub shape: KernelShape,
    /// Bytes of one input sample (IO model).
    pub sample_bytes: u64,
}

impl TrainJob {
    /// The Table II job for a given input size, with the per-GCD batch
    /// set by the 64 GB activation budget (≈ tokens · d · depth bound).
    ///
    /// # Panics
    /// Panics for input sizes other than the paper's 64/128/256.
    pub fn table2(input_size: usize) -> TrainJob {
        let (params, tokens, shape, batch): (u64, usize, KernelShape, usize) = match input_size {
            64 => (
                157_000_000,
                256,
                KernelShape { embed_dim: 1024, heads: 8, mlp_ratio: 4 },
                4,
            ),
            128 => (
                1_200_000_000,
                1024,
                KernelShape { embed_dim: 2048, heads: 8, mlp_ratio: 4 },
                2,
            ),
            256 => (
                2_500_000_000,
                4096,
                KernelShape { embed_dim: 2048, heads: 8, mlp_ratio: 4 },
                1,
            ),
            other => panic!("Table II defines 64/128/256, got {other}"),
        };
        TrainJob {
            params,
            tokens_per_sample: tokens,
            batch_per_gcd: batch,
            shape,
            sample_bytes: (input_size * input_size * 2 * 4) as u64,
        }
    }
}

/// One step's wall-time decomposition [s].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// GEMM/compute time.
    pub compute: f64,
    /// Communication *not* hidden behind compute.
    pub comm_exposed: f64,
    /// Raw (unoverlapped) communication time.
    pub comm_total: f64,
    /// Dataset reads + amortized checkpoint writes.
    pub io: f64,
}

impl StepBreakdown {
    /// Total step wall time.
    pub fn total(&self) -> f64 {
        self.compute + self.comm_exposed + self.io
    }

    /// Fractions `(compute, comm, io)` of the step (Fig. 7's bars).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        (self.compute / t, self.comm_exposed / t, self.io / t)
    }
}

/// Per-GCD dataset read bandwidth (Lustre, shared) [bytes/s].
const IO_BW: f64 = 0.5e9;
/// Amortized checkpoint write rate per step: params · 12 B every 200 steps
/// at 100 GB/s aggregate burst buffer.
const CKPT_AMORT: f64 = 12.0 / (200.0 * 100.0e9);

/// Overlap fraction of communication hidden behind backprop compute.
fn overlap_fraction(strategy: Strategy, bucket_bytes: u64, total_bytes: u64) -> f64 {
    let bucket_share = bucket_bytes as f64 / total_bytes.max(1) as f64;
    match strategy {
        // PyTorch DDP's bucketed gradient AllReduce pipelines very well.
        Strategy::Ddp => 0.92 * (1.0 - 0.3 * bucket_share).max(0.0),
        // DeepSpeed's bucketed AllReduce overlaps somewhat less (launch from
        // Python-side hooks), and large buckets leave less to pipeline.
        Strategy::ZeroStage1 | Strategy::ZeroStage2 => {
            0.85 * (1.0 - bucket_share).max(0.0)
        }
        // Parameter all-gathers block the forward pass: little overlap.
        Strategy::FsdpShardGradOp => 0.5,
        Strategy::ZeroStage3 | Strategy::FsdpFullShard | Strategy::FsdpHybrid => 0.3,
    }
}

/// Simulates one training step.
pub fn simulate_step(
    topo: &Topology,
    job: &TrainJob,
    strategy: Strategy,
    gcds: usize,
    bucket_bytes: u64,
) -> StepBreakdown {
    assert!(gcds >= 1 && gcds <= topo.total_gcds());
    assert!(bucket_bytes > 0, "bucket size must be positive");

    // Compute: Eq. 18 per-step FLOPs over the achieved-rate model.
    let flops = 6.0 * job.tokens_per_sample as f64 * job.batch_per_gcd as f64
        * job.params as f64;
    let compute = flops / achieved_flops(job.shape);

    // Communication: each pattern entry split into buckets.
    let mut comm_total = 0.0;
    let mut wire_total = 0u64;
    for (op, bytes) in strategy.comm_pattern(job.params) {
        wire_total += bytes;
        let buckets = bytes.div_ceil(bucket_bytes);
        let last = bytes - (buckets - 1) * bucket_bytes;
        if buckets > 1 {
            comm_total +=
                (buckets - 1) as f64 * collective_time(topo, op, gcds, bucket_bytes);
        }
        comm_total += collective_time(topo, op, gcds, last);
    }
    if gcds == 1 {
        comm_total = 0.0;
    }
    let hidden = overlap_fraction(strategy, bucket_bytes, wire_total)
        * comm_total.min(0.95 * compute);
    let comm_exposed = (comm_total - hidden).max(0.0);

    // IO: read this step's samples + amortized checkpoints.
    let io = job.batch_per_gcd as f64 * job.sample_bytes as f64 / IO_BW
        + job.params as f64 * CKPT_AMORT;

    StepBreakdown { compute, comm_exposed, comm_total, io }
}

/// Strong-scaling curve: throughput [samples/s] and efficiency relative to
/// perfect scaling from the first entry of `gcds_list`.
pub fn scaling_curve(
    topo_of: impl Fn(usize) -> Topology,
    job: &TrainJob,
    strategy: Strategy,
    gcds_list: &[usize],
    bucket_bytes: u64,
) -> Vec<(usize, f64, f64)> {
    assert!(!gcds_list.is_empty());
    let base_gcds = gcds_list[0];
    let base = {
        let topo = topo_of(base_gcds);
        let t = simulate_step(&topo, job, strategy, base_gcds, bucket_bytes).total();
        base_gcds as f64 * job.batch_per_gcd as f64 / t
    };
    gcds_list
        .iter()
        .map(|&g| {
            let topo = topo_of(g);
            let t = simulate_step(&topo, job, strategy, g, bucket_bytes).total();
            let throughput = g as f64 * job.batch_per_gcd as f64 / t;
            let eff = throughput / (base * g as f64 / base_gcds as f64);
            (g, throughput, eff)
        })
        .collect()
}

/// EnSF cost model for the Fig. 10 weak-scaling study: ensemble-parallel,
/// per-rank work `∝ dim · members_per_rank · sde_steps`, followed by one
/// reduction of the state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsfJob {
    /// State dimension.
    pub dim: u64,
    /// Ensemble members per rank.
    pub members_per_rank: usize,
    /// Reverse-SDE steps per analysis.
    pub sde_steps: usize,
}

/// Calibrated per-element throughput of the EnSF update on one GCD
/// [score-element-updates/s]: reproduces the paper's 0.4 s per step at
/// dim = 10⁶ (20 members, 50 SDE steps → 10⁹ updates in 0.4 s).
pub const ENSF_GCD_RATE: f64 = 2.5e9;

/// Predicted EnSF analysis time [s] on `gcds` ranks.
pub fn ensf_step_time(topo: &Topology, job: &EnsfJob, gcds: usize) -> f64 {
    let work = job.dim as f64 * job.members_per_rank as f64 * job.sde_steps as f64;
    let compute = work / ENSF_GCD_RATE;
    // Final "MPI reduce" of the analysis mean (one state vector, f64).
    let reduce = collective_time(topo, Collective::AllReduce, gcds, job.dim * 8);
    compute + reduce
}

/// Modeled compute time [s] of one reverse-SDE step on one rank of the
/// particle-sharded analysis: the rank scores its block of `particles`
/// over the full `dim`-component state at the calibrated
/// [`ENSF_GCD_RATE`]. The elastic cycle driver prices its per-cycle
/// deadline budget with this — ranks only meet at the cycle's one gather,
/// so the analysis costs the *worst* rank's figure (largest block ×
/// largest straggler slowdown).
pub fn shard_step_compute_secs(particles: usize, dim: usize) -> f64 {
    particles as f64 * dim as f64 / ENSF_GCD_RATE
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn topo_of(g: usize) -> Topology {
        Topology::frontier(g)
    }

    #[test]
    fn breakdown_components_positive() {
        let job = TrainJob::table2(128);
        let topo = topo_of(1024);
        let b = simulate_step(&topo, &job, Strategy::Ddp, 1024, 120 * MB);
        assert!(b.compute > 0.0 && b.comm_exposed >= 0.0 && b.io > 0.0);
        assert!(b.comm_total >= b.comm_exposed);
        let (fc, fm, fi) = b.fractions();
        assert!((fc + fm + fi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig7_compute_comm_dominate_io_small() {
        for size in [64usize, 128, 256] {
            let job = TrainJob::table2(size);
            let topo = topo_of(1024);
            let strategy =
                if size == 256 { Strategy::ZeroStage1 } else { Strategy::Ddp };
            let b = simulate_step(&topo, &job, strategy, 1024, 120 * MB);
            let (_fc, _fm, fi) = b.fractions();
            assert!(fi < 0.10, "IO must be small for {size}: {fi}");
        }
    }

    #[test]
    fn fig7_comm_share_order() {
        // Paper: 64² has a larger comm share than 128²; 256² (sharded, 2×
        // message volume) also exceeds 128².
        let topo = topo_of(1024);
        let share = |size: usize, strategy: Strategy| {
            let job = TrainJob::table2(size);
            let b = simulate_step(&topo, &job, strategy, 1024, 120 * MB);
            b.fractions().1
        };
        let s64 = share(64, Strategy::Ddp);
        let s128 = share(128, Strategy::Ddp);
        let s256 = share(256, Strategy::FsdpFullShard);
        assert!(s64 > s128, "64² comm share {s64:.3} must exceed 128²'s {s128:.3}");
        assert!(s256 > s128, "256² comm share {s256:.3} must exceed 128²'s {s128:.3}");
    }

    #[test]
    fn fig9_128_reaches_about_86_percent() {
        let job = TrainJob::table2(128);
        let curve = scaling_curve(topo_of, &job, Strategy::Ddp, &[8, 64, 256, 1024], 120 * MB);
        let (g, _tp, eff) = *curve.last().unwrap();
        assert_eq!(g, 1024);
        assert!(
            (0.78..0.95).contains(&eff),
            "128² efficiency at 1024 GCDs should be ≈86%, got {eff:.3}"
        );
    }

    #[test]
    fn fig9_bucket_500mb_beats_200mb_for_256() {
        // Paper: ZeRO stage 1 with the default 200 MB bucket hits the
        // AllReduce dip; ~500 MB works best.
        let job = TrainJob::table2(256);
        let topo = topo_of(1024);
        let t200 =
            simulate_step(&topo, &job, Strategy::ZeroStage1, 1024, 200 * MB).total();
        let t500 =
            simulate_step(&topo, &job, Strategy::ZeroStage1, 1024, 500 * MB).total();
        assert!(t500 < t200, "500MB bucket must beat 200MB: {t500:.3} vs {t200:.3}");
    }

    #[test]
    fn fig9_zero_beats_fsdp_for_256() {
        let job = TrainJob::table2(256);
        let topo = topo_of(1024);
        let zero =
            simulate_step(&topo, &job, Strategy::ZeroStage1, 1024, 500 * MB).total();
        let fsdp_full =
            simulate_step(&topo, &job, Strategy::FsdpFullShard, 1024, 500 * MB).total();
        let fsdp_grad =
            simulate_step(&topo, &job, Strategy::FsdpShardGradOp, 1024, 500 * MB).total();
        assert!(zero < fsdp_full, "{zero:.3} vs full {fsdp_full:.3}");
        assert!(zero < fsdp_grad, "{zero:.3} vs grad_op {fsdp_grad:.3}");
    }

    #[test]
    fn fig9_256_with_tuned_bucket_near_85_percent() {
        let job = TrainJob::table2(256);
        let curve =
            scaling_curve(topo_of, &job, Strategy::ZeroStage1, &[8, 64, 256, 1024], 500 * MB);
        let (_g, _tp, eff) = *curve.last().unwrap();
        // Paper reports ~85%; the simulator's compute-heavy 256² job lands
        // slightly higher — accept the 80–95% band (documented in
        // EXPERIMENTS.md).
        assert!(
            (0.80..0.96).contains(&eff),
            "256² tuned efficiency should be ≈85-92%, got {eff:.3}"
        );
    }

    #[test]
    fn efficiency_degrades_with_scale() {
        let job = TrainJob::table2(128);
        let curve =
            scaling_curve(topo_of, &job, Strategy::Ddp, &[8, 64, 256, 1024], 120 * MB);
        for w in curve.windows(2) {
            assert!(w[1].2 <= w[0].2 + 1e-9, "efficiency must be nonincreasing");
        }
        assert!((curve[0].2 - 1.0).abs() < 1e-12, "baseline efficiency is 1");
    }

    #[test]
    fn fig10_weak_scaling_flat_and_magnitudes() {
        // Paper: ~0.4 s/step at 1M dims, ~28 s at 100M; flat in ranks.
        let job1m = EnsfJob { dim: 1_000_000, members_per_rank: 20, sde_steps: 50 };
        let t8 = ensf_step_time(&topo_of(8), &job1m, 8);
        let t1024 = ensf_step_time(&topo_of(1024), &job1m, 1024);
        assert!((0.3..0.6).contains(&t8), "1M-dim step {t8:.3}");
        assert!(t1024 < 1.3 * t8, "weak scaling must stay flat: {t8:.3} -> {t1024:.3}");

        let job100m = EnsfJob { dim: 100_000_000, members_per_rank: 20, sde_steps: 50 };
        let t100m = ensf_step_time(&topo_of(1024), &job100m, 1024);
        assert!((20.0..45.0).contains(&t100m), "100M-dim step {t100m:.1}");
        // Linear-in-dimension shape.
        assert!(t100m / t1024 > 30.0);
    }

    #[test]
    #[should_panic]
    fn zero_bucket_rejected() {
        let job = TrainJob::table2(64);
        let topo = topo_of(8);
        let _ = simulate_step(&topo, &job, Strategy::Ddp, 8, 0);
    }
}
