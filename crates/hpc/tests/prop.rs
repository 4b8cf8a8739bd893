//! Property-based tests for the performance models and the simulated MPI.

use hpc::mpi::run_world;
use hpc::{
    bus_bandwidth, collective_time, simulate_step, Collective, Strategy, Topology, TrainJob,
};
use proptest::prelude::*;

/// Seeded per-rank payload: deterministic, distinct across `(rank, i)`.
fn payload(seed: u64, rank: usize, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank * 8191 + i) as u64)
        .wrapping_mul(0xD129_0B26_88CC_FC91);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

const MB: u64 = 1024 * 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Collective times are positive and monotone in message size.
    #[test]
    fn collective_time_monotone_in_size(
        gcds_exp in 1u32..10,
        mb in 1u64..512,
    ) {
        let gcds = 1usize << gcds_exp;
        let topo = Topology::frontier(gcds);
        for op in [Collective::AllReduce, Collective::AllGather, Collective::ReduceScatter] {
            let t1 = collective_time(&topo, op, gcds, mb * MB);
            let t2 = collective_time(&topo, op, gcds, 2 * mb * MB);
            prop_assert!(t1 > 0.0 && t1.is_finite());
            prop_assert!(t2 >= t1, "{op:?}: doubling size reduced time");
        }
    }

    /// Bus bandwidth never exceeds the fastest physical link.
    #[test]
    fn busbw_bounded_by_hardware(
        gcds_exp in 1u32..10,
        mb in 1u64..2048,
    ) {
        let gcds = 1usize << gcds_exp;
        let topo = Topology::frontier(gcds);
        for op in [Collective::AllReduce, Collective::AllGather, Collective::ReduceScatter] {
            let bw = bus_bandwidth(&topo, op, gcds, mb * MB);
            prop_assert!(bw <= topo.paired_gcd_bw * 1.001, "{op:?} exceeded hardware: {bw:.3e}");
        }
    }

    /// Memory accounting: sharding over more ranks never increases the
    /// per-GCD footprint, and DDP is always the upper bound.
    #[test]
    fn memory_monotone_in_ranks(
        params in 1_000_000u64..10_000_000_000,
        ranks_exp in 0u32..11,
    ) {
        let ranks = 1usize << ranks_exp;
        let ddp = Strategy::Ddp.memory_per_gcd(params, ranks, 8);
        for s in [
            Strategy::ZeroStage1,
            Strategy::ZeroStage2,
            Strategy::ZeroStage3,
            Strategy::FsdpHybrid,
        ] {
            let m = s.memory_per_gcd(params, ranks, 8);
            prop_assert!(m <= ddp + 1e-6, "{s:?} exceeded DDP");
            if ranks > 1 {
                let m2 = s.memory_per_gcd(params, 2 * ranks, 8);
                prop_assert!(m2 <= m + 1e-6, "{s:?} grew with ranks");
            }
        }
    }

    /// Step simulation: totals are positive, fractions sum to 1, and
    /// comm_exposed never exceeds comm_total.
    #[test]
    fn step_breakdown_consistent(
        size_idx in 0usize..3,
        gcds_exp in 3u32..10,
        bucket_mb in 10u64..1000,
    ) {
        let size = [64usize, 128, 256][size_idx];
        let gcds = 1usize << gcds_exp;
        let topo = Topology::frontier(gcds);
        let job = TrainJob::table2(size);
        for s in [Strategy::Ddp, Strategy::ZeroStage1, Strategy::FsdpFullShard] {
            let b = simulate_step(&topo, &job, s, gcds, bucket_mb * MB);
            prop_assert!(b.total() > 0.0 && b.total().is_finite());
            prop_assert!(b.comm_exposed <= b.comm_total + 1e-12);
            let (c, m, i) = b.fractions();
            prop_assert!((c + m + i - 1.0).abs() < 1e-9);
        }
    }

    /// Both allgathers move every payload exactly — each rank's block in
    /// group order, replicated on every rank — for world sizes 1..=8 and
    /// ragged per-rank lengths.
    #[test]
    fn mpi_data_movement_collectives_are_exact(
        size in 1usize..=8,
        base_len in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        // Ragged parts: rank r owns base_len + (r % 3) elements.
        let part = |r: usize| -> Vec<f64> {
            (0..base_len + r % 3).map(|i| payload(seed, r, i)).collect()
        };
        let parts: Vec<Vec<f64>> = (0..size).map(part).collect();
        let concat: Vec<f64> = parts.concat();
        let results = run_world(size, |comm| {
            let mine = part(comm.rank());
            let all = comm.try_allgather(&mine).unwrap();
            assert_eq!(all, parts, "allgather lost rank order");
            comm.try_allgather_concat(&mine).unwrap()
        });
        for (r, got) in results.iter().enumerate() {
            prop_assert_eq!(got, &concat, "allgather_concat wrong on rank {}", r);
        }
    }
}
