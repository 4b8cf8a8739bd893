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

    /// Simulated MPI: allreduce equals the analytic sum for any world size
    /// and payload.
    #[test]
    fn mpi_allreduce_correct(
        size in 1usize..9,
        payload in prop::collection::vec(-100.0f64..100.0, 1..32),
    ) {
        let len = payload.len();
        let results = run_world(size, |comm| {
            // Each rank contributes payload * (rank+1).
            let mut buf: Vec<f64> =
                payload.iter().map(|v| v * (comm.rank() + 1) as f64).collect();
            comm.allreduce_sum(&mut buf);
            buf
        });
        let factor: f64 = (1..=size).map(|r| r as f64).sum();
        for r in &results {
            prop_assert_eq!(r.len(), len);
            for (got, want) in r.iter().zip(&payload) {
                prop_assert!((got - want * factor).abs() < 1e-9 * (1.0 + want.abs() * factor));
            }
        }
    }

    /// Simulated MPI point-to-point: tagged streams from several senders,
    /// consumed by selective recvs in an arbitrary interleaving, arrive with
    /// no loss, no duplication, no tag/source mixups, and in send order per
    /// `(src, tag)` — MPI's non-overtaking guarantee. The receiver's
    /// schedule is a seeded permutation of the whole message multiset, so
    /// many messages of one key sit in the out-of-order buffer while other
    /// keys drain (the scenario that exposed the `swap_remove` reordering).
    #[test]
    fn mpi_tagged_streams_fifo_no_loss_no_dup(
        n_senders in 1usize..4,
        counts in prop::collection::vec(0usize..5, 2..7),
        order_seed in 0u64..u64::MAX,
    ) {
        // Key k holds counts[k] messages and maps to a distinct (src, tag).
        let key = |k: usize| (1 + k % n_senders, (k / n_senders) as u64);
        let total: usize = counts.iter().sum();
        let counts = &counts;
        let results = run_world(n_senders + 1, |comm| {
            if comm.rank() == 0 {
                // Receive schedule: every (key, i) occurrence, permuted by a
                // seeded Fisher–Yates. Within one key the i-th selective
                // recv must yield the i-th message sent.
                let mut sched: Vec<usize> = Vec::new();
                for (k, &c) in counts.iter().enumerate() {
                    sched.extend(std::iter::repeat_n(k, c));
                }
                let mut s = order_seed | 1;
                for i in (1..sched.len()).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    sched.swap(i, j);
                }
                let mut next_seq = vec![0usize; counts.len()];
                for &k in &sched {
                    let (src, tag) = key(k);
                    let got = comm.recv(src, tag);
                    assert_eq!(got.len(), 3, "payload shape");
                    assert_eq!(got[0] as usize, src, "source mixup");
                    assert_eq!(got[1] as u64, tag, "tag mixup");
                    assert_eq!(
                        got[2] as usize, next_seq[k],
                        "FIFO violated for src {src} tag {tag}"
                    );
                    next_seq[k] += 1;
                }
                sched.len()
            } else {
                // Each sender emits its keys' messages in (key, seq) order.
                let mut sent = 0usize;
                for (k, &c) in counts.iter().enumerate() {
                    let (src, tag) = key(k);
                    if src != comm.rank() {
                        continue;
                    }
                    for seq in 0..c {
                        comm.send(0, tag, &[src as f64, tag as f64, seq as f64]);
                        sent += 1;
                    }
                }
                sent
            }
        });
        // Conservation: the receiver consumed exactly what the senders sent.
        prop_assert_eq!(results[0], total);
        let sent_total: usize = results[1..].iter().sum();
        prop_assert_eq!(sent_total, total);
    }

    /// Allreduce equals the *bitwise* serial fold in ascending rank order
    /// for every world size 1..=8 — the property the distributed filter's
    /// determinism contract leans on (the root accumulates rank 0, 1, 2, …
    /// regardless of which thread's contribution arrives first).
    #[test]
    fn mpi_allreduce_is_bitwise_serial_fold(
        size in 1usize..=8,
        len in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let results = run_world(size, |comm| {
            let mut buf: Vec<f64> =
                (0..len).map(|i| payload(seed, comm.rank(), i)).collect();
            comm.allreduce_sum(&mut buf);
            buf
        });
        // Serial fold, strictly ascending rank order.
        let expected: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = payload(seed, 0, i);
                for r in 1..size {
                    acc += payload(seed, r, i);
                }
                acc
            })
            .collect();
        let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        for (r, got) in results.iter().enumerate() {
            let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&bits, &want, "rank {} disagrees with the serial fold", r);
        }
    }

    /// The data-movement collectives (broadcast, scatter, gather, allgather
    /// and its concatenating variant) move every payload exactly — right
    /// block to the right rank, rank order preserved — for world sizes
    /// 1..=8 and ragged per-rank lengths.
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
            let r = comm.rank();
            // Scatter: rank 0 distributes, each rank gets exactly its part.
            let scattered =
                comm.scatter(if r == 0 { Some(&parts) } else { None });
            assert_eq!(scattered, parts[r], "scatter gave rank {r} the wrong block");
            // Gather: root reassembles the parts in rank order.
            if let Some(gathered) = comm.gather(&scattered) {
                assert_eq!(gathered, parts, "gather shuffled the parts");
            }
            // Broadcast: everyone ends with rank 0's payload.
            let mut b = if r == 0 { parts[0].clone() } else { Vec::new() };
            comm.broadcast(&mut b);
            assert_eq!(b, parts[0], "broadcast corrupted rank 0's payload");
            // Allgather (+ concat): replicated, rank-ordered, ragged-safe.
            let all = comm.allgather(&scattered);
            assert_eq!(all, parts, "allgather lost rank order");
            comm.allgather_concat(&scattered)
        });
        for (r, got) in results.iter().enumerate() {
            prop_assert_eq!(got, &concat, "allgather_concat wrong on rank {}", r);
        }
    }
}
