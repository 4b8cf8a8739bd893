//! RCCL collective cost models (Fig. 8).
//!
//! Hierarchical ring α–β model: a collective over `n` GCDs spanning several
//! nodes is bottlenecked by the slower of the intra-node Infinity-Fabric
//! phase and the inter-node Slingshot phase, with per-step launch latencies
//! and an empirical efficiency curve in the message size. Two empirical RCCL
//! effects observed on Frontier are reproduced:
//!
//! * small messages are latency-dominated, so bus bandwidth climbs with
//!   message size;
//! * **AllReduce shows a throughput dip around 256 MB**, where RCCL switches
//!   its internal algorithm/protocol — the effect the paper exploits when
//!   tuning the DeepSpeed bucket size (Fig. 9).

use crate::topology::Topology;

/// The three collectives that dominate data-parallel training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Reduce + broadcast (DDP gradient sync, ZeRO-1/2 in bucketed form).
    AllReduce,
    /// Gather shards to all ranks (FSDP/ZeRO-3 parameter unsharding).
    AllGather,
    /// Reduce and scatter shards (FSDP/ZeRO gradient sharding).
    ReduceScatter,
}

impl Collective {
    /// Data-movement multiplier of the ring algorithm relative to the
    /// message size: AllReduce moves `2 (n−1)/n · S`, the others
    /// `(n−1)/n · S`.
    fn traffic_factor(self, n: usize) -> f64 {
        let ring = (n as f64 - 1.0) / n as f64;
        match self {
            Collective::AllReduce => 2.0 * ring,
            Collective::AllGather | Collective::ReduceScatter => ring,
        }
    }
}

/// Message-size efficiency: ramps from latency-bound to bandwidth-bound.
/// `s_half` is the size at which half the peak is achieved.
fn size_efficiency(bytes: f64, s_half: f64) -> f64 {
    bytes / (bytes + s_half)
}

/// The empirical AllReduce protocol-switch dip near 256 MB: a smooth
/// notch that suppresses throughput by up to ~45% at the center.
fn allreduce_dip(bytes: f64) -> f64 {
    let center = 256.0 * 1024.0 * 1024.0;
    let x = (bytes / center).ln();
    // Gaussian notch in log-size, width ~ half a decade.
    1.0 - 0.55 * (-(x * x) / (2.0 * 0.65f64 * 0.65)).exp()
}

/// Predicted wall time [s] of one collective of `bytes` per rank over
/// `gcds` ranks on `topo`.
pub fn collective_time(topo: &Topology, op: Collective, gcds: usize, bytes: u64) -> f64 {
    assert!(gcds >= 1);
    assert!(gcds <= topo.total_gcds(), "collective exceeds job size");
    if gcds == 1 || bytes == 0 {
        return topo.intra_latency;
    }
    let s = bytes as f64;
    let traffic = op.traffic_factor(gcds) * s;

    let within_node = gcds <= topo.gcds_per_node;
    // RCCL sustains only ~25% of Slingshot line rate for cross-node rings
    // (protocol + rail-routing overheads measured on Frontier).
    const RCCL_INTER_EFFICIENCY: f64 = 0.25;
    let (link_bw, latency, mut steps) = if within_node {
        (topo.intra_node_bw, topo.intra_latency, gcds as f64 - 1.0)
    } else {
        // Hierarchical ring: the inter-node phase over `nodes` NICs
        // bottlenecks; intra-node hops add latency steps.
        let nodes = gcds.div_ceil(topo.gcds_per_node);
        (
            topo.inter_node_bw * RCCL_INTER_EFFICIENCY,
            topo.inter_latency,
            nodes as f64 + topo.gcds_per_node as f64,
        )
    };
    // AllReduce benefits from RCCL's low-latency protocols; AG/RS pay the
    // full ring setup both ways.
    if op != Collective::AllReduce {
        steps *= 2.0;
    }

    // Effective bandwidth with message-size ramp and protocol effects.
    let mut eff = size_efficiency(s, 8.0 * 1024.0 * 1024.0);
    if op == Collective::AllReduce {
        eff *= allreduce_dip(s);
    } else {
        // AG/RS sustain slightly lower peak efficiency on RCCL.
        eff *= 0.92;
    }

    latency * steps + traffic / (link_bw * eff)
}

/// NCCL-convention "bus bandwidth" [bytes/s]: the normalized throughput the
/// paper plots in Fig. 8 (`busbw = traffic_factor · S / t`).
pub fn bus_bandwidth(topo: &Topology, op: Collective, gcds: usize, bytes: u64) -> f64 {
    let t = collective_time(topo, op, gcds, bytes);
    op.traffic_factor(gcds) * bytes as f64 / t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(gcds: usize) -> Topology {
        Topology::frontier(gcds)
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn traffic_factors() {
        assert!((Collective::AllReduce.traffic_factor(2) - 1.0).abs() < 1e-12);
        assert!((Collective::AllGather.traffic_factor(2) - 0.5).abs() < 1e-12);
        // Large n: AllReduce → 2, others → 1.
        assert!((Collective::AllReduce.traffic_factor(1024) - 2.0).abs() < 0.01);
        assert!((Collective::ReduceScatter.traffic_factor(1024) - 1.0).abs() < 0.01);
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let t = topo(64);
        let small = bus_bandwidth(&t, Collective::AllGather, 64, MB);
        let large = bus_bandwidth(&t, Collective::AllGather, 64, 1024 * MB);
        assert!(large > 2.0 * small, "{small:.3e} vs {large:.3e}");
    }

    #[test]
    fn allreduce_dip_at_256mb() {
        let t = topo(128);
        let at_64 = bus_bandwidth(&t, Collective::AllReduce, 128, 64 * MB);
        let at_256 = bus_bandwidth(&t, Collective::AllReduce, 128, 256 * MB);
        let at_1g = bus_bandwidth(&t, Collective::AllReduce, 128, 1024 * MB);
        assert!(at_256 < at_64, "dip must undercut 64MB: {at_256:.3e} vs {at_64:.3e}");
        assert!(at_256 < at_1g, "dip must undercut 1GB: {at_256:.3e} vs {at_1g:.3e}");
    }

    #[test]
    fn allgather_matches_reduce_scatter() {
        let t = topo(256);
        for mb in [16u64, 64, 256, 1024] {
            let ag = bus_bandwidth(&t, Collective::AllGather, 256, mb * MB);
            let rs = bus_bandwidth(&t, Collective::ReduceScatter, 256, mb * MB);
            assert!((ag - rs).abs() / ag < 1e-9, "AG and RS should coincide");
        }
    }

    #[test]
    fn allreduce_beats_others_at_64mb_at_scale() {
        // Paper: "For a message size of 64M, the AllReduce significantly
        // outperforms the other two at scale."
        let t = topo(1024);
        let ar = bus_bandwidth(&t, Collective::AllReduce, 1024, 64 * MB);
        let ag = bus_bandwidth(&t, Collective::AllGather, 1024, 64 * MB);
        assert!(ar > 1.3 * ag, "{ar:.3e} vs {ag:.3e}");
    }

    #[test]
    fn large_messages_converge_across_collectives() {
        // Paper: "for a larger message size, all three schemes perform more
        // or less the same" — within ~25% at 1 GB (away from the dip).
        let t = topo(1024);
        let ar = bus_bandwidth(&t, Collective::AllReduce, 1024, 1024 * MB);
        let ag = bus_bandwidth(&t, Collective::AllGather, 1024, 1024 * MB);
        let ratio = ar / ag;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn single_rank_is_cheap() {
        let t = topo(8);
        let time = collective_time(&t, Collective::AllReduce, 1, 1024 * MB);
        assert!(time < 1e-4);
    }

    #[test]
    fn more_ranks_more_latency() {
        let t = topo(1024);
        let small = collective_time(&t, Collective::AllReduce, 16, MB);
        let big = collective_time(&t, Collective::AllReduce, 1024, MB);
        assert!(big > small, "latency term must grow with ranks");
    }

    #[test]
    fn intra_node_is_faster_than_cross_node() {
        let t = topo(64);
        let within = collective_time(&t, Collective::AllReduce, 8, 256 * MB);
        let across = collective_time(&t, Collective::AllReduce, 64, 256 * MB);
        assert!(across > within);
    }

    #[test]
    #[should_panic]
    fn oversized_collective_rejected() {
        let t = topo(8);
        let _ = collective_time(&t, Collective::AllReduce, 64, MB);
    }
}
