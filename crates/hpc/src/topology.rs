//! Frontier machine model (§IV of the paper).
//!
//! Each node: one 3rd-gen EPYC + four MI250X, each MI250X exposing two
//! Graphics Compute Dies (GCDs) — eight "effective GPUs" per node with
//! 64 GB HBM each. GCDs are linked by Infinity Fabric at 100 GB/s
//! (200 GB/s between the two GCDs of one MI250X); nodes are linked by a
//! Slingshot-11 NIC at 100 GB/s. Frontier has 9408 nodes (75,264 GCDs).

/// Static description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of nodes in the job.
    pub nodes: usize,
    /// GCDs ("effective GPUs") per node.
    pub gcds_per_node: usize,
    /// HBM capacity per GCD [bytes].
    pub hbm_per_gcd: u64,
    /// Infinity-Fabric bandwidth between GCDs in a node [bytes/s].
    pub intra_node_bw: f64,
    /// Bandwidth between the two GCDs of one MI250X [bytes/s].
    pub paired_gcd_bw: f64,
    /// Slingshot-11 injection bandwidth per node [bytes/s].
    pub inter_node_bw: f64,
    /// Per-message launch/latency overhead for intra-node hops [s].
    pub intra_latency: f64,
    /// Per-message latency for inter-node hops [s].
    pub inter_latency: f64,
}

impl Topology {
    /// A Frontier job occupying `gcds` effective GPUs (rounded up to whole
    /// nodes).
    ///
    /// # Panics
    /// Panics if `gcds == 0` or exceeds the full machine (75,264 GCDs).
    pub fn frontier(gcds: usize) -> Self {
        assert!(gcds > 0, "need at least one GCD");
        assert!(gcds <= 9408 * 8, "Frontier has 75,264 GCDs");
        let nodes = gcds.div_ceil(8);
        Topology {
            nodes,
            gcds_per_node: 8,
            hbm_per_gcd: 64 * (1 << 30),
            intra_node_bw: 100.0e9,
            paired_gcd_bw: 200.0e9,
            inter_node_bw: 100.0e9,
            intra_latency: 5.0e-6,
            inter_latency: 15.0e-6,
        }
    }

    /// Total GCDs in the job.
    pub fn total_gcds(&self) -> usize {
        self.nodes * self.gcds_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_shape() {
        let t = Topology::frontier(1024);
        assert_eq!(t.nodes, 128);
        assert_eq!(t.total_gcds(), 1024);
        assert_eq!(t.hbm_per_gcd, 64 * (1 << 30));
    }

    #[test]
    fn partial_node_rounds_up() {
        let t = Topology::frontier(9);
        assert_eq!(t.nodes, 2);
        assert_eq!(t.total_gcds(), 16);
    }

    #[test]
    fn single_node_job() {
        let t = Topology::frontier(8);
        assert_eq!(t.nodes, 1);
    }

    #[test]
    fn bandwidth_hierarchy() {
        let t = Topology::frontier(64);
        assert!(t.paired_gcd_bw > t.intra_node_bw);
        assert!(t.inter_latency > t.intra_latency);
    }

    #[test]
    #[should_panic]
    fn zero_gcds_rejected() {
        let _ = Topology::frontier(0);
    }

    #[test]
    #[should_panic]
    fn oversubscription_rejected() {
        let _ = Topology::frontier(80_000);
    }
}
