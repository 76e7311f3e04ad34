//! Cluster topology and network parameters.

use mpisim_sim::SimTime;

use crate::fault::FaultPlan;

/// A process rank within the simulated job (dense, zero-based).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub usize);

impl Rank {
    /// The rank as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Placement of ranks onto nodes: rank `r` lives on node `r / cores_per_node`
/// (block placement, the common MPI default).
#[derive(Clone, Debug)]
pub struct Topology {
    n_ranks: usize,
    cores_per_node: usize,
}

impl Topology {
    /// Create a topology for `n_ranks` ranks with `cores_per_node` ranks per
    /// node.
    pub fn new(n_ranks: usize, cores_per_node: usize) -> Self {
        assert!(n_ranks > 0, "topology needs at least one rank");
        assert!(cores_per_node > 0, "cores_per_node must be positive");
        Topology {
            n_ranks,
            cores_per_node,
        }
    }

    /// One rank per node: every channel is internode.
    pub fn all_internode(n_ranks: usize) -> Self {
        Topology::new(n_ranks, 1)
    }

    /// Total ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Ranks per node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> usize {
        rank.0 / self.cores_per_node
    }

    /// Whether two ranks share a node (intranode channel).
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// One-way internode latency (α) for any message. With [`INTER_BW`] this
/// is calibrated against the paper's testbed (Mellanox ConnectX QDR
/// InfiniBand, Nehalem nodes): a 1 MB put completes in ≈340 µs, as quoted
/// in §VIII.A.
pub(crate) const INTER_LATENCY: SimTime = SimTime::from_nanos(1_500);
/// Internode bandwidth in bytes/second (β).
pub(crate) const INTER_BW: f64 = 3.1e9;
/// One-way intranode (shared-memory) latency.
pub(crate) const INTRA_LATENCY: SimTime = SimTime::from_nanos(300);
/// Intranode copy bandwidth in bytes/second.
pub(crate) const INTRA_BW: f64 = 6.0e9;
/// Modeled wire size of a message header / control packet, bytes.
pub(crate) const HEADER_BYTES: usize = 64;

/// Time to push `bytes` through a link of `bw` bytes/second.
pub(crate) fn serialization(bytes: usize, bw: f64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / bw)
}

/// What a job may vary about the network: flow control, jitter and
/// faults. The first-order cost model under them — per-message latency
/// `α`, bandwidth `β`, store-and-forward links with per-NIC serialization —
/// is fixed: the calibrated constants of this module, under which a 1 MB
/// put completes in ≈340 µs as on the paper's testbed.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Outstanding-message cap per internode channel (send-queue depth /
    /// flow-control credits). `0` means unlimited.
    pub channel_credits: u32,
    /// Outstanding-message cap across all internode channels of one rank
    /// (models HCA send-queue exhaustion). `0` means unlimited.
    pub rank_credits: u32,
    /// Maximum deterministic per-message latency jitter (uniform in
    /// `[0, jitter]`, drawn from a seeded stream). Zero disables it.
    /// Per-channel delivery order is preserved regardless.
    pub jitter: SimTime,
    /// Unreliable-interconnect fault schedule (`None` = the fabric is
    /// perfectly reliable and in order, the pre-fault-model behaviour).
    /// Faults apply to internode channels only.
    pub faults: Option<FaultPlan>,
}

impl NetParams {
    /// The paper's testbed: the calibrated cost model with 16 credits per
    /// channel and 256 per rank, no jitter and no faults.
    pub fn qdr_infiniband() -> Self {
        NetParams {
            channel_credits: 16,
            rank_credits: 256,
            jitter: SimTime::ZERO,
            faults: None,
        }
    }

    /// An idealized network with no flow-control limits; useful in unit
    /// tests that focus on middleware logic rather than contention.
    pub fn unlimited() -> Self {
        NetParams {
            channel_credits: 0,
            rank_credits: 0,
            ..NetParams::qdr_infiniband()
        }
    }

    /// Deterministic adversarial parameter set number `index`, used by the
    /// conformance harness to stress schedules without changing semantics.
    ///
    /// Cycles through the cross product of four jitter magnitudes (off,
    /// sub-latency, ≈latency, ≫latency) and four flow-control settings
    /// (calibrated, starved-to-one-credit, nearly starved, unlimited) — 16
    /// distinct profiles; higher indices wrap. Credit starvation only delays
    /// sends (the backlog drains on acknowledgement), and jitter preserves
    /// per-channel delivery order, so every profile is a legal network.
    pub fn perturbation_profile(index: u64) -> Self {
        const JITTER_NS: [u64; 4] = [0, 200, 2_000, 20_000];
        const CREDITS: [(u32, u32); 4] = [(16, 256), (1, 2), (2, 4), (0, 0)];
        let jitter = JITTER_NS[(index % 4) as usize];
        let (channel_credits, rank_credits) = CREDITS[((index / 4) % 4) as usize];
        NetParams {
            jitter: SimTime::from_nanos(jitter),
            channel_credits,
            rank_credits,
            ..NetParams::qdr_infiniband()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_placement() {
        let t = Topology::new(10, 4);
        assert_eq!(t.node_of(Rank(0)), 0);
        assert_eq!(t.node_of(Rank(3)), 0);
        assert_eq!(t.node_of(Rank(4)), 1);
        assert_eq!(t.node_of(Rank(9)), 2);
        assert!(t.same_node(Rank(0), Rank(3)));
        assert!(!t.same_node(Rank(3), Rank(4)));
    }

    #[test]
    fn all_internode_separates_everyone() {
        let t = Topology::all_internode(5);
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(t.same_node(Rank(a), Rank(b)), a == b);
            }
        }
    }

    #[test]
    fn qdr_calibration_one_mb_around_340us() {
        let total = INTER_LATENCY + serialization(1 << 20, INTER_BW);
        let us = total.as_micros_f64();
        assert!(
            (330.0..345.0).contains(&us),
            "1MB transfer modeled at {us} µs, expected ≈340 µs"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_topology_rejected() {
        let _ = Topology::new(0, 1);
    }

    #[test]
    fn perturbation_profiles_are_distinct_and_wrap() {
        let mut seen = Vec::new();
        for i in 0..16u64 {
            let p = NetParams::perturbation_profile(i);
            let key = (p.jitter, p.channel_credits, p.rank_credits);
            assert!(!seen.contains(&key), "profile {i} duplicates an earlier one");
            seen.push(key);
        }
        // Index 0 is the calibrated baseline; indices wrap mod 16.
        assert_eq!(NetParams::perturbation_profile(0).jitter, SimTime::ZERO);
        assert_eq!(NetParams::perturbation_profile(0).channel_credits, 16);
        let a = NetParams::perturbation_profile(3);
        let b = NetParams::perturbation_profile(19);
        assert_eq!((a.jitter, a.channel_credits), (b.jitter, b.channel_credits));
    }
}
