//! Seeded unreliable-interconnect fault model.
//!
//! A [`FaultPlan`] describes, per internode channel, the misbehaviour the
//! simulated fabric injects: message drops, duplicates, bounded reorders,
//! bit corruption, extra delivery delay, transient `(src, dst)` partitions,
//! and per-rank NIC crashes at epoch commits. Every decision is drawn from a
//! per-channel RNG seeded from `(plan.seed, src, dst)`, so a plan replays
//! identically for a given simulation — and every injected fault is
//! counted in [`crate::NetStats`].
//!
//! Intranode channels (shared memory) are never faulted: the model targets
//! the interconnect, exactly where the middleware's reliability sublayer
//! operates.

use mpisim_sim::SimTime;

use crate::params::Rank;

/// A transient bidirectional partition between two ranks.
#[derive(Clone, Debug)]
pub struct Partition {
    /// One side of the cut.
    pub a: Rank,
    /// The other side.
    pub b: Rank,
    /// Partition begins (inclusive).
    pub from: SimTime,
    /// Partition heals (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Whether a message `src → dst` departing at `now` is cut.
    pub fn cuts(&self, src: Rank, dst: Rank, now: SimTime) -> bool {
        let pair = (src == self.a && dst == self.b) || (src == self.b && dst == self.a);
        pair && now >= self.from && now < self.until
    }
}

/// The kind of one injected fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// Message delivered twice.
    Duplicate,
    /// Message body corrupted in transit.
    Corrupt,
    /// Message delivered late, letting later channel traffic overtake it.
    Reorder,
    /// Message delivered late without reordering (extra latency).
    Delay,
    /// Message discarded by an active transient partition.
    PartitionDrop,
    /// Message discarded because a rank's NIC crashed.
    CrashDrop,
}

/// A seeded per-channel fault schedule for the simulated interconnect.
///
/// Probabilities are evaluated in the order drop → duplicate → corrupt →
/// reorder → delay, one independent draw each, from a deterministic
/// per-channel stream; a dropped message draws nothing further. Partitions
/// are checked first and are fully deterministic, and so are crashes,
/// which the engine turns into [`crate::Network::nic_down`] calls.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Root seed of every per-channel decision stream.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message body is corrupted in transit.
    pub corrupt_p: f64,
    /// Probability a message is held back so later traffic overtakes it.
    pub reorder_p: f64,
    /// Maximum hold-back of a reordered message (uniform in `(0, window]`).
    pub reorder_window: SimTime,
    /// Probability of extra (order-preserving) delivery delay.
    pub delay_p: f64,
    /// Maximum extra delay (uniform in `(0, max_delay]`).
    pub max_delay: SimTime,
    /// Transient bidirectional partitions.
    pub partitions: Vec<Partition>,
    /// Per-rank NIC death keyed to protocol progress: `(rank, n)` crashes
    /// the rank's NIC the moment it completes its `n`-th epoch commit
    /// (1-based); from then on all traffic to or from the rank is
    /// discarded (the rank itself keeps running — stalls are the
    /// middleware watchdog's problem). The network layer cannot see
    /// epoch commits, so the middleware engine reads this list and drives
    /// [`crate::Network::nic_down`] when the counted commit happens; with
    /// a recovery config armed it also schedules the restart. This makes
    /// "crash any rank at any commit point" an exact, replayable schedule.
    pub crash_at_commit: Vec<(Rank, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a mutation base).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            corrupt_p: 0.0,
            reorder_p: 0.0,
            reorder_window: SimTime::ZERO,
            delay_p: 0.0,
            max_delay: SimTime::ZERO,
            partitions: Vec::new(),
            crash_at_commit: Vec::new(),
        }
    }

    /// Light random loss: ~2% drops plus occasional extra delay. The
    /// reliability sublayer must recover every message.
    pub fn light_loss(seed: u64) -> Self {
        FaultPlan {
            drop_p: 0.02,
            delay_p: 0.05,
            max_delay: SimTime::from_micros(30),
            ..FaultPlan::none(seed)
        }
    }

    /// Heavy duplication and reordering (no loss): stresses the dedup
    /// window and in-order restore.
    pub fn heavy_dup_reorder(seed: u64) -> Self {
        FaultPlan {
            dup_p: 0.15,
            reorder_p: 0.20,
            reorder_window: SimTime::from_micros(40),
            ..FaultPlan::none(seed)
        }
    }

    /// A transient bidirectional partition between ranks 0 and 1 early in
    /// the run; retransmits must carry traffic across the heal.
    pub fn transient_partition(seed: u64) -> Self {
        FaultPlan {
            partitions: vec![Partition {
                a: Rank(0),
                b: Rank(1),
                from: SimTime::from_micros(20),
                until: SimTime::from_micros(2_000),
            }],
            ..FaultPlan::none(seed)
        }
    }

    /// Aggressive loss (~35% drops): with the reliability sublayer off,
    /// essentially no multi-message exchange survives.
    pub fn drop_storm(seed: u64) -> Self {
        FaultPlan { drop_p: 0.35, ..FaultPlan::none(seed) }
    }

    /// Aggressive duplication (~50% of messages delivered twice): without
    /// dedup, grant sequencing and fence accounting break.
    pub fn dup_storm(seed: u64) -> Self {
        FaultPlan { dup_p: 0.5, ..FaultPlan::none(seed) }
    }

    /// Resolve a plan by its CLI name.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "light-loss" => Some(FaultPlan::light_loss(seed)),
            "heavy-dup-reorder" => Some(FaultPlan::heavy_dup_reorder(seed)),
            "transient-partition" => Some(FaultPlan::transient_partition(seed)),
            "drop-storm" => Some(FaultPlan::drop_storm(seed)),
            "dup-storm" => Some(FaultPlan::dup_storm(seed)),
            _ => None,
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.corrupt_p > 0.0
            || self.reorder_p > 0.0
            || self.delay_p > 0.0
            || !self.partitions.is_empty()
            || !self.crash_at_commit.is_empty()
    }

    /// The commit count (1-based) at which `rank`'s NIC crashes, if the
    /// plan schedules a commit-triggered crash for it.
    pub fn crash_commit(&self, rank: Rank) -> Option<u64> {
        self.crash_at_commit.iter().find(|(r, _)| *r == rank).map(|(_, n)| *n)
    }

    /// Whether an active partition cuts `src → dst` at `now`.
    pub fn partitioned(&self, src: Rank, dst: Rank, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.cuts(src, dst, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_bidirectional_and_bounded() {
        let p = FaultPlan::transient_partition(1);
        let (t0, tin, tend) =
            (SimTime::from_micros(10), SimTime::from_micros(100), SimTime::from_micros(3_000));
        assert!(!p.partitioned(Rank(0), Rank(1), t0));
        assert!(p.partitioned(Rank(0), Rank(1), tin));
        assert!(p.partitioned(Rank(1), Rank(0), tin));
        assert!(!p.partitioned(Rank(0), Rank(2), tin));
        assert!(!p.partitioned(Rank(0), Rank(1), tend));
    }

    #[test]
    fn crash_at_commit_lookup_and_activity() {
        let mut p = FaultPlan::none(3);
        assert!(!p.is_active());
        p.crash_at_commit.push((Rank(1), 3));
        assert!(p.is_active(), "a commit-triggered crash makes the plan active");
        assert_eq!(p.crash_commit(Rank(1)), Some(3));
        assert_eq!(p.crash_commit(Rank(0)), None);
    }

    #[test]
    fn named_plans_resolve_and_are_active() {
        let names = ["light-loss", "heavy-dup-reorder", "transient-partition", "drop-storm", "dup-storm"];
        for name in names {
            let plan = FaultPlan::by_name(name, 7).unwrap_or_else(|| panic!("{name}"));
            assert!(plan.is_active(), "{name} must inject something");
        }
        assert!(FaultPlan::by_name("nope", 7).is_none());
        assert!(!FaultPlan::none(7).is_active());
    }
}
