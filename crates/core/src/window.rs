//! Per-rank window state: exposed memory, the ω matching triples, the
//! deferred-epoch queue, target-side grant sequencing, the lock manager,
//! fence bookkeeping, and flush requests.

use std::collections::{BTreeMap, HashMap, VecDeque};

use mpisim_net::U64Fifo;

use crate::config::WinInfo;
use crate::epoch::{EpochKind, EpochObj, Slot};
use crate::error::{RmaError, RmaResult};
use crate::lock::LockMgr;
use crate::types::{EpochId, Rank, Req};
use crate::worklist::WorkList;

/// Capacity of each intranode notification FIFO, packets.
pub const FIFO_CAPACITY: usize = 1024;

/// Retired epoch objects kept around for reuse, per (window, rank) side.
/// Steady-state workloads rarely hold more than a handful of epochs open,
/// so a small cap bounds the arena without ever forcing a fresh
/// allocation in practice.
pub const EPOCH_POOL_CAP: usize = 32;

/// Target-side grant sequencing toward one origin (§VII.B).
///
/// Grants to an origin must be emitted in that origin's access-id order:
/// grant `k+1` cannot be emitted before grant `k`. Exposure grants consume
/// the next id positionally; lock grants carry their id explicitly in the
/// lock request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrantSeq {
    /// Exposure grants emitted so far (the origin's `g_r` mirrors this).
    pub g_sent: u64,
    /// Activated exposures whose grant has not been emitted yet.
    pub exposure_credits: u64,
    /// Lock plane: received, ungranted lock requests by lock access id.
    pub pending_locks: BTreeMap<u64, crate::types::LockKind>,
    /// Lock plane: lock grants emitted so far (the origin's `g_lock`
    /// mirrors this).
    pub gl_sent: u64,
}

/// ω matching state toward one peer (§VII.B): the paper's triple
/// `⟨a_l, e_l, g_r⟩`, the split lock plane, the done high-water mark and
/// the target-side grant sequencing. Every counter is monotonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerOmega {
    /// Accesses requested from me to peer (`a_l`).
    pub a: u64,
    /// Exposures opened from me to peer (`e_l`).
    pub e: u64,
    /// Accesses granted to me by peer (`g_r`; updated one-sidedly by the
    /// peer via grant packets).
    pub g: u64,
    /// Lock-plane request counter: lock epochs opened from me toward peer.
    /// Kept separate from the GATS triple so exposure grants can never be
    /// confused with lock grants when both planes are in flight (see
    /// DESIGN.md, "deviation: split matching planes").
    pub a_lock: u64,
    /// Lock-plane grants received from peer.
    pub g_lock: u64,
    /// Highest GATS done id received from peer as an origin.
    pub gats_done_recv: u64,
    /// Target-side grant sequencing toward peer as an origin.
    pub grants: GrantSeq,
}

/// What a read of a never-written peer sees.
static UNTOUCHED: PeerOmega = PeerOmega {
    a: 0,
    e: 0,
    g: 0,
    a_lock: 0,
    g_lock: 0,
    gats_done_recv: 0,
    grants: GrantSeq {
        g_sent: 0,
        exposure_credits: 0,
        pending_locks: BTreeMap::new(),
        gl_sent: 0,
    },
};

/// One window side's ω state: a [`PeerOmega`] per peer it has ever
/// synchronised with, so host memory is O(active peers) rather than
/// O(ranks) per (window, rank). Records appear on first write and, the
/// counters being monotonic, are never removed. The same type is the live
/// table, the checkpointed snapshot and the stall report's diagnostic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OmegaTable(BTreeMap<Rank, PeerOmega>);

impl OmegaTable {
    /// The record toward `peer`; all-zero, and *not* inserted, if this
    /// side never wrote one.
    pub fn peer(&self, peer: Rank) -> &PeerOmega {
        self.0.get(&peer).unwrap_or(&UNTOUCHED)
    }

    /// The record toward `peer`, created all-zero on first use.
    pub fn peer_mut(&mut self, peer: Rank) -> &mut PeerOmega {
        self.0.entry(peer).or_default()
    }

    /// Peers with a record.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no peer has a record yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The stored records in peer-rank order.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &PeerOmega)> {
        self.0.iter().map(|(r, p)| (*r, p))
    }
}

/// What one peer has contributed to one fence sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FencePeer {
    /// Data messages received from the peer.
    pub got: u64,
    /// Data messages the peer's `FenceDone` announced, once it is in.
    pub expected: Option<u64>,
}

impl FencePeer {
    /// Announcement received and all announced data arrived. Tested per
    /// peer as `got ≥ expected`: a summed `arrived == expected` would hang
    /// on a duplicated data message.
    pub fn satisfied(&self) -> bool {
        self.expected.is_some_and(|e| self.got >= e)
    }
}

/// One fence sequence's completion record: every peer's contribution and
/// how many of them are satisfied, so the closing fence completes when the
/// count reaches the job size instead of rescanning the peers per
/// notification. Created on the first arrival (data can precede the local
/// fence epoch), retired with the epoch.
#[derive(Debug)]
pub struct FenceTally {
    peers: Vec<FencePeer>,
    satisfied: usize,
}

impl FenceTally {
    fn new(n_ranks: usize) -> Self {
        FenceTally { peers: vec![FencePeer::default(); n_ranks], satisfied: 0 }
    }

    /// Apply one arrival from `peer` and keep the satisfied count in step.
    pub fn update(&mut self, peer: Rank, f: impl FnOnce(&mut FencePeer)) {
        let p = &mut self.peers[peer.idx()];
        let was = p.satisfied();
        f(p);
        debug_assert!(!was || p.satisfied(), "a satisfied fence peer stays satisfied");
        if !was && p.satisfied() {
            self.satisfied += 1;
        }
    }

    /// Every peer's announcement and announced data are in.
    pub fn complete(&self) -> bool {
        debug_assert_eq!(
            self.satisfied,
            self.peers.iter().filter(|p| p.satisfied()).count(),
            "fence tally out of step with its peers"
        );
        self.satisfied == self.peers.len()
    }

    /// Per-peer contributions, by rank.
    pub fn peers(&self) -> &[FencePeer] {
        &self.peers
    }
}

/// An outstanding (nonblocking) flush request, age-stamped per §VII.C.
#[derive(Debug)]
pub struct FlushState {
    /// The passive epochs being flushed (several for `flush_all` when
    /// multiple single-target lock epochs are open).
    pub epochs: Vec<EpochId>,
    /// Specific target, or `None` for the `_all` variants.
    pub target: Option<Rank>,
    /// Age of the RMA call that immediately precedes the flush.
    pub stamp: u64,
    /// Local-only flush (`flush_local` family).
    pub local_only: bool,
    /// Completion counter: incomplete covered ops ("assigned from the
    /// number of RMA calls yet to complete", §VII.C).
    pub remaining: u64,
    /// Request completed when `remaining` reaches zero.
    pub req: Req,
}

/// One rank's side of one RMA window.
pub struct WinRank {
    /// The exposed memory region.
    pub mem: Vec<u8>,
    /// Info-object flags.
    pub info: WinInfo,

    /// All epochs not yet retired, by id.
    pub epochs: HashMap<u64, EpochObj>,
    /// Epoch ids in open order, not yet internally complete (the deferred
    /// epoch queue plus the active set).
    pub order: VecDeque<EpochId>,
    /// Next epoch id to assign.
    pub next_epoch: u64,
    /// The open set: the application-level currently open epochs by slot
    /// (at most one per kind, except single-target lock epochs, which MPI
    /// allows several of at once, to distinct targets).
    pub open: BTreeMap<Slot, EpochId>,

    /// ω matching state (§VII.B), one record per peer this side has ever
    /// synchronised with.
    pub omega: OmegaTable,
    /// Origins whose grant sequence may have emission work pending,
    /// drained by the grant pump.
    pub(crate) grant_dirty: WorkList<Rank>,
    /// Target-side lock manager.
    pub lock_mgr: LockMgr,

    // ---- fence bookkeeping (window-level: data can arrive before the
    // local fence epoch object exists) ----
    /// Completion record per fence seq that is not retired yet.
    pub fences: BTreeMap<u64, FenceTally>,
    /// Next fence sequence this rank will open.
    pub next_fence_seq: u64,

    /// Monotonic RMA-call age for flush stamping.
    pub next_age: u64,
    /// Outstanding nonblocking flushes.
    pub flushes: Vec<FlushState>,

    /// Lock grants still owed to epochs the watchdog cancelled, as
    /// `(granter, access_id)`. When such a grant arrives late there is no
    /// epoch left to unblock; it is answered with an immediate unlock so
    /// the granter's queue keeps moving.
    pub cancelled_lock_grants: Vec<(Rank, u64)>,

    /// Inbound intranode notification FIFOs, one per same-node peer.
    /// Sweep step 5 never scans this map: the engine's pending-FIFO index
    /// records exactly which (window, peer) rings hold packets, so only
    /// those are drained.
    pub fifos_in: BTreeMap<Rank, U64Fifo>,

    /// Arena of retired epoch objects awaiting reuse (capped at
    /// [`EPOCH_POOL_CAP`]). Epochs churn once per fence phase per rank;
    /// recycling them keeps the op-record containers' capacity across
    /// epochs instead of reallocating per phase.
    pub epoch_pool: Vec<EpochObj>,
}

impl WinRank {
    /// Create this rank's side of a window with `size` bytes of exposed
    /// memory.
    pub fn new(size: usize, info: WinInfo) -> Self {
        WinRank {
            mem: vec![0; size],
            info,
            epochs: HashMap::new(),
            order: VecDeque::new(),
            next_epoch: 1,
            open: BTreeMap::new(),
            omega: OmegaTable::default(),
            grant_dirty: WorkList::default(),
            lock_mgr: LockMgr::default(),
            fences: BTreeMap::new(),
            next_fence_seq: 0,
            next_age: 1,
            flushes: Vec::new(),
            cancelled_lock_grants: Vec::new(),
            fifos_in: BTreeMap::new(),
            epoch_pool: Vec::new(),
        }
    }

    /// Open an epoch of `kind`: give it the next id, build its object —
    /// reusing a retired one from the arena when available (recycle the
    /// allocation, reinitialize the state) — and enter it at the tail of
    /// the open order and in the open set.
    pub fn open_epoch(&mut self, kind: EpochKind) -> &mut EpochObj {
        let id = EpochId(self.next_epoch);
        self.next_epoch += 1;
        let slot = kind.slot();
        let mut e = match self.epoch_pool.pop() {
            Some(mut e) => {
                e.reset(id, kind);
                e
            }
            None => EpochObj::new(id, kind),
        };
        // A fence call vacates the fence slot before opening its successor,
        // so this is only ever the dormant fence a non-fence epoch opens under.
        e.opened_in_fence = self.open.get(&Slot::Fence).copied();
        self.order.push_back(id);
        self.open.insert(slot, id);
        self.epochs.entry(id.0).or_insert(e)
    }

    /// Immutable epoch lookup.
    pub fn epoch(&self, id: EpochId) -> &EpochObj {
        &self.epochs[&id.0]
    }

    /// Mutable epoch lookup.
    pub fn epoch_mut(&mut self, id: EpochId) -> &mut EpochObj {
        self.epochs.get_mut(&id.0).expect("unknown epoch id")
    }

    /// Retire an internally complete (or cancelled) epoch: remove it from
    /// the order, drop a fence epoch's per-seq record with it, and recycle
    /// the object into the arena for the next `open_epoch`.
    pub fn retire(&mut self, id: EpochId) {
        self.order.retain(|e| *e != id);
        if let Some(e) = self.epochs.remove(&id.0) {
            if let EpochKind::Fence { seq } = e.kind {
                self.fences.remove(&seq);
            }
            if self.epoch_pool.len() < EPOCH_POOL_CAP {
                self.epoch_pool.push(e);
            }
        }
    }

    /// Next RMA-call age.
    pub fn alloc_age(&mut self) -> u64 {
        let a = self.next_age;
        self.next_age += 1;
        a
    }

    /// The application-level open access epoch that covers RMA toward
    /// `target`, resolved in the order single-target lock → lock_all →
    /// GATS access → fence (concurrent coverage of the same target by more
    /// than one of these is erroneous in MPI and unreachable through the
    /// API checks).
    pub fn open_access_covering(&self, target: Rank) -> Option<EpochId> {
        [Slot::Lock(target), Slot::LockAll, Slot::GatsAccess, Slot::Fence]
            .iter()
            .filter_map(|slot| self.open.get(slot))
            .find(|id| self.epoch(**id).covers_target(target))
            .copied()
    }

    /// The application-level conflict rule, in one place: error if an open
    /// epoch forbids opening one in slot `new`. A *dormant* trailing fence
    /// never does: it coexists with the next phase and is closed by the
    /// next fence call (or retired at `win_free`), keeping the collective
    /// fence sequence aligned on every rank. `None` is `win_free`, which
    /// admits no epoch at all, open or closed and still in flight.
    pub fn check_open(&self, new: Option<Slot>) -> RmaResult<()> {
        let (clash, called) = match new {
            Some(new) => (
                self.open.iter().any(|(slot, id)| {
                    slot.excludes(new) && !self.epoch(*id).is_dormant_fence()
                }),
                new.routines().0,
            ),
            None => (!self.order.is_empty(), "win_free"),
        };
        if clash {
            return Err(RmaError::AlreadyInEpoch { called });
        }
        Ok(())
    }

    /// The live fence epoch of sequence `seq`, if this side has opened it
    /// and not retired it yet.
    fn fence_epoch(&self, seq: u64) -> Option<EpochId> {
        self.order
            .iter()
            .copied()
            .find(|id| matches!(self.epoch(*id).kind, EpochKind::Fence { seq: s } if s == seq))
    }

    /// Record one arrival from `peer` for fence `seq` — its announcement or
    /// one data message — and return the fence epoch to recheck. Traffic
    /// for a sequence whose epoch already retired (completed, or cancelled
    /// by the watchdog) is dropped: nothing can wait on it any more.
    pub fn fence_arrival(
        &mut self,
        seq: u64,
        peer: Rank,
        n_ranks: usize,
        f: impl FnOnce(&mut FencePeer),
    ) -> Option<EpochId> {
        let epoch = self.fence_epoch(seq);
        if epoch.is_some() || seq >= self.next_fence_seq {
            self.fences
                .entry(seq)
                .or_insert_with(|| FenceTally::new(n_ranks))
                .update(peer, f);
        }
        epoch
    }

    /// The inbound FIFO from `peer`, created on first use.
    pub fn fifo_from(&mut self, peer: Rank) -> &mut U64Fifo {
        self.fifos_in
            .entry(peer)
            .or_insert_with(|| U64Fifo::new(FIFO_CAPACITY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochKind;
    use crate::types::Group;

    fn mk() -> WinRank {
        WinRank::new(64, WinInfo::default())
    }

    #[test]
    fn epochs_enter_the_order_and_the_open_set_and_retire_from_the_order() {
        let mut w = mk();
        let a = w.open_epoch(EpochKind::LockAll).id;
        let b = w.open_epoch(EpochKind::GatsExposure { group: Group::new([1]) }).id;
        assert_eq!(w.order, [a, b]);
        assert_eq!(w.open.get(&Slot::LockAll), Some(&a));
        assert_eq!(w.open.get(&Slot::Exposure), Some(&b));
        w.retire(a);
        assert_eq!(w.order, [b]);
    }

    #[test]
    fn ages_are_monotonic() {
        let mut w = mk();
        let a1 = w.alloc_age();
        let a2 = w.alloc_age();
        assert!(a2 > a1);
    }

    #[test]
    fn fifo_created_on_demand() {
        let mut w = mk();
        assert!(w.fifos_in.is_empty());
        w.fifo_from(Rank(2)).push(42);
        assert_eq!(w.fifos_in.len(), 1);
        assert_eq!(w.fifo_from(Rank(2)).pop(), Some(42));
    }

    #[test]
    fn reading_an_untouched_peer_is_zero_and_does_not_insert() {
        let mut w = mk();
        assert_eq!(*w.omega.peer(Rank(3)), PeerOmega::default());
        assert!(w.omega.is_empty(), "a read must not create a record");
        w.omega.peer_mut(Rank(1)).a += 1;
        assert_eq!(w.omega.peer(Rank(1)).a, 1);
        assert_eq!(w.omega.peer(Rank(2)).g, 0);
        assert_eq!(w.omega.len(), 1);
        assert_eq!(w.omega.iter().map(|(r, _)| r).collect::<Vec<_>>(), [Rank(1)]);
    }

    #[test]
    fn fence_tally_counts_a_peer_once_whatever_the_arrival_order() {
        let mut t = FenceTally::new(2);
        // Peer 0: data first, duplicated in transit, then the announcement.
        t.update(Rank(0), |p| p.got += 1);
        t.update(Rank(0), |p| p.got += 1);
        assert!(!t.complete());
        t.update(Rank(0), |p| p.expected = Some(1));
        // Peer 1: announcement first, then its two messages and a duplicate.
        t.update(Rank(1), |p| p.expected = Some(2));
        t.update(Rank(1), |p| p.got += 1);
        assert!(!t.complete(), "peer 1 is still one message short");
        t.update(Rank(1), |p| p.got += 1);
        assert!(t.complete());
        t.update(Rank(1), |p| p.got += 1);
        assert!(t.complete(), "a duplicate must not count the peer twice");
    }

    #[test]
    fn fence_traffic_for_a_retired_sequence_is_dropped() {
        let mut w = mk();
        // Sequences 0..3 were opened and have retired; 3 is not open yet.
        w.next_fence_seq = 3;
        assert_eq!(w.fence_arrival(1, Rank(0), 2, |p| p.got += 1), None);
        assert!(w.fences.is_empty(), "a retired sequence must not be re-recorded");
        // A peer ahead of the local fence call is remembered.
        assert_eq!(w.fence_arrival(3, Rank(0), 2, |p| p.got += 1), None);
        assert_eq!(w.fences[&3].peers()[0].got, 1);
        // Opening and retiring that sequence takes the record along.
        let id = w.open_epoch(EpochKind::Fence { seq: 3 }).id;
        w.next_fence_seq = 4;
        assert_eq!(w.fence_arrival(3, Rank(1), 2, |p| p.expected = Some(0)), Some(id));
        w.retire(id);
        assert!(w.fences.is_empty());
    }

    #[test]
    fn memory_initialized_zeroed() {
        let w = mk();
        assert_eq!(w.mem.len(), 64);
        assert!(w.mem.iter().all(|b| *b == 0));
    }
}
