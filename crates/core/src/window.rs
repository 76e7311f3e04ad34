//! Per-rank window state: exposed memory, the ω matching triples, the
//! deferred-epoch queue, target-side grant sequencing, the lock manager,
//! fence bookkeeping, and flush requests.

use std::collections::VecDeque;

use mpisim_net::{U64Fifo, VecMap};

use crate::config::WinInfo;
use crate::epoch::{EpochKind, EpochObj, OpenSet, Slot};
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
        gl_sent: 0,
    },
};

/// One window side's ω state: a [`PeerOmega`] per peer it has ever
/// synchronised with, so host memory is O(active peers) rather than
/// O(ranks) per (window, rank). Records appear on first write and, the
/// counters being monotonic, are never removed. The same type is the live
/// table, the checkpointed snapshot and the stall report's diagnostic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OmegaTable(VecMap<Rank, PeerOmega>);

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

/// The deferred-epoch queue of one window side (§VII.A): every epoch that
/// is not retired yet — deferred, active, or closed and awaiting completion
/// — in open order. The queue hands out the ids, in order, so it is sorted
/// by id: a lookup is a binary search over the handful of live epochs, and
/// whether an id is still live is whether the lookup finds it. There is no
/// base id and no tombstone: a dormant trailing fence can sit at the head
/// for the rest of the run while epochs behind it come and go.
#[derive(Debug, Default)]
pub struct EpochQueue {
    live: VecDeque<EpochObj>,
    /// Epochs opened so far; the last id handed out.
    opened: u64,
}

impl EpochQueue {
    /// Open an epoch of `kind` at the tail under the next id, rebuilding
    /// `recycled` in place when the caller has a retired object to reuse.
    pub fn open(&mut self, kind: EpochKind, recycled: Option<EpochObj>) -> &mut EpochObj {
        self.opened += 1;
        let id = EpochId(self.opened);
        let e = match recycled {
            Some(mut e) => {
                e.reset(id, kind);
                e
            }
            None => EpochObj::new(id, kind),
        };
        let at = self.live.len();
        self.live.push_back(e);
        &mut self.live[at]
    }

    fn position(&self, id: EpochId) -> Option<usize> {
        self.live.binary_search_by_key(&id, |e| e.id).ok()
    }

    /// The epoch `id`, unless it retired (ids are never reused).
    pub fn get(&self, id: EpochId) -> Option<&EpochObj> {
        self.live.get(self.position(id)?)
    }

    /// Mutable form of [`EpochQueue::get`].
    pub fn get_mut(&mut self, id: EpochId) -> Option<&mut EpochObj> {
        let at = self.position(id)?;
        self.live.get_mut(at)
    }

    /// Take the epoch `id` out of the queue; later epochs keep their order.
    pub fn retire(&mut self, id: EpochId) -> Option<EpochObj> {
        let at = self.position(id)?;
        self.live.remove(at)
    }

    /// The live epochs in open order.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, EpochObj> {
        self.live.iter()
    }

    /// Whether no epoch is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// One rank's side of one RMA window.
pub struct WinRank {
    /// The exposed memory region.
    pub mem: Vec<u8>,
    /// Info-object flags.
    pub info: WinInfo,

    /// The epochs not yet retired, in open order.
    pub epochs: EpochQueue,
    /// The open set: the application-level currently open epochs by slot
    /// (at most one per kind, except single-target lock epochs, which MPI
    /// allows several of at once, to distinct targets).
    pub open: OpenSet<EpochId>,

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
    pub fences: VecMap<u64, FenceTally>,
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
    pub fifos_in: VecMap<Rank, U64Fifo>,

    /// The crash-recovery stable store of this side — latest checkpoint
    /// plus the redo log since it — once
    /// [`crate::config::JobConfig::recovery`] is armed. A crash wipes `mem`,
    /// never this.
    pub(crate) stable: Option<Box<crate::engine::recover::StableWin>>,

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
            epochs: EpochQueue::default(),
            open: OpenSet::default(),
            omega: OmegaTable::default(),
            grant_dirty: WorkList::default(),
            lock_mgr: LockMgr::default(),
            fences: VecMap::new(),
            next_fence_seq: 0,
            next_age: 1,
            flushes: Vec::new(),
            cancelled_lock_grants: Vec::new(),
            fifos_in: VecMap::new(),
            stable: None,
            epoch_pool: Vec::new(),
        }
    }

    /// Open an epoch of `kind` at the tail of the queue — reusing a retired
    /// object from the arena when available (recycle the allocation,
    /// reinitialize the state) — and enter it in the open set.
    pub fn open_epoch(&mut self, kind: EpochKind) -> &mut EpochObj {
        let slot = kind.slot();
        // A fence call vacates the fence slot before opening its successor,
        // so this is only ever the dormant fence a non-fence epoch opens under.
        let opened_in_fence = self.open.get(Slot::Fence).copied();
        let e = self.epochs.open(kind, self.epoch_pool.pop());
        e.opened_in_fence = opened_in_fence;
        self.open.open(slot, e.id);
        e
    }

    /// A live epoch the caller knows to be live.
    pub fn epoch(&self, id: EpochId) -> &EpochObj {
        self.epochs.get(id).expect("unknown epoch id")
    }

    /// Mutable form of [`WinRank::epoch`].
    pub fn epoch_mut(&mut self, id: EpochId) -> &mut EpochObj {
        self.epochs.get_mut(id).expect("unknown epoch id")
    }

    /// Retire an internally complete (or cancelled) epoch: take it out of
    /// the queue, drop a fence epoch's per-seq record with it, and recycle
    /// the object into the arena for the next `open_epoch`.
    pub fn retire(&mut self, id: EpochId) {
        if let Some(e) = self.epochs.retire(id) {
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

    /// The application-level conflict rule: error if an open epoch forbids
    /// opening one in slot `new` ([`OpenSet::clashes`]; a *dormant*
    /// trailing fence never does — it is closed by the next fence call, or
    /// retired at `win_free`, keeping the collective fence sequence aligned
    /// on every rank). `None` is `win_free`, which admits no epoch at all,
    /// open or closed and still in flight.
    pub fn check_open(&self, new: Option<Slot>) -> RmaResult<()> {
        let (clash, called) = match new {
            Some(new) => (
                self.open.clashes(new, |id| self.epoch(*id).is_dormant_fence()).next().is_some(),
                new.routines().0,
            ),
            None => (!self.epochs.is_empty(), "win_free"),
        };
        if clash {
            return Err(RmaError::AlreadyInEpoch { called });
        }
        Ok(())
    }

    /// The live fence epoch of sequence `seq`, if this side has opened it
    /// and not retired it yet.
    fn fence_epoch(&self, seq: u64) -> Option<EpochId> {
        self.epochs
            .iter()
            .find(|e| matches!(e.kind, EpochKind::Fence { seq: s } if s == seq))
            .map(|e| e.id)
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

    /// The inbound FIFO from `peer`, created on first use. A FIFO that has
    /// never held a packet owns no heap: its ring is sized by the pushes
    /// (see [`U64Fifo`]), so step 5's `fifo_from(src).pop()` on a quiet
    /// channel costs a map entry, not [`FIFO_CAPACITY`] slots.
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

    fn order(q: &EpochQueue) -> Vec<EpochId> {
        q.iter().map(|e| e.id).collect()
    }

    #[test]
    fn epochs_enter_the_order_and_the_open_set_and_retire_from_the_order() {
        let mut w = mk();
        let a = w.open_epoch(EpochKind::LockAll).id;
        let b = w.open_epoch(EpochKind::GatsExposure { group: Group::new([1]) }).id;
        assert_eq!(order(&w.epochs), [a, b]);
        assert_eq!(w.open.get(Slot::LockAll), Some(&a));
        assert_eq!(w.open.get(Slot::Exposure), Some(&b));
        w.retire(a);
        assert_eq!(order(&w.epochs), [b]);
    }

    #[test]
    fn queue_keeps_open_order_across_out_of_order_retirement() {
        let mut q = EpochQueue::default();
        let ids: Vec<EpochId> = (0..5).map(|_| q.open(EpochKind::LockAll, None).id).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5].map(EpochId), "ids are handed out in order");
        assert!(q.retire(ids[3]).is_some() && q.retire(ids[1]).is_some());
        assert_eq!(order(&q), [ids[0], ids[2], ids[4]]);
        // A retired id is not live, cannot retire twice, and is not reissued.
        assert!(q.get(ids[1]).is_none() && q.get_mut(ids[3]).is_none());
        assert!(q.retire(ids[1]).is_none());
        assert_eq!(q.get(ids[2]).map(|e| e.id), Some(ids[2]));
        assert_eq!(q.open(EpochKind::LockAll, None).id, EpochId(6));
        assert_eq!(order(&q), [ids[0], ids[2], ids[4], EpochId(6)]);
    }

    #[test]
    fn a_dormant_fence_at_the_head_costs_the_queue_nothing() {
        let mut q = EpochQueue::default();
        let fence = q.open(EpochKind::Fence { seq: 0 }, None).id;
        let lock = EpochKind::Lock { target: Rank(1), lock: crate::types::LockKind::Shared };
        let (mut recycled, mut capacity) = (None, 0);
        for round in 0..10_000 {
            let id = q.open(lock.clone(), recycled.take()).id;
            assert_eq!(order(&q), [fence, id]);
            recycled = q.retire(id);
            assert!(recycled.is_some() && q.get(id).is_none());
            if round == 100 {
                capacity = q.live.capacity();
            }
        }
        assert_eq!(order(&q), [fence], "one live epoch: the dormant fence");
        assert_eq!(q.live.capacity(), capacity, "the queue grew behind a dormant fence");
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
