//! The RMA progress engine (§VII).
//!
//! One `Engine` serves the whole simulated job. Its state is a single
//! `RefCell`: the simulation's driver thread is the only thread that runs
//! ranks and scheduler events, and it runs one at a time, so a borrow is
//! all Rust's aliasing rules ask for — no lock.
//!
//! The engine is driven from two directions:
//!
//! * **application calls** (via [`crate::api`]) mutate state and then run a
//!   progress sweep;
//! * **network events** (message delivery, local-completion and
//!   acknowledgement callbacks) enqueue work and run a sweep for the
//!   affected rank.
//!
//! A sweep executes the paper's seven steps (§VII.D) to quiescence:
//! completion verification, internode posting, batch epoch
//! completion/activation, intranode posting, intranode-FIFO consumption,
//! lock/unlock batch processing, and a final completion/activation pass.
//! Each step drains a deduplicated `WorkList` (`core/src/worklist.rs`)
//! that whatever created the work marked; no step scans for work
//! (DESIGN.md §10.1).
//!
//! Every message kind is described once, in [`crate::msg`] (DESIGN.md
//! §4.6). `dispatch_body` hands an arriving [`Body`] to its handler; the
//! synchronization plane has one `dispatch_sync` behind both of its
//! transports — the step-5 FIFO drain for intranode 64-bit words and
//! `Body::Sync` delivery internode — and `send_sync` picks the transport
//! without looking at the packet's kind.

mod epochs;
mod fence;
mod flush;
mod locks;
mod p2p;
pub(crate) mod recover;
pub(crate) mod rel;
mod rma;
mod watchdog;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use mpisim_net::{Bytes, NetParams, Network, Packet, Payload, Topology};
use mpisim_sim::{ProcId, SimHandle, SimTime};

use crate::config::{JobConfig, SyncStrategy};
use crate::engine::epochs::Outcome;
use crate::epoch::{EpochObj, Slot};
use crate::error::{RmaError, RmaResult};
use crate::msg::{Body, SyncKind, SyncPacket};
use crate::request::{ReqEvent, ReqKind, ReqTable};
use crate::slab::Slab;
use crate::trace::{Plane, TraceEvent, TraceRecord};
use crate::types::{EpochId, LockKind, Rank, Req, WinId};
use crate::window::WinRank;
use crate::worklist::WorkList;

pub(crate) use p2p::{Arrival, BarrierRank, P2pRank};
pub use recover::RecoveryReport;
pub use rel::{Degradation, MAX_RETRIES, RTO};
pub(crate) use rel::RelRank;
pub use watchdog::StallReport;

/// Eager/rendezvous threshold for two-sided and accumulate payloads, bytes.
/// The paper observes no overlap for accumulates above 8 KB because of the
/// internal rendezvous (§VIII.A).
pub(crate) const RNDV_THRESHOLD: usize = 8 * 1024;

/// Completion notices consumed by sweep step 1.
///
/// `Copy` matters: the reliability sublayer stores an op's ack notice as
/// plain data inside its retransmit window and pushes it onto the sweep
/// queue when the peer's cumulative ack arrives — while the engine lock is
/// already held, where a re-entrant closure would deadlock.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Notice {
    /// An outgoing data message finished serializing (origin buffer free).
    LocalComplete {
        win: WinId,
        epoch: EpochId,
        age: u64,
    },
    /// The origin learned of remote completion of a data message.
    Acked {
        win: WinId,
        epoch: EpochId,
        age: u64,
    },
}

/// Correlation state for tokens carried by request/response messages.
pub(crate) enum TokenInfo {
    /// Outstanding get or fetch-style atomic: the response completes the
    /// op and carries data.
    Resp {
        rank: Rank,
        win: WinId,
        epoch: EpochId,
        age: u64,
        req: Req,
    },
    /// Large accumulate waiting for its clear-to-send.
    AccRndv {
        rank: Rank,
        win: WinId,
        epoch: EpochId,
        op: crate::epoch::OpDesc,
    },
    /// Rendezvous two-sided send waiting for its clear-to-send.
    P2pSend { rank: Rank, payload: Payload, req: Req },
    /// Rendezvous two-sided receive waiting for data.
    P2pRecv { req: Req },
}

/// Aggregate progress-engine counters (whole job), exposed by
/// [`Engine::engine_stats`] for introspection, tests, and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Epoch objects created.
    pub epochs_opened: u64,
    /// Epochs that could not be activated at open (deferred at least once).
    pub epochs_deferred: u64,
    /// Epochs activated.
    pub epochs_activated: u64,
    /// Epochs internally completed.
    pub epochs_completed: u64,
    /// Exposure grants emitted.
    pub exposure_grants: u64,
    /// Lock grants emitted.
    pub lock_grants: u64,
    /// GATS done packets sent.
    pub gats_dones: u64,
    /// 64-bit packets successfully pushed through intranode notification
    /// FIFOs. Retries after a full ring are not double-counted, so this
    /// balances [`EngineStats::fifo_drained`] at quiescence.
    pub fifo_packets: u64,
    /// Progress sweeps executed.
    pub sweeps: u64,
    /// Per-step execution counts: how many times each of the seven sweep
    /// steps actually ran. A step whose work list is empty is skipped
    /// entirely (never counted), so a quiescent sweep leaves this array
    /// untouched. Index 0..6 = steps 1..7 of §VII.D.
    pub step_runs: [u64; 7],
    /// Completion notices consumed by step 1.
    pub notices_drained: u64,
    /// Dirty (window, epoch) entries scanned by the issue steps 2/4.
    pub issue_scans: u64,
    /// RMA operations put on the wire by the issue steps 2/4.
    pub ops_issued: u64,
    /// Per-target (or per-origin) epoch states examined by the emit and
    /// completion passes of steps 3/7 and by the lazy baseline's issue
    /// gate. Counters and per-epoch ready lists keep this proportional to
    /// the announcements sent, not to ranks × notifications — the
    /// deterministic cost proxy `tests/engine_worklists.rs` pins.
    pub target_visits: u64,
    /// 64-bit packets drained from intranode FIFOs by step 5.
    pub fifo_drained: u64,
    /// Corrupt 64-bit packets dropped by step 5 (each leaves a
    /// [`ProtocolError`] record instead of aborting the job).
    pub fifo_decode_errors: u64,
    /// Sync words that left the origin inside a multi-word
    /// [`Body::Fifo64Batch`] push (every word of such a batch is counted;
    /// singleton pushes are not). Proves the per-sweep per-channel
    /// notification batching actually fires.
    pub notices_batched: u64,
    /// Deferred lock releases applied by step 6.
    pub unlocks_applied: u64,
    /// Dormant trailing fence epochs retired at `win_free` (DESIGN.md
    /// deviation 4). Counted so the deferred-queue balance
    /// `epochs_opened == epochs_completed + dormant_retired` stays
    /// checkable: these epochs are opened but never complete.
    pub dormant_retired: u64,
    /// Internode messages wrapped in reliability frames (sublayer on).
    /// At quiescence `rel_frames_sent == rel_delivered + rel_checksum_drops
    /// - rel_dups_dropped`-style balances do not hold message-by-message
    /// (duplication faults add copies); the channel invariant is
    /// `pushed == acked + retransmit-pending` per (src, dst) pair.
    pub rel_frames_sent: u64,
    /// Frames re-sent by the retransmit timer scan (sweep step 1).
    pub rel_retransmits: u64,
    /// Cumulative acks flushed by sweep step 2.
    pub rel_acks_sent: u64,
    /// Ack sends elided by delayed-ack coalescing: every frame a flushed
    /// cumulative ack covered beyond the first. Proves the TCP-style
    /// delayed ack collapses per-frame ack traffic.
    pub acks_coalesced: u64,
    /// Duplicate frames suppressed at delivery (retransmit races and
    /// fabric-level duplication faults).
    pub rel_dups_dropped: u64,
    /// Reordered frames buffered ahead of the in-order point.
    pub rel_ooo_buffered: u64,
    /// Frames dropped for checksum mismatch (recovered by retransmit).
    pub rel_checksum_drops: u64,
    /// In-order frames dispatched by sweep step 5.
    pub rel_delivered: u64,
    /// Frames abandoned after exhausting the retry cap.
    pub retries_exhausted: u64,
    /// Epochs force-terminated by the stall watchdog.
    pub epochs_cancelled: u64,
    /// Watchdog tick events fired.
    pub watchdog_ticks: u64,
    /// Responses whose correlation token was already gone (epoch cancelled
    /// or late duplicate), tolerated instead of asserted in resilient
    /// configurations.
    pub orphan_responses: u64,
    /// Host-blocking parks summed over the ranks' ledgers
    /// ([`RankStats::parks`]): how many times an application thread
    /// suspended inside the wait family because the awaited request was
    /// not yet complete. This is the host-blocking work the paper's
    /// nonblocking epochs exist to remove — the slack rewriter's
    /// closed-loop validator requires it to never increase under a sound
    /// relaxation.
    pub sync_blocked_steps: u64,
    /// Virtual nanoseconds spent in those parks, summed over the ranks'
    /// ledgers ([`RankStats::blocked`]). A deferred wait may still park
    /// once, but strictly later, so this shrinks whenever the reclaimed
    /// slack overlaps communication with host progress.
    pub sync_blocked_ns: u64,
    /// Checkpoints cut by the crash-recovery subsystem (one per window
    /// side per covered commit; includes the `win_allocate` baselines).
    pub ckpt_commits: u64,
    /// Bytes written to the in-simulation stable store by those
    /// checkpoints (window contents plus serialized ω-triples).
    pub ckpt_bytes: u64,
    /// Window sides restored by rank restarts.
    pub recoveries: u64,
}

/// A malformed packet the engine recorded and survived instead of
/// aborting the simulated job, with full provenance for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Rank that observed the error.
    pub rank: Rank,
    /// Window whose notification FIFO carried the packet.
    pub win: WinId,
    /// Peer the packet came from.
    pub src: Rank,
    /// The raw 64-bit word that failed to decode.
    pub raw: u64,
    /// What went wrong.
    pub detail: &'static str,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} win {} peer {}: {} (raw 0x{:016x})",
            self.rank, self.win.0, self.src, self.detail, self.raw
        )
    }
}

/// A deliberately injected runtime bug, used by the conformance harness to
/// prove its detectors catch real defects. Never active unless explicitly
/// requested by name via [`JobConfig::fault`]; [`Fault::ALL`] is every
/// bug there is to plant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// `pump_exposure_grants` silently drops the second exposure grant of
    /// every (granter, origin) stream — a liveness bug: the origin's
    /// second epoch toward that target waits forever for `A_i ≤ g_r`,
    /// surfacing as a simulated deadlock.
    SkipGrant,
    /// `handle_acc` applies every eager accumulate payload twice — a
    /// safety bug: final window contents diverge from the oracle while
    /// every synchronization invariant still holds.
    DoubleAcc,
    /// The target performs an unsynchronized local read of the bytes every
    /// arriving put/accumulate touches — a memory-model bug: the oracle
    /// and every ω-triple invariant stay intact (the read mutates
    /// nothing), but the access is unordered with the origin's write
    /// under the happens-before relation, so only the race detector in
    /// `mpisim-analyze` can catch it.
    HbRace,
    /// Every planted job takes the next seed of a per-process counter as
    /// its kernel tie-break (`TieBreak::Seeded`), so two runs of the very
    /// same job schedule differently — what the determinism cross-check
    /// must catch.
    NondetTiebreak,
    /// Crash recovery keeps only the `win_allocate` baseline checkpoint and
    /// restores it *without* redo-log replay — a stale restore the
    /// differential check must catch whenever the log was non-empty.
    StaleRestore,
}

impl Fault {
    /// Every fault, in the order `mpisim-check`'s table lists them.
    pub const ALL: [Fault; 5] = [
        Fault::SkipGrant,
        Fault::DoubleAcc,
        Fault::HbRace,
        Fault::NondetTiebreak,
        Fault::StaleRestore,
    ];

    /// The name [`JobConfig::fault`] and `mpisim-check --inject` take.
    pub fn name(self) -> &'static str {
        match self {
            Fault::SkipGrant => "skip-grant",
            Fault::DoubleAcc => "double-acc",
            Fault::HbRace => "hb-race",
            Fault::NondetTiebreak => "nondet-exec",
            Fault::StaleRestore => "bad-recovery",
        }
    }

    /// The fault called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// One rank's time ledger, reported by [`crate::api::RankEnv::stats`].
///
/// Written only where the rank's clock moves (`api.rs`, "Where a rank's
/// time goes"): its parts sum to the rank's virtual time,
/// `compute_time + mpi_time() == now()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankStats {
    /// Virtual time spent in modeled computation.
    pub compute_time: SimTime,
    /// Virtual time parked inside the wait family (every blocking epoch
    /// close, flush and barrier included) for a request to complete.
    pub blocked: SimTime,
    /// Number of MPI calls made, each one [`crate::CALL_ENTRY`].
    pub calls: u64,
    /// RMA communication calls among them, each one [`crate::PER_OP`] more.
    pub ops: u64,
    /// Times the rank parked: a request already complete at its wait costs
    /// none.
    pub parks: u64,
    /// Epoch commits this rank has performed (rank-wide ordinal across
    /// all windows). The crash-recovery fault plan addresses crash points
    /// by this 1-based count, and the conformance harness's probe run
    /// reads it to enumerate the valid crash points of a program.
    pub epochs_committed: u64,
}

/// One rank's sweep work lists plus reusable scratch buffers.
///
/// Every sweep step is driven by an explicit, deduplicated [`WorkList`]: a
/// step touches only state some earlier event marked, never scans
/// per-window or per-peer structures looking for work (DESIGN.md §10).
/// The work lists and the `*_scratch` buffers keep their capacity, so the
/// steady state of a sweep performs no heap allocation.
#[derive(Default)]
pub(crate) struct RankSweepState {
    pub notices: VecDeque<Notice>,
    /// Epochs that may have issueable ops.
    pub dirty_ops: WorkList<(WinId, EpochId)>,
    /// Epochs whose completion conditions should be rechecked.
    pub dirty_complete: WorkList<(WinId, EpochId)>,
    /// Windows needing an activation scan.
    pub act_dirty: WorkList<WinId>,
    /// Windows with pending lock/unlock work (step 6 backlog).
    pub lock_backlog: WorkList<WinId>,
    /// Deferred lock releases: (window, origin releasing).
    pub pending_unlocks: VecDeque<(WinId, Rank)>,
    /// Pending-FIFO index (step 5's work list): the (window, peer) pairs
    /// whose intranode notification FIFO received packets since the last
    /// drain, marked by the FIFO delivery path on every *successful* push
    /// (a full ring is already indexed by the pushes that filled it).
    pub fifo_pending: WorkList<(WinId, Rank)>,
    /// Outgoing intranode sync words buffered during the current sweep
    /// pass: (destination, window, encoded word) in send order. Flushed
    /// by `flush_sync_batches` at the bottom of each sweep-loop
    /// iteration as one push per (destination, window) channel.
    pub sync_out: Vec<(Rank, WinId, u64)>,
    /// Ping-pong buffer for an epoch's `pending_ops` during issue.
    pub pending_scratch: VecDeque<crate::epoch::OpDesc>,
    /// Scratch for per-target (rank, id) send batches (done/unlock/fence
    /// announcements).
    pub send_scratch: Vec<(Rank, u64)>,
    /// Scratch for exposure-grant id batches.
    pub grant_scratch: Vec<u64>,
    /// Scratch for completed flush requests.
    pub req_scratch: Vec<Req>,
    /// Scratch for one channel's worth of words during the batch flush.
    pub sync_word_scratch: Vec<u64>,
}

impl RankSweepState {
    fn has_work(&self) -> bool {
        !self.notices.is_empty()
            || !self.dirty_ops.is_empty()
            || !self.dirty_complete.is_empty()
            || !self.act_dirty.is_empty()
            || !self.lock_backlog.is_empty()
            || !self.pending_unlocks.is_empty()
            || !self.fifo_pending.is_empty()
            || !self.sync_out.is_empty()
    }
}

/// One window across all ranks.
pub(crate) struct WinGlobal {
    /// Each rank's side, from its `win_allocate` to its `win_free`.
    pub per_rank: Vec<Option<WinRank>>,
}

/// The mutable engine state (all ranks).
pub(crate) struct EngState {
    pub wins: Vec<WinGlobal>,
    /// Number of `win_allocate` calls each rank has made (SPMD ordering).
    pub created: Vec<u32>,
    pub reqs: ReqTable,
    pub p2p: Vec<P2pRank>,
    pub barrier: Vec<BarrierRank>,
    pub stats: Vec<RankStats>,
    pub sweep: Vec<RankSweepState>,
    /// Correlation state of the request/response messages in flight, under
    /// the token they carry. An answered token finds nothing, so a late
    /// duplicate of the answer is an orphan, never somebody else's.
    pub tokens: Slab<TokenInfo>,
    pub eng_stats: EngineStats,
    /// Per-rank collective sequence numbers (tag disambiguation).
    pub coll_seq: Vec<u64>,
    /// The trace, in emission order (populated when `JobConfig::trace`).
    pub trace: Vec<TraceRecord>,
    /// Degraded-but-survived events (decode failures, checksum drops,
    /// abandoned frames, cancelled epochs) recorded with provenance
    /// instead of aborting the job.
    pub degradations: Vec<Degradation>,
    /// Per-rank reliability-sublayer channels and work lists.
    pub rel: Vec<RelRank>,
    /// Whether a stall-watchdog tick is currently scheduled.
    pub watchdog_armed: bool,
    /// Closed-but-incomplete epochs the stall watchdog must inspect, each
    /// with the virtual time of its close (the budget's anchor), appended
    /// at every epoch close (only while a watchdog budget is configured).
    /// A tick scans this list instead of every window × rank × epoch in
    /// the job, so watchdog cost follows the number of in-flight closes,
    /// not the rank count; entries for epochs that finished in the
    /// meantime are dropped lazily during the scan.
    pub stall_watch: Vec<(WinId, Rank, EpochId, SimTime)>,
}

impl EngState {
    /// `r`'s side of `w`, unless `w` was never allocated or `r` freed its
    /// side already. Asked only in this module: by [`Engine::api_win`] at
    /// the call, by `dispatch_body` at delivery, and by the lookups below.
    fn try_win(&self, w: WinId, r: Rank) -> Option<&WinRank> {
        self.wins.get(w.0 as usize)?.per_rank[r.idx()].as_ref()
    }

    /// `r`'s side of `w`, which exists: an application call reaches the
    /// engine past [`Engine::api_win`], `dispatch_body` drops every frame
    /// for a missing side, and `win_free` takes the window off the rank's
    /// per-window work lists, so nothing else can name a side that is gone.
    pub(crate) fn win(&self, w: WinId, r: Rank) -> &WinRank {
        self.try_win(w, r).expect("window not created at this rank")
    }

    /// Mutable form of [`EngState::win`].
    pub(crate) fn win_mut(&mut self, w: WinId, r: Rank) -> &mut WinRank {
        self.wins[w.0 as usize].per_rank[r.idx()].as_mut().expect("window not created at this rank")
    }

    /// The epoch `id` of `r`'s side of `w`, unless it retired (ids are never
    /// reused) or the window is gone. Whatever outlives an epoch — a work
    /// list entry, a completion notice, a rendezvous answer, the stall
    /// watch — asks here whether it is still live.
    pub(crate) fn live_epoch(&self, w: WinId, r: Rank, id: EpochId) -> Option<&EpochObj> {
        self.try_win(w, r)?.epochs.get(id)
    }

    /// The windows `r` holds a side of.
    pub(crate) fn wins_of(&self, r: Rank) -> Vec<WinId> {
        (0..self.wins.len() as u32).map(WinId).filter(|w| self.try_win(*w, r).is_some()).collect()
    }

    pub(crate) fn mark_ops_dirty(&mut self, rank: Rank, win: WinId, epoch: EpochId) {
        self.sweep[rank.idx()].dirty_ops.mark((win, epoch));
    }

    pub(crate) fn mark_complete_dirty(&mut self, rank: Rank, win: WinId, epoch: EpochId) {
        self.sweep[rank.idx()].dirty_complete.mark((win, epoch));
    }

    pub(crate) fn mark_act_dirty(&mut self, rank: Rank, win: WinId) {
        self.sweep[rank.idx()].act_dirty.mark(win);
    }

    pub(crate) fn mark_lock_backlog(&mut self, rank: Rank, win: WinId) {
        self.sweep[rank.idx()].lock_backlog.mark(win);
    }

    /// Drain the work list `list` selects: run `each` over the current
    /// batch, in marking order, and return the batch size. The list lives
    /// inside `self`, which `each` is free to mutate — whatever it marks
    /// waits for the next drain (see [`WorkList`]).
    pub(crate) fn drain<T: Copy + PartialEq>(
        &mut self,
        list: impl Fn(&mut Self) -> &mut WorkList<T>,
        mut each: impl FnMut(&mut Self, T),
    ) -> u64 {
        let batch = list(self).take();
        for &item in &batch {
            each(self, item);
        }
        let n = batch.len() as u64;
        list(self).recycle(batch);
        n
    }
}

/// The RMA middleware engine for one simulated job.
pub struct Engine {
    pub(crate) st: RefCell<EngState>,
    pub(crate) net: Arc<Network<Body>>,
    pub(crate) sim: SimHandle,
    pub(crate) cfg: JobConfig,
    /// Resolved injected fault (see [`Fault`]); `None` in normal operation.
    pub(crate) fault: Option<Fault>,
}

/// Issue phase selector for sweep steps 2 and 4.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    Internode,
    Intranode,
}

impl Engine {
    /// Build the engine (and its network) for a job.
    pub fn new(sim: SimHandle, cfg: JobConfig) -> Rc<Self> {
        let topo = Topology::new(cfg.n_ranks, cfg.cores_per_node);
        let net_params: NetParams = cfg.net.clone();
        let net = Network::new(sim.clone(), net_params, topo);
        let n = cfg.n_ranks;
        let fault = cfg.injected();
        let eng = Rc::new(Engine {
            st: RefCell::new(EngState {
                wins: Vec::new(),
                created: vec![0; n],
                reqs: ReqTable::new(sim.clone()),
                p2p: (0..n).map(|_| P2pRank::default()).collect(),
                barrier: (0..n).map(|_| BarrierRank::default()).collect(),
                stats: vec![RankStats::default(); n],
                sweep: (0..n).map(|_| RankSweepState::default()).collect(),
                tokens: Slab::default(),
                eng_stats: EngineStats::default(),
                coll_seq: vec![0; n],
                trace: Vec::new(),
                degradations: Vec::new(),
                rel: (0..n).map(|_| RelRank::default()).collect(),
                watchdog_armed: false,
                stall_watch: Vec::new(),
            }),
            net: net.clone(),
            sim,
            cfg,
            fault,
        });
        // The network is owned by the engine, so its handler must not own
        // the engine back: a strong reference here is a cycle that keeps
        // every job's `EngState` alive forever. A packet that outlives the
        // engine has nobody left to deliver to.
        let weak = Rc::downgrade(&eng);
        net.set_handler(move |pkt| {
            if let Some(eng) = weak.upgrade() {
                eng.on_message(pkt);
            }
        });
        eng
    }

    /// The simulated network (for stats).
    pub fn network(&self) -> &Arc<Network<Body>> {
        &self.net
    }

    /// Whether the engine runs the lazy baseline strategy.
    pub(crate) fn lazy(&self) -> bool {
        self.cfg.strategy == SyncStrategy::LazyBaseline
    }

    /// The window lookup of every application call that takes a `WinId`.
    /// `peers` are the ranks the call names besides the caller: a lock
    /// target, a GATS group, an RMA or flush target, none (`Some(&[])`)
    /// for a call on the caller's side only, and `None` for a call that
    /// names every rank (fence, `lock_all`, the `flush_all` family). The
    /// named ranks must be in the job (`InvalidRank`), and the caller's
    /// side and every named side must exist (`InvalidWindow`). A made-up
    /// id, a side the caller freed, and a side a named peer freed or never
    /// created (its creation was refused) are the caller's error: a lock,
    /// match or operation toward a missing side would wait forever.
    pub(crate) fn api_win<'s>(
        &self,
        st: &'s EngState,
        win: WinId,
        rank: Rank,
        peers: Option<&[Rank]>,
    ) -> RmaResult<&'s WinRank> {
        let gone = match peers {
            Some(peers) => {
                if let Some(bad) = peers.iter().find(|r| r.idx() >= self.cfg.n_ranks) {
                    return Err(RmaError::InvalidRank(bad.idx()));
                }
                peers.iter().any(|&p| st.try_win(win, p).is_none())
            }
            None => (0..self.cfg.n_ranks).any(|p| st.try_win(win, Rank(p)).is_none()),
        };
        st.try_win(win, rank).filter(|_| !gone).ok_or(RmaError::InvalidWindow(win))
    }

    /// Per-rank statistics snapshot.
    pub fn rank_stats(&self, r: Rank) -> RankStats {
        self.st.borrow().stats[r.idx()]
    }

    /// Aggregate progress-engine counters; the two blocking totals are sums
    /// of the ranks' ledgers.
    pub fn engine_stats(&self) -> EngineStats {
        let st = self.st.borrow();
        EngineStats {
            sync_blocked_steps: st.stats.iter().map(|s| s.parks).sum(),
            sync_blocked_ns: st.stats.iter().map(|s| s.blocked.as_nanos()).sum(),
            ..st.eng_stats
        }
    }

    /// Drain the accumulated degradations (decode failures, checksum
    /// drops, abandoned frames, cancelled epochs — every non-fatal event
    /// the engine survived instead of aborting on).
    pub fn take_degradations(&self) -> Vec<Degradation> {
        std::mem::take(&mut self.st.borrow_mut().degradations)
    }

    /// Drain the recorded trace.
    pub fn take_trace(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.st.borrow_mut().trace)
    }

    /// Number of live (unconsumed) requests right now.
    pub fn live_requests(&self) -> usize {
        self.st.borrow().reqs.live()
    }

    /// Number of live requests a rank is registered on right now (see
    /// [`crate::request::ReqTable::parked`]).
    pub fn parked_requests(&self) -> usize {
        self.st.borrow().reqs.parked()
    }

    /// Record one trace event of `rank`'s (no-op unless tracing).
    ///
    /// Pay-for-use: with no trace sink attached (`cfg.trace == false`,
    /// the default outside the conformance harness) this is a single
    /// predictable branch on an immutable config bool; the record
    /// construction — clock read included — is outlined into a cold
    /// function so the hot sweep path carries no trace-plumbing weight.
    #[inline(always)]
    pub(crate) fn trace(&self, st: &mut EngState, rank: Rank, event: TraceEvent) {
        if self.cfg.trace {
            self.push_trace(st, rank, event);
        }
    }

    #[cold]
    #[inline(never)]
    fn push_trace(&self, st: &mut EngState, rank: Rank, event: TraceEvent) {
        st.trace.push(TraceRecord { time: self.sim.now(), rank, event });
    }

    /// Allocate a request `rank` owns; `done` completes it at creation (the
    /// dummy epoch-opening request of §VII.C).
    pub(crate) fn alloc_req(
        &self,
        st: &mut EngState,
        rank: Rank,
        kind: ReqKind,
        done: bool,
    ) -> Req {
        let req = st.reqs.alloc(rank, kind);
        self.trace(st, rank, TraceEvent::Req { req, event: ReqEvent::Alloc(kind) });
        if done {
            self.complete_req(st, req, None);
        }
        req
    }

    /// [`ReqTable::complete`], tracing the one effective completion.
    pub(crate) fn complete_req(&self, st: &mut EngState, req: Req, data: Option<Bytes>) {
        if let Some(owner) = st.reqs.complete(req, data) {
            self.trace(st, owner, TraceEvent::Req { req, event: ReqEvent::Complete });
        }
    }

    /// [`ReqTable::poll`], tracing the consume: `Ok(Some(data))` once the
    /// request is complete.
    pub(crate) fn poll_req(
        &self,
        st: &mut EngState,
        req: Req,
        waiter: Option<ProcId>,
    ) -> RmaResult<Option<Option<Bytes>>> {
        let Some((owner, data)) = st.reqs.poll(req, waiter)? else { return Ok(None) };
        self.trace(st, owner, TraceEvent::Req { req, event: ReqEvent::Consume });
        Ok(Some(data))
    }

    /// Next collective sequence number for `rank` (collective tag space).
    pub(crate) fn next_coll_seq(&self, rank: Rank) -> u64 {
        let mut st = self.st.borrow_mut();
        let s = st.coll_seq[rank.idx()];
        st.coll_seq[rank.idx()] += 1;
        s
    }

    /// The dummy always-complete request returned by nonblocking
    /// epoch-opening routines (§VII.C).
    pub(crate) fn dummy_open_req(&self, rank: Rank) -> Req {
        self.alloc_req(&mut self.st.borrow_mut(), rank, ReqKind::EpochOpen, true)
    }

    // ------------------------------------------------------------------
    // windows
    // ------------------------------------------------------------------

    /// Create this rank's side of its next window (SPMD creation order
    /// assigns ids). The API layer adds the collective barrier.
    pub fn win_allocate(&self, rank: Rank, size: usize, info: crate::config::WinInfo) -> RmaResult<WinId> {
        let mut st = self.st.borrow_mut();
        // Creation ends in a barrier: refuse before this rank's side exists.
        st.no_pending_barrier(rank)?;
        let idx = st.created[rank.idx()] as usize;
        st.created[rank.idx()] += 1;
        if st.wins.len() <= idx {
            st.wins.push(WinGlobal {
                per_rank: (0..self.cfg.n_ranks).map(|_| None).collect(),
            });
        }
        assert!(
            st.wins[idx].per_rank[rank.idx()].is_none(),
            "window creation order diverged across ranks"
        );
        st.wins[idx].per_rank[rank.idx()] = Some(WinRank::new(size, info));
        let win = WinId(idx as u32);
        if self.cfg.recovery {
            // Commit-0 baseline: a crash before the first epoch commit
            // still has a consistent restore point.
            self.recovery_init_win(&mut st, rank, win);
        }
        Ok(win)
    }

    /// Tear down this rank's side of a window. Errors if epochs are still
    /// open; a trailing empty fence epoch is retired silently.
    pub fn win_free(self: &Rc<Self>, rank: Rank, win: WinId) -> RmaResult<()> {
        let mut st = self.st.borrow_mut();
        // No later fence call can close a dormant trailing fence any more.
        let w = self.api_win(&st, win, rank, Some(&[]))?;
        let fence = w.open.get(Slot::Fence).copied();
        if let Some(id) = fence.filter(|id| w.epoch(*id).is_dormant_fence()) {
            self.finish_epoch(&mut st, rank, win, id, Outcome::DormantRetired);
        }
        let w = st.win(win, rank);
        w.check_open(None)?;
        debug_assert!(
            w.fences.keys().all(|seq| *seq >= w.next_fence_seq),
            "fence record outlived its epoch: {:?}",
            w.fences.keys().collect::<Vec<_>>()
        );
        st.wins[win.0 as usize].per_rank[rank.idx()] = None;
        // No step may run on the side any more, and `dispatch_body` keeps
        // anything new from being marked for it. The per-epoch lists need
        // no purge: their steps ask `live_epoch`, which the side's epochs
        // fail now.
        let sw = &mut st.sweep[rank.idx()];
        sw.act_dirty.retain(|&w| w != win);
        sw.lock_backlog.retain(|&w| w != win);
        sw.pending_unlocks.retain(|&(w, _)| w != win);
        sw.fifo_pending.retain(|&(w, _)| w != win);
        Ok(())
    }

    /// Number of per-sequence fence records `rank`'s side of `win` holds:
    /// one per fence epoch still in flight (or announced by a peer ahead of
    /// the local fence call), none once they have all retired. A side that
    /// does not exist — never allocated, or freed — holds none either.
    pub fn fence_records(&self, rank: Rank, win: WinId) -> usize {
        self.api_win(&self.st.borrow(), win, rank, Some(&[])).map_or(0, |w| w.fences.len())
    }

    /// Local load from the window copy.
    pub fn read_local(
        &self,
        rank: Rank,
        win: WinId,
        disp: usize,
        len: usize,
    ) -> RmaResult<Vec<u8>> {
        let mut st = self.st.borrow_mut();
        self.api_win(&st, win, rank, Some(&[]))?;
        self.freshen_crashed_mem(&mut st, rank, win);
        let w = st.win(win, rank);
        let Some(end) = disp.checked_add(len).filter(|&end| end <= w.mem.len()) else {
            return Err(RmaError::OutOfBounds {
                win,
                target: rank,
                disp,
                len,
            });
        };
        Ok(w.mem[disp..end].to_vec())
    }

    /// Local store into the window copy.
    pub fn write_local(
        &self,
        rank: Rank,
        win: WinId,
        disp: usize,
        data: &[u8],
    ) -> RmaResult<()> {
        let mut st = self.st.borrow_mut();
        self.api_win(&st, win, rank, Some(&[]))?;
        self.freshen_crashed_mem(&mut st, rank, win);
        let w = st.win_mut(win, rank);
        let Some(end) = disp.checked_add(data.len()).filter(|&end| end <= w.mem.len()) else {
            return Err(RmaError::OutOfBounds {
                win,
                target: rank,
                disp,
                len: data.len(),
            });
        };
        w.mem[disp..end].copy_from_slice(data);
        self.log_win_write(&mut st, rank, win, disp, data.len());
        Ok(())
    }

    // ------------------------------------------------------------------
    // message dispatch
    // ------------------------------------------------------------------

    fn on_message(self: &Rc<Self>, pkt: Packet<Body>) {
        let dst = pkt.dst;
        let src = pkt.src;
        {
            let mut st = self.st.borrow_mut();
            self.dispatch_body(&mut st, dst, src, pkt.body);
        }
        self.sweep(dst);
    }

    /// Dispatch one message body to its handler. Factored out of
    /// [`Engine::on_message`] so the reliability sublayer's in-order
    /// delivery queue (sweep step 5) can re-enter it for unwrapped frames.
    pub(crate) fn dispatch_body(self: &Rc<Self>, st: &mut EngState, dst: Rank, src: Rank, body: Body) {
        match body {
            // ---- the one delivery gate ----
            // A frame for a window side its destination does not hold
            // (freed, or never created) is dropped, whatever its kind: only
            // a mismatched collective or a frame that outlived the final
            // barrier (a retransmit, a full ring's retry) can carry one.
            // The drop keeps the engine from panicking; it does not answer
            // the frame, so after a mismatched free an origin that waits
            // for its ops' acks still waits, and the job can end in a
            // reported `SimError::Deadlock`.
            Body::Op { win, .. } | Body::FenceDone { win, .. } | Body::Fifo64 { win, .. }
            | Body::Fifo64Batch { win, .. } | Body::Sync(SyncPacket { win, .. })
                if st.try_win(win, dst).is_none() => {}

            // ---- reliability sublayer ----
            Body::Rel { seq, checksum, inner } => {
                self.rel_receive(st, dst, src, seq, checksum, *inner)
            }
            Body::RelAck { cum } => self.rel_handle_ack(st, dst, src, cum),
            // ---- data plane ----
            Body::Op {
                win,
                tag,
                disp,
                token,
                kind,
            } => self.handle_op(st, dst, src, win, tag, disp, token, kind),
            Body::OpResp { token, payload } => self.handle_op_resp(st, dst, token, payload),
            Body::AccRts { token } => self.handle_acc_rts(st, dst, src, token),
            Body::AccCts { token } => self.handle_acc_cts(st, dst, token),

            // ---- synchronization plane ----
            Body::Sync(sp) => {
                debug_assert_eq!(sp.peer, src);
                self.dispatch_sync(st, dst, sp)
            }
            Body::FenceDone { win, seq, ops_sent } => {
                self.handle_fence_done(st, dst, src, win, seq, ops_sent)
            }
            Body::Fifo64 { win, packet } => self.push_fifo_words(st, dst, src, win, &[packet]),
            Body::Fifo64Batch { win, packets } => self.push_fifo_words(st, dst, src, win, &packets),

            // ---- two-sided ----
            Body::P2pEager { tag, payload } => {
                self.handle_p2p_arrival(st, dst, src, tag, Arrival::Eager(payload))
            }
            Body::P2pRts { tag, token } => {
                self.handle_p2p_arrival(st, dst, src, tag, Arrival::Rndv { token })
            }
            Body::P2pCts { token, data_token } => {
                self.handle_p2p_cts_from(st, dst, src, token, data_token)
            }
            Body::P2pData { data_token, payload } => {
                self.handle_p2p_data(st, dst, data_token, payload)
            }
            Body::BarrierMsg { seq, round } => {
                self.handle_barrier_msg(st, dst, seq, round)
            }
        }
    }

    /// Push sync words that arrived from `src` into its FIFO on `win`, in
    /// order; they are drained in sweep step 5. A full FIFO forces a
    /// retry, as a real shared-memory ring would: the words not yet pushed
    /// retry together after a 1 µs pause, preserving FIFO order. The
    /// pending-FIFO index and the pushed counter are updated only on a
    /// *successful* push: a full ring's pair is already indexed by the
    /// pushes that filled it, and retries must not double-count.
    fn push_fifo_words(
        self: &Rc<Self>,
        st: &mut EngState,
        dst: Rank,
        src: Rank,
        win: WinId,
        words: &[u64],
    ) {
        for (i, &word) in words.iter().enumerate() {
            if !st.win_mut(win, dst).fifo_from(src).push(word) {
                let body = Body::fifo(win, &words[i..]);
                let me = self.clone();
                self.sim.schedule(SimTime::from_micros(1), move || {
                    me.on_message(Packet { src, dst, body });
                });
                return;
            }
            st.eng_stats.fifo_packets += 1;
            st.sweep[dst.idx()].fifo_pending.mark((win, src));
        }
    }

    // ------------------------------------------------------------------
    // the seven-step progress sweep (§VII.D)
    // ------------------------------------------------------------------

    /// Run the progress engine for `rank` until quiescent.
    ///
    /// Each iteration runs only the steps whose work lists are non-empty
    /// (fine-grained dispatch): an idle step is skipped entirely and does
    /// not touch any per-window or per-peer state. Running a step with an
    /// empty queue was always a no-op — the gating elides the no-op, it
    /// does not change what work gets done.
    pub(crate) fn sweep(self: &Rc<Self>, rank: Rank) {
        let mut st = self.st.borrow_mut();
        st.eng_stats.sweeps += 1;
        loop {
            let sw = &st.sweep[rank.idx()];
            if !sw.has_work() && !st.rel[rank.idx()].has_work() {
                break;
            }
            // Step 1: verification of outgoing/incoming completion. The
            // reliability sublayer grows this step with the retransmit
            // timer scan.
            if !st.sweep[rank.idx()].notices.is_empty() || st.rel[rank.idx()].timer_due {
                st.eng_stats.step_runs[0] += 1;
                if st.rel[rank.idx()].timer_due {
                    self.rel_retransmit_scan(&mut st, rank);
                }
                self.drain_notices(&mut st, rank);
            }
            // Step 2: post internode RMA communications. The sublayer
            // grows this step with the cumulative-ack flush (acks are
            // internode postings too).
            if !st.sweep[rank.idx()].dirty_ops.is_empty()
                || !st.rel[rank.idx()].ack_due.is_empty()
            {
                st.eng_stats.step_runs[1] += 1;
                if !st.rel[rank.idx()].ack_due.is_empty() {
                    self.rel_flush_acks(&mut st, rank);
                }
                if !st.sweep[rank.idx()].dirty_ops.is_empty() {
                    self.issue_phase(&mut st, rank, Phase::Internode);
                }
            }
            // Step 3: batch completion + activation of deferred epochs.
            if Self::completion_work(&st, rank) {
                st.eng_stats.step_runs[2] += 1;
                self.complete_and_activate(&mut st, rank);
            }
            // Step 4: post intranode RMA communications.
            if !st.sweep[rank.idx()].dirty_ops.is_empty() {
                st.eng_stats.step_runs[3] += 1;
                self.issue_phase(&mut st, rank, Phase::Intranode);
            }
            // Step 5: consume intranode notifications. The sublayer grows
            // this step with the in-order frame delivery queue (dedup'd
            // internode notifications).
            if !st.sweep[rank.idx()].fifo_pending.is_empty()
                || !st.rel[rank.idx()].deliver.is_empty()
            {
                st.eng_stats.step_runs[4] += 1;
                if !st.rel[rank.idx()].deliver.is_empty() {
                    self.rel_deliver(&mut st, rank);
                }
                if !st.sweep[rank.idx()].fifo_pending.is_empty() {
                    self.drain_fifos(&mut st, rank);
                }
            }
            // Step 6: batch processing of lock/unlock requests.
            if !st.sweep[rank.idx()].lock_backlog.is_empty()
                || !st.sweep[rank.idx()].pending_unlocks.is_empty()
            {
                st.eng_stats.step_runs[5] += 1;
                self.pump_lock_backlog(&mut st, rank);
            }
            // Step 7: batch completion + activation again.
            if Self::completion_work(&st, rank) {
                st.eng_stats.step_runs[6] += 1;
                self.complete_and_activate(&mut st, rank);
            }
            // Flush the intranode sync words the steps above buffered:
            // one FIFO push per (peer, window) channel per pass instead
            // of one per notice. Runs inside the loop so `has_work`
            // (which includes the buffer) still terminates.
            if !st.sweep[rank.idx()].sync_out.is_empty() {
                self.flush_sync_batches(&mut st, rank);
            }
        }
    }

    /// Whether steps 3/7 (completion + activation) have pending work.
    fn completion_work(st: &EngState, rank: Rank) -> bool {
        let sw = &st.sweep[rank.idx()];
        !sw.dirty_complete.is_empty() || !sw.act_dirty.is_empty()
    }

    /// Step 1: consume completion notices.
    fn drain_notices(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        while let Some(n) = st.sweep[rank.idx()].notices.pop_front() {
            st.eng_stats.notices_drained += 1;
            match n {
                Notice::LocalComplete { win, epoch, age } => {
                    self.op_update(st, rank, win, epoch, age, |o| o.needs_local = false);
                }
                Notice::Acked { win, epoch, age } => {
                    self.op_update(st, rank, win, epoch, age, |o| o.needs_ack = false);
                }
            }
        }
    }

    /// Steps 3 and 7: batch-complete dirty epochs, then scan deferred
    /// epochs for activation.
    fn complete_and_activate(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        st.drain(
            |st| &mut st.sweep[rank.idx()].dirty_complete,
            |st, (win, epoch)| self.check_epoch_progress(st, rank, win, epoch),
        );
        st.drain(
            |st| &mut st.sweep[rank.idx()].act_dirty,
            |st, win| self.activation_scan(st, rank, win),
        );
    }

    /// Step 5: drain exactly the (window, peer) FIFOs indexed as pending
    /// and dispatch the decoded 64-bit packets. Pairs that receive more
    /// packets while we dispatch re-index themselves through the normal
    /// delivery path, so nothing is lost.
    fn drain_fifos(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        st.drain(
            |st| &mut st.sweep[rank.idx()].fifo_pending,
            |st, (win, src)| {
                while let Some(raw) = st.win_mut(win, rank).fifo_from(src).pop() {
                    st.eng_stats.fifo_drained += 1;
                    let Some(sp) = SyncPacket::from_word(win, src, raw) else {
                        // Surface corrupt packets with provenance instead of
                        // aborting the simulated job (the real library would
                        // raise an MPI error on the window).
                        st.eng_stats.fifo_decode_errors += 1;
                        st.degradations.push(Degradation::FifoDecode(ProtocolError {
                            rank,
                            win,
                            src,
                            raw,
                            detail: "corrupt 64-bit sync packet",
                        }));
                        continue;
                    };
                    self.dispatch_sync(st, rank, sp);
                }
            },
        );
    }

    /// Hand one synchronization-plane packet to its handler — the one
    /// dispatch behind both transports: the step-5 FIFO drain and
    /// internode delivery ([`Body::Sync`]).
    fn dispatch_sync(self: &Rc<Self>, st: &mut EngState, me: Rank, sp: SyncPacket) {
        let SyncPacket {
            kind,
            win,
            peer,
            id,
        } = sp;
        match kind {
            SyncKind::LockReqExcl => {
                self.handle_lock_req(st, me, peer, win, id, LockKind::Exclusive)
            }
            SyncKind::LockReqShared => {
                self.handle_lock_req(st, me, peer, win, id, LockKind::Shared)
            }
            SyncKind::GrantExposure => self.handle_grant(st, me, peer, win, id, Plane::Gats),
            SyncKind::GrantLock => self.handle_grant(st, me, peer, win, id, Plane::Lock),
            SyncKind::GatsDone => self.handle_gats_done(st, me, peer, win, id),
            SyncKind::Unlock => self.handle_unlock(st, me, peer, win, id),
        }
    }

    // ------------------------------------------------------------------
    // send helpers
    // ------------------------------------------------------------------

    /// Send a synchronization-plane packet from `src` to `dst`; intranode
    /// it travels as a 64-bit word through the notification FIFO (§VII.D),
    /// internode as a control packet that rides the reliability sublayer
    /// when configured.
    ///
    /// Intranode words are not pushed immediately: they are buffered in
    /// the sender's sweep state and flushed by [`Engine::flush_sync_batches`]
    /// at the bottom of the sweep-loop iteration that produced them, so
    /// everything one pass emits toward the same (peer, window) channel
    /// leaves as a single push. Every `send_sync` caller runs either
    /// inside a sweep step or in a dispatch/watchdog path that is
    /// followed by a `sweep()` of the sending rank, so the buffer never
    /// outlives the event that filled it.
    pub(crate) fn send_sync(
        self: &Rc<Self>,
        st: &mut EngState,
        src: Rank,
        dst: Rank,
        win: WinId,
        kind: SyncKind,
        id: u64,
    ) {
        let sp = SyncPacket {
            kind,
            win,
            peer: src,
            id,
        };
        if self.net.topology().same_node(src, dst) {
            st.sweep[src.idx()].sync_out.push((dst, win, sp.word()));
        } else {
            self.send_framed(
                st,
                Packet {
                    src,
                    dst,
                    body: Body::Sync(sp),
                },
                None,
                None,
            );
        }
    }

    /// Flush the intranode sync words buffered by [`Engine::send_sync`]:
    /// group the buffer by (destination, window) channel — order within a
    /// channel preserved — and emit one push per channel ([`Body::fifo`]:
    /// a singleton inline, several words as one batch). Nothing buffers a
    /// word while the flush runs, and both buffers keep their capacity, so
    /// a steady-state flush allocates only the batch vectors that actually
    /// go on the wire.
    fn flush_sync_batches(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        let sw = &mut st.sweep[rank.idx()];
        let mut out = std::mem::take(&mut sw.sync_out);
        let mut words = std::mem::take(&mut sw.sync_word_scratch);
        while !out.is_empty() {
            let (dst, win, _) = out[0];
            words.clear();
            out.retain(|&(d, w, word)| {
                if (d, w) == (dst, win) {
                    words.push(word);
                    false
                } else {
                    true
                }
            });
            if words.len() > 1 {
                st.eng_stats.notices_batched += words.len() as u64;
            }
            let body = Body::fifo(win, &words);
            self.send_framed(st, Packet { src: rank, dst, body }, None, None);
        }
        let sw = &mut st.sweep[rank.idx()];
        sw.sync_out = out;
        sw.sync_word_scratch = words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WinInfo;
    use mpisim_sim::Sim;

    /// Build an engine with one 2-rank window whose peer FIFO is
    /// registered (but empty) — the state a drained rank is left in.
    /// The `Sim` is returned alongside so tests that need delivery
    /// events (e.g. FIFO batching) can drain it.
    fn engine_with_window() -> (Sim, Rc<Engine>) {
        let sim = Sim::new(1);
        let eng = Engine::new(sim.handle(), JobConfig::new(2));
        {
            let mut st = eng.st.borrow_mut();
            st.wins.push(WinGlobal {
                per_rank: (0..2).map(|_| Some(WinRank::new(64, WinInfo::default()))).collect(),
            });
            st.win_mut(WinId(0), Rank(0)).fifo_from(Rank(1));
        }
        (sim, eng)
    }

    #[test]
    fn dropping_the_last_handle_frees_the_engine() {
        let (_sim, eng) = engine_with_window();
        let weak = Rc::downgrade(&eng);
        drop(eng);
        // The network's delivery handler must not keep the engine (which
        // owns the network) alive: that cycle leaked every job's state.
        assert!(weak.upgrade().is_none());
    }

    /// Run `body` on `n` ranks over one 64-byte window, then (after a
    /// barrier, before `win_free`) collect each rank's ω table.
    fn omega_tables_after(
        n: usize,
        body: impl Fn(&mut crate::RankEnv, WinId) + 'static,
    ) -> Vec<crate::window::OmegaTable> {
        let tables = Rc::new(RefCell::new(vec![Default::default(); n]));
        let out = tables.clone();
        crate::run_job(JobConfig::new(n), move |env| {
            // Reorder flags: a ring of post-then-start needs the access
            // epoch to progress past the rank's own open exposure.
            let win = env.win_allocate_with(64, WinInfo::all_reorder()).unwrap();
            env.barrier().unwrap();
            body(env, win);
            env.barrier().unwrap();
            let me = env.rank();
            out.borrow_mut()[me.idx()] = env.engine().st.borrow().win(win, me).omega.clone();
            env.win_free(win).unwrap();
        })
        .unwrap();
        tables.take()
    }

    #[test]
    fn neighbour_ring_keeps_every_omega_table_at_its_active_peers() {
        let n = 512;
        let tables = omega_tables_after(n, |env, win| {
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (left, right) = (Rank((me + n - 1) % n), Rank((me + 1) % n));
            env.lock(win, right, crate::LockKind::Exclusive).unwrap();
            env.put(win, right, 0, &[me as u8]).unwrap();
            env.unlock(win, right).unwrap();
            env.post(win, crate::Group::single(left)).unwrap();
            env.start(win, crate::Group::single(right)).unwrap();
            env.put(win, right, 8, &[me as u8]).unwrap();
            env.complete(win).unwrap();
            env.wait_epoch(win).unwrap();
        });
        for (me, t) in tables.iter().enumerate() {
            assert!((1..=3).contains(&t.len()), "rank {me}: {} peers in {t:?}", t.len());
            let (left, right) = (Rank((me + n - 1) % n), Rank((me + 1) % n));
            let (l, r) = (t.peer(left), t.peer(right));
            assert_eq!((r.a, r.g, r.a_lock, r.g_lock), (1, 1, 1, 1), "rank {me}");
            assert_eq!((l.e, l.gats_done_recv, l.grants.gl_sent), (1, 1, 1), "rank {me}");
        }
    }

    #[test]
    fn lock_all_fills_the_lock_plane_to_every_peer() {
        let n = 16;
        let tables = omega_tables_after(n, |env, win| {
            env.fence(win).unwrap();
            env.fence(win).unwrap();
            env.lock_all(win).unwrap();
            env.unlock_all(win).unwrap();
        });
        for (me, t) in tables.iter().enumerate() {
            assert_eq!(t.len(), n, "rank {me}");
            for (peer, p) in t.iter() {
                assert_eq!((p.a_lock, p.g_lock, p.grants.gl_sent), (1, 1, 1), "{me} -> {peer}");
                assert_eq!((p.a, p.e, p.g), (0, 0, 0), "fences take no ω: {me} -> {peer}");
            }
        }
    }

    #[test]
    fn quiescent_sweep_does_no_step_work() {
        let (_sim, eng) = engine_with_window();
        eng.sweep(Rank(0));
        let s = eng.engine_stats();
        assert_eq!(s.sweeps, 1);
        // Every step was elided: no per-window or per-FIFO state was
        // touched even though a window and a registered FIFO exist.
        assert_eq!(s.step_runs, [0; 7]);
        assert_eq!(s.notices_drained, 0);
        assert_eq!(s.issue_scans, 0);
        assert_eq!(s.fifo_drained, 0);
    }

    #[test]
    fn corrupt_fifo_packet_is_surfaced_not_fatal() {
        let (_sim, eng) = engine_with_window();
        {
            let mut st = eng.st.borrow_mut();
            // 0xF type nibble: SyncPacket::from_word returns None.
            assert!(st.win_mut(WinId(0), Rank(0)).fifo_from(Rank(1)).push(0xF << 60));
            st.sweep[0].fifo_pending.mark((WinId(0), Rank(1)));
        }
        eng.sweep(Rank(0));
        let s = eng.engine_stats();
        assert_eq!(s.fifo_drained, 1);
        assert_eq!(s.fifo_decode_errors, 1);
        assert_eq!(s.step_runs[4], 1, "step 5 ran exactly once");
        let errs = eng.take_degradations();
        assert_eq!(errs.len(), 1);
        let Degradation::FifoDecode(e) = &errs[0] else {
            panic!("expected a fifo-decode degradation, got {:?}", errs[0])
        };
        assert_eq!((e.rank, e.win, e.src), (Rank(0), WinId(0), Rank(1)));
        let msg = errs[0].to_string();
        assert!(msg.contains("corrupt") && msg.contains("0xf000000000000000"), "{msg}");
        assert_eq!(errs[0].kind(), "fifo-decode");
        assert!(eng.take_degradations().is_empty(), "take drains");
    }

    #[test]
    fn a_full_ring_redelivers_the_overflow_in_order_1us_later() {
        use crate::window::FIFO_CAPACITY;
        let (sim, eng) = engine_with_window();
        // Every word is corrupt (0xF type nibble), so each one drained
        // leaves a degradation carrying it: the drain order is observable.
        let words: Vec<u64> = (0..FIFO_CAPACITY as u64 + 7)
            .map(|i| 0xF << 60 | i)
            .collect();
        {
            let mut st = eng.st.borrow_mut();
            eng.dispatch_body(&mut st, Rank(0), Rank(1), Body::fifo(WinId(0), &words));
            assert_eq!(
                st.eng_stats.fifo_packets, FIFO_CAPACITY as u64,
                "the ring takes its bound"
            );
            assert!(st.win_mut(WinId(0), Rank(0)).fifo_from(Rank(1)).is_full());
        }
        eng.sweep(Rank(0));
        assert_eq!(eng.engine_stats().fifo_drained, FIFO_CAPACITY as u64);
        // The 7 the full ring refused are one redelivery, 1 µs later.
        let stats = sim.run().unwrap();
        assert_eq!(
            (stats.events_executed, stats.final_time),
            (1, SimTime::from_micros(1))
        );
        let s = eng.engine_stats();
        assert_eq!(s.fifo_packets, words.len() as u64);
        assert_eq!(s.fifo_drained, s.fifo_packets);
        let drained: Vec<u64> = eng
            .take_degradations()
            .iter()
            .map(|d| match d {
                Degradation::FifoDecode(e) => e.raw,
                other => panic!("expected a fifo-decode degradation, got {other:?}"),
            })
            .collect();
        assert_eq!(drained, words, "drained in push order");
    }

    /// The delivery gate: each window-naming frame for a side its
    /// destination freed is dropped whole. Without the gate each one
    /// reaches `win_mut` ("window not created at this rank") or marks
    /// work for the freed side.
    #[test]
    fn frames_for_a_freed_side_mark_nothing() {
        use crate::msg::{EpochTag, Layout, OpKind};
        let (_sim, eng) = engine_with_window();
        let win = WinId(0);
        eng.win_free(Rank(0), win).unwrap();
        let sync = |kind| SyncPacket { kind, win, peer: Rank(1), id: 1 };
        let word = |kind| sync(kind).word();
        let put = OpKind::Put { payload: Payload::from_vec(vec![1; 8]), layout: Layout::Contig };
        let bodies = [
            Body::Op { win, tag: EpochTag::Fence { seq: 0 }, disp: 0, token: None, kind: put },
            Body::FenceDone { win, seq: 0, ops_sent: 1 },
            Body::fifo(win, &[word(SyncKind::GrantLock)]),
            Body::fifo(win, &[word(SyncKind::LockReqExcl), word(SyncKind::Unlock)]),
        ];
        for body in bodies.into_iter().chain(SyncKind::ALL.map(|k| Body::Sync(sync(k)))) {
            let what = format!("{body:?}");
            let mut st = eng.st.borrow_mut();
            eng.dispatch_body(&mut st, Rank(0), Rank(1), body);
            assert!(!st.sweep[0].has_work() && !st.rel[0].has_work(), "{what} marked work");
            assert!(st.trace.is_empty() && st.degradations.is_empty(), "{what}");
        }
        assert_eq!(eng.engine_stats(), EngineStats::default());
    }

    /// A full ring's overflow comes back 1 µs later through the same
    /// gate: freed in between, the side takes none of it, and the free
    /// took the ring's pending entry off step 5's list.
    #[test]
    fn a_full_ring_retry_that_lands_after_the_free_is_dropped() {
        use crate::window::FIFO_CAPACITY;
        let (sim, eng) = engine_with_window();
        let words = vec![0xF << 60; FIFO_CAPACITY + 7];
        {
            let mut st = eng.st.borrow_mut();
            eng.dispatch_body(&mut st, Rank(0), Rank(1), Body::fifo(WinId(0), &words));
        }
        eng.win_free(Rank(0), WinId(0)).unwrap();
        let stats = sim.run().unwrap();
        assert_eq!((stats.events_executed, stats.final_time), (1, SimTime::from_micros(1)));
        let s = eng.engine_stats();
        assert_eq!(s.fifo_packets, FIFO_CAPACITY as u64, "the retry pushed nothing");
        assert_eq!((s.sweeps, s.step_runs, s.fifo_drained), (1, [0; 7], 0));
        assert!(eng.take_degradations().is_empty());
    }

    #[test]
    fn same_channel_sync_words_batch_into_one_push() {
        let (sim, eng) = engine_with_window();
        {
            let mut st = eng.st.borrow_mut();
            eng.send_sync(&mut st, Rank(1), Rank(0), WinId(0), SyncKind::GatsDone, 7);
            eng.send_sync(&mut st, Rank(1), Rank(0), WinId(0), SyncKind::GatsDone, 9);
            // Buffered, not yet on the wire.
            assert_eq!(st.sweep[1].sync_out.len(), 2);
            assert_eq!(st.eng_stats.fifo_packets, 0);
        }
        // The sweep-loop bottom flushes the buffer as a single
        // Fifo64Batch push; draining the sim delivers it, and the
        // receiver's dispatch-triggered sweep decodes both words.
        eng.sweep(Rank(1));
        sim.run().unwrap();
        let s = eng.engine_stats();
        assert_eq!(s.notices_batched, 2, "both words travelled in one batch");
        assert_eq!(s.fifo_packets, 2);
        assert_eq!(s.fifo_drained, 2);
        assert_eq!(s.fifo_decode_errors, 0);
        // Words were applied in FIFO order: the done high-water mark
        // landed on the later access id.
        let st = eng.st.borrow();
        assert_eq!(st.win(WinId(0), Rank(0)).omega.peer(Rank(1)).gats_done_recv, 9);
        assert!(st.sweep[0].fifo_pending.is_empty(), "drain consumed the pending entry");
    }

    #[test]
    fn distinct_channels_flush_as_singletons() {
        let (sim, eng) = engine_with_window();
        {
            let mut st = eng.st.borrow_mut();
            st.win_mut(WinId(0), Rank(0)).fifo_from(Rank(1));
            eng.send_sync(&mut st, Rank(1), Rank(0), WinId(0), SyncKind::GatsDone, 1);
        }
        eng.sweep(Rank(1));
        sim.run().unwrap();
        let s = eng.engine_stats();
        // A lone word stays a plain Fifo64: no batch, no counter.
        assert_eq!(s.notices_batched, 0);
        assert_eq!(s.fifo_packets, 1);
    }
}
