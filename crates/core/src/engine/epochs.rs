//! The engine's side of the epoch lifecycle (DESIGN.md §4.5): the one open
//! edge ([`Engine::open_epoch`]), the one close edge
//! ([`Engine::close_epoch`]; a fence call is a close plus an open), the
//! activation predicate of §VI with the deferred-epoch scan of §VII.A,
//! completion detection, and the one finish edge
//! ([`Engine::finish_epoch`]).

use std::rc::Rc;

use mpisim_net::Packet;

use crate::config::WinInfo;
use crate::engine::rel::Degradation;
use crate::engine::watchdog::StallReport;
use crate::engine::{EngState, Engine};
use crate::epoch::{EpochKind, EpochObj, Slot};
use crate::error::{RmaError, RmaResult};
use crate::msg::{Body, SyncKind};
use crate::request::ReqKind;
use crate::trace::{EpochEvent, Plane, SyncEvent, TraceEvent};
use crate::types::{EpochId, LockKind, Rank, Req, WinId};

/// How an epoch's internal lifetime ended.
pub(crate) enum Outcome {
    /// Its completion conditions hold.
    Completed,
    /// It overstayed the stall watchdog's budget after its close.
    Cancelled(StallReport),
    /// A dormant trailing fence, retired unclosed at `win_free`.
    DormantRetired,
}

impl Engine {
    // ------------------------------------------------------------------
    // the application-level edges: open and close
    // ------------------------------------------------------------------

    /// Every epoch-opening routine but fence (`MPI_WIN_START`, `POST`,
    /// `LOCK`, `LOCK_ALL` and their `I` variants): open an epoch of `kind`.
    /// Nonblocking at middleware level (§VII.C: the application-level
    /// request of an opening routine is a dummy).
    pub fn open_epoch(self: &Rc<Self>, rank: Rank, win: WinId, kind: EpochKind) -> RmaResult<()> {
        {
            let mut st = self.st.borrow_mut();
            let peers = match &kind {
                EpochKind::Lock { target, .. } => Some(std::slice::from_ref(target)),
                EpochKind::GatsAccess { group } | EpochKind::GatsExposure { group } => {
                    Some(group.ranks())
                }
                // Every rank.
                EpochKind::LockAll | EpochKind::Fence { .. } => None,
            };
            self.api_win(&st, win, rank, peers)?.check_open(Some(kind.slot()))?;
            self.open_in(&mut st, rank, win, kind);
        }
        self.sweep(rank);
        Ok(())
    }

    /// Every epoch-closing routine but fence (`MPI_WIN_COMPLETE`, `WAIT`,
    /// `UNLOCK`, `UNLOCK_ALL` and their `I` variants): close the epoch open
    /// in `slot` and return the closing request; the blocking variants wait
    /// on it in the API layer.
    pub fn close_epoch(self: &Rc<Self>, rank: Rank, win: WinId, slot: Slot) -> RmaResult<Req> {
        let req = {
            let mut st = self.st.borrow_mut();
            self.api_win(&st, win, rank, Some(&[]))?;
            self.close_in(&mut st, rank, win, slot)?
        };
        self.sweep(rank);
        Ok(req)
    }

    /// `MPI_WIN_IFENCE` (and the internals of `MPI_WIN_FENCE`): close the
    /// open fence epoch, open the next one, and return the closing request
    /// (a dummy completed request if this fence only opens).
    pub fn fence(self: &Rc<Self>, rank: Rank, win: WinId) -> RmaResult<Req> {
        let req = {
            let mut st = self.st.borrow_mut();
            let w = self.api_win(&st, win, rank, None)?; // names every rank
            w.check_open(Some(Slot::Fence))?;
            let req = if w.open.get(Slot::Fence).is_some() {
                self.close_in(&mut st, rank, win, Slot::Fence)?
            } else {
                // An opening-only fence completes immediately (§VII.C).
                self.alloc_req(&mut st, rank, ReqKind::EpochOpen, true)
            };
            let w = st.win_mut(win, rank);
            let seq = w.next_fence_seq;
            w.next_fence_seq += 1;
            self.open_in(&mut st, rank, win, EpochKind::Fence { seq });
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    /// The open edge (the caller checked for conflicts): enter a new epoch
    /// of `kind` in the window side and queue an activation scan. Under the
    /// lazy baseline a passive-target epoch is held back whole until its
    /// closing call (MVAPICH's lazy lock acquisition, §VIII.A).
    fn open_in(&self, st: &mut EngState, rank: Rank, win: WinId, kind: EpochKind) {
        let e = st.win_mut(win, rank).open_epoch(kind);
        if self.lazy() && e.kind.is_passive() {
            e.hold_lazily();
        }
        let (id, kind) = (e.id, e.kind.slot());
        st.eng_stats.epochs_opened += 1;
        let event = EpochEvent::Opened;
        self.trace(st, rank, TraceEvent::Epoch { win, epoch: id.0, kind, event });
        st.mark_act_dirty(rank, win);
    }

    /// The close edge: vacate `slot`, stamp the epoch closed with a fresh
    /// closing request, and queue the work the close unblocks — issuing
    /// recorded ops (an exposure has none), completion detection, the
    /// activation of a lazily held passive epoch — and put it on the stall
    /// watch.
    fn close_in(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        slot: Slot,
    ) -> RmaResult<Req> {
        let id = st
            .win_mut(win, rank)
            .open
            .close(slot)
            .ok_or(RmaError::EpochMismatch { called: slot.routines().1 })?;
        let req = self.alloc_req(st, rank, ReqKind::EpochClose, false);
        let now = self.sim.now();
        st.win_mut(win, rank).epoch_mut(id).close(req);
        let event = EpochEvent::Closed;
        self.trace(st, rank, TraceEvent::Epoch { win, epoch: id.0, kind: slot, event });
        if slot != Slot::Exposure {
            st.mark_ops_dirty(rank, win, id);
        }
        st.mark_complete_dirty(rank, win, id);
        if slot.is_passive() {
            st.mark_act_dirty(rank, win);
        }
        // The stall watchdog's list holds exactly the closed epochs awaiting
        // completion, so a tick never scans all windows × ranks.
        if self.cfg.watchdog.is_some() {
            st.stall_watch.push((win, rank, id, now));
            self.arm_watchdog(st);
        }
        Ok(req)
    }

    /// `MPI_WIN_TEST`: nonblocking completion check of the current exposure
    /// epoch *without* closing it unless complete. Returns `Ok(true)` and
    /// closes the epoch if its completion conditions hold.
    pub fn test_exposure(self: &Rc<Self>, rank: Rank, win: WinId) -> RmaResult<bool> {
        {
            let st = self.st.borrow();
            let w = self.api_win(&st, win, rank, Some(&[]))?;
            let id = *w
                .open
                .get(Slot::Exposure)
                .ok_or(RmaError::EpochMismatch { called: "test" })?;
            debug_assert!(self.exposure_tally_matches_scan(&st, rank, win, id));
            let e = w.epoch(id);
            if !e.is_active() || e.announce_left() > 0 {
                return Ok(false);
            }
        }
        let req = self.close_epoch(rank, win, Slot::Exposure)?;
        let mut st = self.st.borrow_mut();
        debug_assert!(st.reqs.is_done(req).unwrap());
        self.poll_req(&mut st, req, None)?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // activation (§VI rules, §VII.A deferred-epoch scan)
    // ------------------------------------------------------------------

    /// Scan the window's epochs in open order, activating deferred epochs
    /// until the first one that fails the predicate ("the scan stops when
    /// the first deferred epoch is encountered that fails activation
    /// conditions", §VII.A).
    pub(crate) fn activation_scan(self: &Rc<Self>, st: &mut EngState, rank: Rank, win: WinId) {
        // Index walk over the queue (re-borrowed each iteration) instead of
        // a snapshot: activation neither opens nor retires an epoch, so the
        // walk is stable and allocation-free.
        let mut i = 0;
        while let Some(e) = st.win(win, rank).epochs.iter().nth(i) {
            i += 1;
            if e.is_active() {
                continue;
            }
            let id = e.id;
            if self.can_activate(st, rank, win, id) {
                self.activate_epoch(st, rank, win, id);
            } else {
                st.eng_stats.epochs_deferred += 1;
                break;
            }
        }
    }

    /// The activation predicate: rule 4 of §VI.A (strictly serial
    /// activation) picks the epoch `id` follows, and the §VI.B rule,
    /// [`WinInfo::overlaps`], decides whether `id` may progress while that
    /// one is still active.
    ///
    /// A *dormant* fence epoch — open, never closed, and empty — is
    /// skipped when looking for the preceding epoch: it is the trailing
    /// fence of a finished fence phase and only exists so a later fence
    /// call keeps the collective sequence aligned across ranks.
    ///
    /// Once that later call closes it (still empty), the fence cannot
    /// complete before every peer closes it too, and a peer does so only
    /// after the GATS epochs it opened under it — which wait for their
    /// matches here. So the closed fence stays skipped for a GATS epoch
    /// that opened under it, and for a passive-target epoch that rule 4
    /// puts ahead of such a GATS epoch. A passive-target epoch with no GATS
    /// epoch behind it needs no peer call and keeps rule 4's order.
    fn can_activate(&self, st: &EngState, rank: Rank, win: WinId, id: EpochId) -> bool {
        let w = st.win(win, rank);
        let e = w.epoch(id);
        if e.is_held() {
            return false;
        }
        // Open order is id order: the epochs ahead of `e` have smaller ids.
        let skips_closed = |p: &EpochObj| {
            e.opened_in_fence == Some(p.id)
                && p.is_empty_fence()
                && w.epochs.iter().filter(|q| q.id >= id).any(|q| {
                    q.opened_in_fence == Some(p.id) && !q.kind.is_passive()
                })
        };
        let prev = w
            .epochs
            .iter()
            .rev()
            .filter(|p| p.id < id)
            .find(|p| !(p.is_dormant_fence() || skips_closed(p)));
        let Some(prev) = prev else { return true };
        if !prev.is_active() {
            return false; // rule 4: epochs are never skipped
        }
        let (before, next) = (prev.kind.slot(), e.kind.slot());
        // MPI requires concurrently *open* lock epochs toward distinct
        // targets to make progress (their per-pair matching chains are
        // independent), so serializing behind a still-open lock epoch
        // would deadlock a legal program. Once the preceding lock epoch is
        // closed, though, rule 4 applies: back-to-back lock epochs
        // serialize unless A_A_A_R is set (the paper's Fig 8 behaviour).
        let distinct_locks = matches!((before, next), (Slot::Lock(t1), Slot::Lock(t2)) if t1 != t2);
        if distinct_locks && !prev.is_closed() {
            return true;
        }
        // The preceding epoch is active but incomplete: the §VI.B rule
        // decides, under the window's info or, in the baseline, under the
        // constant info that stands for its missing deferred-epoch queue.
        let info = if self.lazy() { &WinInfo::BASELINE } else { &w.info };
        info.overlaps(before, next)
    }

    /// Start an epoch's internal lifetime: assign access ids, send lock
    /// requests, emit exposure grants, and replay recorded state.
    fn activate_epoch(self: &Rc<Self>, st: &mut EngState, rank: Rank, win: WinId, id: EpochId) {
        let kind = {
            let e = st.win_mut(win, rank).epoch_mut(id);
            e.activate();
            e.kind.clone()
        };
        st.eng_stats.epochs_activated += 1;
        let (slot, event) = (kind.slot(), EpochEvent::Activated);
        self.trace(st, rank, TraceEvent::Epoch { win, epoch: id.0, kind: slot, event });
        let topo = self.net.topology().clone();
        let internode = |t: Rank| !topo.same_node(rank, t);
        match kind {
            EpochKind::GatsAccess { group } => {
                for t in group.ranks() {
                    let w = st.win_mut(win, rank);
                    let po = w.omega.peer_mut(*t);
                    po.a += 1;
                    let aid = po.a;
                    let granted = aid <= po.g;
                    w.epoch_mut(id).assign(*t, aid, granted, internode(*t));
                    let event = SyncEvent::AccessAssigned { epoch: id.0, id: aid };
                    let traced = TraceEvent::Sync { win, peer: *t, plane: Plane::Gats, event };
                    self.trace(st, rank, traced);
                }
                st.mark_ops_dirty(rank, win, id);
            }
            // A passive-target epoch requests its lock from the one target,
            // or a shared lock from every rank.
            EpochKind::Lock { .. } | EpochKind::LockAll => {
                let (targets, lock) = match kind {
                    EpochKind::Lock { target, lock } => (target.idx()..target.idx() + 1, lock),
                    _ => (0..self.cfg.n_ranks, LockKind::Shared),
                };
                for t in targets.map(Rank) {
                    let w = st.win_mut(win, rank);
                    let po = w.omega.peer_mut(t);
                    po.a_lock += 1;
                    let aid = po.a_lock;
                    // `unsent` counts recorded while the epoch was
                    // deferred are preserved.
                    w.epoch_mut(id).assign(t, aid, false, internode(t));
                    let event = SyncEvent::AccessAssigned { epoch: id.0, id: aid };
                    let traced = TraceEvent::Sync { win, peer: t, plane: Plane::Lock, event };
                    self.trace(st, rank, traced);
                    let kind = match lock {
                        LockKind::Exclusive => SyncKind::LockReqExcl,
                        LockKind::Shared => SyncKind::LockReqShared,
                    };
                    self.send_sync(st, rank, t, win, kind, aid);
                }
            }
            EpochKind::GatsExposure { group } => {
                for o in group.ranks() {
                    let w = st.win_mut(win, rank);
                    let po = w.omega.peer_mut(*o);
                    po.e += 1;
                    let eid = po.e;
                    po.grants.exposure_credits += 1;
                    let received = po.gats_done_recv >= eid;
                    w.grant_dirty.mark(*o);
                    w.epoch_mut(id).expect_done(*o, eid, received);
                }
                // Emitting the grants is lock/grant-sequencing work.
                st.mark_lock_backlog(rank, win);
            }
            EpochKind::Fence { .. } => {
                // A fence epoch is an access epoch toward every rank (self
                // included) and needs no grants.
                let e = st.win_mut(win, rank).epoch_mut(id);
                for t in 0..self.cfg.n_ranks {
                    // `unsent` counts recorded while the epoch was
                    // deferred are preserved.
                    e.assign(Rank(t), 0, true, internode(Rank(t)));
                }
                st.mark_ops_dirty(rank, win, id);
            }
        }
        st.mark_complete_dirty(rank, win, id);
    }

    // ------------------------------------------------------------------
    // completion
    // ------------------------------------------------------------------

    /// Re-evaluate one epoch: emit any per-target done/unlock/`FenceDone`
    /// packets that became possible, and complete the epoch if its
    /// conditions hold ("completion notification packets are sent to each
    /// target as soon as the last RMA transfer meant for the target is
    /// fulfilled", §VII.D). Costs O(targets on the ready list), not
    /// O(targets): the conditions are counters kept at the transition
    /// sites (DESIGN.md §10.1).
    pub(crate) fn check_epoch_progress(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
    ) {
        // A work-list entry can outlive its epoch.
        let Some(e) = st.live_epoch(win, rank, id).filter(|e| e.is_active()) else {
            return;
        };
        debug_assert!(e.counters_match_scan(), "epoch counters out of step: {e:?}");
        debug_assert!(self.exposure_tally_matches_scan(st, rank, win, id));
        if !e.is_closed() {
            return;
        }
        let fence_seq = match e.kind {
            EpochKind::Fence { seq } => Some(seq),
            _ => None,
        };
        if e.has_ready() {
            self.emit_announcements(st, rank, win, id);
        }
        let e = st.win(win, rank).epoch(id);
        let done = e.announce_left() == 0
            && e.live_ops().is_empty()
            && fence_seq.is_none_or(|seq| self.fence_heard_all(st, rank, win, seq));
        if done {
            self.finish_epoch(st, rank, win, id, Outcome::Completed);
        }
    }

    /// The emit pass of a closed access-side epoch: send the closing
    /// announcement — GATS done, unlock or `FenceDone` — to every target on
    /// the epoch's ready list that is fulfilled (granted, every recorded op
    /// on the wire and, for an unlock, every covered op fully complete:
    /// local + response + remote ack), in rank order.
    fn emit_announcements(self: &Rc<Self>, st: &mut EngState, rank: Rank, win: WinId, id: EpochId) {
        #[derive(Clone, Copy)]
        enum Announce {
            Sync(SyncKind, Plane),
            FenceDone { seq: u64 },
        }
        let mut to_send = std::mem::take(&mut st.sweep[rank.idx()].send_scratch);
        let e = st.win_mut(win, rank).epoch_mut(id);
        let what = match e.kind {
            EpochKind::GatsAccess { .. } => Announce::Sync(SyncKind::GatsDone, Plane::Gats),
            EpochKind::Lock { .. } | EpochKind::LockAll => {
                Announce::Sync(SyncKind::Unlock, Plane::Lock)
            }
            EpochKind::Fence { seq } => Announce::FenceDone { seq },
            EpochKind::GatsExposure { .. } => unreachable!("exposure epochs announce nothing"),
        };
        let visits = e.take_announceable(&mut to_send);
        st.eng_stats.target_visits += visits;
        if matches!(what, Announce::Sync(SyncKind::GatsDone, _)) {
            st.eng_stats.gats_dones += to_send.len() as u64;
        }
        for &(t, word) in &to_send {
            match what {
                Announce::Sync(kind, plane) => {
                    let event = SyncEvent::EpochDoneSent {
                        epoch: id.0,
                        id: word,
                    };
                    self.trace(st, rank, TraceEvent::Sync { win, peer: t, plane, event });
                    self.send_sync(st, rank, t, win, kind, word);
                }
                Announce::FenceDone { seq } => {
                    let event = SyncEvent::FenceDoneSent { seq };
                    let traced = TraceEvent::Sync { win, peer: t, plane: Plane::Gats, event };
                    self.trace(st, rank, traced);
                    let body = Body::FenceDone { win, seq, ops_sent: word };
                    self.send_framed(st, Packet { src: rank, dst: t, body }, None, None);
                }
            }
        }
        to_send.clear();
        st.sweep[rank.idx()].send_scratch = to_send;
    }

    /// Debug-build check of an exposure epoch's `announce_left` against the
    /// scan it replaced: the origins whose done packet has not arrived
    /// (`gats_done_recv[o] < exp_id`). Trivially true for other kinds.
    fn exposure_tally_matches_scan(&self, st: &EngState, rank: Rank, win: WinId, id: EpochId) -> bool {
        let w = st.win(win, rank);
        let e = w.epoch(id);
        let owed = e
            .exposure_origins()
            .iter()
            .filter(|(o, exp)| w.omega.peer(**o).gats_done_recv < **exp)
            .count();
        e.kind.slot() != Slot::Exposure || e.announce_left() as usize == owed
    }

    /// The finish edge — the one place an epoch's internal lifetime ends:
    /// flip it to complete, fire the requests it holds, count the outcome,
    /// trace it, retire it from the open order and rescan for newly
    /// activatable epochs. Every opened epoch leaves through here exactly
    /// once, so `opened = completed + cancelled + dormant_retired`.
    pub(crate) fn finish_epoch(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
        outcome: Outcome,
    ) {
        let e = st.win_mut(win, rank).epoch_mut(id);
        let (kind, close_req) = (e.kind.slot(), e.finish());
        if let Some(r) = close_req {
            self.complete_req(st, r, None);
        }
        let committed = matches!(outcome, Outcome::Completed);
        match outcome {
            Outcome::Completed => st.eng_stats.epochs_completed += 1,
            Outcome::Cancelled(report) => {
                self.abandon_cancelled(st, rank, win, id);
                st.eng_stats.epochs_cancelled += 1;
                st.degradations.push(Degradation::EpochStall(report));
            }
            Outcome::DormantRetired => {
                st.win_mut(win, rank).open.close(Slot::Fence);
                st.eng_stats.dormant_retired += 1;
            }
        }
        // Only a dormant fence finishes unclosed, and it leaves no trace.
        if close_req.is_some() {
            let event = EpochEvent::Completed;
            self.trace(st, rank, TraceEvent::Epoch { win, epoch: id.0, kind, event });
        }
        st.win_mut(win, rank).retire(id);
        st.mark_act_dirty(rank, win);
        if committed {
            // Epoch commit is the only globally coherent snapshot instant:
            // planned crashes fire here, and the crash-recovery subsystem
            // checkpoints here.
            st.stats[rank.idx()].epochs_committed += 1;
            self.on_commit(st, rank);
        }
    }
}
