//! Target-side grant sequencing and lock management (sweep step 6), plus
//! the origin-side grant handler.
//!
//! §VII.B requires O(1) matching through per-pair counters: grants to one
//! origin are emitted in that origin's access-id order, so the origin only
//! ever compares `A_i ≤ g_r`. We keep the GATS plane (exposure grants)
//! and the lock plane (lock grants) in *separate* counters — the paper
//! folds both into one triple, but a single counter lets an exposure grant
//! positionally consume the id of a lock request still in flight, breaking
//! legal programs that mix lock and GATS epochs toward the same peer (see
//! DESIGN.md, "deviation: split matching planes"). Each plane remains
//! O(1) per pair.

use std::rc::Rc;

use crate::engine::{EngState, Engine};
use crate::epoch::EpochKind;
use crate::lock::QueuedLock;
use crate::msg::SyncKind;
use crate::trace::{Plane, SyncEvent, TraceEvent};
use crate::types::{LockKind, Rank, WinId};

impl Engine {
    /// Handler for an arriving lock request (internode control message or
    /// decoded intranode 64-bit packet).
    pub(crate) fn handle_lock_req(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        origin: Rank,
        win: WinId,
        access_id: u64,
        kind: LockKind,
    ) {
        // Late arrival for a freed window: a retransmit-delayed frame can
        // land after the final barrier let this rank free the window (the
        // origin is nonblocking and has already moved on). The lock state
        // is gone and nothing can ever wait on the grant — drop it.
        let Some(w) = st.try_win_mut(win, me) else {
            return;
        };
        debug_assert!(
            w.omega.peer(origin).grants.gl_sent < access_id,
            "stale lock request id"
        );
        w.lock_mgr.enqueue(QueuedLock {
            origin,
            access_id,
            kind,
        });
        w.grant_dirty.mark(origin);
        st.mark_lock_backlog(me, win);
    }

    /// Handler for an arriving unlock. The release itself is deferred to
    /// the step-6 backlog ("Step 5 potentially builds a backlog of lock or
    /// unlock requests; Step 6 follows immediately to process them").
    pub(crate) fn handle_unlock(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        origin: Rank,
        win: WinId,
        access_id: u64,
    ) {
        let event = SyncEvent::EpochDoneApplied { id: access_id };
        self.trace(st, me, TraceEvent::Sync { win, peer: origin, plane: Plane::Lock, event });
        st.sweep[me.idx()].pending_unlocks.push_back((win, origin));
        st.mark_lock_backlog(me, win);
    }

    /// Sweep step 6: apply deferred unlocks, then pump grant emission for
    /// every backlogged window until quiescent.
    pub(crate) fn pump_lock_backlog(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        while let Some((win, origin)) = st.sweep[rank.idx()].pending_unlocks.pop_front() {
            // Freed window (see `handle_lock_req`): a retransmit-delayed
            // unlock whose release is moot — the origin already completed.
            let Some(w) = st.try_win_mut(win, rank) else {
                continue;
            };
            w.lock_mgr.release(origin);
            st.eng_stats.unlocks_applied += 1;
            // A release may make any queued request admissible.
            st.mark_lock_backlog(rank, win);
        }
        let pumps = st.drain(
            |st| &mut st.sweep[rank.idx()].lock_backlog,
            |st, win| {
                if st.try_win(win, rank).is_some() {
                    self.pump_window_grants(st, rank, win);
                }
            },
        );
        st.eng_stats.grant_pumps += pumps;
    }

    /// Emit every grant that has become possible on this window.
    fn pump_window_grants(self: &Rc<Self>, st: &mut EngState, me: Rank, win: WinId) {
        loop {
            let mut progressed = false;

            // Positional exposure grants per dirty origin.
            st.drain(
                |st| &mut st.win_mut(win, me).grant_dirty,
                |st, origin| {
                    progressed |= self.pump_exposure_grants(st, me, win, origin);
                },
            );

            // Lock grants: scan the arrival-order queue. FIFO fairness —
            // the first *eligible but inadmissible* request stops the scan.
            loop {
                let grant: Option<QueuedLock> = {
                    let w = st.win(win, me);
                    let mut pick = None;
                    for q in w.lock_mgr.queue_iter() {
                        let eligible =
                            w.omega.peer(q.origin).grants.gl_sent + 1 == q.access_id;
                        if !eligible {
                            continue; // cannot be granted regardless of lock state
                        }
                        if w.lock_mgr.admits(q.kind) {
                            pick = Some(q.clone());
                        }
                        break;
                    }
                    pick
                };
                let Some(q) = grant else { break };
                {
                    let w = st.win_mut(win, me);
                    w.lock_mgr.grant(q.origin, q.access_id);
                    w.omega.peer_mut(q.origin).grants.gl_sent = q.access_id;
                    w.grant_dirty.mark(q.origin);
                }
                st.eng_stats.lock_grants += 1;
                let event = SyncEvent::GrantSent { id: q.access_id };
                let traced = TraceEvent::Sync { win, peer: q.origin, plane: Plane::Lock, event };
                self.trace(st, me, traced);
                self.send_sync(st, me, q.origin, win, SyncKind::GrantLock, q.access_id);
                progressed = true;
            }

            if !progressed {
                break;
            }
        }
    }

    /// Emit positional exposure grants to one origin until the next id is a
    /// pending lock (handled by the lock scan) or credits run out.
    fn pump_exposure_grants(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        win: WinId,
        origin: Rank,
    ) -> bool {
        let mut sent = std::mem::take(&mut st.sweep[me.idx()].grant_scratch);
        {
            let gs = &mut st.win_mut(win, me).omega.peer_mut(origin).grants;
            loop {
                let next = gs.g_sent + 1;
                if gs.exposure_credits == 0 {
                    break;
                }
                if self.fault == Some(crate::engine::Fault::SkipGrant) && next == 2 {
                    // Injected liveness bug: the grant stream toward this
                    // origin freezes before position 2 is ever emitted.
                    break;
                }
                gs.exposure_credits -= 1;
                gs.g_sent = next;
                sent.push(next);
            }
        }
        st.eng_stats.exposure_grants += sent.len() as u64;
        for id in &sent {
            let event = SyncEvent::GrantSent { id: *id };
            self.trace(st, me, TraceEvent::Sync { win, peer: origin, plane: Plane::Gats, event });
            self.send_sync(st, me, origin, win, SyncKind::GrantExposure, *id);
        }
        let progressed = !sent.is_empty();
        sent.clear();
        st.sweep[me.idx()].grant_scratch = sent;
        progressed
    }

    // ------------------------------------------------------------------
    // origin side
    // ------------------------------------------------------------------

    /// A grant arrived on `plane` (exposure grants on the GATS plane, lock
    /// grants on the lock plane): advance the plane's counter and unblock
    /// the waiting access epoch of that plane.
    pub(crate) fn handle_grant(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        granter: Rank,
        win: WinId,
        id: u64,
        plane: Plane,
    ) {
        {
            let po = st.win_mut(win, me).omega.peer_mut(granter);
            let ctr = match plane {
                Plane::Gats => &mut po.g,
                Plane::Lock => &mut po.g_lock,
            };
            assert_eq!(*ctr + 1, id, "grants from {granter} arrived out of order");
            *ctr = id;
        }
        let event = SyncEvent::GrantApplied { id };
        self.trace(st, me, TraceEvent::Sync { win, peer: granter, plane, event });
        // Find the (activated) access epoch of the right plane waiting on
        // this grant.
        let hit = st.win(win, me).epochs.iter().find(|e| {
            let plane_ok = match plane {
                Plane::Gats => matches!(e.kind, EpochKind::GatsAccess { .. }),
                Plane::Lock => matches!(e.kind, EpochKind::Lock { .. } | EpochKind::LockAll),
            };
            plane_ok
                && e.is_active()
                && e.targets()
                    .get(&granter)
                    .is_some_and(|ts| ts.access_id == id && !ts.granted)
        });
        match hit.map(|e| e.id) {
            Some(eid) => {
                st.win_mut(win, me).epoch_mut(eid).grant(granter);
                st.mark_ops_dirty(me, win, eid);
                st.mark_complete_dirty(me, win, eid);
            }
            None => {
                // Pre-grant: the matching access epoch is not activated (or
                // not even opened) yet — "the granted access notification
                // must persist for the origin to see it when it catches
                // up" (§VII.B). Lock grants cannot pre-arrive because lock
                // requests are only sent at activation — but they CAN
                // post-arrive, for an epoch the stall watchdog cancelled
                // while its lock request was still queued at the target.
                // Answer those with an immediate unlock so the granter's
                // lock queue keeps moving; anything else is a protocol bug.
                if plane == Plane::Lock {
                    let w = st.win_mut(win, me);
                    let pos = w
                        .cancelled_lock_grants
                        .iter()
                        .position(|&(g, aid)| g == granter && aid == id)
                        .expect("lock grant arrived with no matching activated lock epoch");
                    w.cancelled_lock_grants.swap_remove(pos);
                    self.send_sync(st, me, granter, win, SyncKind::Unlock, id);
                }
            }
        }
    }

    /// A GATS done packet arrived at the target: record it and re-check
    /// exposure epochs involving that origin.
    pub(crate) fn handle_gats_done(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        origin: Rank,
        win: WinId,
        access_id: u64,
    ) {
        let event = SyncEvent::EpochDoneApplied { id: access_id };
        self.trace(st, me, TraceEvent::Sync { win, peer: origin, plane: Plane::Gats, event });
        let (before, now) = {
            let slot = &mut st.win_mut(win, me).omega.peer_mut(origin).gats_done_recv;
            let before = *slot;
            *slot = before.max(access_id);
            (before, *slot)
        };
        // Index walk instead of a snapshot of the queue (marking never
        // changes it), so the re-check is allocation-free. An exposure whose
        // expected done id the high-water mark just passed has heard from
        // this origin.
        let mut i = 0;
        while let Some(e) = st.win(win, me).epochs.iter().nth(i) {
            i += 1;
            if !matches!(e.kind, EpochKind::GatsExposure { .. }) {
                continue;
            }
            let Some(&exp) = e.exposure_origins().get(&origin) else {
                continue;
            };
            let eid = e.id;
            if before < exp && exp <= now {
                st.win_mut(win, me).epoch_mut(eid).done_arrived();
            }
            st.eng_stats.target_visits += 1;
            st.mark_complete_dirty(me, win, eid);
        }
    }
}
