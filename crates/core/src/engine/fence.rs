//! Fence epochs: `MPI_WIN_FENCE` / `MPI_WIN_IFENCE`.
//!
//! A fence call closes the current fence epoch (if one is open) and opens
//! the next. Closing entails barrier semantics (§VI.A rule 5): each rank
//! announces, per peer, how many data messages it issued toward that peer
//! in the epoch; a rank's fence epoch completes only when it has received
//! the announcement from *every* peer and the announced number of data
//! messages has arrived.

use std::sync::Arc;

use crate::engine::{EngState, Engine};
use crate::epoch::EpochKind;
use crate::error::{RmaError, RmaResult};
use crate::request::ReqKind;
use crate::types::{Rank, Req, WinId};

impl Engine {
    /// `MPI_WIN_IFENCE` (and the internals of `MPI_WIN_FENCE`): close the
    /// open fence epoch, open the next one, and return the closing request
    /// (a dummy completed request if this fence only opens).
    pub fn fence(self: &Arc<Self>, rank: Rank, win: WinId) -> RmaResult<Req> {
        let req = {
            let mut st = self.st.lock();
            let w = st.win(win, rank);
            if w.cur_gats_access.is_some()
                || w.cur_exposure.is_some()
                || !w.open_locks.is_empty()
                || w.cur_lock_all.is_some()
            {
                return Err(RmaError::AlreadyInEpoch { called: "fence" });
            }
            let closing = st.win_mut(win, rank).cur_fence.take();
            let req = match closing {
                Some(id) => {
                    let req = st.reqs.alloc(ReqKind::EpochClose);
                    let now = self.sim.now();
                    let e = st.win_mut(win, rank).epoch_mut(id);
                    e.closed = true;
                    e.closed_at = Some(now);
                    e.close_req = Some(req);
                    self.trace_event(&mut st, rank, win, id, crate::trace::EpochEvent::Closed);
                    st.mark_ops_dirty(rank, win, id);
                    st.mark_complete_dirty(rank, win, id);
                    self.watch_epoch(&mut st, rank, win, id);
                    req
                }
                // An opening-only fence completes immediately (§VII.C).
                None => st.reqs.alloc_done(ReqKind::EpochOpen),
            };
            // Open the next fence epoch.
            let w = st.win_mut(win, rank);
            let seq = w.next_fence_seq;
            w.next_fence_seq += 1;
            let id = w.alloc_epoch_id();
            let e = w.new_epoch(id, EpochKind::Fence { seq });
            w.push_epoch(e);
            w.cur_fence = Some(id);
            st.eng_stats.epochs_opened += 1;
            self.trace_event(&mut st, rank, win, id, crate::trace::EpochEvent::Opened);
            st.mark_act_dirty(rank, win);
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    /// Whether every peer's closing announcement and all the data it
    /// announced have arrived for fence `seq` — the barrier half of a fence
    /// epoch's completion, read off the per-seq tally.
    pub(crate) fn fence_heard_all(
        self: &Arc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        seq: u64,
    ) -> bool {
        let Some(tally) = st.win(win, rank).fences.get(&seq) else {
            return false;
        };
        if !tally.complete() {
            return false;
        }
        debug_assert!(
            tally.peers().iter().all(|p| Some(p.got) == p.expected),
            "more fence data than announced"
        );
        // This rank has now observed every peer's closing announcement
        // (and all announced data) — record the HB join edges.
        if self.cfg.trace {
            for p in 0..self.cfg.n_ranks {
                self.sync_event(
                    st,
                    rank,
                    Rank(p),
                    win,
                    crate::trace::Plane::Gats,
                    crate::trace::SyncEvent::FenceDoneApplied { seq },
                );
            }
        }
        true
    }

    /// A peer's closing-fence announcement arrived.
    pub(crate) fn handle_fence_done(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        origin: Rank,
        win: WinId,
        seq: u64,
        ops_sent: u64,
    ) {
        self.fence_arrival(st, me, win, seq, origin, |p| p.expected = Some(ops_sent));
    }

    /// Tally one arrival from `peer` for fence `seq` and recheck the fence
    /// epoch it belongs to.
    pub(crate) fn fence_arrival(
        &self,
        st: &mut EngState,
        me: Rank,
        win: WinId,
        seq: u64,
        peer: Rank,
        f: impl FnOnce(&mut crate::window::FencePeer),
    ) {
        let epoch = st.win_mut(win, me).fence_arrival(seq, peer, self.cfg.n_ranks, f);
        if let Some(id) = epoch {
            st.mark_complete_dirty(me, win, id);
        }
    }
}
