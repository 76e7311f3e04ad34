//! Fence epochs: the barrier half of `MPI_WIN_FENCE` / `MPI_WIN_IFENCE`.
//!
//! A fence call closes the current fence epoch (if one is open) and opens
//! the next ([`Engine::fence`], with the other open and close edges in
//! `engine/epochs.rs`). Closing entails barrier semantics (§VI.A rule 5): each rank
//! announces, per peer, how many data messages it issued toward that peer
//! in the epoch; a rank's fence epoch completes only when it has received
//! the announcement from *every* peer and the announced number of data
//! messages has arrived.

use std::rc::Rc;

use crate::engine::{EngState, Engine};
use crate::trace::{Plane, SyncEvent, TraceEvent};
use crate::types::{Rank, WinId};

impl Engine {
    /// Whether every peer's closing announcement and all the data it
    /// announced have arrived for fence `seq` — the barrier half of a fence
    /// epoch's completion, read off the per-seq tally.
    pub(crate) fn fence_heard_all(
        self: &Rc<Self>,
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
                let event = SyncEvent::FenceDoneApplied { seq };
                let traced = TraceEvent::Sync { win, peer: Rank(p), plane: Plane::Gats, event };
                self.trace(st, rank, traced);
            }
        }
        true
    }

    /// A peer's closing-fence announcement arrived.
    pub(crate) fn handle_fence_done(
        self: &Rc<Self>,
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
