//! The flush family (`flush`, `flush_local`, `flush_all`,
//! `flush_local_all` and their nonblocking `i` variants), implemented with
//! the paper's age-stamping design (§VII.C):
//!
//! > "a monotonically increasing number is used to give an age to each RMA
//! > call object. Then the nonblocking flush request object is stamped with
//! > the age of the RMA call that immediately precedes. The completion
//! > counter of the request object is assigned either from the overall
//! > number of noncompleted RMA calls in the epoch or from the number of
//! > RMA calls yet to complete for a given target. [...] A flush request
//! > object completes when its completion counter reaches zero."

use std::rc::Rc;

use crate::engine::{EngState, Engine};
use crate::error::{RmaError, RmaResult};
use crate::request::ReqKind;
use crate::types::{EpochId, Rank, Req, WinId};
use crate::window::FlushState;

impl Engine {
    /// `MPI_WIN_IFLUSH*`: create an age-stamped flush request over the open
    /// passive-target epoch(s).
    ///
    /// * `target == Some(t)` → flush / flush_local toward `t`;
    /// * `target == None` → flush_all / flush_local_all;
    /// * `local_only` selects the `_local` semantics (origin completion
    ///   only, no remote acknowledgement required).
    pub fn iflush(
        self: &Rc<Self>,
        rank: Rank,
        win: WinId,
        target: Option<Rank>,
        local_only: bool,
    ) -> RmaResult<Req> {
        let req = {
            let mut st = self.st.borrow_mut();
            if let Some(t) = target.filter(|t| t.idx() >= self.cfg.n_ranks) {
                return Err(RmaError::InvalidRank(t.idx()));
            }
            let w = st.api_win(win, rank)?;
            let epochs = w.open.flushed(target);
            if epochs.is_empty() {
                return Err(RmaError::NotPassiveEpoch);
            }
            // Stamp: the age of the RMA call that immediately precedes.
            let stamp = w.next_age - 1;
            // Completion counter: covered, not-yet-complete RMA calls.
            let mut remaining = 0u64;
            for id in &epochs {
                let e = w.epoch(*id);
                for op in &e.pending_ops {
                    if op.age <= stamp && target.is_none_or(|t| op.target == t) {
                        remaining += 1;
                    }
                }
                for (age, op) in e.live_ops() {
                    if *age <= stamp && target.is_none_or(|t| op.target == t) {
                        let incomplete = if local_only {
                            !op.locally_done()
                        } else {
                            !op.done()
                        };
                        if incomplete {
                            remaining += 1;
                        }
                    }
                }
            }
            // Lazy baseline: the epoch is normally deferred whole until
            // `unlock`, but a flush demands remote completion *now*, which
            // requires the lock — so the flush forces acquisition (as in
            // MVAPICH, where flush triggers the lazy lock request).
            let mut forced = false;
            for id in &epochs {
                forced |= st.win_mut(win, rank).epoch_mut(*id).force_by_flush();
            }
            if forced {
                st.mark_act_dirty(rank, win);
            }
            for id in &epochs {
                st.mark_ops_dirty(rank, win, *id);
            }
            if remaining == 0 {
                self.alloc_req(&mut st, rank, ReqKind::Flush, true)
            } else {
                let req = self.alloc_req(&mut st, rank, ReqKind::Flush, false);
                st.win_mut(win, rank).flushes.push(FlushState {
                    epochs,
                    target,
                    stamp,
                    local_only,
                    remaining,
                    req,
                });
                req
            }
        };
        self.sweep(rank);
        Ok(req)
    }

    /// Decrement flush completion counters after an op transition
    /// ("any RMA object that [completes] decrements [the] completion
    /// counter [of covering flush requests]", §VII.C).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flush_note_op(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        epoch: EpochId,
        age: u64,
        target: Rank,
        became_local: bool,
        became_done: bool,
    ) {
        if !(became_local || became_done) {
            return;
        }
        // Check emptiness before borrowing the scratch buffer so the
        // common no-flush case stays a pure early return.
        if st.win(win, rank).flushes.is_empty() {
            return;
        }
        let mut completed = std::mem::take(&mut st.sweep[rank.idx()].req_scratch);
        {
            let w = st.win_mut(win, rank);
            for f in w.flushes.iter_mut() {
                if !f.epochs.contains(&epoch)
                    || age > f.stamp
                    || f.target.is_some_and(|t| t != target)
                {
                    continue;
                }
                let hit = if f.local_only { became_local } else { became_done };
                if hit {
                    debug_assert!(f.remaining > 0);
                    f.remaining -= 1;
                    if f.remaining == 0 {
                        completed.push(f.req);
                    }
                }
            }
            w.flushes.retain(|f| f.remaining > 0);
        }
        for &r in &completed {
            self.complete_req(st, r, None);
        }
        completed.clear();
        st.sweep[rank.idx()].req_scratch = completed;
    }
}
