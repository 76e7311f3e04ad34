//! Epoch stall watchdog: bounded-time termination under arbitrary fault
//! schedules.
//!
//! With [`crate::config::JobConfig::watchdog`] set, every *closed* epoch
//! gets a sim-time budget to reach internal completion. An epoch that
//! overstays — because a peer crashed, a partition never healed, or the
//! reliability sublayer abandoned a frame — is **cancelled**: its closing
//! request and every op request it still holds are force-completed, a
//! structured [`StallReport`] lands on the job's degradation list, and the
//! epoch is retired so successors can activate. The job then terminates
//! degraded instead of hanging; no fault schedule may produce a hang.
//!
//! The watchdog is armed lazily (at epoch close and at frame abandonment)
//! and its tick re-arms only while closed-but-incomplete epochs remain, so
//! a healthy job's event queue still drains and the simulation ends. A
//! stalled epoch is cancelled no later than `2 × budget` after its close
//! (one tick interval of slack on top of the budget).

use std::rc::Rc;

use mpisim_sim::SimTime;

use crate::engine::epochs::Outcome;
use crate::engine::{EngState, Engine};
use crate::msg::SyncKind;
use crate::types::{EpochId, Rank, WinId};
use crate::window::OmegaTable;

/// Diagnostic snapshot of a cancelled (stalled) epoch: where it was stuck
/// and what the synchronization counters looked like at cancellation.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Rank whose epoch stalled.
    pub rank: Rank,
    /// Window the epoch belongs to.
    pub win: WinId,
    /// Epoch identifier within that rank's side of the window.
    pub epoch: u64,
    /// Epoch kind name (`"gats-access"`, `"lock"`, …).
    pub kind: &'static str,
    /// Virtual time the closing routine ran.
    pub closed_at: SimTime,
    /// Virtual time the watchdog cancelled it.
    pub cancelled_at: SimTime,
    /// The rank's ω table at cancellation: the GATS triple `(a, e, g)` of
    /// §VII.B, the passive-target counters `(a_lock, g_lock)` and the grant
    /// sequencing, for the peers it ever synchronised with.
    pub omega: OmegaTable,
    /// Oldest unacknowledged reliability frame this rank still holds, as
    /// `(peer, sequence)` — the likeliest culprit for the stall.
    pub oldest_unacked: Option<(Rank, u64)>,
    /// Issued-but-incomplete ops abandoned with the epoch.
    pub live_ops: usize,
    /// Recorded-but-unissued ops abandoned with the epoch.
    pub pending_ops: usize,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} win {} {} epoch #{} closed at {:?}, cancelled at {:?} ({} live, {} pending ops",
            self.rank,
            self.win.0,
            self.kind,
            self.epoch,
            self.closed_at,
            self.cancelled_at,
            self.live_ops,
            self.pending_ops,
        )?;
        match self.oldest_unacked {
            Some((peer, seq)) => write!(f, "; oldest unacked frame #{seq} to {peer})"),
            None => write!(f, ")"),
        }
    }
}

impl Engine {
    /// Arm the stall watchdog (no-op when no budget is configured or a
    /// tick is already pending). Called at every epoch close, which also
    /// puts the epoch on the watch list, and whenever the reliability
    /// sublayer abandons a frame.
    pub(crate) fn arm_watchdog(self: &Rc<Self>, st: &mut EngState) {
        let Some(budget) = self.cfg.watchdog else {
            return;
        };
        if st.watchdog_armed {
            return;
        }
        st.watchdog_armed = true;
        let me = self.clone();
        self.sim.schedule(budget, move || me.watchdog_tick());
    }

    /// One watchdog tick: cancel every watched epoch past its budget,
    /// prune entries that completed or retired on their own, and re-arm
    /// while closed-but-incomplete epochs remain.
    fn watchdog_tick(self: &Rc<Self>) {
        let budget = self.cfg.watchdog.expect("tick armed without a budget");
        let now = self.sim.now();
        let mut touched: Vec<Rank> = Vec::new();
        {
            let mut st = self.st.borrow_mut();
            st.watchdog_armed = false;
            st.eng_stats.watchdog_ticks += 1;
            // One pass over the watch list (cancelling closes nothing, so
            // nothing is pushed meanwhile): drop what finished on its own,
            // cancel what is overdue, keep the rest.
            let mut watch = std::mem::take(&mut st.stall_watch);
            watch.retain(|&(win, rank, id, closed_at)| {
                if st.live_epoch(win, rank, id).is_none() {
                    return false;
                }
                let overdue = now >= closed_at + budget;
                if overdue {
                    let report = self.stall_report(&st, rank, win, id, closed_at);
                    self.finish_epoch(&mut st, rank, win, id, Outcome::Cancelled(report));
                    if !touched.contains(&rank) {
                        touched.push(rank);
                    }
                }
                !overdue
            });
            let still_waiting = !watch.is_empty();
            st.stall_watch = watch;
            if still_waiting {
                self.arm_watchdog(&mut st);
            }
        }
        for r in touched {
            self.sweep(r);
        }
    }

    /// Diagnostic snapshot of a stalled closed epoch, taken before
    /// [`Engine::finish_epoch`] force-terminates it.
    fn stall_report(
        &self,
        st: &EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
        closed_at: SimTime,
    ) -> StallReport {
        let w = st.win(win, rank);
        let e = w.epoch(id);
        StallReport {
            rank,
            win,
            epoch: id.0,
            kind: e.kind.name(),
            closed_at,
            cancelled_at: self.sim.now(),
            omega: w.omega.clone(),
            oldest_unacked: st.rel[rank.idx()].oldest_unacked(),
            live_ops: e.live_ops().len(),
            pending_ops: e.pending_ops.len(),
        }
    }

    /// What a cancelled epoch takes along: complete every op request it
    /// still holds and settle its lock traffic.
    pub(crate) fn abandon_cancelled(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
    ) {
        let mut op_reqs = st.win_mut(win, rank).epoch_mut(id).abandon_ops();
        // Dedup, then guard each completion: an op request may already be
        // done (request-based puts complete at local completion) or even
        // consumed by the application; completing a live one marks the op
        // failed-but-terminated, re-completing a done one is a no-op, and
        // a consumed (stale) handle must be left alone.
        op_reqs.sort_unstable_by_key(|r| r.0);
        op_reqs.dedup();
        for r in op_reqs {
            if st.reqs.is_done(r).is_ok() {
                self.complete_req(st, r, None);
            }
        }
        // A cancelled passive epoch may still owe the protocol lock
        // traffic: grants it already holds must be released now, and
        // grants still in flight must be answered when they land (the
        // target's lock manager serialises on them either way).
        let mut release_now: Vec<(Rank, u64)> = Vec::new();
        let w = st.win_mut(win, rank);
        let e = w.epoch(id);
        if e.kind.is_passive() {
            let mut owed: Vec<(Rank, u64)> = Vec::new();
            for (t, ts) in e.targets().iter() {
                if ts.access_id == 0 {
                    continue;
                }
                if ts.granted && !ts.announced {
                    release_now.push((*t, ts.access_id));
                } else if !ts.granted {
                    owed.push((*t, ts.access_id));
                }
            }
            w.cancelled_lock_grants.extend(owed);
        }
        for (t, aid) in release_now {
            self.send_sync(st, rank, t, win, SyncKind::Unlock, aid);
        }
    }
}
