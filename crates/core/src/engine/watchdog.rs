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

use std::sync::Arc;

use mpisim_sim::SimTime;

use crate::engine::rel::Degradation;
use crate::epoch::EpochKind;
use crate::engine::{EngState, Engine};
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
    /// tick is already pending). Called at every epoch close (via
    /// [`Engine::watch_epoch`]) and whenever the reliability sublayer
    /// abandons a frame.
    pub(crate) fn arm_watchdog(self: &Arc<Self>, st: &mut EngState) {
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

    /// Register a just-closed epoch with the watchdog's watch list and arm
    /// a tick. Ticks scan only this list — never all windows × ranks — so
    /// a 4096-rank job pays for the epochs actually awaiting completion,
    /// not for its size. No-op without a configured budget.
    pub(crate) fn watch_epoch(
        self: &Arc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
    ) {
        if self.cfg.watchdog.is_none() {
            return;
        }
        st.stall_watch.push((win, rank, id));
        self.arm_watchdog(st);
    }

    /// One watchdog tick: cancel every watched epoch past its budget,
    /// prune entries that completed or retired on their own, and re-arm
    /// while closed-but-incomplete epochs remain.
    fn watchdog_tick(self: &Arc<Self>) {
        let budget = self.cfg.watchdog.expect("tick armed without a budget");
        let now = self.sim.now();
        let mut touched: Vec<Rank> = Vec::new();
        {
            let mut st = self.st.lock();
            st.watchdog_armed = false;
            st.eng_stats.watchdog_ticks += 1;
            let mut to_cancel: Vec<(Rank, WinId, EpochId)> = Vec::new();
            {
                let EngState { stall_watch, wins, .. } = &mut *st;
                stall_watch.retain(|&(win, rank, id)| {
                    // A watched epoch may have completed and retired (its
                    // id vanishes from the map — ids are never reused) or
                    // completed in place; both drop off the list here.
                    let Some(wr) = wins[win.0 as usize].per_rank[rank.idx()].as_ref() else {
                        return false;
                    };
                    let Some(e) = wr.epochs.get(&id.0) else {
                        return false;
                    };
                    if e.complete {
                        return false;
                    }
                    debug_assert!(e.closed, "unclosed epoch on the stall watch list");
                    match e.closed_at {
                        Some(t) if now >= t + budget => {
                            to_cancel.push((rank, win, id));
                            false
                        }
                        _ => true,
                    }
                });
            }
            let still_waiting = !st.stall_watch.is_empty();
            for (rank, win, id) in to_cancel {
                self.cancel_epoch(&mut st, rank, win, id);
                if !touched.contains(&rank) {
                    touched.push(rank);
                }
            }
            if still_waiting {
                self.arm_watchdog(&mut st);
            }
        }
        for r in touched {
            self.sweep(r);
        }
    }

    /// Force-terminate a stalled closed epoch: snapshot diagnostics,
    /// complete its closing request and every op request it still holds,
    /// retire it, and record the [`Degradation::EpochStall`].
    pub(crate) fn cancel_epoch(
        self: &Arc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        id: EpochId,
    ) {
        let report = {
            let w = st.win(win, rank);
            let e = w.epoch(id);
            StallReport {
                rank,
                win,
                epoch: id.0,
                kind: e.kind.name(),
                closed_at: e.closed_at.unwrap_or(SimTime::ZERO),
                cancelled_at: self.sim.now(),
                omega: w.omega.clone(),
                oldest_unacked: st.rel[rank.idx()].oldest_unacked(),
                live_ops: e.live_ops().len(),
                pending_ops: e.pending_ops.len(),
            }
        };
        let (close_req, mut op_reqs) = {
            let e = st.win_mut(win, rank).epoch_mut(id);
            e.complete = true;
            (e.close_req, e.abandon_ops())
        };
        // Dedup, then guard each completion: an op request may already be
        // done (request-based puts complete at local completion) or even
        // consumed by the application; completing a live one marks the op
        // failed-but-terminated, re-completing a done one is a no-op, and
        // a consumed (stale) handle must be left alone.
        op_reqs.sort_unstable_by_key(|r| r.0);
        op_reqs.dedup();
        if let Some(r) = close_req {
            if st.reqs.is_done(r).is_ok() {
                st.reqs.complete(r, None);
            }
        }
        for r in op_reqs {
            if st.reqs.is_done(r).is_ok() {
                st.reqs.complete(r, None);
            }
        }
        // A cancelled passive epoch may still owe the protocol lock
        // traffic: grants it already holds must be released now, and
        // grants still in flight must be answered when they land (the
        // target's lock manager serialises on them either way).
        let mut release_now: Vec<(Rank, u64)> = Vec::new();
        {
            let w = st.win_mut(win, rank);
            let e = w.epoch(id);
            if matches!(e.kind, EpochKind::Lock { .. } | EpochKind::LockAll) {
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
        }
        for (t, aid) in release_now {
            self.send_sync(
                st,
                rank,
                t,
                win,
                crate::msg::SyncPacket::Unlock { win, origin: rank, access_id: aid },
            );
        }
        st.eng_stats.epochs_cancelled += 1;
        self.trace_event(st, rank, win, id, crate::trace::EpochEvent::Completed);
        st.degradations.push(Degradation::EpochStall(report));
        st.win_mut(win, rank).retire(id);
        st.mark_act_dirty(rank, win);
    }
}
