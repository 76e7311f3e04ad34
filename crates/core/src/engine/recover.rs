//! Epoch-aligned checkpointing and crash recovery (DESIGN.md §16).
//!
//! Epoch commit is the only instant at which a window's state is globally
//! coherent (every covered operation acknowledged, every grant consumed),
//! so it is the natural checkpoint boundary: at every commit each rank
//! snapshots its window contents plus the ω matching
//! triples into an in-simulation stable store, and journals every later
//! window write as a physical redo record.
//!
//! The crash model is a **NIC crash with a bounded outage**: the fault
//! plan's `crash_at_commit` list takes the rank's NIC off the fabric and
//! wipes its volatile window memory; the host-side fiber survives (it is
//! typically parked waiting on network progress). The crash fires whether
//! or not recovery is armed; with it armed, after [`RESTART_AFTER`] of
//! virtual time the runtime restarts the rank: the NIC rejoins the fabric,
//! window memory is reconstructed as *checkpoint + redo-log replay*, and
//! the live ω-counters are audited against the checkpointed snapshot (they
//! must only have advanced — the reliability channels journal continuously,
//! the "NIC NVRAM" shortcut, so sequence state is never lost). In-flight
//! internode traffic is bridged by the ack/retransmit sublayer exactly as
//! for a transient partition. The whole episode is recorded as one
//! [`Degradation::Recovered`] entry carrying its [`RecoveryReport`].
//!
//! [`Fault::StaleRestore`] exists solely for the conformance harness's
//! exit-inverted `--inject bad-recovery` self-test: it keeps only the
//! `win_allocate` baseline and installs it *without* replaying the redo
//! log, a textbook stale restore the differential check must catch
//! whenever the log was non-empty.

use std::rc::Rc;

use mpisim_sim::SimTime;

use crate::engine::rel::Degradation;
use crate::engine::{EngState, Engine, Fault};
use crate::types::{Rank, WinId};
use crate::window::{OmegaTable, PeerOmega};

/// The six monotonic ω counters of one peer record (the grant sequencing
/// is target-side working state, not part of the audited snapshot).
fn counters(p: &PeerOmega) -> [u64; 6] {
    [p.a, p.e, p.g, p.a_lock, p.g_lock, p.gats_done_recv]
}

/// Serialized size of an ω snapshot, for checkpoint-overhead accounting:
/// per stored peer, its rank plus the six counters.
fn omega_byte_len(omega: &OmegaTable) -> u64 {
    8 * 7 * omega.len() as u64
}

/// Count counters where `live` has moved *backwards* relative to the
/// checkpointed `ckpt` — impossible under the monotonic ω protocol, so
/// any hit is a reconcile-audit failure. A peer the checkpoint holds but
/// the live table lacks reads as zero (every non-zero counter regressed);
/// a peer only the live table holds is progress.
fn omega_regressions(ckpt: &OmegaTable, live: &OmegaTable) -> u64 {
    ckpt.iter()
        .map(|(peer, ck)| {
            let lv = counters(live.peer(peer));
            counters(ck).iter().zip(lv).filter(|(ck, lv)| lv < *ck).count() as u64
        })
        .sum()
}

/// One committed checkpoint of one (window, rank) side.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// The rank-wide epoch-commit ordinal at which this was taken
    /// (0 = the initial `win_allocate` baseline).
    pub commit_no: u64,
    /// Virtual time of the commit.
    pub at: SimTime,
    /// Full window contents at the commit instant.
    pub mem: Vec<u8>,
    /// ω matching state at the commit instant (sparse: touched peers
    /// only, so a checkpoint is O(active peers), not O(ranks)).
    pub omega: OmegaTable,
}

/// One physical redo record: the post-image of a window write.
#[derive(Debug, Clone)]
pub(crate) struct LogRecord {
    pub disp: usize,
    pub bytes: Vec<u8>,
}

/// The stable store for one (window, rank) side: the latest checkpoint
/// plus the redo log of every window write since it.
#[derive(Debug, Default)]
pub(crate) struct StableWin {
    pub ckpt: Option<Checkpoint>,
    pub log: Vec<LogRecord>,
}

impl StableWin {
    /// Reconstruct the window contents: checkpoint plus redo-log replay.
    fn reconstruct(&self) -> Vec<u8> {
        let ckpt = self.ckpt.as_ref().expect("recovery without a checkpoint");
        let mut mem = ckpt.mem.clone();
        for rec in &self.log {
            mem[rec.disp..rec.disp + rec.bytes.len()].copy_from_slice(&rec.bytes);
        }
        mem
    }
}

/// Structured provenance of one completed rank-restart episode (one entry
/// per recovered window side).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The restarted rank.
    pub rank: Rank,
    /// The recovered window.
    pub win: WinId,
    /// Rank-wide epoch-commit ordinal at which the crash fired.
    pub crash_commit: u64,
    /// Virtual time of the crash.
    pub crash_at: SimTime,
    /// Virtual time the restart completed.
    pub restored_at: SimTime,
    /// Commit ordinal of the checkpoint that was restored.
    pub ckpt_commit: u64,
    /// Virtual time the restored checkpoint was originally cut.
    pub ckpt_at: SimTime,
    /// Redo-log records replayed on top of the checkpoint.
    pub replayed_ops: u64,
    /// Bytes replayed from the redo log.
    pub replayed_bytes: u64,
    /// ω-counters that moved backwards in the reconcile audit (always 0
    /// on a healthy run: the protocol is monotonic).
    pub omega_regressions: u64,
    /// The restore deliberately skipped redo-log replay (the planted
    /// `bad-recovery` fault) *and* that actually left the memory stale.
    pub stale: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} win {} crashed at commit {} ({} ns), restored ckpt {} + {} replayed ops ({} bytes) at {} ns{}{}",
            self.rank,
            self.win.0,
            self.crash_commit,
            self.crash_at.as_nanos(),
            self.ckpt_commit,
            self.replayed_ops,
            self.replayed_bytes,
            self.restored_at.as_nanos(),
            if self.stale { ", STALE restore" } else { "" },
            if self.omega_regressions > 0 { ", omega REGRESSED" } else { "" },
        )
    }
}

/// Outage duration: virtual time between a crash and the restart. Well
/// inside the reliability retry budget, so retransmits bridge the outage:
/// seven doublings of the 20 µs RTO land a retransmit just after the NIC is
/// back.
pub(crate) const RESTART_AFTER: SimTime = SimTime::from_millis(1);

/// Byte pattern a crash wipes volatile window memory with, so a restart
/// that forgets to restore is loudly visible in the differential check.
const WIPE_BYTE: u8 = 0xDB;

impl Engine {
    /// Take the initial (commit-0) checkpoint for a freshly allocated
    /// window side, so a crash before the first commit still has a
    /// consistent restore point.
    pub(crate) fn recovery_init_win(&self, st: &mut EngState, rank: Rank, win: WinId) {
        self.cut_checkpoint(st, rank, win, 0);
    }

    /// Snapshot `rank`'s side of `win` into its stable store as commit
    /// `commit_no` and truncate the redo log (it is folded into the snapshot).
    fn cut_checkpoint(&self, st: &mut EngState, rank: Rank, win: WinId, commit_no: u64) {
        let w = st.win_mut(win, rank);
        let (mem, omega) = (w.mem.clone(), w.omega.clone());
        let bytes = mem.len() as u64 + omega_byte_len(&omega);
        let sw = w.stable.get_or_insert_with(Default::default);
        sw.ckpt = Some(Checkpoint { commit_no, at: self.sim.now(), mem, omega });
        sw.log.clear();
        st.eng_stats.ckpt_commits += 1;
        st.eng_stats.ckpt_bytes += bytes;
    }

    /// Journal the post-image of a window write into the redo log. Called
    /// at every site that mutates `WinRank::mem` — remote put/accumulate/
    /// fetch application and local stores alike — after the write landed.
    pub(crate) fn log_win_write(
        &self,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        disp: usize,
        len: usize,
    ) {
        if !self.cfg.recovery || len == 0 {
            return;
        }
        let w = st.win_mut(win, rank);
        if let Some(sw) = &mut w.stable {
            sw.log.push(LogRecord { disp, bytes: w.mem[disp..disp + len].to_vec() });
        }
    }

    /// Repair a crashed rank's window *before* any access touches it
    /// during the outage. A crash wipes the volatile memory and the
    /// restart installs the reconstruction — but the gap between them is
    /// reachable: self-targeted operations never cross the downed NIC
    /// (`src == dst` is not cut), and requests that were delivered just
    /// before the crash can still be served by the progress sweep.
    /// Applying a reduction to — or answering a get from — the wiped
    /// bytes would poison the redo log's post-images and the reply data.
    /// `reconstruct()` is by construction the window's true current
    /// contents at any instant, so installing it eagerly here is always
    /// sound; the scheduled restart still performs the accounted restore.
    ///
    /// The planted-stale backdoor must poison this path too: a crashed
    /// rank whose job finishes inside the outage window reads its final
    /// memory through here, and serving the healthy reconstruction would
    /// mask the very staleness the self-test plants at restart.
    pub(crate) fn freshen_crashed_mem(&self, st: &mut EngState, rank: Rank, win: WinId) {
        if !self.cfg.recovery || !self.net.nic_is_down(mpisim_net::Rank(rank.idx())) {
            return;
        }
        let w = st.win_mut(win, rank);
        let Some(sw) = &w.stable else {
            return;
        };
        w.mem = if self.fault == Some(Fault::StaleRestore) {
            sw.ckpt.as_ref().expect("recovery without a checkpoint").mem.clone()
        } else {
            sw.reconstruct()
        };
    }

    /// Epoch-commit hook, run from `finish_epoch` after the commit ordinal
    /// was bumped: with recovery armed, cut a new checkpoint (unless a
    /// stale restore is planted, which keeps only the `win_allocate`
    /// baseline); then fire a planned crash if this rank hit its crash
    /// commit.
    pub(crate) fn on_commit(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        let commit_no = st.stats[rank.idx()].epochs_committed;
        if self.cfg.recovery && self.fault != Some(Fault::StaleRestore) {
            self.checkpoint_rank(st, rank, commit_no);
        }
        let planned = self
            .cfg
            .net
            .faults
            .as_ref()
            .and_then(|p| p.crash_commit(mpisim_net::Rank(rank.idx())));
        if planned == Some(commit_no) && !self.net.nic_is_down(mpisim_net::Rank(rank.idx())) {
            self.crash_rank(st, rank, commit_no);
        }
    }

    /// Cut a fresh checkpoint of every window side this rank holds.
    fn checkpoint_rank(&self, st: &mut EngState, rank: Rank, commit_no: u64) {
        for win in st.wins_of(rank) {
            // A commit can land mid-outage (epochs with no live network
            // dependency still complete); snapshotting the wiped volatile
            // bytes would fold the wipe into the stable store and truncate
            // the redo log that could have repaired it.
            self.freshen_crashed_mem(st, rank, win);
            self.cut_checkpoint(st, rank, win, commit_no);
        }
    }

    /// Crash a rank at an epoch-commit point: NIC off the fabric, volatile
    /// window memory wiped, and — with recovery armed — the restart
    /// scheduled [`RESTART_AFTER`] later.
    fn crash_rank(self: &Rc<Self>, st: &mut EngState, rank: Rank, commit_no: u64) {
        self.net.nic_down(mpisim_net::Rank(rank.idx()));
        for win in st.wins_of(rank) {
            st.win_mut(win, rank).mem.fill(WIPE_BYTE);
        }
        if !self.cfg.recovery {
            return;
        }
        let crash_at = self.sim.now();
        let me = self.clone();
        self.sim.schedule(RESTART_AFTER, move || {
            me.restart_rank(rank, commit_no, crash_at);
        });
    }

    /// Restart a crashed rank from its stable store: bring the NIC back,
    /// reconstruct every window side as checkpoint + redo replay (or the
    /// raw checkpoint under the planted stale-restore fault), audit the
    /// live ω-counters against the checkpointed snapshot, and record the
    /// episode. The retransmit sublayer then re-delivers everything the
    /// outage dropped, exactly as after a healed partition.
    fn restart_rank(self: &Rc<Self>, rank: Rank, crash_commit: u64, crash_at: SimTime) {
        {
            let mut st = self.st.borrow_mut();
            let planted = self.fault == Some(Fault::StaleRestore);
            self.net.nic_up(mpisim_net::Rank(rank.idx()));
            let now = self.sim.now();
            for win in st.wins_of(rank) {
                let w = st.win(win, rank);
                let Some(sw) = &w.stable else {
                    continue;
                };
                let Some(ckpt) = sw.ckpt.as_ref() else {
                    continue;
                };
                let reconstructed = sw.reconstruct();
                let (replayed_ops, replayed_bytes) = (
                    sw.log.len() as u64,
                    sw.log.iter().map(|r| r.bytes.len() as u64).sum::<u64>(),
                );
                let installed = if planted { ckpt.mem.clone() } else { reconstructed.clone() };
                let stale = installed != reconstructed;
                let ckpt_commit = ckpt.commit_no;
                let ckpt_at = ckpt.at;
                let omega_regressions = omega_regressions(&ckpt.omega, &w.omega);
                st.win_mut(win, rank).mem = installed;
                let report = RecoveryReport {
                    rank,
                    win,
                    crash_commit,
                    crash_at,
                    restored_at: now,
                    ckpt_commit,
                    ckpt_at,
                    replayed_ops,
                    replayed_bytes,
                    omega_regressions,
                    stale,
                };
                st.eng_stats.recoveries += 1;
                st.degradations.push(Degradation::Recovered(report));
            }
        }
        self.sweep(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobConfig;
    use crate::runtime::run_job;

    fn recovery_cfg(n: usize) -> JobConfig {
        let mut cfg = JobConfig::all_internode(n)
            .with_reliability()
            .with_watchdog(SimTime::from_millis(50));
        cfg.recovery = true;
        cfg
    }

    /// The halo exchange used by the recovery tests: each rank puts a
    /// recognizable byte into its right neighbour across several fence
    /// phases, then reads back.
    fn halo(env: &mut crate::api::RankEnv, phases: usize) -> Vec<u8> {
        let n = env.n_ranks();
        let me = env.rank().idx();
        let win = env.win_allocate(64).unwrap();
        env.fence(win).unwrap();
        for p in 0..phases {
            let right = (me + 1) % n;
            env.put(win, crate::Rank(right), p, &[(me * 10 + p) as u8])
                .unwrap();
            env.fence(win).unwrap();
        }
        let out = env.read_local(win, 0, phases).unwrap();
        env.win_free(win).unwrap();
        out
    }

    #[test]
    fn checkpoints_are_cut_at_commits_without_a_crash() {
        let cfg = recovery_cfg(3);
        let report = run_job(cfg, |env| {
            halo(env, 3);
        })
        .unwrap();
        assert!(report.is_clean(), "no crash planned: {:?}", report.degradations);
        assert!(report.engine.ckpt_commits > 0, "commits must cut checkpoints");
        assert!(report.engine.ckpt_bytes > 0);
        assert_eq!(report.engine.recoveries, 0);
        assert_eq!(report.recoveries().count(), 0);
        assert!(report.ranks.iter().all(|r| r.epochs_committed > 0));
    }

    #[test]
    fn crashed_rank_recovers_and_converges() {
        let mut cfg = recovery_cfg(3);
        let mut plan = mpisim_net::FaultPlan::none(1);
        plan.crash_at_commit.push((mpisim_net::Rank(1), 2));
        cfg.net.faults = Some(plan);
        let report = run_job(cfg, |env| {
            let got = halo(env, 4);
            let n = env.n_ranks();
            let left = (env.rank().idx() + n - 1) % n;
            let want: Vec<u8> = (0..4).map(|p| (left * 10 + p) as u8).collect();
            assert_eq!(got, want, "rank {} window diverged", env.rank());
        })
        .unwrap();
        assert!(report.engine.recoveries > 0, "the crash must recover");
        assert_eq!(report.recoveries().count(), report.engine.recoveries as usize);
        let r = report.recoveries().next().unwrap();
        assert_eq!(r.rank, crate::Rank(1));
        assert_eq!(r.crash_commit, 2);
        assert!(!r.stale);
        assert_eq!(r.omega_regressions, 0);
        assert!(r.restored_at > r.crash_at);
        // The only degradations are the structured recovery records.
        assert!(report
            .degradations
            .iter()
            .all(|d| matches!(d, Degradation::Recovered(_))));
    }

    #[test]
    fn planted_stale_restore_is_flagged_and_diverges() {
        // A planted stale restore keeps only the initial checkpoint, which
        // guarantees a non-empty redo log at the crash, so skipping replay
        // is guaranteed stale.
        let mut cfg = recovery_cfg(3);
        cfg.fault = Some(Fault::StaleRestore.name().into());
        let mut plan = mpisim_net::FaultPlan::none(1);
        plan.crash_at_commit.push((mpisim_net::Rank(1), 3));
        cfg.net.faults = Some(plan);
        let diverged = Rc::new(std::cell::Cell::new(false));
        let d2 = diverged.clone();
        let report = run_job(cfg, move |env| {
            let got = halo(env, 4);
            let n = env.n_ranks();
            let left = (env.rank().idx() + n - 1) % n;
            let want: Vec<u8> = (0..4).map(|p| (left * 10 + p) as u8).collect();
            if got != want {
                d2.set(true);
            }
        })
        .unwrap();
        let stale: Vec<_> = report.recoveries().filter(|r| r.stale).collect();
        assert!(!stale.is_empty(), "the plant must be flagged effective");
        assert!(
            diverged.get(),
            "a stale restore must corrupt the final window contents"
        );
    }

    #[test]
    fn omega_snapshot_audit_counts_regressions() {
        let mut ckpt = OmegaTable::default();
        *ckpt.peer_mut(Rank(0)) =
            PeerOmega { a: 3, e: 1, g: 2, gats_done_recv: 4, ..Default::default() };
        *ckpt.peer_mut(Rank(1)) =
            PeerOmega { a: 5, e: 1, g: 2, gats_done_recv: 4, ..Default::default() };
        let mut live = ckpt.clone();
        assert_eq!(omega_regressions(&ckpt, &live), 0);
        assert_eq!(omega_byte_len(&ckpt), 2 * 56);
        live.peer_mut(Rank(0)).a = 2; // moved backwards
        live.peer_mut(Rank(1)).gats_done_recv = 0; // moved backwards
        assert_eq!(omega_regressions(&ckpt, &live), 2);
        // A peer new in the live table is progress, not a regression.
        live.peer_mut(Rank(7)).a_lock = 1;
        assert_eq!(omega_regressions(&ckpt, &live), 2);
        // A checkpointed peer missing from the live table reads as zero:
        // each of its four non-zero counters went backwards.
        assert_eq!(omega_regressions(&ckpt, &OmegaTable::default()), 8);
        let mut zero = OmegaTable::default();
        zero.peer_mut(Rank(3)); // stored but all-zero: nothing to regress
        assert_eq!(omega_regressions(&zero, &OmegaTable::default()), 0);
    }
}
