//! The trace of a job: one chronological stream of records.
//!
//! When [`crate::JobConfig::trace`] is enabled, the engine appends one
//! [`TraceRecord`] per traced event to [`crate::JobReport::trace`], in
//! emission order, which is virtual-time order. Each record is a
//! `{time, rank}` header and one [`TraceEvent`]:
//!
//! * an **epoch** transition of either lifetime (§VI: application-level
//!   *open → closed*, internal *activated → completed*). Deferral shows up
//!   as a gap between *opened* and *activated*, a nonblocking close as
//!   *closed* long before *completed*, and Late-Complete-style propagation
//!   as target epochs completing at the origin's pace;
//! * a **sync**-plane transition: a grant, access id, data issue, closure
//!   announcement or fence half, toward or from a peer;
//! * a **request** transition (§VII.C): allocated, completed, consumed.
//!
//! A consumer reads the variants it needs and skips the rest: the
//! timeline and the auditor's I4/I5 the epoch records, [`SyncFold`] and
//! the race detector the sync records, the auditor's I6 the request
//! records.

use std::collections::BTreeMap;

use mpisim_sim::SimTime;

use crate::epoch::Slot;
use crate::request::ReqEvent;
use crate::types::{Rank, Req, WinId};

/// A lifecycle transition.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EpochEvent {
    /// Epoch object created (application-level open).
    Opened,
    /// Internal lifetime started (progress engine activated it).
    Activated,
    /// Application-level close routine invoked.
    Closed,
    /// Internal lifetime ended (all completion conditions met).
    Completed,
}

/// One trace record: when, on which rank, and what.
#[derive(Copy, Clone, Debug)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Rank on which it happened: the owner of the epoch or request, or
    /// the side of the sync plane that acted.
    pub rank: Rank,
    /// What happened.
    pub event: TraceEvent,
}

/// What a [`TraceRecord`] records.
#[derive(Copy, Clone, Debug)]
pub enum TraceEvent {
    /// An epoch lifecycle transition.
    Epoch {
        /// Window the epoch belongs to.
        win: WinId,
        /// Epoch id within the rank's side of the window.
        epoch: u64,
        /// The open-set slot of the epoch's kind.
        kind: Slot,
        /// Which transition.
        event: EpochEvent,
    },
    /// A synchronization-plane transition.
    Sync {
        /// Window.
        win: WinId,
        /// The remote rank involved (grant peer, or data target).
        peer: Rank,
        /// Matching plane.
        plane: Plane,
        /// The transition.
        event: SyncEvent,
    },
    /// A request lifecycle transition.
    Req {
        /// The request handle.
        req: Req,
        /// The transition.
        event: ReqEvent,
    },
}

/// Which ω-triple matching plane a synchronization event belongs to.
///
/// GATS/fence epochs match on the `⟨a, e, g⟩` counters; passive-target
/// epochs match on the separate `⟨a_lock, g_lock⟩` pair (split matching
/// planes, DESIGN.md deviation 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Plane {
    /// Active-target plane (`a`/`e`/`g` counters; fence and GATS).
    Gats,
    /// Passive-target plane (`a_lock`/`g_lock` counters; lock/lock_all).
    Lock,
}

/// How an RMA data operation touches target window memory, as a sync
/// record carries it for the happens-before race detector
/// (`mpisim-analyze`). Accumulate-family operations are applied atomically
/// elementwise by the engine, so two accumulates with the *same* reduction
/// operator never conflict; everything else follows the usual
/// read/write matrix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Get-style read of target bytes.
    Read,
    /// Put-style overwrite of target bytes.
    Write,
    /// Accumulate-family atomic update with this reduction operator
    /// (accumulate, get_accumulate, fetch_and_op).
    Atomic(crate::datatype::ReduceOp),
    /// Compare-and-swap: an atomic conditional write.
    AtomicCas,
}

impl AccessKind {
    /// Whether two accesses to overlapping bytes of one window conflict
    /// (i.e. at least one mutates and the pair is not an atomic pair that
    /// commutes). Unordered conflicting accesses are data races under the
    /// MPI-3 RMA memory model.
    pub fn conflicts_with(self, other: AccessKind) -> bool {
        use crate::datatype::ReduceOp::NoOp;
        use AccessKind::*;
        match (self, other) {
            // Neither side mutates (plain reads and NoOp atomic reads).
            _ if !self.writes() && !other.writes() => false,
            // A NoOp accumulate is an element-wise-atomic pure read:
            // well-ordered against every accumulate-family access (the
            // MPI `same_op_no_op` default).
            (Atomic(NoOp), Atomic(_) | AtomicCas)
            | (Atomic(_) | AtomicCas, Atomic(NoOp)) => false,
            // Same-operator accumulates are atomic and commute; mixed
            // operators leave a schedule-dependent result.
            (Atomic(a), Atomic(b)) => a != b,
            _ => true,
        }
    }

    /// Whether the access mutates target memory (a `NoOp` accumulate
    /// reads atomically without modifying the slot).
    pub fn writes(self) -> bool {
        !matches!(
            self,
            AccessKind::Read | AccessKind::Atomic(crate::datatype::ReduceOp::NoOp)
        )
    }
}

/// A synchronization-plane transition: the event of a sync record. These
/// are the raw material of the conformance harness's invariant auditor —
/// grant emission and application must stay positional and monotone, and
/// data must never be issued to a target before the matching grant
/// arrived (§VII.B) — and of the happens-before race detector, which
/// advances vector clocks on the grant / epoch-done / fence-done edges and
/// checks [`DataIssued`] byte ranges for unordered conflicts. Both read
/// those edges off one [`SyncFold`].
///
/// [`DataIssued`]: SyncEvent::DataIssued
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// The granter sent positional grant number `id` to `peer`.
    GrantSent {
        /// Grant position within the (granter, peer, win, plane) stream.
        id: u64,
    },
    /// The origin applied a grant, raising its `g_r` (or `g_lock`) to `id`.
    GrantApplied {
        /// The counter value after application.
        id: u64,
    },
    /// An access epoch was assigned its positional access id `A_i` toward
    /// `peer` at activation.
    AccessAssigned {
        /// Epoch id (matches its epoch records).
        epoch: u64,
        /// The positional access id assigned.
        id: u64,
    },
    /// An RMA data operation of `epoch` was handed to the network toward
    /// `peer` (after the grant gate, except for fences which pre-grant).
    /// Carries the target byte range and access kind so the race detector
    /// needs no side channels.
    DataIssued {
        /// Epoch id (matches its epoch records).
        epoch: u64,
        /// Target window byte displacement.
        disp: usize,
        /// Target window extent in bytes (layout extent for strided ops).
        len: usize,
        /// How the operation touches `[disp, disp+len)` at the target.
        access: AccessKind,
    },
    /// The origin announced epoch closure toward `peer`: a GATS done
    /// packet (plane [`Plane::Gats`]) or an unlock packet
    /// ([`Plane::Lock`]), carrying the positional access id. The
    /// complete→wait / unlock→lock happens-before edge starts here.
    EpochDoneSent {
        /// Epoch id (matches its epoch records).
        epoch: u64,
        /// Positional access id of the closing epoch toward `peer`.
        id: u64,
    },
    /// The target consumed the origin's closure announcement `id` (done
    /// packet raised `gats_done_recv`, or the unlock entered the release
    /// backlog). The complete→wait / unlock→lock edge lands here.
    EpochDoneApplied {
        /// Positional access id of the origin's closing epoch.
        id: u64,
    },
    /// This rank announced its closing fence of sequence `seq` to `peer`
    /// (the fence barrier's outgoing half).
    FenceDoneSent {
        /// Fence sequence number on the window.
        seq: u64,
    },
    /// This rank's fence of sequence `seq` completed having consumed the
    /// announcement from `peer` (the fence barrier's incoming half; one
    /// record per peer at completion).
    FenceDoneApplied {
        /// Fence sequence number on the window.
        seq: u64,
    },
    /// The rank touched its *own* window memory outside any traced
    /// synchronization (`peer` = self). Emitted only by the `hb-race`
    /// fault injection today: a planted unsynchronized local access the
    /// race detector must flag.
    LocalAccess {
        /// Byte displacement in the local window.
        disp: usize,
        /// Length in bytes.
        len: usize,
        /// How local memory was touched.
        access: AccessKind,
    },
}

/// Which happens-before edge a send→apply pair of [`SyncEvent`]s carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Edge {
    /// `GrantSent` → `GrantApplied`: post → start, or a lock grant.
    Grant,
    /// `EpochDoneSent` → `EpochDoneApplied`: complete → wait, or unlock →
    /// next lock.
    EpochDone,
    /// `FenceDoneSent` → `FenceDoneApplied`: one peer's half of a fence.
    FenceDone,
}

/// What [`SyncFold::step`] saw at one record.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<T> {
    /// A send of `id`; `prev` is the highest id its channel sent before.
    Sent {
        /// The edge the channel carries.
        edge: Edge,
        /// Grant or access id, or fence sequence number.
        id: u64,
        /// Highest id sent on the channel before this one (0 = none).
        prev: u64,
    },
    /// An apply of `id`.
    Applied {
        /// The edge the channel carries.
        edge: Edge,
        /// Grant or access id, or fence sequence number.
        id: u64,
        /// The payload its send left, moved out; `None` if no send of `id`
        /// is pending (applied before its send, a duplicate apply, or a
        /// rank's `FenceDoneApplied` toward itself).
        matched: Option<T>,
        /// Highest id applied on the channel before this one (0 = none).
        prev: u64,
        /// Highest id sent on the channel so far.
        sent: u64,
    },
    /// Not half of an edge.
    Other,
}

/// A channel within its sender's row: (receiver, window, plane, edge).
type ChannelKey = (Rank, WinId, Plane, Edge);

/// The highest ids a channel has seen.
#[derive(Default)]
struct Ids {
    sent: u64,
    applied: u64,
}

/// One sending rank's channels, each created on first use.
struct Row<T> {
    ids: BTreeMap<ChannelKey, Ids>,
    /// Sends not yet applied, by (channel, id): one channel's are one range,
    /// in id order. Ids are monotone on a channel but may have gaps (a
    /// watchdog-cancelled fence sends nothing). A duplicated send replaces
    /// its twin, whose clock snapshot the later one covers.
    pending: BTreeMap<(ChannelKey, u64), T>,
}

/// The one send→apply matcher of the sync records. Fed the trace in
/// order (it skips every record that is not a sync record), it pairs each
/// `*Sent` with the `*Applied` of the same id on the same `(from, to,
/// window, plane, edge)` channel, at most once. A consumer hands in a
/// payload at each send and gets it back at the matching apply: the race
/// detector's clock snapshot, the auditor's `()`.
pub struct SyncFold<T> {
    /// One row per sending rank, as `OmegaTable` keeps one per window side.
    rows: Vec<Row<T>>,
}

impl<T> Default for SyncFold<T> {
    fn default() -> Self {
        SyncFold { rows: Vec::new() }
    }
}

impl<T> SyncFold<T> {
    /// Fold in the next record; `payload` is called once, at a send.
    pub fn step(&mut self, r: &TraceRecord, payload: impl FnOnce() -> T) -> Step<T> {
        use SyncEvent::*;
        let TraceEvent::Sync { win, peer, plane, event } = r.event else { return Step::Other };
        let (edge, id, sent) = match event {
            GrantSent { id } => (Edge::Grant, id, true),
            GrantApplied { id } => (Edge::Grant, id, false),
            EpochDoneSent { id, .. } => (Edge::EpochDone, id, true),
            EpochDoneApplied { id } => (Edge::EpochDone, id, false),
            FenceDoneSent { seq } => (Edge::FenceDone, seq, true),
            FenceDoneApplied { seq } => (Edge::FenceDone, seq, false),
            AccessAssigned { .. } | DataIssued { .. } | LocalAccess { .. } => return Step::Other,
        };
        let (from, to) = if sent { (r.rank, peer) } else { (peer, r.rank) };
        if self.rows.len() <= from.idx() {
            let empty = || Row { ids: BTreeMap::new(), pending: BTreeMap::new() };
            self.rows.resize_with(from.idx() + 1, empty);
        }
        let row = &mut self.rows[from.idx()];
        let ch = (to, win, plane, edge);
        let ids = row.ids.entry(ch).or_default();
        if sent {
            let prev = ids.sent;
            ids.sent = prev.max(id);
            row.pending.insert((ch, id), payload());
            return Step::Sent { edge, id, prev };
        }
        let prev = ids.applied;
        ids.applied = prev.max(id);
        let matched = row.pending.remove(&(ch, id));
        Step::Applied { edge, id, matched, prev, sent: ids.sent }
    }

    /// Grants `origin` has applied from `granter` on `(win, plane)` so
    /// far: the origin's `g_r` (or `g_lock`).
    pub fn grants_applied(&self, granter: Rank, origin: Rank, win: WinId, plane: Plane) -> u64 {
        let row = self.rows.get(granter.idx());
        let ids = row.and_then(|row| row.ids.get(&(origin, win, plane, Edge::Grant)));
        ids.map_or(0, |ids| ids.applied)
    }

    /// Sends folded in and not yet applied.
    pub fn pending(&self) -> usize {
        self.rows.iter().map(|row| row.pending.len()).sum()
    }
}

/// Per-epoch lifecycle summary assembled from the epoch records.
#[derive(Clone, Debug)]
pub struct EpochSummary {
    /// Rank owning the epoch.
    pub rank: usize,
    /// Window id.
    pub win: u32,
    /// Epoch id.
    pub epoch: u64,
    /// Epoch kind, as its open-set slot.
    pub kind: Slot,
    /// Transition times.
    pub opened: Option<SimTime>,
    /// Internal activation time (None = never activated).
    pub activated: Option<SimTime>,
    /// Application-level close time.
    pub closed: Option<SimTime>,
    /// Internal completion time.
    pub completed: Option<SimTime>,
    /// A transition recorded more than once (its time is the last one's).
    pub duplicate: Option<EpochEvent>,
}

impl EpochSummary {
    /// Time the epoch sat deferred (opened → activated).
    pub fn deferral(&self) -> Option<SimTime> {
        Some(self.activated? - self.opened?)
    }

    /// Time between the application closing the epoch and the middleware
    /// completing it — the window a nonblocking close makes productive.
    pub fn close_to_complete(&self) -> Option<SimTime> {
        Some(self.completed?.saturating_sub(self.closed?))
    }
}

/// Fold the epoch records into per-epoch summaries, ordered by (rank,
/// win, epoch id).
pub fn summarize(records: &[TraceRecord]) -> Vec<EpochSummary> {
    let mut map: BTreeMap<(usize, u32, u64), EpochSummary> = BTreeMap::new();
    for r in records {
        let TraceEvent::Epoch { win, epoch, kind, event } = r.event else { continue };
        let (rank, win) = (r.rank.idx(), win.0);
        let e = map.entry((rank, win, epoch)).or_insert_with(|| EpochSummary {
            rank,
            win,
            epoch,
            kind,
            opened: None,
            activated: None,
            closed: None,
            completed: None,
            duplicate: None,
        });
        let at = match event {
            EpochEvent::Opened => &mut e.opened,
            EpochEvent::Activated => &mut e.activated,
            EpochEvent::Closed => &mut e.closed,
            EpochEvent::Completed => &mut e.completed,
        };
        if at.replace(r.time).is_some() {
            e.duplicate = Some(event);
        }
    }
    map.into_values().collect()
}

fn fmt_t(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{:>10.1}", t.as_micros_f64()),
        None => format!("{:>10}", "-"),
    }
}

/// Render a text timeline of every epoch, one row each, µs columns.
pub fn render_timeline(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5}{:<5}{:<6}{:<15}{:>10}{:>10}{:>10}{:>10}{:>12}{:>12}\n",
        "rank", "win", "epoch", "kind", "open", "act", "close", "done", "deferred", "close→done"
    ));
    for s in summarize(records) {
        out.push_str(&format!(
            "r{:<4}w{:<4}e{:<5}{:<15}{}{}{}{}{:>12}{:>12}\n",
            s.rank,
            s.win,
            s.epoch,
            s.kind.name(),
            fmt_t(s.opened),
            fmt_t(s.activated),
            fmt_t(s.closed),
            fmt_t(s.completed),
            s.deferral()
                .map(|d| format!("{:.1}", d.as_micros_f64()))
                .unwrap_or_else(|| "-".into()),
            s.close_to_complete()
                .map(|d| format!("{:.1}", d.as_micros_f64()))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: usize, epoch: u64, event: EpochEvent, us: u64) -> TraceRecord {
        let kind = Slot::Lock(Rank(1));
        let event = TraceEvent::Epoch { win: WinId(0), epoch, kind, event };
        TraceRecord { time: SimTime::from_micros(us), rank: Rank(rank), event }
    }

    #[test]
    fn summarize_folds_transitions() {
        let recs = vec![
            rec(0, 1, EpochEvent::Opened, 10),
            rec(0, 1, EpochEvent::Activated, 12),
            rec(0, 1, EpochEvent::Closed, 20),
            rec(0, 1, EpochEvent::Completed, 300),
            rec(0, 2, EpochEvent::Opened, 21),
            rec(0, 2, EpochEvent::Activated, 300),
            sync(0, 1, SyncEvent::GrantSent { id: 1 }),
        ];
        let s = summarize(&recs);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|e| e.duplicate.is_none()));
        assert_eq!(s[0].deferral(), Some(SimTime::from_micros(2)));
        assert_eq!(s[0].close_to_complete(), Some(SimTime::from_micros(280)));
        // Epoch 2 was deferred 279 µs and never closed.
        assert_eq!(s[1].deferral(), Some(SimTime::from_micros(279)));
        assert_eq!(s[1].close_to_complete(), None);
    }

    fn sync(rank: usize, peer: usize, event: SyncEvent) -> TraceRecord {
        let event = TraceEvent::Sync { win: WinId(0), peer: Rank(peer), plane: Plane::Gats, event };
        TraceRecord { time: SimTime::ZERO, rank: Rank(rank), event }
    }

    /// Folds `trace`, handing each send its index as payload; returns
    /// what each apply matched, in trace order, and the fold.
    fn matches(trace: &[TraceRecord]) -> (Vec<Option<usize>>, SyncFold<usize>) {
        let mut fold = SyncFold::default();
        let mut got = Vec::new();
        for (i, r) in trace.iter().enumerate() {
            if let Step::Applied { matched, .. } = fold.step(r, || i) {
                got.push(matched);
            }
        }
        (got, fold)
    }

    #[test]
    fn a_send_is_matched_once_and_a_duplicate_apply_is_not() {
        let t = [
            sync(1, 0, SyncEvent::GrantSent { id: 1 }),
            sync(1, 0, SyncEvent::GrantSent { id: 1 }),
            sync(0, 1, SyncEvent::GrantApplied { id: 1 }),
            sync(0, 1, SyncEvent::GrantApplied { id: 1 }),
        ];
        let (got, fold) = matches(&t);
        // The later of two duplicated sends is the one matched.
        assert_eq!(got, [Some(1), None]);
        assert_eq!(fold.pending(), 0);
        assert_eq!(fold.grants_applied(Rank(1), Rank(0), WinId(0), Plane::Gats), 1);
        assert_eq!(fold.grants_applied(Rank(1), Rank(0), WinId(0), Plane::Lock), 0);
    }

    #[test]
    fn an_apply_before_its_send_is_unmatched_and_the_send_stays_pending() {
        let mut fold = SyncFold::default();
        let apply = sync(0, 1, SyncEvent::EpochDoneApplied { id: 1 });
        let step = fold.step(&apply, || unreachable!("an apply takes no payload"));
        let edge = Edge::EpochDone;
        assert_eq!(step, Step::Applied { edge, id: 1, matched: None, prev: 0, sent: 0 });
        let send = sync(1, 0, SyncEvent::EpochDoneSent { epoch: 4, id: 1 });
        assert_eq!(fold.step(&send, || ()), Step::Sent { edge, id: 1, prev: 0 });
        assert_eq!(fold.pending(), 1);
    }

    #[test]
    fn a_fence_done_applied_toward_oneself_is_unmatched() {
        let t = [
            sync(0, 1, SyncEvent::FenceDoneSent { seq: 1 }),
            sync(1, 0, SyncEvent::FenceDoneSent { seq: 1 }),
            sync(0, 0, SyncEvent::FenceDoneApplied { seq: 1 }),
            sync(0, 1, SyncEvent::FenceDoneApplied { seq: 1 }),
        ];
        assert_eq!(matches(&t).0, [None, Some(1)]);
    }

    #[test]
    fn a_fence_seq_gap_still_matches_exactly() {
        // Fence 2 was cancelled by the watchdog and sent nothing.
        let mut fold = SyncFold::default();
        let edge = Edge::FenceDone;
        let send = |seq| sync(1, 0, SyncEvent::FenceDoneSent { seq });
        assert_eq!(fold.step(&send(1), || 'a'), Step::Sent { edge, id: 1, prev: 0 });
        assert_eq!(fold.step(&send(3), || 'c'), Step::Sent { edge, id: 3, prev: 1 });
        let apply = |seq| sync(0, 1, SyncEvent::FenceDoneApplied { seq });
        let got = |id, matched, prev| Step::Applied { edge, id, matched, prev, sent: 3 };
        assert_eq!(fold.step(&apply(1), || 'x'), got(1, Some('a'), 0));
        assert_eq!(fold.step(&apply(2), || 'x'), got(2, None, 1));
        assert_eq!(fold.step(&apply(3), || 'x'), got(3, Some('c'), 2));
        assert_eq!(fold.pending(), 0);
    }

    #[test]
    fn applies_out_of_id_order_both_match() {
        let t = [
            sync(1, 0, SyncEvent::GrantSent { id: 1 }),
            sync(1, 0, SyncEvent::GrantSent { id: 2 }),
            sync(0, 1, SyncEvent::GrantApplied { id: 2 }),
            sync(0, 1, SyncEvent::GrantApplied { id: 1 }),
        ];
        let (got, fold) = matches(&t);
        assert_eq!(got, [Some(1), Some(0)]);
        assert_eq!(fold.pending(), 0);
    }

    #[test]
    fn render_contains_rows_and_headers() {
        let recs = vec![
            rec(1, 7, EpochEvent::Opened, 5),
            rec(1, 7, EpochEvent::Completed, 50),
        ];
        let out = render_timeline(&recs);
        assert!(out.contains("deferred"));
        assert!(out.contains("r1"));
        assert!(out.contains("e7"));
        assert!(out.contains("lock"));
    }
}
