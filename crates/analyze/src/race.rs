//! Dynamic happens-before race detection over the sync records of a job's
//! trace.
//!
//! ThreadSanitizer-style vector clocks, but the "threads" are ranks and
//! the synchronization edges are the RMA epoch protocol's own messages,
//! all of which the engine already traces as sync records
//! ([`TraceEvent::Sync`]; the detector skips every other record):
//!
//! | edge | trace events (send → apply) |
//! |------|-----------------------------|
//! | post → start (exposure grant) | `GrantSent` → `GrantApplied` (plane Gats) |
//! | lock grant | `GrantSent` → `GrantApplied` (plane Lock) |
//! | complete → wait (GATS done) | `EpochDoneSent` → `EpochDoneApplied` (plane Gats) |
//! | unlock → next lock | `EpochDoneSent` → `EpochDoneApplied` (plane Lock) |
//! | fence barrier | `FenceDoneSent` → `FenceDoneApplied` (per peer, per seq) |
//!
//! [`SyncFold`] pairs each send with its apply; it holds the sender's
//! clock snapshot until the apply joins it.
//!
//! Every [`SyncEvent::DataIssued`] carries the target byte range and an
//! [`AccessKind`]; [`SyncEvent::LocalAccess`] records a rank touching its
//! own window. Two accesses to overlapping bytes of one window owner race
//! when their kinds conflict, they come from different ranks, and neither
//! happens-before the other. Same-rank same-target accesses are always
//! ordered here (program order plus per-channel FIFO delivery), so only
//! cross-rank pairs are candidates.

use std::collections::BTreeMap;

use mpisim_core::trace::{AccessKind, Step, SyncEvent, SyncFold, TraceEvent, TraceRecord};
use mpisim_core::JobReport;

/// One side of a detected race.
#[derive(Clone, Debug)]
pub struct RaceAccess {
    /// Rank performing the access.
    pub rank: usize,
    /// Byte displacement in the owner's window.
    pub disp: usize,
    /// Length in bytes.
    pub len: usize,
    /// How the bytes were touched.
    pub kind: AccessKind,
    /// `true` for a local (same-rank) window access, `false` for an RMA
    /// operation issued toward a remote window.
    pub local: bool,
}

/// A pair of conflicting window accesses unordered by happens-before.
#[derive(Clone, Debug)]
pub struct Race {
    /// Window id.
    pub win: u32,
    /// Rank owning the window memory.
    pub owner: usize,
    /// Overlap start (byte).
    pub lo: usize,
    /// Overlap end (exclusive).
    pub hi: usize,
    /// The earlier access in trace order.
    pub first: RaceAccess,
    /// The later access in trace order.
    pub second: RaceAccess,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = |a: &RaceAccess| {
            format!(
                "rank {} {}{:?} [{}, {})",
                a.rank,
                if a.local { "local " } else { "" },
                a.kind,
                a.disp,
                a.disp + a.len
            )
        };
        write!(
            f,
            "race on bytes [{}, {}) of rank {}'s window {}: {} unordered against {}",
            self.lo,
            self.hi,
            self.owner,
            self.win,
            side(&self.first),
            side(&self.second)
        )
    }
}

/// One access recorded in a window's shadow.
struct Shadow {
    access: RaceAccess,
    /// The accessor's own clock component at access time: a later access
    /// by rank `r` is ordered after this one iff `clock_r[rank] >= own`.
    own: u64,
}

/// The detector's state: one vector clock per rank, and per (window,
/// owner) every access recorded so far.
struct Detector {
    clocks: Vec<Vec<u64>>,
    shadow: BTreeMap<(u32, usize), Vec<Shadow>>,
    races: Vec<Race>,
}

impl Detector {
    fn record_access(&mut self, win: u32, owner: usize, access: RaceAccess) {
        let RaceAccess { rank, disp, len, kind, .. } = access;
        let cell = self.shadow.entry((win, owner)).or_default();
        for prev in cell.iter() {
            let p = &prev.access;
            if p.rank == rank {
                continue; // program order + per-channel FIFO
            }
            let lo = p.disp.max(disp);
            let hi = (p.disp + p.len).min(disp + len);
            if lo >= hi || !p.kind.conflicts_with(kind) {
                continue;
            }
            // prev happens-before this access iff the accessor has observed
            // prev's own clock component.
            if self.clocks[rank][p.rank] >= prev.own {
                continue;
            }
            self.races.push(Race { win, owner, lo, hi, first: p.clone(), second: access.clone() });
        }
        cell.push(Shadow { access, own: self.clocks[rank][rank] });
    }
}

fn join(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// Scan the sync records of `report`'s trace and return every conflicting,
/// happens-before-unordered access pair. An empty result means the run is
/// race-free under the traced synchronization edges.
pub fn detect_races(report: &JobReport) -> Vec<Race> {
    detect_races_in(&report.trace)
}

/// [`detect_races`] over a bare trace, in global virtual-time order as the
/// runtime records it. Clocks are as wide as the highest rank its sync
/// records name.
pub fn detect_races_in(trace: &[TraceRecord]) -> Vec<Race> {
    let n = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Sync { peer, .. } => Some(r.rank.idx().max(peer.idx()) + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut d =
        Detector { clocks: vec![vec![0; n]; n], shadow: BTreeMap::new(), races: Vec::new() };
    // Each send's clock snapshot lives in the fold until its apply.
    let mut edges = SyncFold::default();
    for r in trace {
        let TraceEvent::Sync { win, peer, event, .. } = r.event else { continue };
        let me = r.rank.idx();
        // Every traced sync event is a distinct point in its rank's history.
        d.clocks[me][me] += 1;
        match (edges.step(r, || d.clocks[me].clone()), event) {
            (Step::Applied { matched: Some(snap), .. }, _) => join(&mut d.clocks[me], &snap),
            (_, SyncEvent::DataIssued { disp, len, access, .. }) => {
                let a = RaceAccess { rank: me, disp, len, kind: access, local: false };
                d.record_access(win.0, peer.idx(), a);
            }
            (_, SyncEvent::LocalAccess { disp, len, access }) => {
                let a = RaceAccess { rank: me, disp, len, kind: access, local: true };
                d.record_access(win.0, me, a);
            }
            _ => {}
        }
    }
    d.races
}
