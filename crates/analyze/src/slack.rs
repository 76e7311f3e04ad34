//! Synchronization-slack dataflow pass: find over-synchronization
//! statically (advisory codes W001–W005).
//!
//! The paper's payoff is that epoch synchronization is usually *stronger
//! than the program needs*: a blocking fence/complete/wait/unlock parks
//! the host even when nothing local depends on remote completion yet, and
//! the nonblocking forms reclaim that slack as communication/computation
//! overlap (§V). This pass walks every rank with a per-(rank, window)
//! byte-interval dataflow and, for each **blocking synchronization
//! point** (fence phase close, `complete`, `wait`, `unlock`,
//! `unlock_all`, blocking flush), computes the *earliest dependent use*
//! of the operations the sync point completes:
//!
//! * a later `get` by the same rank overlapping covered **written** bytes
//!   (a value dependence — the get must observe the completed put);
//! * a `barrier` when another rank's accesses conflict with the covered
//!   bytes (the barrier publishes completion cross-rank, so the wait must
//!   happen before it);
//! * an existing `waitall` (a free deferred-wait landing point);
//! * end of program.
//!
//! Each sync point is then classified on the slack lattice:
//!
//! * **Elidable** — the guarantee is never consumed at all (only
//!   blocking flushes qualify: closes are structurally required);
//! * **Relaxable** — the blocking call can become its nonblocking form
//!   with the wait deferred to the computed wait point (fence→ifence,
//!   eager wait→deferred wait; a flush that only discharges local-only
//!   `iflush` requests is weakened to `flush_local` per the E008
//!   age-stamp rule: the later local stamp completes everything the
//!   earlier local-only request covered);
//! * **Required** — there is zero slack (the dependent use is immediate),
//!   the flush discharges a *full* `iflush` request (remote completion
//!   someone waits on), or reorder flags are on and this rank has
//!   conflicting same-origin accesses in different epochs, where removing
//!   a blocking close could merge reorder regions into an E009 violation
//!   (the reorder pin).
//!
//! Soundness leans on the engine's own design: nonblocking epoch closes
//! preserve epoch ordering per target (the conformance matrix proves the
//! blocking↔nonblocking equivalence for every generated program), so the
//! only things a relaxation can lose are (a) the cross-rank publication
//! point — guarded by the barrier rule, (b) same-origin value
//! dependences — guarded by the get rule, and (c) the region break a
//! blocking sync contributes under reorder flags — guarded by the
//! reorder pin. Flush *elision* removes a guarantee outright, so it
//! additionally requires that no dependent use exists before the covered
//! epoch's own close (which re-establishes completion) and that no
//! outstanding `iflush` request rides on the discharge.
//!
//! Value-dependent statements participate conservatively: a
//! [`Stmt::ReadValue`] is a data access like `get` (a value dependence
//! on covered written bytes), and a [`Stmt::SpinUntil`] is a hard
//! dependent-use pin — the spin re-reads the window until a peer's
//! write lands, so every blocking sync whose slack region would cross
//! it must complete first.
//!
//! The W-series is advisory: it is emitted only by [`analyze_slack`],
//! never by [`crate::analyze`], so "analyzer-clean" (the E-codes)
//! keeps meaning exactly what it meant. The companion rewriter
//! ([`crate::rewrite`]) applies W001–W003 mechanically and shrinks
//! W004 over-wide start groups symmetrically on both sides of the
//! cross-rank matching (the recorded [`GroupShrink`] pairs); W005
//! (dead exposure) stays report-only because removing an exposure
//! epoch outright changes collective matching asymmetrically.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::ir::{IrProgram, Stmt};

/// Classification of one blocking synchronization point on the slack
/// lattice (`Elidable ⊏ Relaxable ⊏ Required`: each step up keeps
/// strictly more of the original synchronization).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SlackClass {
    /// The guarantee is never consumed: remove the call outright.
    Elidable,
    /// The call can become its nonblocking form (or `flush_local`), with
    /// completion deferred to the computed wait point.
    Relaxable,
    /// Must stay blocking.
    Required,
}

/// Which blocking call a [`SlackFinding`] classifies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncKind {
    /// A fence call closing a previous phase (never the first call).
    FenceClose,
    /// `MPI_WIN_COMPLETE`.
    Complete,
    /// `MPI_WIN_WAIT` (exposure close).
    WaitEpoch,
    /// `MPI_WIN_UNLOCK`.
    Unlock,
    /// `MPI_WIN_UNLOCK_ALL`.
    UnlockAll,
    /// A blocking `MPI_WIN_FLUSH` family call.
    Flush,
}

/// One classified blocking synchronization point, with the provenance the
/// rewriter and the W-lints need.
#[derive(Clone, Debug)]
pub struct SlackFinding {
    /// Rank whose statement is classified.
    pub rank: usize,
    /// Statement index of the sync point in that rank's program.
    pub step: usize,
    /// Window the call synchronizes.
    pub win: usize,
    /// Call kind.
    pub kind: SyncKind,
    /// The classification.
    pub class: SlackClass,
    /// Relaxable closes: original statement index the deferred wait must
    /// land **before** (`None` = defer to end of program).
    pub wait_before: Option<usize>,
    /// Relaxable closes: the wait point is a dependent use, so the
    /// rewriter must insert a `WaitAll` there (`false` when the wait
    /// point is an existing `WaitAll` or end of program).
    pub insert_wait: bool,
    /// Relaxable flushes only: weaken to `flush_local` (the flush
    /// discharges local-only `iflush` requests) instead of eliding.
    pub localize: bool,
    /// Total bytes of the operations this sync point completes (the sum
    /// of the covered intervals) — the size input of the rewriter's
    /// virtual-time cost model.
    pub covered_bytes: usize,
    /// Witness: the dependent use / discharge / pin justifying the
    /// classification.
    pub why: String,
}

/// One mechanizable W004 group shrink: drop `target` from `origin`'s
/// start group at `start_step`, and drop `origin` from the matching
/// post's group at (`target`, `post_step`). Shrinking both sides of
/// one matched pair keeps every later k-th-occurrence pairing between
/// the two ranks aligned, so the rewrite never perturbs cross-rank
/// collective matching. Pairs whose matching post the target's program
/// lacks are not recorded (that is E015's business, not a rewrite).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupShrink {
    /// Rank whose start group is over-wide.
    pub origin: usize,
    /// Window of the matched epoch pair.
    pub win: usize,
    /// Statement index of the `start` in `origin`'s program.
    pub start_step: usize,
    /// The never-addressed target to drop from the start group.
    pub target: usize,
    /// Statement index of the matching `post` in `target`'s program.
    pub post_step: usize,
}

/// The slack pass result: every classified sync point plus the advisory
/// diagnostics (W001–W005).
#[derive(Debug, Default)]
pub struct SlackReport {
    /// Every blocking sync point, in per-rank walk order.
    pub findings: Vec<SlackFinding>,
    /// Advisory W-series diagnostics.
    pub diags: Vec<Diagnostic>,
    /// Mechanizable W004 group shrinks (symmetric start/post pairs).
    pub shrinks: Vec<GroupShrink>,
}

/// One byte interval covered by a sync point (window implicit).
#[derive(Clone, Debug)]
struct Iv {
    target: usize,
    lo: usize,
    hi: usize,
    write: bool,
}

/// One data access, tagged with the per-rank ordinal of its covering
/// epoch (for the reorder pin's cross-epoch conflict check).
struct RankAccess {
    win: usize,
    target: usize,
    lo: usize,
    hi: usize,
    write: bool,
    epoch: usize,
}

fn ranges_overlap(alo: usize, ahi: usize, blo: usize, bhi: usize) -> bool {
    alo.max(blo) < ahi.min(bhi)
}

/// The window and byte interval a data statement touches (`None` for
/// every other statement).
fn data_iv(stmt: &Stmt) -> Option<(usize, Iv)> {
    let (win, target, lo, len, write) = match *stmt {
        Stmt::Put { win, target, disp, len }
        | Stmt::PutVal { win, target, disp, len, .. }
        | Stmt::Acc { win, target, disp, len, .. } => (win, target, disp, len, true),
        Stmt::Get { win, target, disp, len } => (win, target, disp, len, false),
        Stmt::ReadValue { win, target, disp, kind, .. } => {
            (win, target, disp, 8, kind.write_op().is_some())
        }
        Stmt::AccVal { win, target, disp, .. } => (win, target, disp, 8, true),
        _ => return None,
    };
    Some((win, Iv { target, lo, hi: lo + len, write }))
}

/// Collect every rank's data accesses with epoch ordinals, mirroring the
/// engine's op-routing (single-target lock → lock_all → GATS → fence).
fn collect_accesses(p: &IrProgram) -> Vec<Vec<RankAccess>> {
    let mut all = Vec::with_capacity(p.n_ranks);
    for stmts in &p.ranks {
        let mut out = Vec::new();
        let mut ord = 0usize;
        // Per window: open-epoch ordinals.
        let mut fence_open: BTreeMap<usize, usize> = BTreeMap::new();
        let mut gats: BTreeMap<usize, (Vec<usize>, usize)> = BTreeMap::new();
        let mut locks: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut lock_all: BTreeMap<usize, usize> = BTreeMap::new();
        for stmt in stmts {
            match stmt {
                Stmt::Fence { win, .. } => {
                    ord += 1;
                    fence_open.insert(*win, ord);
                }
                Stmt::Start { win, group } => {
                    ord += 1;
                    gats.insert(*win, (group.clone(), ord));
                }
                Stmt::Complete { win, .. } => {
                    gats.remove(win);
                }
                Stmt::Lock { win, target, .. } => {
                    ord += 1;
                    locks.insert((*win, *target), ord);
                }
                Stmt::Unlock { win, target, .. } => {
                    locks.remove(&(*win, *target));
                }
                Stmt::LockAll { win, .. } => {
                    ord += 1;
                    lock_all.insert(*win, ord);
                }
                Stmt::UnlockAll { win, .. } => {
                    lock_all.remove(win);
                }
                _ => {
                    let Some((win, Iv { target, lo, hi, write })) = data_iv(stmt) else {
                        continue;
                    };
                    let epoch = locks
                        .get(&(win, target))
                        .copied()
                        .or_else(|| lock_all.get(&win).copied())
                        .or_else(|| {
                            gats.get(&win)
                                .filter(|(g, _)| g.contains(&target))
                                .map(|&(_, o)| o)
                        })
                        .or_else(|| fence_open.get(&win).copied());
                    if let Some(epoch) = epoch {
                        out.push(RankAccess { win, target, lo, hi, write, epoch });
                    }
                }
            }
        }
        all.push(out);
    }
    all
}

/// The reorder pin: with reorder flags on, a rank that issues conflicting
/// overlapping accesses to one (window, target) from *different* epochs
/// depends on blocking syncs to break its reorder-concurrency regions
/// (E009). Relaxing any of its syncs could merge regions, so every sync
/// of that rank is pinned Required. (Blocking syncs serialize *all* of a
/// rank's windows — `sync_all` — hence the pin is per rank, not per
/// window.)
fn reorder_pinned(p: &IrProgram, accesses: &[Vec<RankAccess>]) -> Vec<bool> {
    let mut pinned = vec![false; p.n_ranks];
    if !p.reorder {
        return pinned;
    }
    for (rank, accs) in accesses.iter().enumerate() {
        'outer: for (i, a) in accs.iter().enumerate() {
            for b in &accs[i + 1..] {
                if a.win == b.win
                    && a.target == b.target
                    && a.epoch != b.epoch
                    && (a.write || b.write)
                    && ranges_overlap(a.lo, a.hi, b.lo, b.hi)
                {
                    pinned[rank] = true;
                    break 'outer;
                }
            }
        }
    }
    pinned
}

/// Does any *other* rank's access conflict with the covered intervals?
/// (The barrier rule: a barrier after the sync publishes completion to
/// conflicting peers, so the deferred wait must land before it.)
fn cross_conflict(
    rank: usize,
    win: usize,
    covered: &[Iv],
    accesses: &[Vec<RankAccess>],
) -> Option<String> {
    for (r, accs) in accesses.iter().enumerate() {
        if r == rank {
            continue;
        }
        for a in accs {
            if a.win != win {
                continue;
            }
            for iv in covered {
                if a.target == iv.target
                    && (a.write || iv.write)
                    && ranges_overlap(a.lo, a.hi, iv.lo, iv.hi)
                {
                    return Some(format!(
                        "rank {r} conflicts on bytes [{}, {}) of rank {}'s window {win}",
                        a.lo.max(iv.lo),
                        a.hi.min(iv.hi),
                        iv.target
                    ));
                }
            }
        }
    }
    None
}

/// Where the earliest dependent use of `covered` lands after `step`.
enum WaitPoint {
    /// A dependent use or consumption point at statement `at`.
    At { at: usize, insert: bool, why: String },
    /// No dependent use before end of program.
    Eop,
}

/// Forward dataflow scan for an epoch close at `step`: the first value
/// dependence (same-rank overlapping get), cross-rank publication point
/// (barrier with a conflicting peer), or existing `waitall`.
fn scan_close(
    rank: usize,
    step: usize,
    win: usize,
    covered: &[Iv],
    stmts: &[Stmt],
    accesses: &[Vec<RankAccess>],
) -> WaitPoint {
    let barrier_conflict = cross_conflict(rank, win, covered, accesses);
    for (d, stmt) in stmts.iter().enumerate().skip(step + 1) {
        match stmt {
            Stmt::WaitAll => {
                return WaitPoint::At {
                    at: d,
                    insert: false,
                    why: format!("deferred to the existing waitall at stmt {d}"),
                };
            }
            Stmt::Get { win: gw, target, disp, len } if *gw == win => {
                for iv in covered {
                    if iv.write
                        && iv.target == *target
                        && ranges_overlap(*disp, *disp + *len, iv.lo, iv.hi)
                    {
                        return WaitPoint::At {
                            at: d,
                            insert: true,
                            why: format!(
                                "get at stmt {d} reads bytes [{}, {}) of rank {target}'s \
                                 window {win} that the sync completes",
                                disp.max(&iv.lo),
                                (disp + len).min(iv.hi)
                            ),
                        };
                    }
                }
            }
            Stmt::ReadValue { win: gw, target, disp, .. } if *gw == win => {
                for iv in covered {
                    if iv.write
                        && iv.target == *target
                        && ranges_overlap(*disp, *disp + 8, iv.lo, iv.hi)
                    {
                        return WaitPoint::At {
                            at: d,
                            insert: true,
                            why: format!(
                                "value read at stmt {d} fetches bytes [{}, {}) of rank \
                                 {target}'s window {win} that the sync completes",
                                disp.max(&iv.lo),
                                (disp + 8).min(iv.hi)
                            ),
                        };
                    }
                }
            }
            Stmt::SpinUntil { .. } => {
                // A value-dependent spin re-reads the window until a
                // peer's write lands: conservative hard pin — the sync
                // must complete before the spin starts.
                return WaitPoint::At {
                    at: d,
                    insert: true,
                    why: format!(
                        "value-dependent spin at stmt {d} re-reads the window until \
                         satisfied; the sync must complete before it"
                    ),
                };
            }
            Stmt::Barrier => {
                if let Some(why) = &barrier_conflict {
                    return WaitPoint::At {
                        at: d,
                        insert: true,
                        why: format!("barrier at stmt {d} publishes completion: {why}"),
                    };
                }
            }
            _ => {}
        }
    }
    WaitPoint::Eop
}

/// Dependent-use scan for a blocking flush: the flush's guarantee is
/// subsumed by the covering epoch's own close, so only uses strictly
/// before `close_at` count against eliding it.
fn scan_flush(
    rank: usize,
    step: usize,
    win: usize,
    close_at: usize,
    covered: &[Iv],
    stmts: &[Stmt],
    accesses: &[Vec<RankAccess>],
) -> Option<String> {
    let barrier_conflict = cross_conflict(rank, win, covered, accesses);
    for (d, stmt) in stmts.iter().enumerate().take(close_at).skip(step + 1) {
        match stmt {
            Stmt::Get { win: gw, target, disp, len } if *gw == win => {
                for iv in covered {
                    if iv.write
                        && iv.target == *target
                        && ranges_overlap(*disp, *disp + *len, iv.lo, iv.hi)
                    {
                        return Some(format!(
                            "get at stmt {d} depends on the flushed bytes before the epoch \
                             closes"
                        ));
                    }
                }
            }
            Stmt::ReadValue { win: gw, target, disp, .. } if *gw == win => {
                for iv in covered {
                    if iv.write
                        && iv.target == *target
                        && ranges_overlap(*disp, *disp + 8, iv.lo, iv.hi)
                    {
                        return Some(format!(
                            "value read at stmt {d} depends on the flushed bytes before \
                             the epoch closes"
                        ));
                    }
                }
            }
            Stmt::SpinUntil { .. } => {
                return Some(format!(
                    "value-dependent spin at stmt {d} depends on window state before the \
                     epoch closes"
                ));
            }
            Stmt::Barrier => {
                if let Some(why) = &barrier_conflict {
                    return Some(format!(
                        "barrier at stmt {d} publishes the flush before the epoch closes: {why}"
                    ));
                }
            }
            _ => {}
        }
    }
    None
}

/// One GATS access-epoch instance (for W004 and the W005 matching).
struct StartShape {
    group: Vec<usize>,
    step: usize,
    /// Ops issued toward each group target inside this epoch.
    ops_toward: BTreeMap<usize, usize>,
}

/// One exposure-epoch instance (for W005 matching).
struct PostShape {
    group: Vec<usize>,
    step: usize,
    /// Per-origin occurrence index among this rank's posts containing
    /// that origin on this window.
    occ: BTreeMap<usize, usize>,
}

/// An outstanding `iflush` request (for the W001 discharge rule). The
/// list is deliberately never pruned at `waitall`: a flush that *would*
/// discharge a request stays conservative (Required/localized) even when
/// a wait consumed the request earlier, which keeps the classification
/// stable under the rewriter's own inserted waits (idempotence).
struct IFlush {
    win: usize,
    target: Option<usize>,
    local_only: bool,
}

/// Run the slack pass. Advisory only: the returned diagnostics use the
/// W-series codes and never overlap [`crate::analyze`]'s E-codes.
pub fn analyze_slack(p: &IrProgram) -> SlackReport {
    let accesses = collect_accesses(p);
    let pinned = reorder_pinned(p, &accesses);
    let mut report = SlackReport::default();

    // Cross-rank shapes for W005, collected during the main walk.
    let mut starts_shape: Vec<BTreeMap<usize, Vec<StartShape>>> = Vec::with_capacity(p.n_ranks);
    let mut posts_shape: Vec<BTreeMap<usize, Vec<PostShape>>> = Vec::with_capacity(p.n_ranks);

    for (rank, stmts) in p.ranks.iter().enumerate() {
        let mut my_starts: BTreeMap<usize, Vec<StartShape>> = BTreeMap::new();
        let mut my_posts: BTreeMap<usize, Vec<PostShape>> = BTreeMap::new();
        let mut posts_toward: BTreeMap<(usize, usize), usize> = BTreeMap::new();

        // Per-window open-epoch op tracking.
        let mut fence_calls: BTreeMap<usize, usize> = BTreeMap::new();
        let mut fence_ops: BTreeMap<usize, Vec<Iv>> = BTreeMap::new();
        let mut gats: BTreeMap<usize, (usize, Vec<Iv>)> = BTreeMap::new(); // win → (start idx, ops)
        let mut locks: BTreeMap<(usize, usize), Vec<Iv>> = BTreeMap::new();
        let mut lock_all: BTreeMap<usize, Vec<Iv>> = BTreeMap::new();
        let mut iflushes: Vec<IFlush> = Vec::new();

        // Classify one blocking epoch close.
        let classify_close = |rank: usize,
                              step: usize,
                              win: usize,
                              kind: SyncKind,
                              covered: &[Iv],
                              report: &mut SlackReport| {
            let covered_bytes: usize = covered.iter().map(|iv| iv.hi - iv.lo).sum();
            if pinned[rank] {
                report.findings.push(SlackFinding {
                    rank,
                    step,
                    win,
                    kind,
                    class: SlackClass::Required,
                    wait_before: None,
                    insert_wait: false,
                    localize: false,
                    covered_bytes,
                    why: "reorder pin: this rank has conflicting same-origin accesses in \
                          different epochs, so blocking syncs must keep breaking reorder \
                          regions"
                        .into(),
                });
                return;
            }
            let (wait_before, insert_wait, why, slack_end) =
                match scan_close(rank, step, win, covered, &p.ranks[rank], &accesses) {
                    WaitPoint::At { at, insert, why } => (Some(at), insert, why, at),
                    WaitPoint::Eop => (
                        None,
                        false,
                        "no dependent use before end of program".to_string(),
                        p.ranks[rank].len(),
                    ),
                };
            if slack_end <= step + 1 {
                report.findings.push(SlackFinding {
                    rank,
                    step,
                    win,
                    kind,
                    class: SlackClass::Required,
                    wait_before: None,
                    insert_wait: false,
                    localize: false,
                    covered_bytes,
                    why: format!("zero slack: {why}"),
                });
                return;
            }
            let code = match kind {
                SyncKind::FenceClose | SyncKind::Complete | SyncKind::WaitEpoch => Code::W002,
                SyncKind::Unlock | SyncKind::UnlockAll => Code::W003,
                SyncKind::Flush => unreachable!("flushes use classify_flush"),
            };
            report.diags.push(Diagnostic {
                code,
                rank,
                step: Some(step),
                detail: format!(
                    "blocking {kind:?} on window {win} can be its nonblocking form with the \
                     wait deferred {} statement(s): {why}",
                    slack_end - step - 1
                ),
            });
            report.findings.push(SlackFinding {
                rank,
                step,
                win,
                kind,
                class: SlackClass::Relaxable,
                wait_before,
                insert_wait,
                localize: false,
                covered_bytes,
                why,
            });
        };

        for (step, stmt) in stmts.iter().enumerate() {
            match stmt {
                Stmt::Fence { win, close } => {
                    let calls = fence_calls.entry(*win).or_insert(0);
                    let closing = *calls > 0;
                    *calls += 1;
                    let covered = fence_ops.insert(*win, Vec::new()).unwrap_or_default();
                    if closing && close.is_blocking() {
                        classify_close(rank, step, *win, SyncKind::FenceClose, &covered,
                            &mut report);
                    }
                }
                Stmt::Start { win, group } => {
                    let list = my_starts.entry(*win).or_default();
                    gats.insert(*win, (list.len(), Vec::new()));
                    list.push(StartShape {
                        group: group.clone(),
                        step,
                        ops_toward: BTreeMap::new(),
                    });
                }
                Stmt::Complete { win, close } => {
                    let (covered, start_idx) = match gats.remove(win) {
                        Some((i, ops)) => (ops, Some(i)),
                        None => (Vec::new(), None),
                    };
                    // W004: group targets this epoch never addressed.
                    if let Some(i) = start_idx {
                        let sh = &my_starts[win][i];
                        let unused: Vec<usize> = sh
                            .group
                            .iter()
                            .copied()
                            .filter(|t| !sh.ops_toward.contains_key(t))
                            .collect();
                        if !unused.is_empty() && unused.len() < sh.group.len() {
                            report.diags.push(Diagnostic {
                                code: Code::W004,
                                rank,
                                step: Some(sh.step),
                                detail: format!(
                                    "start group on window {win} names rank(s) {unused:?} but \
                                     the epoch never operates toward them (grants collected \
                                     for nothing)"
                                ),
                            });
                        }
                    }
                    if close.is_blocking() {
                        classify_close(rank, step, *win, SyncKind::Complete, &covered,
                            &mut report);
                    }
                }
                Stmt::Post { win, group } => {
                    let mut occ = BTreeMap::new();
                    for &o in group {
                        let c = posts_toward.entry((*win, o)).or_insert(0);
                        occ.insert(o, *c);
                        *c += 1;
                    }
                    my_posts
                        .entry(*win)
                        .or_default()
                        .push(PostShape { group: group.clone(), step, occ });
                }
                Stmt::WaitEpoch { win, close } => {
                    if close.is_blocking() {
                        // The exposure close publishes this rank's whole
                        // window: conservative covered set.
                        let covered = vec![Iv {
                            target: rank,
                            lo: 0,
                            hi: p.windows.get(*win).copied().unwrap_or(0),
                            write: true,
                        }];
                        classify_close(rank, step, *win, SyncKind::WaitEpoch, &covered,
                            &mut report);
                    }
                }
                Stmt::Lock { win, target, .. } => {
                    locks.insert((*win, *target), Vec::new());
                }
                Stmt::Unlock { win, target, close } => {
                    let covered = locks.remove(&(*win, *target)).unwrap_or_default();
                    if close.is_blocking() {
                        classify_close(rank, step, *win, SyncKind::Unlock, &covered,
                            &mut report);
                    }
                }
                Stmt::LockAll { win, .. } => {
                    lock_all.insert(*win, Vec::new());
                }
                Stmt::UnlockAll { win, close } => {
                    let covered = lock_all.remove(win).unwrap_or_default();
                    if close.is_blocking() {
                        classify_close(rank, step, *win, SyncKind::UnlockAll, &covered,
                            &mut report);
                    }
                }
                Stmt::Flush { win, target, local_only, close } => {
                    if !close.is_blocking() {
                        iflushes.push(IFlush {
                            win: *win,
                            target: *target,
                            local_only: *local_only,
                        });
                        continue;
                    }
                    // Discharge accounting (mirrors the analyzer's E008
                    // rule): which earlier iflush requests does this
                    // blocking flush complete?
                    let mut full = 0usize;
                    let mut local = 0usize;
                    iflushes.retain(|f| {
                        let covered = f.win == *win
                            && (target.is_none() || f.target == *target)
                            && (!*local_only || f.local_only);
                        if covered {
                            if f.local_only {
                                local += 1;
                            } else {
                                full += 1;
                            }
                        }
                        !covered
                    });
                    // Covered epochs and their ops.
                    let mut covered_ops: Vec<Iv> = Vec::new();
                    let mut any_epoch = false;
                    let mut close_at = stmts.len();
                    match target {
                        Some(t) => {
                            if let Some(ops) = locks.get(&(*win, *t)) {
                                any_epoch = true;
                                covered_ops.extend(ops.iter().cloned());
                                close_at = close_at.min(find_close(stmts, step, |s| {
                                    matches!(s, Stmt::Unlock { win: w, target: tt, .. }
                                        if w == win && tt == t)
                                }));
                            } else if let Some(ops) = lock_all.get(win) {
                                any_epoch = true;
                                covered_ops
                                    .extend(ops.iter().filter(|iv| iv.target == *t).cloned());
                                close_at = close_at.min(find_close(stmts, step, |s| {
                                    matches!(s, Stmt::UnlockAll { win: w, .. } if w == win)
                                }));
                            }
                        }
                        None => {
                            for ((w, t), ops) in &locks {
                                if w == win {
                                    any_epoch = true;
                                    covered_ops.extend(ops.iter().cloned());
                                    close_at = close_at.min(find_close(stmts, step, |s| {
                                        matches!(s, Stmt::Unlock { win: ww, target: tt, .. }
                                            if ww == win && tt == t)
                                    }));
                                }
                            }
                            if let Some(ops) = lock_all.get(win) {
                                any_epoch = true;
                                covered_ops.extend(ops.iter().cloned());
                                close_at = close_at.min(find_close(stmts, step, |s| {
                                    matches!(s, Stmt::UnlockAll { win: w, .. } if w == win)
                                }));
                            }
                        }
                    }
                    if !any_epoch {
                        // No passive epoch open: the E-layer's business.
                        continue;
                    }
                    let (class, localize, why) = if pinned[rank] {
                        (SlackClass::Required, false, "reorder pin".to_string())
                    } else if full > 0 {
                        (
                            SlackClass::Required,
                            false,
                            format!("discharges {full} full iflush request(s)"),
                        )
                    } else if let Some(dep) = scan_flush(
                        rank, step, *win, close_at, &covered_ops, &p.ranks[rank], &accesses,
                    ) {
                        (SlackClass::Required, false, dep)
                    } else if local > 0 {
                        if *local_only {
                            (
                                SlackClass::Required,
                                false,
                                format!("discharges {local} local-only iflush request(s)"),
                            )
                        } else {
                            (
                                SlackClass::Relaxable,
                                true,
                                format!(
                                    "only local-only iflush request(s) ride on it ({local}); \
                                     remote completion is never consumed before the epoch \
                                     close at stmt {close_at}"
                                ),
                            )
                        }
                    } else {
                        (
                            SlackClass::Elidable,
                            false,
                            format!(
                                "no dependent use before the epoch close at stmt {close_at} \
                                 and no iflush request discharged"
                            ),
                        )
                    };
                    if class != SlackClass::Required {
                        report.diags.push(Diagnostic {
                            code: Code::W001,
                            rank,
                            step: Some(step),
                            detail: format!(
                                "redundant blocking flush on window {win}: {why} — {}",
                                if localize { "weaken to flush_local" } else { "elide it" }
                            ),
                        });
                    }
                    report.findings.push(SlackFinding {
                        rank,
                        step,
                        win: *win,
                        kind: SyncKind::Flush,
                        class,
                        wait_before: None,
                        insert_wait: false,
                        localize,
                        covered_bytes: covered_ops.iter().map(|iv| iv.hi - iv.lo).sum(),
                        why,
                    });
                }
                Stmt::Put { .. }
                | Stmt::PutVal { .. }
                | Stmt::Get { .. }
                | Stmt::Acc { .. }
                | Stmt::ReadValue { .. }
                | Stmt::AccVal { .. } => {
                    let (win, iv) = data_iv(stmt).expect("every arm above is a data statement");
                    let target = iv.target;
                    if let Some(ops) = locks.get_mut(&(win, target)) {
                        ops.push(iv);
                    } else if let Some(ops) = lock_all.get_mut(&win) {
                        ops.push(iv);
                    } else if let Some((i, ops)) = gats.get_mut(&win) {
                        let sh = &mut my_starts.get_mut(&win).unwrap()[*i];
                        if sh.group.contains(&target) {
                            *sh.ops_toward.entry(target).or_insert(0) += 1;
                            ops.push(iv);
                        } else if fence_calls.get(&win).copied().unwrap_or(0) > 0 {
                            fence_ops.entry(win).or_default().push(iv);
                        }
                    } else if fence_calls.get(&win).copied().unwrap_or(0) > 0 {
                        fence_ops.entry(win).or_default().push(iv);
                    }
                }
                Stmt::SpinUntil { .. }
                | Stmt::Compute { .. }
                | Stmt::WaitAll
                | Stmt::Barrier => {}
            }
        }
        starts_shape.push(my_starts);
        posts_shape.push(my_posts);
    }

    // W005: dead exposure epochs, via the cross-rank start/post matching
    // (the deadlock pass's occurrence rule): target t's k-th post
    // containing origin o matches o's k-th start containing t.
    for (t, wins) in posts_shape.iter().enumerate() {
        for (win, posts) in wins {
            for post in posts {
                if post.group.is_empty() {
                    continue;
                }
                let mut all_dead = true;
                for &o in &post.group {
                    let occ = post.occ[&o];
                    let matched = starts_shape
                        .get(o)
                        .and_then(|m| m.get(win))
                        .map(|list| {
                            list.iter().filter(|s| s.group.contains(&t)).nth(occ)
                        })
                        .unwrap_or(None);
                    match matched {
                        // Mismatched exposure is E015's business, and an
                        // origin that does operate keeps the epoch live.
                        None => {
                            all_dead = false;
                            break;
                        }
                        Some(s) if s.ops_toward.get(&t).copied().unwrap_or(0) > 0 => {
                            all_dead = false;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                if all_dead {
                    report.diags.push(Diagnostic {
                        code: Code::W005,
                        rank: t,
                        step: Some(post.step),
                        detail: format!(
                            "exposure epoch on window {win} grants origin(s) {:?} that never \
                             operate toward rank {t} in the matched access epoch(s)",
                            post.group
                        ),
                    });
                }
            }
        }
    }

    // Mechanizable W004 shrinks: for each over-wide start (some — not
    // all — group targets unused), pair every unused target with the
    // matching post on the target's side via the k-th-occurrence rule.
    // Pairs without a matching post are skipped: the shrink must stay
    // symmetric, and a missing post is E015's business.
    for (origin, wins) in starts_shape.iter().enumerate() {
        for (win, list) in wins {
            for (i, sh) in list.iter().enumerate() {
                let unused: Vec<usize> = sh
                    .group
                    .iter()
                    .copied()
                    .filter(|t| !sh.ops_toward.contains_key(t))
                    .collect();
                if unused.is_empty() || unused.len() == sh.group.len() {
                    continue;
                }
                for &t in &unused {
                    let occ = list[..i].iter().filter(|s| s.group.contains(&t)).count();
                    let post = posts_shape
                        .get(t)
                        .and_then(|m| m.get(win))
                        .and_then(|ps| {
                            ps.iter().filter(|p| p.group.contains(&origin)).nth(occ)
                        });
                    if let Some(p) = post {
                        report.shrinks.push(GroupShrink {
                            origin,
                            win: *win,
                            start_step: sh.step,
                            target: t,
                            post_step: p.step,
                        });
                    }
                }
            }
        }
    }

    report
}

/// First statement after `step` matching `pred`, or end of program.
fn find_close(stmts: &[Stmt], step: usize, pred: impl Fn(&Stmt) -> bool) -> usize {
    stmts
        .iter()
        .enumerate()
        .skip(step + 1)
        .find(|(_, s)| pred(s))
        .map(|(d, _)| d)
        .unwrap_or(stmts.len())
}
