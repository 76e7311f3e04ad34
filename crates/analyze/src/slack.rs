//! Synchronization-slack dataflow pass: find over-synchronization
//! statically (advisory codes W001–W005).
//!
//! The paper's payoff is that epoch synchronization is usually *stronger
//! than the program needs*: a blocking fence/complete/wait/unlock parks
//! the host even when nothing local depends on remote completion yet, and
//! the nonblocking forms reclaim that slack as communication/computation
//! overlap (§V). This pass reads the program's resolved epoch structure
//! (`Shape`, `shape.rs`: a close completes its epoch's accesses, a
//! flush the accesses so far of the passive epochs it covers, up to the
//! first of their closes) and, for each **blocking synchronization
//! point** (fence phase close, `complete`, `wait`, `unlock`,
//! `unlock_all`, blocking flush), computes the *earliest dependent use*
//! of the operations the sync point completes with one forward scan
//! (`first_use`):
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
//! ([`crate::rewrite()`]) applies W001–W003 mechanically and shrinks
//! W004 over-wide start groups symmetrically on both sides of the
//! cross-rank matching (the recorded [`GroupShrink`] pairs); W005
//! (dead exposure) stays report-only because removing an exposure
//! epoch outright changes collective matching asymmetrically.

use std::cell::OnceCell;

use mpisim_core::trace::AccessKind;

use crate::diag::{Code, Diagnostic};
use crate::ir::{IrProgram, Stmt};
use crate::shape::{conflicting_pairs, Access, At, EpochKind, Flush, Op, Resolved, Shape};

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

impl SlackFinding {
    /// A `Required` finding with no witness yet, over what the sync point
    /// completes (`covered`).
    fn required(rank: usize, step: usize, win: usize, kind: SyncKind, covered: &[&Access]) -> Self {
        SlackFinding {
            rank,
            step,
            win,
            kind,
            class: SlackClass::Required,
            wait_before: None,
            insert_wait: false,
            localize: false,
            covered_bytes: covered.iter().map(|c| c.hi - c.lo).sum(),
            why: String::new(),
        }
    }
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

/// The accesses the slack pass reasons about: those an epoch covers (the
/// rest never reach the wire), minus spins — a spin re-executes a read that
/// is already counted, and the dependent-use scan treats it as a hard pin.
fn counted(a: &&Access) -> bool {
    a.epoch.is_some() && a.op != Op::Spin
}

/// The slack pass's conflict predicate: either side writes. It is
/// deliberately coarser than [`AccessKind::conflicts_with`], the E-codes'
/// race predicate, which lets a `NoOp` read meet an accumulate and
/// same-operator accumulates commute: the pass asks whether anyone may
/// depend on *when* written bytes complete, not whether their final value
/// depends on the schedule, and any write can be depended on.
fn either_writes(a: AccessKind, b: AccessKind) -> bool {
    a.writes() || b.writes()
}

/// The reorder pin: with reorder flags on, a rank that issues conflicting
/// overlapping accesses to one (window, target) from *different* epochs
/// depends on blocking syncs to break its reorder-concurrency regions
/// (E009). Relaxing any of its syncs could merge regions, so every sync
/// of that rank is pinned Required. (Blocking syncs serialize *all* of a
/// rank's windows, hence the pin is per rank, not per window.)
fn reorder_pinned(sh: &Shape) -> Vec<bool> {
    let pinned = |rs: &Resolved| {
        let keyed: Vec<_> =
            rs.accesses.iter().filter(counted).map(|a| (a, (a.target, a.win))).collect();
        let pairs = conflicting_pairs(&keyed, either_writes);
        pairs.iter().any(|&(i, j, _)| keyed[i].0.epoch != keyed[j].0.epoch)
    };
    sh.ranks.iter().map(|rs| sh.p.reorder && pinned(rs)).collect()
}

/// What a blocking exposure close at `step` covers: the rank's whole
/// window (conservative: it publishes everything the origins wrote).
fn whole_window(p: &IrProgram, rank: usize, step: usize, win: usize, e: usize) -> Access {
    Access {
        rank,
        step,
        win,
        target: rank,
        lo: 0,
        hi: p.windows[win],
        kind: AccessKind::Write,
        op: Op::Put,
        val: None,
        epoch: Some(e),
    }
}

/// The barrier rule's table, one sweep over the whole job: per rank and
/// statement that a sync point can cover (a counted access, or a blocking
/// exposure close's whole window), the first access of *another* rank, in
/// rank then statement order, that conflicts with it.
type Publication<'a> = Vec<Vec<Option<&'a Access>>>;

fn publication<'a>(sh: &'a Shape) -> Publication<'a> {
    let counted: Vec<&Access> =
        sh.ranks.iter().flat_map(|rs| &rs.accesses).filter(counted).collect();
    let mut exposures = Vec::new();
    for (rank, rs) in sh.ranks.iter().enumerate() {
        for (e, ep) in rs.epochs.iter().enumerate() {
            let Some((step, mode)) = ep.close else { continue };
            if mode.is_blocking() && matches!(ep.kind, EpochKind::Post { .. }) {
                exposures.push(whole_window(sh.p, rank, step, ep.win, e));
            }
        }
    }
    let keyed: Vec<_> =
        counted.iter().copied().chain(&exposures).map(|a| (a, (a.win, a.target))).collect();
    let mut first: Publication = sh.p.ranks.iter().map(|stmts| vec![None; stmts.len()]).collect();
    // Only a counted access publishes. `conflicting_pairs` lists each
    // entry's partners in position order, so the first one noted is the
    // first in rank and statement order.
    for (i, j, _) in conflicting_pairs(&keyed, either_writes) {
        let (a, b) = (keyed[i].0, keyed[j].0);
        for (c, by) in [(b, i), (a, j)] {
            if a.rank != b.rank && by < counted.len() {
                first[c.rank][c.step].get_or_insert(counted[by]);
            }
        }
    }
    first
}

/// Does any *other* rank's access conflict with the covered ones? The
/// first such pair in other-rank, statement and covered order is the
/// witness. (The barrier rule: a barrier after the sync publishes
/// completion to conflicting peers, so the deferred wait must land before
/// it.)
fn cross_conflict(first: &Publication, win: usize, covered: &[&Access]) -> Option<String> {
    let (a, c) = (covered.iter())
        .filter_map(|c| Some((first[c.rank][c.step]?, c)))
        .min_by_key(|(a, _)| (a.rank, a.step))?;
    let (lo, hi) = a.overlap(c)?;
    Some(format!(
        "rank {} conflicts on bytes [{lo}, {hi}) of rank {}'s window {win}",
        a.rank, c.target
    ))
}

/// What the dependent-use scan met first.
enum Use<'a> {
    /// An existing `waitall` (a free deferred-wait landing point).
    WaitAll,
    /// A value-returning access overlapping covered written bytes.
    Read { by: &'a Access, lo: usize, hi: usize },
    /// A value-dependent spin: it re-reads the window until a peer's write
    /// lands — a conservative hard pin.
    Spin,
    /// A barrier, when another rank conflicts with the covered bytes: the
    /// conflict.
    Barrier(String),
}

/// Forward dataflow scan over `range` of `rank`'s statements for the first
/// dependent use of what a sync point on `win` completes (`covered`): a
/// value dependence (same-rank overlapping get or value read), a
/// value-dependent spin, a cross-rank publication point (barrier with a
/// conflicting peer, read from the table in `cross`, which the first
/// barrier builds), or — when `landing` — an existing `waitall`.
fn first_use<'a>(
    sh: &'a Shape,
    cross: &OnceCell<Publication<'a>>,
    rank: usize,
    range: std::ops::Range<usize>,
    win: usize,
    covered: &[&Access],
    landing: bool,
) -> Option<(usize, Use<'a>)> {
    let rs = &sh.ranks[rank];
    let table = || cross.get_or_init(|| publication(sh));
    for d in range {
        let hit = match (&sh.p.ranks[rank][d], rs.at[d]) {
            (Stmt::WaitAll, _) if landing => Some(Use::WaitAll),
            (Stmt::SpinUntil { .. }, _) => Some(Use::Spin),
            (Stmt::Barrier, _) => cross_conflict(table(), win, covered).map(Use::Barrier),
            (_, At::Access(a)) => Some(&rs.accesses[a])
                .filter(|by| by.op.returns_value() && by.win == win)
                .and_then(|by| {
                    let written = |c: &&&Access| c.kind.writes() && c.target == by.target;
                    let (lo, hi) = covered.iter().filter(written).find_map(|c| by.overlap(c))?;
                    Some(Use::Read { by, lo, hi })
                }),
            _ => None,
        };
        if let Some(hit) = hit {
            return Some((d, hit));
        }
    }
    None
}

/// Run the slack pass. Advisory only: the returned diagnostics use the
/// W-series codes and never overlap [`crate::analyze`]'s E-codes.
pub fn analyze_slack(p: &IrProgram) -> SlackReport {
    slack_of(&Shape::of(p))
}

/// Per rank, sorted: `(epoch, target)` for every target an epoch's
/// counted accesses address. Collected once, it says which group members
/// a start epoch never operates toward, for W004, W005 and the shrinks.
fn addressed(sh: &Shape) -> Vec<Vec<(usize, usize)>> {
    let of = |rs: &Resolved| {
        let mut pairs: Vec<(usize, usize)> =
            rs.accesses.iter().filter(counted).filter_map(|a| Some((a.epoch?, a.target))).collect();
        pairs.sort_unstable();
        pairs
    };
    sh.ranks.iter().map(of).collect()
}

/// The slack pass over an already resolved program.
pub(crate) fn slack_of(sh: &Shape) -> SlackReport {
    let p = sh.p;
    let pinned = reorder_pinned(sh);
    let addressed = addressed(sh);
    let unused = |rank: usize, e: usize| -> Vec<usize> {
        let group = sh.ranks[rank].epochs[e].group().iter().copied();
        group.filter(|&t| addressed[rank].binary_search(&(e, t)).is_err()).collect()
    };
    let cross = OnceCell::new();
    let mut report = SlackReport::default();

    // Classify one blocking epoch close.
    let classify_close = |rank: usize,
                          step: usize,
                          win: usize,
                          kind: SyncKind,
                          covered: &[&Access],
                          report: &mut SlackReport| {
        let mut finding = SlackFinding::required(rank, step, win, kind, covered);
        if pinned[rank] {
            finding.why = "reorder pin: this rank has conflicting same-origin accesses in \
                           different epochs, so blocking syncs must keep breaking reorder regions"
                .into();
            return report.findings.push(finding);
        }
        let len = p.ranks[rank].len();
        let (wait_before, insert_wait, why) =
            match first_use(sh, &cross, rank, step + 1..len, win, covered, true) {
                None => (None, false, "no dependent use before end of program".to_string()),
                Some((d, Use::WaitAll)) => {
                    (Some(d), false, format!("deferred to the existing waitall at stmt {d}"))
                }
                Some((d, hit)) => (
                    Some(d),
                    true,
                    match hit {
                        Use::Read { by, lo, hi } => format!(
                            "{} at stmt {d} {} bytes [{lo}, {hi}) of rank {}'s window {win} that \
                             the sync completes",
                            by.op.name(),
                            if by.op == Op::Get { "reads" } else { "fetches" },
                            by.target
                        ),
                        Use::Spin => format!(
                            "value-dependent spin at stmt {d} re-reads the window until \
                             satisfied; the sync must complete before it"
                        ),
                        Use::Barrier(conflict) => {
                            format!("barrier at stmt {d} publishes completion: {conflict}")
                        }
                        Use::WaitAll => unreachable!("matched above"),
                    },
                ),
            };
        let slack_end = wait_before.unwrap_or(len);
        if slack_end <= step + 1 {
            finding.why = format!("zero slack: {why}");
            return report.findings.push(finding);
        }
        let code = match kind {
            SyncKind::FenceClose | SyncKind::Complete | SyncKind::WaitEpoch => Code::W002,
            SyncKind::Unlock | SyncKind::UnlockAll => Code::W003,
            SyncKind::Flush => unreachable!("flushes are classified apart"),
        };
        report.diags.push(Diagnostic {
            code,
            rank,
            step: Some(step),
            detail: format!(
                "blocking {kind:?} on window {win} can be its nonblocking form with the wait \
                 deferred {} statement(s): {why}",
                slack_end - step - 1
            ),
        });
        report.findings.push(SlackFinding {
            class: SlackClass::Relaxable,
            wait_before,
            insert_wait,
            why,
            ..finding
        });
    };

    for (rank, rs) in sh.ranks.iter().enumerate() {
        let len = p.ranks[rank].len();
        // Outstanding `iflush` requests (for the W001 discharge rule). The
        // list is deliberately never pruned at `waitall`: a flush that
        // *would* discharge a request stays conservative
        // (Required/localized) even when a wait consumed the request
        // earlier, which keeps the classification stable under the
        // rewriter's own inserted waits (idempotence).
        let mut iflushes: Vec<&Flush> = Vec::new();

        for (step, at) in rs.at.iter().enumerate() {
            match *at {
                At::Fence { closes: Some(e), .. } | At::Closes(e) => {
                    let epoch = &rs.epochs[e];
                    let win = epoch.win;
                    let kind = match epoch.kind {
                        EpochKind::Fence { .. } => SyncKind::FenceClose,
                        EpochKind::Start { .. } => SyncKind::Complete,
                        EpochKind::Post { .. } => SyncKind::WaitEpoch,
                        EpochKind::Lock { .. } => SyncKind::Unlock,
                        EpochKind::LockAll => SyncKind::UnlockAll,
                    };
                    // W004: group targets this epoch never addressed.
                    let unused = if kind == SyncKind::Complete { unused(rank, e) } else { vec![] };
                    if !unused.is_empty() && unused.len() < epoch.group().len() {
                        report.diags.push(Diagnostic {
                            code: Code::W004,
                            rank,
                            step: Some(epoch.open),
                            detail: format!(
                                "start group on window {win} names rank(s) {unused:?} but the \
                                 epoch never operates toward them (grants collected for nothing)"
                            ),
                        });
                    }
                    if !epoch.close.is_some_and(|(_, mode)| mode.is_blocking()) {
                        continue;
                    }
                    // A close completes its epoch's operations; the exposure
                    // close publishes this rank's whole window.
                    let exposed;
                    let covered: Vec<&Access> = if kind == SyncKind::WaitEpoch {
                        exposed = whole_window(p, rank, step, win, e);
                        vec![&exposed]
                    } else {
                        rs.accesses_of(e).filter(counted).collect()
                    };
                    classify_close(rank, step, win, kind, &covered, &mut report);
                }
                At::Flush(f) => {
                    let f = &rs.flushes[f];
                    if !f.close.is_blocking() {
                        iflushes.push(f);
                        continue;
                    }
                    // Which earlier iflush requests does this blocking
                    // flush complete?
                    let (mut full, mut local) = (0usize, 0usize);
                    iflushes.retain(|req| {
                        let discharged = f.discharges(req);
                        if discharged {
                            *(if req.local_only { &mut local } else { &mut full }) += 1;
                        }
                        !discharged
                    });
                    if f.covers.is_empty() {
                        // No passive epoch open: the E-layer's business.
                        continue;
                    }
                    // The covered epochs' ops so far toward the flushed
                    // target(s); the flush's guarantee is subsumed by the
                    // first of their own closes, so only uses strictly
                    // before it count against eliding the flush.
                    let covered: Vec<&Access> = (f.covers.iter())
                        .flat_map(|&e| rs.accesses_of(e).take_while(|a| a.step < step))
                        .filter(|a| counted(a) && f.target.is_none_or(|t| a.target == t))
                        .collect();
                    let close_of = |&e: &usize| rs.epochs[e].close.map_or(len, |(c, _)| c);
                    let close_at = f.covers.iter().map(close_of).min().unwrap_or(len);
                    let dependent = || {
                        let scan = step + 1..close_at;
                        let (d, hit) =
                            first_use(sh, &cross, rank, scan, f.win, &covered, false)?;
                        Some(match hit {
                            Use::Read { by, .. } => format!(
                                "{} at stmt {d} depends on the flushed bytes before the epoch \
                                 closes",
                                by.op.name()
                            ),
                            Use::Spin => format!(
                                "value-dependent spin at stmt {d} depends on window state \
                                 before the epoch closes"
                            ),
                            Use::Barrier(conflict) => format!(
                                "barrier at stmt {d} publishes the flush before the epoch \
                                 closes: {conflict}"
                            ),
                            Use::WaitAll => unreachable!("a waitall is no landing point here"),
                        })
                    };
                    let required = |why| (SlackClass::Required, false, why);
                    let (class, localize, why) = if pinned[rank] {
                        required("reorder pin".to_string())
                    } else if full > 0 {
                        required(format!("discharges {full} full iflush request(s)"))
                    } else if let Some(dep) = dependent() {
                        required(dep)
                    } else if local > 0 && f.local_only {
                        required(format!("discharges {local} local-only iflush request(s)"))
                    } else if local > 0 {
                        let why = format!(
                            "only local-only iflush request(s) ride on it ({local}); remote \
                             completion is never consumed before the epoch close at stmt \
                             {close_at}"
                        );
                        (SlackClass::Relaxable, true, why)
                    } else {
                        let why = format!(
                            "no dependent use before the epoch close at stmt {close_at} and no \
                             iflush request discharged"
                        );
                        (SlackClass::Elidable, false, why)
                    };
                    if class != SlackClass::Required {
                        report.diags.push(Diagnostic {
                            code: Code::W001,
                            rank,
                            step: Some(step),
                            detail: format!(
                                "redundant blocking flush on window {}: {why} — {}",
                                f.win,
                                if localize { "weaken to flush_local" } else { "elide it" }
                            ),
                        });
                    }
                    report.findings.push(SlackFinding {
                        class,
                        localize,
                        why,
                        ..SlackFinding::required(rank, step, f.win, SyncKind::Flush, &covered)
                    });
                }
                _ => {}
            }
        }
    }

    // GATS epochs of one rank window by window, in open order: the order
    // W005 and the shrinks are reported in.
    let gats_by_window = |rank: usize, posts: bool| {
        let epochs = &sh.ranks[rank].epochs;
        (0..p.windows.len()).flat_map(move |win| {
            epochs.iter().enumerate().filter(move |(_, e)| {
                e.win == win
                    && match e.kind {
                        EpochKind::Post { .. } => posts,
                        EpochKind::Start { .. } => !posts,
                        _ => false,
                    }
            })
        })
    };

    // W005: dead exposure epochs — every granted origin's matching access
    // epoch exists and never operates toward this rank. (A mismatched
    // exposure is E015's business, and an origin that does operate keeps
    // the epoch live.)
    for t in 0..sh.ranks.len() {
        for (e, post) in gats_by_window(t, true) {
            let dead = |&o: &usize| {
                let start = sh.matching_start(t, e, o);
                start.is_some_and(|s| addressed[o].binary_search(&(s, t)).is_err())
            };
            if !post.group().is_empty() && post.group().iter().all(dead) {
                report.diags.push(Diagnostic {
                    code: Code::W005,
                    rank: t,
                    step: Some(post.open),
                    detail: format!(
                        "exposure epoch on window {} grants origin(s) {:?} that never operate \
                         toward rank {t} in the matched access epoch(s)",
                        post.win,
                        post.group()
                    ),
                });
            }
        }
    }

    // Mechanizable W004 shrinks: for each over-wide start (some — not
    // all — group targets unused), pair every unused target with the
    // matching post on the target's side. Pairs without a matching post
    // are skipped: the shrink must stay symmetric, and a missing post is
    // E015's business.
    for origin in 0..sh.ranks.len() {
        for (e, start) in gats_by_window(origin, false) {
            let unused = unused(origin, e);
            if unused.len() == start.group().len() {
                continue;
            }
            for t in unused {
                if let Some(post) = sh.matching_post(origin, e, t) {
                    report.shrinks.push(GroupShrink {
                        origin,
                        win: start.win,
                        start_step: start.open,
                        target: t,
                        post_step: sh.ranks[t].epochs[post].open,
                    });
                }
            }
        }
    }

    report
}
