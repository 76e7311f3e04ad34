//! Mechanical application of the slack pass: rewrite an [`IrProgram`]
//! so every relaxable synchronization becomes its nonblocking form.
//!
//! The rewriter consumes [`crate::analyze_slack`] findings and applies,
//! per rank:
//!
//! * **relax** — a `Relaxable` epoch close flips `Close::Blocking` to
//!   `Close::Nonblocking` (fence→ifence, complete→icomplete,
//!   wait→iwait, unlock→iunlock, unlock_all→iunlock_all);
//! * **defer** — the relaxed close's completion request is consumed at
//!   the finding's wait point: an existing `WaitAll`, a fresh `WaitAll`
//!   inserted immediately before the earliest dependent use, or a
//!   trailing `WaitAll` appended at end of program;
//! * **localize** — a `Relaxable` blocking flush becomes `flush_local`
//!   (per the E008 age-stamp rule the later local stamp still completes
//!   every local-only `iflush` request it discharged);
//! * **elide** — an `Elidable` blocking flush is deleted.
//!
//! * **shrink** — a mechanizable W004 pair ([`crate::GroupShrink`])
//!   drops the never-addressed target from the origin's `start` group
//!   *and* the origin from the matching `post`'s group. Shrinking both
//!   sides of one matched pair keeps every later k-th-occurrence
//!   pairing aligned, so cross-rank collective matching is preserved;
//!   the rewrite touches no flush or `WaitAll`, so the slack pass's
//!   never-prune-iflush-at-`WaitAll` bookkeeping invariant is
//!   untouched by it.
//!
//! Every candidate **relaxation** is additionally priced by a
//! virtual-time [`CostModel`]: relaxing buys back at most the host
//! park time the blocking call paid (scaled by the covered bytes) and
//! at most the overlap the slack region can absorb, and costs request
//! bookkeeping plus — when the deferred wait needs a fresh mid-program
//! landing point — the inserted `WaitAll`'s own synchronization.
//! Unprofitable relaxations are *skipped* (the W-lint still reports
//! them; [`RewriteReport::skipped`] counts them). Elision, localization
//! and group shrinking strictly remove work, so they are never gated.
//!
//! One structural veto sits above the price book: an `Unlock` on a
//! **contended** lock — our lock or some other rank's lock on the same
//! `(win, target)` is exclusive — is never relaxed. Deferring the
//! release pushes back the moment contending peers can acquire, so the
//! origin's overlap gain is the peers' serialization loss; the price
//! book is per-rank and cannot see that externality, but the whole-job
//! statement lists can (engine-confirmed on the transactions twin,
//! where relaxing contended unlocks cut blocked steps 111→23 yet
//! *regressed* virtual completion time ~4%).
//!
//! Rewriting runs the classify→apply cycle to a **fixpoint**, resolving
//! the program's epoch structure (`Shape`, `shape.rs`) once per pass
//! and sharing it between classification and the contention veto: an
//! inserted `WaitAll` is a new free deferred-wait landing point that can
//! turn a previously `Required` sync `Relaxable` on the next pass, and
//! each pass that changes anything strictly decreases the number of
//! blocking synchronization points or group widths (relax and elide
//! remove one blocking point each; a localized flush re-classifies
//! `Required` next pass; a shrink strictly narrows a group and is
//! never re-recorded for the dropped pair), so the loop terminates and
//! [`rewrite`] is idempotent by construction —
//! `rewrite(rewrite(p)) == rewrite(p)`, group-shrunk programs
//! included. Skip decisions are deterministic functions of the program
//! and the model, so they are stable across the fixpoint too.
//!
//! [`RewriteMode::PlantUnsound`] exists for the closed-loop validator's
//! exit-inverted self-test: after the sound rewrite it deletes one
//! synchronization statement outright (a fence call, else a barrier,
//! else a blocking unlock), which is exactly the kind of over-eager
//! "optimization" the differential check must catch — via a runtime
//! stall/deadlock, a memory divergence, or a watchdog degradation.

use crate::ir::{Close, IrProgram, Stmt};
use crate::shape::{At, Epoch, EpochKind, Shape};
use crate::slack::{slack_of, SlackClass, SlackFinding, SyncKind};

/// Virtual-time price book for candidate relaxations.
///
/// The calibration anchor is the engine's own `sync_blocked_ns` /
/// `sync_blocked_steps` counters. The blocking form of
/// `crates/core/tests/nonblocking_never_loses.rs::halo_fence`, run under
/// `JobConfig::new(8)` with 128 iterations instead of the test's 32,
/// parks the host for 412,548 virtual ns across 1,040 blocked sync steps,
/// ≈ 400 ns per blocking synchronization — the default
/// [`CostModel::park_ns_base`]. (Its IR twin, `interpret` of
/// `mpisim_apps::ir_models::halo_ir(8, 128)`, reads 420,012 ns across
/// 1,048 steps.) The remaining constants model
/// the engine's virtual-cost accounting: larger covered transfers keep
/// the sync parked longer (`park_ns_per_byte`), each statement of slack
/// distance can absorb a bounded amount of overlap
/// (`overlap_ns_per_stmt`), a nonblocking request costs
/// allocate/track/complete bookkeeping (`request_ns` — a static estimate
/// of the `i`-call's own overhead, not a price of waiting on the handle:
/// a `WaitAll` is one MPI call whatever it collects), and a fresh
/// mid-program `WaitAll` landing point is itself a synchronization the
/// host must visit (`wait_insert_ns`). A deferred wait that lands on an
/// existing `WaitAll` or at end of program adds no landing-point cost —
/// the park there overlaps work the host no longer has.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Modeled host-park floor of one blocking synchronization, in
    /// virtual ns (8-rank `halo_fence`: ≈ 400 ns per blocked step).
    pub park_ns_base: u64,
    /// Additional park per covered byte the sync completes.
    pub park_ns_per_byte: u64,
    /// Overlap reclaimable per statement of slack distance.
    pub overlap_ns_per_stmt: u64,
    /// Bookkeeping overhead of one nonblocking request.
    pub request_ns: u64,
    /// Overhead of one *inserted* mid-program `WaitAll` landing point.
    pub wait_insert_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl CostModel {
    /// The engine-calibrated default (see the type docs).
    pub fn calibrated() -> Self {
        CostModel {
            park_ns_base: 400,
            park_ns_per_byte: 1,
            overlap_ns_per_stmt: 250,
            request_ns: 120,
            wait_insert_ns: 240,
        }
    }

    /// A free model: every relaxation is profitable (the pre-cost-model
    /// rewriter's behavior; useful for exhaustiveness tests).
    pub fn free() -> Self {
        CostModel {
            park_ns_base: 1,
            park_ns_per_byte: 0,
            overlap_ns_per_stmt: u64::MAX,
            request_ns: 0,
            wait_insert_ns: 0,
        }
    }

    /// Is relaxing this `Relaxable` epoch close worth it? `rank_len` is
    /// the finding's rank program length (the end-of-program wait
    /// point). Benefit is capped both by the park time the blocking
    /// call paid and by the overlap the slack region can absorb; cost
    /// is the request bookkeeping plus, for a fresh mid-program landing
    /// point, the inserted wait.
    pub fn profitable(&self, f: &SlackFinding, rank_len: usize) -> bool {
        let slack_stmts = f.wait_before.unwrap_or(rank_len).saturating_sub(f.step + 1) as u64;
        let park = self.park_ns_base + self.park_ns_per_byte * f.covered_bytes as u64;
        let overlap = self.overlap_ns_per_stmt.saturating_mul(slack_stmts);
        let benefit = park.min(overlap);
        let cost = self.request_ns
            + if f.insert_wait && f.wait_before.is_some() { self.wait_insert_ns } else { 0 };
        benefit > cost
    }
}

/// Whether to apply only provably-safe relaxations or to additionally
/// plant one unsound deletion (for the validator's self-test).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RewriteMode {
    /// Apply exactly the slack pass's `Relaxable`/`Elidable` verdicts.
    Sound,
    /// Sound rewrite **plus** one deliberately unsound deletion on rank
    /// 0 (first fence call, else first barrier, else first blocking
    /// unlock). The differential validator must flag the result.
    PlantUnsound,
}

/// What the rewriter did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Blocking epoch closes flipped to their nonblocking form.
    pub relaxed: usize,
    /// Blocking flushes deleted outright.
    pub elided: usize,
    /// Blocking flushes weakened to `flush_local`.
    pub localized: usize,
    /// `WaitAll` statements inserted (deferred-wait landing points).
    pub waits_inserted: usize,
    /// W004 group-shrink pairs applied (start + matching post).
    pub shrunk: usize,
    /// `Relaxable` closes left blocking because the cost model priced
    /// the relaxation as unprofitable (state at the fixpoint, not a
    /// per-pass sum).
    pub skipped: usize,
    /// Classify→apply passes until the fixpoint (≥ 1).
    pub passes: usize,
    /// `PlantUnsound` only: `(rank, original step)` of the deleted
    /// statement.
    pub planted: Option<(usize, usize)>,
}

impl RewriteReport {
    /// Whether any rewrite fired (the validator only scores programs
    /// where it did).
    pub fn changed(&self) -> bool {
        self.relaxed + self.elided + self.localized + self.waits_inserted + self.shrunk > 0
            || self.planted.is_some()
    }
}

/// Apply every safe relaxation to a fixpoint. Returns the rewritten
/// program and a report; `report.changed()` is `false` when the program
/// had no slack (the result then equals the input).
pub fn rewrite(p: &IrProgram) -> (IrProgram, RewriteReport) {
    rewrite_with(p, RewriteMode::Sound)
}

/// [`rewrite`] with an explicit [`RewriteMode`] and the calibrated
/// [`CostModel`].
pub fn rewrite_with(p: &IrProgram, mode: RewriteMode) -> (IrProgram, RewriteReport) {
    rewrite_with_model(p, mode, &CostModel::calibrated())
}

/// [`rewrite`] with an explicit [`RewriteMode`] and [`CostModel`].
pub fn rewrite_with_model(
    p: &IrProgram,
    mode: RewriteMode,
    model: &CostModel,
) -> (IrProgram, RewriteReport) {
    let mut cur = p.clone();
    let mut report = RewriteReport::default();
    // Each changing pass strictly decreases the count of blocking sync
    // points or total group width, so this terminates; the bound is
    // belt and braces.
    let max_passes = 2 + cur.ranks.iter().map(Vec::len).sum::<usize>();
    loop {
        report.passes += 1;
        let next = apply_once(&cur, model, &mut report);
        let changed = next != cur;
        cur = next;
        if !changed || report.passes >= max_passes {
            break;
        }
    }
    if mode == RewriteMode::PlantUnsound {
        report.planted = plant_unsound(&mut cur);
    }
    (cur, report)
}

/// The structural contention veto (see the module docs): is the close
/// at `(rank, step)` an `Unlock` whose lock is contended? Contended
/// means some *other* rank also locks the same `(win, target)` — or
/// `lock_all`s the window — and at least one of the two locks is
/// exclusive: exactly the pairs where one side's acquire waits on the
/// other side's release, so deferring our release serializes them.
/// Concurrent shared locks never wait on each other, so a shared/shared
/// pair stays relaxable.
fn unlock_contended(sh: &Shape, rank: usize, step: usize) -> bool {
    let At::Closes(e) = sh.ranks[rank].at[step] else { return false };
    let ours = &sh.ranks[rank].epochs[e];
    let EpochKind::Lock { target, exclusive: ours_exclusive } = ours.kind else { return false };
    let contends = |theirs: &Epoch| {
        theirs.win == ours.win
            && match theirs.kind {
                EpochKind::Lock { target: t, exclusive } => {
                    t == target && (exclusive || ours_exclusive)
                }
                EpochKind::LockAll => ours_exclusive,
                _ => false,
            }
    };
    sh.ranks.iter().enumerate().any(|(r, rs)| r != rank && rs.epochs.iter().any(contends))
}

/// One classify→apply pass over one resolution of the program: the
/// rewritten program (equal to `p` when nothing fired).
fn apply_once(p: &IrProgram, model: &CostModel, report: &mut RewriteReport) -> IrProgram {
    let sh = Shape::of(p);
    let slack = slack_of(&sh);
    let mut out = p.clone();
    // W004 group shrinks first: statement-count-stable (only group
    // contents change), so every finding's step index stays valid, and
    // the per-rank rebuild below reads the shrunk statements.
    for s in &slack.shrinks {
        if let Stmt::Start { group, .. } = &mut out.ranks[s.origin][s.start_step] {
            if let Some(pos) = group.iter().position(|&t| t == s.target) {
                group.remove(pos);
                report.shrunk += 1;
            }
        }
        if let Stmt::Post { group, .. } = &mut out.ranks[s.target][s.post_step] {
            if let Some(pos) = group.iter().position(|&o| o == s.origin) {
                group.remove(pos);
            }
        }
    }
    // Findings come rank by rank, each rank's in statement order. Relax
    // and localize edit their statement in place; elisions and inserted
    // waits, both in statement order, are merged in by one rebuild.
    debug_assert!(slack.findings.is_sorted_by_key(|f| (f.rank, f.step)));
    report.skipped = 0;
    for findings in slack.findings.chunk_by(|a, b| a.rank == b.rank) {
        let rank = findings[0].rank;
        let stmts = &mut out.ranks[rank];
        let (mut elide, mut insert_before, mut trailing_wait) = (Vec::new(), Vec::new(), false);
        for f in findings {
            match (f.class, f.kind) {
                (SlackClass::Relaxable, SyncKind::Flush) => {
                    if let Stmt::Flush { local_only, .. } = &mut stmts[f.step] {
                        *local_only = true;
                    }
                    report.localized += 1;
                }
                (SlackClass::Relaxable, _) => {
                    if unlock_contended(&sh, rank, f.step) || !model.profitable(f, stmts.len()) {
                        report.skipped += 1;
                        continue;
                    }
                    match &mut stmts[f.step] {
                        Stmt::Fence { close, .. }
                        | Stmt::Complete { close, .. }
                        | Stmt::WaitEpoch { close, .. }
                        | Stmt::Unlock { close, .. }
                        | Stmt::UnlockAll { close, .. } => *close = Close::Nonblocking,
                        _ => unreachable!("only an epoch close is relaxed"),
                    }
                    report.relaxed += 1;
                    match f.wait_before {
                        Some(d) if f.insert_wait => insert_before.push(d),
                        Some(_) => {} // existing WaitAll consumes it
                        None => trailing_wait = true,
                    }
                }
                (SlackClass::Elidable, SyncKind::Flush) => elide.push(f.step),
                _ => {}
            }
        }
        insert_before.sort_unstable();
        insert_before.dedup();
        report.elided += elide.len();
        report.waits_inserted += insert_before.len() + usize::from(trailing_wait);
        if elide.is_empty() && insert_before.is_empty() && !trailing_wait {
            continue;
        }
        let src = std::mem::take(stmts);
        stmts.reserve(src.len() + insert_before.len() + 1);
        let (mut waits, mut elided) = (insert_before.iter().peekable(), elide.iter().peekable());
        for (i, stmt) in src.into_iter().enumerate() {
            if waits.next_if_eq(&&i).is_some() {
                stmts.push(Stmt::WaitAll);
            }
            if elided.next_if_eq(&&i).is_none() {
                stmts.push(stmt);
            }
        }
        if trailing_wait {
            stmts.push(Stmt::WaitAll);
        }
    }
    out
}

/// Delete one synchronization statement of rank 0: the first fence call
/// if any, else the first barrier, else the first blocking unlock.
/// Returns the `(rank, step)` it removed, or `None` when rank 0 has no
/// such statement (the program is left unchanged and the validator
/// skips it).
fn plant_unsound(p: &mut IrProgram) -> Option<(usize, usize)> {
    let stmts = p.ranks.get_mut(0)?;
    let victim = stmts
        .iter()
        .position(|s| matches!(s, Stmt::Fence { .. }))
        .or_else(|| stmts.iter().position(|s| matches!(s, Stmt::Barrier)))
        .or_else(|| {
            stmts.iter().position(|s| {
                matches!(s, Stmt::Unlock { close, .. } if close.is_blocking())
            })
        })?;
    stmts.remove(victim);
    Some((0, victim))
}
