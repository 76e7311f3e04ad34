//! Static analysis of an [`IrProgram`]: the diagnostics of the per-rank
//! walk plus the whole-job passes over its resolved epoch structure
//! (`Shape`, `shape.rs`).
//!
//! `Shape::of` walks every rank once and reports what a single rank's
//! statement list shows (E001–E005, E008, E010). This module reads the
//! resolved structure for everything that needs more than one rank or more
//! than one epoch: fault-model dependencies (E012), collective matching
//! (E011), and byte-range interval conflicts — cross-origin conflicts
//! within one concurrency scope (E006/E007) and same-origin cross-epoch
//! conflicts made concurrent by reorder flags (E009). The whole-job
//! deadlock and progress passes (E013–E018) live in [`crate::deadlock`]
//! and read the same shape.

use crate::diag::{Code, Diagnostic};
use crate::ir::{IrProgram, Stmt};
use crate::shape::{Access, At, EpochKind, Shape};

/// E012 scan: every synchronization statement of a *surviving* rank whose
/// completion requires a crashed peer's cooperation. Crashed ranks' own
/// programs are skipped — they stop executing at the crash point, so their
/// dangling dependencies are the fault model's doing, not the program's.
///
/// **Recovery-aware relaxation:** a crashed rank the fault model also
/// restarts ([`IrProgram::recovered`]) is not a dependency hazard. Its NIC
/// returns after the bounded outage, the reliability sublayer retransmits
/// across it, and the epoch-aligned checkpoint restores the window and ω
/// state the peers' blocked grants and notifications depend on — every
/// dependency is eventually satisfied, so no E012 is reported for it, and
/// its own program is walked like any surviving rank's. Only ranks that
/// crash *without* recovery leave dependencies permanently unsatisfiable.
fn crashed_dependencies(sh: &Shape) -> Vec<Diagnostic> {
    let p = sh.p;
    let mut diags = Vec::new();
    let fatal: Vec<usize> =
        p.crashed.iter().copied().filter(|r| !p.recovered.contains(r)).collect();
    if fatal.is_empty() {
        return diags;
    }
    let dead = |r: &usize| fatal.contains(r);
    for (rank, rs) in sh.ranks.iter().enumerate() {
        if dead(&rank) {
            continue;
        }
        let mut diag = |step: usize, detail: String| {
            diags.push(Diagnostic { code: Code::E012, rank, step: Some(step), detail });
        };
        for (step, (stmt, at)) in p.ranks[rank].iter().zip(&rs.at).enumerate() {
            let opened = match *at {
                At::Opens(e) | At::Fence { opens: e, .. } => Some(rs.epochs[e].kind),
                _ => None,
            };
            match (opened, stmt) {
                (Some(EpochKind::Start { group }), _) => {
                    for &t in group.iter().filter(|t| dead(t)) {
                        diag(
                            step,
                            format!(
                                "start toward rank {t}, which the fault model crashes: its \
                                 exposure epoch may never open and complete cannot terminate"
                            ),
                        );
                    }
                }
                (Some(EpochKind::Post { group }), _) => {
                    for &o in group.iter().filter(|o| dead(o)) {
                        diag(
                            step,
                            format!(
                                "post toward rank {o}, which the fault model crashes: its \
                                 completion notification may never arrive and wait cannot \
                                 terminate"
                            ),
                        );
                    }
                }
                (Some(EpochKind::Lock { target, .. }), _) if dead(&target) => {
                    diag(
                        step,
                        format!(
                            "lock on rank {target}, which the fault model crashes: the grant \
                             may never arrive"
                        ),
                    );
                }
                (Some(EpochKind::LockAll), _) => {
                    diag(
                        step,
                        format!(
                            "lock_all needs a grant from every rank, but the fault model \
                             crashes {fatal:?} without recovery"
                        ),
                    );
                }
                (Some(EpochKind::Fence { .. }), _) | (_, Stmt::Barrier) => {
                    let name = if opened.is_some() { "fence" } else { "barrier" };
                    diag(
                        step,
                        format!(
                            "{name} with unrecovered crashed participant(s) {fatal:?}: the \
                             collective cannot complete"
                        ),
                    );
                }
                _ => {}
            }
        }
    }
    diags
}

/// Who else can race with an access at the target window: accesses of
/// different origins are concurrent iff their scopes are equal. An
/// exclusive lock is serialized by the lock manager and has no scope.
#[derive(PartialEq, Eq)]
enum Scope {
    /// Fence phase `seq`: every rank's accesses of phase `seq` on the
    /// same window are concurrent.
    FencePhase(usize),
    /// This exposure epoch of the target, which the origin's access epoch
    /// meets.
    Exposure(usize),
    /// Shared lock or `lock_all`: potentially concurrent with every other
    /// shared-mode access to the same target.
    Shared,
}

fn scope(sh: &Shape, a: &Access) -> Option<Scope> {
    let e = a.epoch?;
    match sh.ranks[a.rank].epochs[e].kind {
        EpochKind::Fence { seq } => Some(Scope::FencePhase(seq)),
        // An unmatched start has no scope: E011 already reported it.
        EpochKind::Start { .. } => sh.matching_post(a.rank, e, a.target).map(Scope::Exposure),
        EpochKind::Lock { exclusive: true, .. } => None,
        EpochKind::Lock { .. } | EpochKind::LockAll => Some(Scope::Shared),
        EpochKind::Post { .. } => unreachable!("an exposure epoch covers no access"),
    }
}

/// Classify a conflicting pair: both mutate → E006, otherwise (one side is
/// a read) → E007.
fn conflict_code(a: &Access, b: &Access) -> Code {
    if a.kind.writes() && b.kind.writes() {
        Code::E006
    } else {
        Code::E007
    }
}

fn describe(a: &Access) -> String {
    format!(
        "rank {} stmt {} ({:?} bytes [{}, {}) of rank {}'s window {})",
        a.rank, a.step, a.kind, a.lo, a.hi, a.target, a.win
    )
}

/// Run the full static analysis. An empty result means the program is
/// protocol-clean: every run of it should match its oracle, pass the
/// trace audit, and terminate without the stall watchdog firing.
pub fn analyze(p: &IrProgram) -> Vec<Diagnostic> {
    assert_eq!(p.ranks.len(), p.n_ranks, "one statement list per rank");
    let mut sh = Shape::of(p);
    let mut diags = std::mem::take(&mut sh.diags);

    // E012: a surviving rank's epoch structure blocks on a peer the fault
    // model crashes. The crash may land before the dependency is
    // satisfied, so without the stall watchdog the program can hang.
    diags.extend(crashed_dependencies(&sh));

    // Whole-job deadlock & progress passes: the cross-rank fixpoint
    // interpreter (E013/E015/E016/E017 + collective-barrier E011) and the
    // lock-acquisition-order pass (E014).
    diags.extend(crate::deadlock::deadlock_passes(&sh));

    // E011a: collective fence counts must agree on every rank, per
    // window (a fence is job-collective on its window).
    for w in 0..p.windows.len() {
        let base = sh.ranks[0].fences[w].len();
        for (rank, rs) in sh.ranks.iter().enumerate().skip(1) {
            let c = rs.fences[w].len();
            if c != base {
                diags.push(Diagnostic {
                    code: Code::E011,
                    rank,
                    step: None,
                    detail: format!(
                        "rank {rank} makes {c} fence calls on window {w} but rank 0 makes {base}"
                    ),
                });
            }
        }
    }

    // E011b: every (origin, target, window) start count must equal the
    // count of posts at the target on that window naming the origin.
    for (o, rs) in sh.ranks.iter().enumerate() {
        for (w, t, n_starts) in rs.start_counts() {
            if t >= p.n_ranks {
                continue; // reported as E002 at the start site's ops
            }
            let n_posts = sh.ranks[t].posts_naming(w, o);
            if n_starts != n_posts {
                diags.push(Diagnostic {
                    code: Code::E011,
                    rank: o,
                    step: None,
                    detail: format!(
                        "rank {o} starts toward rank {t} {n_starts} time(s) on window {w} but \
                         rank {t} posts toward rank {o} {n_posts} time(s)"
                    ),
                });
            }
        }
    }

    // E006/E007: cross-origin conflicts within one concurrency scope.
    // Same-origin same-target operations are per-channel FIFO ordered by
    // the runtime, so only different origins can race here. (The accesses
    // are copied flat: the quadratic scan below reads them in sequence.)
    let scoped: Vec<(Access, Scope)> = sh
        .ranks
        .iter()
        .flat_map(|rs| &rs.accesses)
        .filter_map(|a| Some((a.clone(), scope(&sh, a)?)))
        .collect();
    for (i, (a, sa)) in scoped.iter().enumerate() {
        for (b, sb) in &scoped[i + 1..] {
            if a.rank == b.rank || a.target != b.target || a.win != b.win || sa != sb {
                continue;
            }
            if let Some((lo, hi)) = a.overlap(b).filter(|_| a.kind.conflicts_with(b.kind)) {
                diags.push(Diagnostic {
                    code: conflict_code(a, b),
                    rank: a.rank,
                    step: Some(a.step),
                    detail: format!(
                        "bytes [{lo}, {hi}) of rank {}'s window {}: {} is unordered against {}",
                        a.target,
                        a.win,
                        describe(a),
                        describe(b)
                    ),
                });
            }
        }
    }

    // E009: same-origin accesses in different epochs of one reorder-
    // concurrency region — the flags let the runtime progress those epochs
    // out of order, so conflicting overlaps are schedule-dependent.
    if !p.reorder {
        return diags;
    }
    for (rank, rs) in sh.ranks.iter().enumerate() {
        for (i, a) in rs.accesses.iter().enumerate() {
            for b in &rs.accesses[i + 1..] {
                let (Some(ea), Some(eb)) = (a.epoch, b.epoch) else { continue };
                if a.target != b.target
                    || a.win != b.win
                    || ea == eb
                    || rs.epochs[ea].region != rs.epochs[eb].region
                {
                    continue;
                }
                if let Some((lo, hi)) = a.overlap(b).filter(|_| a.kind.conflicts_with(b.kind)) {
                    diags.push(Diagnostic {
                        code: Code::E009,
                        rank,
                        step: Some(a.step),
                        detail: format!(
                            "reorder flags allow epochs {} and {} to progress concurrently, \
                             but bytes [{lo}, {hi}) of rank {}'s window {} conflict: {} vs {}",
                            rs.ordinal(ea),
                            rs.ordinal(eb),
                            a.target,
                            a.win,
                            describe(a),
                            describe(b)
                        ),
                    });
                }
            }
        }
    }

    diags
}
