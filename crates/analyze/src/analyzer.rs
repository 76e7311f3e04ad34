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
//! deadlock and progress passes (E013–E018) live in `deadlock.rs`
//! and read the same shape.

use mpisim_core::trace::AccessKind;

use crate::diag::{Code, Diagnostic};
use crate::ir::{IrProgram, Stmt};
use crate::shape::{conflicting_pairs, Access, At, EpochKind, Shape};

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
#[derive(PartialEq, Eq, PartialOrd, Ord)]
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
    let (rs, e) = (&sh.ranks[a.rank], a.epoch?);
    match rs.epochs[e].kind {
        EpochKind::Fence { seq } => Some(Scope::FencePhase(seq)),
        // An unmatched start has no scope: E011 already reported it.
        EpochKind::Start { .. } => rs.pairing(e)[a.slot?].with.map(Scope::Exposure),
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

    let e011 = |rank, detail| Diagnostic { code: Code::E011, rank, step: None, detail };
    // E011a: collective fence counts must agree on every rank, per
    // window (a fence is job-collective on its window).
    for w in 0..p.windows.len() {
        let base = sh.ranks[0].fences[w].len();
        for (rank, rs) in sh.ranks.iter().enumerate().skip(1) {
            let c = rs.fences[w].len();
            if c != base {
                let detail = format!(
                    "rank {rank} makes {c} fence calls on window {w} but rank 0 makes {base}"
                );
                diags.push(e011(rank, detail));
            }
        }
    }

    // E011b: every (origin, target, window) start count must equal the
    // count of posts at the target on that window naming the origin.
    for &(o, w, t, starts, posts) in &sh.mismatches {
        let detail = format!(
            "rank {o} starts toward rank {t} {starts} time(s) on window {w} but rank {t} posts \
             toward rank {o} {posts} time(s)"
        );
        diags.push(e011(o, detail));
    }

    // E006/E007 and E009: conflicting overlaps of accesses that may run
    // at the same time.
    let conflicts = range_conflicts(&sh);
    #[cfg(debug_assertions)]
    assert_eq!(conflicts, all_pairs::range_conflicts(&sh), "sort-and-sweep != all pairs");
    diags.extend(conflicts);
    diags
}

/// E006/E007 then E009, each in the order of its accesses' positions.
fn range_conflicts(sh: &Shape) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // E006/E007: cross-origin conflicts within one concurrency scope, per
    // (target, window, scope). Same-origin same-target operations are
    // per-channel FIFO ordered by the runtime, so only different origins
    // can race here.
    let scoped: Vec<(&Access, (usize, usize, Scope))> = sh
        .ranks
        .iter()
        .flat_map(|rs| &rs.accesses)
        .filter_map(|a| Some((a, (a.target, a.win, scope(sh, a)?))))
        .collect();
    for (i, j, (lo, hi)) in conflicting_pairs(&scoped, AccessKind::conflicts_with) {
        let (a, b) = (scoped[i].0, scoped[j].0);
        if a.rank == b.rank {
            continue;
        }
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

    // E009: same-origin accesses in different epochs of one reorder-
    // concurrency region, per (target, window, region) of each rank — the
    // flags let the runtime progress those epochs out of order, so
    // conflicting overlaps are schedule-dependent.
    if !sh.p.reorder {
        return diags;
    }
    for (rank, rs) in sh.ranks.iter().enumerate() {
        let regioned: Vec<(&Access, (usize, usize, usize))> = rs
            .accesses
            .iter()
            .filter_map(|a| Some((a, (a.target, a.win, rs.epochs[a.epoch?].region))))
            .collect();
        for (i, j, (lo, hi)) in conflicting_pairs(&regioned, AccessKind::conflicts_with) {
            let (a, b) = (regioned[i].0, regioned[j].0);
            let (Some(ea), Some(eb)) = (a.epoch, b.epoch) else {
                unreachable!("only a covered access has a region")
            };
            if ea == eb {
                continue;
            }
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
    diags
}

/// The all-pairs scan [`range_conflicts`] replaced, kept as its reference:
/// every debug-build [`analyze`] requires the sweep to say exactly what
/// this says.
#[cfg(any(test, debug_assertions))]
mod all_pairs {
    use super::*;

    pub(super) fn range_conflicts(sh: &Shape) -> Vec<Diagnostic> {
        let p = sh.p;
        let mut diags = Vec::new();

        // E006/E007: cross-origin conflicts within one concurrency scope.
        // Same-origin same-target operations are per-channel FIFO ordered by
        // the runtime, so only different origins can race here.
        let scoped: Vec<(Access, Scope)> = sh
            .ranks
            .iter()
            .flat_map(|rs| &rs.accesses)
            .filter_map(|a| Some((a.clone(), scope(sh, a)?)))
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
                    let (Some(ea), Some(eb)) = (a.epoch, b.epoch) else {
                        continue;
                    };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{cases, generate_negative, generate_value_clean, NegFamily};
    use crate::ir::{Close, FetchKind};
    use mpisim_core::ReduceOp;
    use mpisim_sim::Rng;

    const B: Close = Close::Blocking;
    const NB: Close = Close::Nonblocking;

    /// What the sweep and the reference say about `p`'s range conflicts,
    /// which must be the same list.
    fn same_conflicts(what: &str, p: &IrProgram) -> Vec<Diagnostic> {
        let sh = Shape::of(p);
        let swept = range_conflicts(&sh);
        assert_eq!(swept, all_pairs::range_conflicts(&sh), "{what}");
        swept
    }

    fn put(target: usize, disp: usize, len: usize) -> Stmt {
        Stmt::Put { win: 0, target, disp, len }
    }

    fn get(target: usize, disp: usize, len: usize) -> Stmt {
        Stmt::Get { win: 0, target, disp, len }
    }

    fn acc(target: usize, disp: usize, len: usize, op: ReduceOp) -> Stmt {
        Stmt::Acc { win: 0, target, disp, len, op }
    }

    fn fence(close: Close) -> Stmt {
        Stmt::Fence { win: 0, close }
    }

    /// Rank `r + 1` runs `ops[r]` toward rank 0 in one fence phase.
    fn one_phase(ops: Vec<Vec<Stmt>>) -> IrProgram {
        let mut p = IrProgram::new(ops.len() + 1, 64);
        p.ranks[0] = vec![fence(B), fence(B)];
        for (r, mid) in ops.into_iter().enumerate() {
            p.ranks[r + 1] = [vec![fence(B)], mid, vec![fence(B)]].concat();
        }
        p
    }

    /// Every table row, the negative corpus at 64 seeds and the
    /// value-clean set. The generated corpus under both lowerings and the
    /// application twins reach the same comparison through `analyze`'s
    /// debug assertion, in `mpisim-check`'s and `mpisim-apps`' tests.
    #[test]
    fn the_sweep_says_what_all_pairs_say_on_every_corpus() {
        for case in cases() {
            same_conflicts(case.name, &case.program);
        }
        for family in NegFamily::ALL {
            for index in 0..64 {
                same_conflicts(family.label(), &generate_negative(family, index).program);
            }
        }
        for index in 0..64 {
            same_conflicts("value-clean", &generate_value_clean(index));
        }
    }

    /// The shapes a sort by start must get right: identical, nested and
    /// equal-start ranges, zero-length accesses, three or more origins on
    /// one range, one rank across reorder epochs, and scopes mixed on one
    /// target. Each program conflicts, so no list compared is empty.
    #[test]
    fn the_sweep_says_what_all_pairs_say_on_adversarial_ranges() {
        use ReduceOp::{NoOp, Prod, Sum};
        let identical_and_nested = one_phase(vec![
            vec![put(0, 0, 16), put(0, 32, 16)],
            vec![put(0, 0, 16), get(0, 36, 4)],
            vec![get(0, 4, 4), put(0, 30, 20)],
            vec![get(0, 0, 64)],
        ]);
        let equal_starts = one_phase(vec![
            vec![put(0, 8, 8)],
            vec![get(0, 8, 1)],
            vec![acc(0, 8, 16, Sum)],
            vec![acc(0, 8, 4, Prod), acc(0, 8, 4, NoOp)],
        ]);
        let zero_length = one_phase(vec![
            vec![put(0, 4, 0), put(0, 0, 8)],
            vec![put(0, 0, 0), get(0, 8, 0)],
            vec![put(0, 7, 1), put(0, 8, 0)],
        ]);
        let three_origins =
            one_phase((0..5).map(|r| vec![put(0, 16, 8), get(0, 16 + r, 1)]).collect());

        let mut reorder_epochs =
            IrProgram { reorder: true, unsafe_fence_reorder: true, ..IrProgram::new(2, 64) };
        reorder_epochs.ranks = vec![
            vec![
                fence(B),
                put(1, 0, 8),
                put(1, 0, 8),
                fence(NB),
                get(1, 4, 8),
                put(1, 2, 0),
                fence(NB),
                put(1, 2, 2),
                acc(1, 0, 16, Sum),
                fence(NB),
                acc(1, 8, 8, Prod),
                get(1, 0, 64),
                fence(NB),
                Stmt::WaitAll,
            ],
            vec![fence(B); 5],
        ];

        // Ranks 1 and 2 put the same bytes of rank 0 in a fence phase,
        // under lock_all, under an exclusive lock and toward rank 0's
        // exposure epoch: a conflict in every scope but the exclusive one,
        // and none across scopes.
        let mut mixed_scopes = IrProgram::new(3, 64);
        mixed_scopes.ranks[0] = vec![
            fence(B),
            fence(B),
            Stmt::Post { win: 0, group: vec![1, 2] },
            Stmt::WaitEpoch { win: 0, close: B },
        ];
        for r in [1, 2] {
            mixed_scopes.ranks[r] = vec![
                fence(B),
                put(0, 0, 8),
                fence(B),
                Stmt::LockAll { win: 0, nonblocking: false },
                put(0, 0, 8),
                Stmt::UnlockAll { win: 0, close: B },
                Stmt::Lock { win: 0, target: 0, exclusive: true, nonblocking: false },
                put(0, 0, 8),
                Stmt::Unlock { win: 0, target: 0, close: B },
                Stmt::Start { win: 0, group: vec![0] },
                put(0, 0, 8),
                Stmt::Complete { win: 0, close: B },
            ];
        }

        for (what, p, want) in [
            ("identical and nested", identical_and_nested, 10),
            ("equal starts", equal_starts, 7),
            ("zero-length", zero_length, 1),
            ("three origins", three_origins, 30),
            ("reorder epochs", reorder_epochs, 13),
            ("mixed scopes", mixed_scopes, 3),
        ] {
            let got = same_conflicts(what, &p);
            assert_eq!(got.len(), want, "{what}: {got:#?}");
        }
    }

    /// Random programs over every scope at once: five ranks, each with
    /// three fence phases (nonblocking closes, under the fence extension
    /// on a quarter of the seeds), a lock_all epoch, an exclusive or
    /// shared lock and a GATS epoch toward every peer, each holding dense
    /// random ranges of every access kind, zero-length ones included.
    #[test]
    fn the_sweep_says_what_all_pairs_say_on_random_dense_ranges() {
        const N: usize = 5;
        let ops = |rng: &mut Rng, targets: &[usize]| -> Vec<Stmt> {
            (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let target = targets[rng.gen_range(0..targets.len())];
                    let (disp, len) = (rng.gen_range(0..24usize), rng.gen_range(0..12usize));
                    let kind = FetchKind::FetchOp(ReduceOp::Replace);
                    match rng.gen_range(0..6u32) {
                        0 | 1 => put(target, disp, len),
                        2 => get(target, disp, len),
                        3 => acc(target, disp, len, ReduceOp::Sum),
                        4 => acc(target, disp, len, ReduceOp::NoOp),
                        _ => Stmt::ReadValue { win: 0, target, disp, kind, local: 0 },
                    }
                })
                .collect()
        };
        let mut conflicts = 0;
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let (reorder, unsafe_fence_reorder) = (seed % 2 == 0, seed % 4 == 0);
            let mut p = IrProgram { reorder, unsafe_fence_reorder, ..IrProgram::new(N, 64) };
            let all: Vec<usize> = (0..N).collect();
            for me in 0..N {
                let others: Vec<usize> = (0..N).filter(|&r| r != me).collect();
                let (locked, exclusive) = (rng.gen_range(0..N), rng.gen_bool(0.5));
                p.ranks[me] = [
                    vec![fence(B)],
                    ops(&mut rng, &all),
                    vec![fence(NB)],
                    ops(&mut rng, &all),
                    vec![fence(NB)],
                    ops(&mut rng, &all),
                    vec![fence(B), Stmt::WaitAll, Stmt::LockAll { win: 0, nonblocking: false }],
                    ops(&mut rng, &all),
                    vec![
                        Stmt::UnlockAll { win: 0, close: NB },
                        Stmt::Lock { win: 0, target: locked, exclusive, nonblocking: false },
                    ],
                    ops(&mut rng, &[locked]),
                    vec![
                        Stmt::Unlock { win: 0, target: locked, close: NB },
                        Stmt::Post { win: 0, group: others.clone() },
                        Stmt::Start { win: 0, group: others.clone() },
                    ],
                    ops(&mut rng, &others),
                    vec![
                        Stmt::Complete { win: 0, close: B },
                        Stmt::WaitEpoch { win: 0, close: B },
                        Stmt::WaitAll,
                    ],
                ]
                .concat();
            }
            conflicts += same_conflicts(&format!("seed {seed}"), &p).len();
        }
        assert!(conflicts > 1000, "{conflicts} conflicts over 200 programs");
    }
}
