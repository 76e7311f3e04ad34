//! Whole-job deadlock and progress analysis (E013–E018).
//!
//! Two passes over the program's resolved epoch structure
//! ([`crate::shape::Shape`]). Before the fixpoint runs, every wait is
//! resolved from the shape once into a list of *needs* — "that rank's
//! statement is initiated", "any one of these writes is initiated" (one
//! per byte of a spun slot), or "never", with the rank to blame and why:
//! one list per fence call `(win, idx)` and per barrier call, shared by
//! every rank that makes it, one per GATS close (start/post matching is
//! [`Shape::matching_post`] / [`Shape::matching_start`]) and per spin (the
//! value domain's suppliers are the shape's writing accesses). The fixpoint
//! then only checks lists, and the lock-order pass reads the shape's lock
//! epochs and flushes. Neither pass pairs opens with closes or decodes a
//! data statement itself.
//!
//! 1. **Fixpoint interpreter.** A symbolic abstract interpretation of the
//!    whole job: every rank holds a program counter, and a round-based
//!    monotone fixpoint advances each rank past a statement as soon as the
//!    statement's *wait condition* is satisfiable given what every other
//!    rank has already initiated. The abstract domain is the ω-triple
//!    view of the protocol — which fence phases each rank has announced
//!    (`FenceDone` availability), which exposure instances are posted
//!    (grant availability, the `g` counter plane), and which access
//!    epochs have closed (`GatsDone` availability, the `e`/`a` planes) —
//!    with statement-initiation as the single monotone fact: a blocked
//!    rank still *initiates* its current statement (a fence announces the
//!    previous phase at call time; a closed GATS epoch emits `GatsDone`
//!    per target as soon as that target's grant lands). Satisfaction only
//!    grows as program counters advance, so a check of a need list resumes
//!    at the count of its leading needs already met. Ranks still stuck
//!    at the fixpoint are provably non-terminating; a wait-for graph over
//!    them yields E013 (cycle, with a rank-annotated witness) or a
//!    root-cause code (E015/E016/E017, plus E011 for a bare barrier
//!    mismatch) when the missing dependency is a peer that terminates
//!    without ever supplying it. Ranks stuck only because another stuck
//!    rank is upstream (cascades) are suppressed.
//!
//!    The fixpoint additionally carries an **abstract value domain** for
//!    value-dependent guards ([`Stmt::SpinUntil`]): per byte of the spun
//!    8-byte slot, the set of values the slot can ever hold is
//!    over-approximated as the window's zero initialization, plus the
//!    matching byte of every *reachable* known-constant `Replace` write
//!    (`AccVal`; [`crate::shape::Access::val`]), plus ⊤ for any overlapping
//!    unknown-operand write (put, accumulate, fetching atomics that
//!    modify). A spin's wait condition is satisfiable once every non-zero
//!    byte of the expected value is covered by an initiated supplier; a byte no
//!    rank's program can *ever* supply (the spinner's own post-spin
//!    writes are unreachable — the spin blocks the host first) makes
//!    the spin provably unsatisfiable — E018, with the uncoverable byte
//!    as witness. Because the domain only ever grows (values union, no
//!    kills), satisfiability is monotone in the program-counter vector
//!    and over-approximated: a clean verdict may miss a value-dependent
//!    stall, but every E018 is a real one.
//!
//! 2. **Lock-order pass (E014).** The fixpoint deliberately treats the
//!    passive-target plane as eventually-completing (the lock manager is
//!    fair, so acquisition order — not lock usage — is the only deadlock
//!    source there). A separate scan records, per rank, every point where
//!    the rank *blocks on the completion of one lock epoch while holding
//!    another* (a blocking unlock or covering blocking full flush, or a
//!    `waitall` consuming the epoch's nonblocking close). Each such point
//!    contributes a held→wanted edge; a cycle whose consecutive edges come
//!    from different ranks and conflict in lock mode (requester or holder
//!    exclusive) is a classic ABBA inversion.
//!
//! The lock-order pass models **epoch-activation deferral at call-site
//! granularity**: lock acquisition is lazily deferred to the first
//! forcing call (§VII.B), so a held lock contributes a held→wanted edge
//! only once it is *established* — a full flush (blocking or
//! nonblocking) covering it has forced the acquisition. An unestablished
//! lock epoch holds nothing a peer can block on, and `flush_local` is
//! not a forcing call in the modeled MPI-spec semantics (it completes
//! locally only), so it neither establishes a hold nor discharges a
//! held→wanted edge. (The simulator's engine conservatively forces
//! acquisition on *every* flush, `flush_local` included — a legal
//! strengthening, mirroring MVAPICH; the analyzer models the weaker
//! spec semantics so its verdicts hold for any compliant runtime.) The
//! fixpoint pass models the remaining synchronization effects at the
//! call site, which is exact for every program the conformance generator
//! produces and for the deadlock corpus; in general it over-approximates
//! concurrency, which for deadlock detection means a flagged program may
//! need a particular activation interleaving to stall — never that a
//! clean program can stall.

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic};
use crate::ir::Stmt;
use crate::shape::{Access, At, EpochKind, Shape};

/// One thing a wait needs, resolved from the shape once.
enum Need {
    /// `rank` has initiated statement `stmt`.
    Stmt { rank: usize, stmt: usize },
    /// Any one of these `(rank, stmt)` writes is initiated: the suppliers
    /// of one byte of a spun slot.
    Any(Vec<(usize, usize)>),
    /// Never: `rank`'s program does not supply it, for `why`.
    Never { rank: usize, why: String },
}

/// A wait condition a statement (or a pending nonblocking request) must
/// satisfy before the rank can move past it.
enum Cond {
    /// Every need of one of [`Interp::lists`].
    Needs(usize),
    /// `waitall` over the outstanding nonblocking requests collected so
    /// far, each tagged with its originating statement and name.
    Many(Vec<(usize, &'static str, Cond)>),
}

/// The empty list: the wait of every statement that waits on nothing,
/// including the calls the fixpoint treats as eventually-completing (the
/// whole passive-target plane).
const NOTHING: usize = 0;

/// Why a condition is unmet: a peer that can still move (`Stuck`) or a
/// peer whose program provably never supplies the dependency (`Never`).
enum Blocker {
    Stuck(usize),
    Never { rank: usize, why: String },
}

/// Every wait of the job, resolved once from the shape: one need list per
/// fence call `(win, idx)` and per barrier call, shared by every rank that
/// makes it, one per GATS close and per spin, and per statement of each
/// rank the condition naming its list.
struct Interp {
    conds: Vec<Vec<Cond>>,
    /// Every list's needs, list after list.
    needs: Vec<Need>,
    /// Per list: its first need not yet known to be met, and the end of
    /// its needs. Satisfaction only grows as program counters advance, so
    /// a check resumes at the first.
    lists: Vec<(Cell<usize>, usize)>,
}

impl Interp {
    /// Per-statement wait conditions, mirroring the engine's completion
    /// rules (see the module docs for the abstract domain). The
    /// passive-target plane (lock/unlock/flush) is treated as
    /// eventually-completing here; acquisition-order deadlocks are the
    /// lock-order pass's job. A close without an open epoch waits on
    /// nothing: the walk already reported E004, and the runtime errors out
    /// rather than blocking.
    fn new(sh: &Shape) -> Self {
        let mut it = Interp { conds: Vec::new(), needs: Vec::new(), lists: Vec::new() };
        it.list([]); // NOTHING
        // Each fence call announces `FenceDone` for the previous phase at
        // call time, so call #0 never blocks.
        let fences: Vec<Vec<usize>> = (0..sh.p.windows.len())
            .map(|win| {
                let calls: Vec<&[usize]> = sh.ranks.iter().map(|rs| &rs.fences[win][..]).collect();
                it.per_call(&calls, 1, |q, made, idx| {
                    format!(
                        "rank {q} makes only {made} fence call(s) on window {win}, so fence \
                         phase {} can never complete",
                        idx - 1
                    )
                })
            })
            .collect();
        let calls: Vec<&[usize]> = sh.ranks.iter().map(|rs| &rs.barriers[..]).collect();
        let never = |q, made, _| format!("rank {q} calls barrier only {made} time(s)");
        let barriers = it.per_call(&calls, 0, never);
        for (r, rs) in sh.ranks.iter().enumerate() {
            let cond_at = |(stmt, at): (&Stmt, &At)| match (stmt, *at) {
                // Only a GATS close waits on its group; a passive-target
                // close has none.
                (_, At::Closes(e)) if !rs.epochs[e].group().is_empty() => {
                    Cond::Needs(it.list(gats_close(sh, r, e)))
                }
                (Stmt::WaitAll, _) => Cond::Many(Vec::new()),
                // A spin on a local no dominating value read binds is a
                // no-op and resolves to no access.
                (Stmt::SpinUntil { expect, .. }, At::Access(a)) => {
                    Cond::Needs(it.list(spin(sh, &rs.accesses[a], *expect)))
                }
                _ => Cond::Needs(NOTHING),
            };
            let mut conds: Vec<Cond> = sh.p.ranks[r].iter().zip(&rs.at).map(cond_at).collect();
            for (win, calls) in rs.fences.iter().enumerate() {
                for (idx, &step) in calls.iter().enumerate() {
                    conds[step] = Cond::Needs(fences[win][idx]);
                }
            }
            for (idx, &step) in rs.barriers.iter().enumerate() {
                conds[step] = Cond::Needs(barriers[idx]);
            }
            // A nonblocking call does not wait: the `waitall` consuming its
            // request does, if there is one.
            for q in &rs.requests {
                let cond = std::mem::replace(&mut conds[q.step], Cond::Needs(NOTHING));
                if let Some(Cond::Many(reqs)) = q.waited.map(|w| &mut conds[w]) {
                    reqs.push((q.step, q.what, cond));
                }
            }
            it.conds.push(conds);
        }
        it
    }

    /// Add a list of `needs`; its index.
    fn list(&mut self, needs: impl IntoIterator<Item = Need>) -> usize {
        let from = self.needs.len();
        self.needs.extend(needs);
        self.lists.push((Cell::new(from), self.needs.len()));
        self.lists.len() - 1
    }

    /// One list per call of a collective, `calls` holding each rank's
    /// calls in order: the `idx`-th call completes once every rank has
    /// initiated its own `idx`-th call, and `never(rank, made, idx)` says
    /// why a rank that makes fewer never does. Calls below `from` wait on
    /// nothing.
    fn per_call(
        &mut self,
        calls: &[&[usize]],
        from: usize,
        never: impl Fn(usize, usize, usize) -> String,
    ) -> Vec<usize> {
        let most = calls.iter().map(|c| c.len()).max().unwrap_or(0);
        (0..most)
            .map(|idx| {
                if idx < from {
                    return NOTHING;
                }
                self.list(calls.iter().enumerate().map(|(q, c)| match c.get(idx) {
                    Some(&stmt) => Need::Stmt { rank: q, stmt },
                    None => Need::Never { rank: q, why: never(q, c.len(), idx) },
                }))
            })
            .collect()
    }

    /// Is `cond` satisfied under `pcs`? When not, pushes the reasons into
    /// `blockers` (when provided).
    fn sat(&self, cond: &Cond, pcs: &[usize], blockers: Option<&mut Vec<Blocker>>) -> bool {
        let l = match cond {
            Cond::Needs(l) => *l,
            Cond::Many(reqs) => {
                let Some(bl) = blockers else {
                    return reqs.iter().all(|(.., c)| self.sat(c, pcs, None));
                };
                let mut ok = true;
                for (step, what, c) in reqs {
                    let from = bl.len();
                    ok &= self.sat(c, pcs, Some(bl));
                    for b in &mut bl[from..] {
                        if let Blocker::Never { why, .. } = b {
                            *why = format!(
                                "{what} request from stmt {step} can never complete: {why}"
                            );
                        }
                    }
                }
                return ok;
            }
        };
        // A rank initiates its current (possibly blocked) statement:
        // call-site effects — fence announcements, posts, epoch closes —
        // happen before the wait.
        let done = |need: &Need| match *need {
            Need::Stmt { rank, stmt } => pcs[rank] >= stmt,
            Need::Any(ref writes) => writes.iter().any(|&(q, stmt)| pcs[q] >= stmt),
            Need::Never { .. } => false,
        };
        let (first, end) = &self.lists[l];
        let mut met = first.get();
        while met < *end && done(&self.needs[met]) {
            met += 1;
        }
        first.set(met);
        if let Some(bl) = blockers {
            for need in self.needs[met..*end].iter().filter(|n| !done(n)) {
                match need {
                    Need::Stmt { rank, .. } => bl.push(Blocker::Stuck(*rank)),
                    Need::Any(writes) => bl.extend(writes.iter().map(|&(q, _)| Blocker::Stuck(q))),
                    Need::Never { rank, why } => {
                        bl.push(Blocker::Never { rank: *rank, why: why.clone() })
                    }
                }
            }
        }
        met == *end
    }
}

/// The close of rank `r`'s GATS epoch `e`. An access epoch completes once
/// every target's matching exposure post is initiated (the grant plane);
/// an exposure epoch once every origin's matching access epoch has
/// initiated its close (per-target `GatsDone` needs only the origin's
/// close plus this very post's grant).
fn gats_close<'s>(sh: &'s Shape, r: usize, e: usize) -> impl Iterator<Item = Need> + 's {
    let epoch = &sh.ranks[r].epochs[e];
    let win = epoch.win;
    // An invalid peer was reported as E002 already.
    let peers = epoch.group().iter().copied().filter(|&q| q < sh.p.n_ranks);
    let need = move |q: usize| {
        let nth = || sh.occurrence(r, e, q).expect("q is in the group");
        let never = |why| Need::Never { rank: q, why };
        if let EpochKind::Start { .. } = epoch.kind {
            return match sh.matching_post(r, e, q) {
                Some(pi) => Need::Stmt { rank: q, stmt: sh.ranks[q].epochs[pi].open },
                None => never(format!(
                    "rank {q} never issues the matching exposure post on window {win} (needs \
                     its post #{} containing rank {r})",
                    nth()
                )),
            };
        }
        match sh.matching_start(r, e, q).map(|si| sh.ranks[q].epochs[si].close) {
            Some(Some((stmt, _))) => Need::Stmt { rank: q, stmt },
            Some(None) => never(format!(
                "rank {q}'s matching access epoch on window {win} is never completed, so its \
                 done packet never arrives"
            )),
            None => never(format!(
                "rank {q} never starts a matching access epoch on window {win} (needs its \
                 start #{} containing rank {r})",
                nth()
            )),
        }
    };
    peers.map(need)
}

/// A spin resolved through its local binding to `slot`, the 8-byte slot at
/// `slot.lo` of `slot.target`'s window `slot.win`: one need per non-zero
/// byte of `expect`. The window's zero initialization covers zero bytes;
/// every other byte needs a reachable supplier — a writing access
/// overlapping it whose value is ⊤ (unknown operand or a non-`Replace`
/// fold: conservatively able to produce any byte, which suppresses E018 —
/// the soundness direction) or a known constant whose matching byte equals
/// the wanted one. The spinner's own post-spin statements are unreachable
/// (the spin blocks the host before them). An initiated supplier
/// satisfies the byte; a supplier the writer has not reached yet is a
/// `Stuck` edge toward it; no supplier anywhere in the job is `Never` —
/// E018.
fn spin(sh: &Shape, slot: &Access, expect: u64) -> Vec<Need> {
    let (r, win, target, disp) = (slot.rank, slot.win, slot.target, slot.lo);
    let byte = |x: u64, j: usize| (x >> (8 * j)) as u8;
    let writes: Vec<&Access> = (sh.ranks.iter().flat_map(|rs| &rs.accesses))
        .filter(|s| s.kind.writes() && s.win == win && s.target == target)
        .filter(|s| s.lo < disp + 8 && disp < s.hi && !(s.rank == r && s.step > slot.step))
        .collect();
    let need = |j: usize| {
        let (at, want) = (disp + j, byte(expect, j));
        let supplies =
            |s: &&&Access| s.lo <= at && at < s.hi && s.val.is_none_or(|v| byte(v, j) == want);
        let any: Vec<(usize, usize)> =
            writes.iter().filter(supplies).map(|s| (s.rank, s.step)).collect();
        if !any.is_empty() {
            return Need::Any(any);
        }
        let why = format!(
            "spin waits for value {expect:#x} in the 8-byte slot at disp {disp} of rank \
             {target}'s window {win}, but byte {j} (wants {want:#04x}) is outside the window's \
             zero initialization and every constant any rank's reachable writes can deposit, \
             and no unknown-operand write covers it — the spin can never be satisfied"
        );
        Need::Never { rank: r, why }
    };
    (0..8).filter(|&j| byte(expect, j) != 0).map(need).collect()
}

/// The fixpoint interpreter: E013 cycles plus E015/E016/E017/E011 roots.
fn fixpoint_pass(sh: &Shape) -> Vec<Diagnostic> {
    let p = sh.p;
    let n = p.n_ranks;
    let interp = Interp::new(sh);

    let mut pcs = vec![0usize; n];
    loop {
        let mut progressed = false;
        for r in 0..n {
            while pcs[r] < p.ranks[r].len() && interp.sat(&interp.conds[r][pcs[r]], &pcs, None) {
                pcs[r] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let stuck: Vec<usize> = (0..n).filter(|&r| pcs[r] < p.ranks[r].len()).collect();
    if stuck.is_empty() {
        return Vec::new();
    }

    // Wait-for edges between stuck ranks + terminal (never-satisfiable)
    // blame per stuck rank.
    let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut nevers: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
    for &r in &stuck {
        let mut blockers = Vec::new();
        interp.sat(&interp.conds[r][pcs[r]], &pcs, Some(&mut blockers));
        for b in blockers {
            match b {
                Blocker::Stuck(q) => {
                    let e = edges.entry(r).or_default();
                    if !e.contains(&q) {
                        e.push(q);
                    }
                }
                Blocker::Never { rank, why } => {
                    nevers.entry(r).or_default().push((rank, why));
                }
            }
        }
    }

    let mut diags = Vec::new();

    // E013: cycles in the wait-for graph. Walk from each stuck rank,
    // always following the smallest-ranked outgoing edge, and report each
    // discovered cycle once, anchored at its smallest member.
    let mut reported_cycles: Vec<Vec<usize>> = Vec::new();
    for &r in &stuck {
        let mut path = vec![r];
        let mut cur = r;
        while let Some(next) = edges.get(&cur).and_then(|e| e.iter().min().copied()) {
            if let Some(pos) = path.iter().position(|&x| x == next) {
                let mut cycle: Vec<usize> = path[pos..].to_vec();
                let anchor_pos =
                    cycle.iter().enumerate().min_by_key(|&(_, &x)| x).map(|(i, _)| i).unwrap();
                cycle.rotate_left(anchor_pos);
                if !reported_cycles.contains(&cycle) {
                    let witness: Vec<String> =
                        cycle.iter().chain(cycle.first()).map(|q| format!("rank {q}")).collect();
                    let anchor = cycle[0];
                    let at = pcs[anchor];
                    diags.push(Diagnostic {
                        code: Code::E013,
                        rank: anchor,
                        step: Some(at),
                        detail: format!(
                            "cyclic cross-rank wait: {} (each rank's blocking \
                             synchronization waits on the next; no rank can ever advance)",
                            witness.join(" -> ")
                        ),
                    });
                    reported_cycles.push(cycle);
                }
                break;
            }
            path.push(next);
            cur = next;
        }
    }

    // Roots: stuck ranks with a terminal (never-satisfiable) dependency.
    // Ranks stuck only behind other stuck ranks are cascades — the report
    // on the cause suffices.
    for &r in &stuck {
        let Some(reasons) = nevers.get(&r) else { continue };
        let at = pcs[r];
        let code = match &p.ranks[r][at] {
            Stmt::Fence { .. } => Code::E016,
            Stmt::Complete { .. } | Stmt::WaitEpoch { .. } => Code::E015,
            Stmt::WaitAll => Code::E017,
            Stmt::Barrier => Code::E011,
            Stmt::SpinUntil { .. } => Code::E018,
            _ => Code::E013,
        };
        let why: Vec<&str> = reasons.iter().map(|(_, w)| w.as_str()).collect();
        diags.push(Diagnostic {
            code,
            rank: r,
            step: Some(at),
            detail: format!("rank {r} blocks forever at stmt {at}: {}", why.join("; ")),
        });
    }

    diags
}

/// One held→wanted lock dependency of one rank.
struct LockEdge {
    rank: usize,
    held: (usize, usize),
    wanted: (usize, usize),
    held_excl: bool,
    want_excl: bool,
    held_stmt: usize,
    block_stmt: usize,
}

/// The lock-order pass: E014 ABBA inversions in the passive-target plane.
fn lock_order_pass(sh: &Shape) -> Vec<Diagnostic> {
    let mut edges: Vec<LockEdge> = Vec::new();
    for (rank, rs) in sh.ranks.iter().enumerate() {
        // (win, target) → (exclusive, lock stmt, established). A hold
        // only contributes a held→wanted edge once it is *established*:
        // lock acquisition is lazily deferred to the first forcing call
        // (§VII.B), so a lock epoch that has seen no full flush since its
        // `lock` holds nothing yet — the grant request has not even been
        // sent, and a peer wanting the same lock cannot be blocked by it.
        // `flush_local` completes locally only and is *not* a forcing
        // call in the modeled (MPI-spec) semantics, so it neither
        // establishes a hold nor discharges one.
        let mut held: BTreeMap<(usize, usize), (bool, usize, bool)> = BTreeMap::new();
        // Pending nonblocking unlocks whose completion a later waitall
        // blocks on: (win, target) and lock mode.
        let mut pending_iunlock: Vec<((usize, usize), bool)> = Vec::new();
        let block_on = |held: &BTreeMap<(usize, usize), (bool, usize, bool)>,
                        wanted: (usize, usize),
                        want_excl: bool,
                        block_stmt: usize,
                        edges: &mut Vec<LockEdge>| {
            for (&h, &(held_excl, held_stmt, established)) in held {
                if h == wanted || !established {
                    continue;
                }
                edges.push(LockEdge {
                    rank,
                    held: h,
                    wanted,
                    held_excl,
                    want_excl,
                    held_stmt,
                    block_stmt,
                });
            }
        };
        // Only what the walk resolved counts: a rejected `lock` holds
        // nothing and an unmatched `unlock` releases nothing.
        for (step, (stmt, at)) in sh.p.ranks[rank].iter().zip(&rs.at).enumerate() {
            match (*at, stmt) {
                (At::Opens(_), Stmt::Lock { win, target, exclusive, .. }) => {
                    held.insert((*win, *target), (*exclusive, step, false));
                }
                (At::Closes(_), Stmt::Unlock { win, target, close }) => {
                    let key = (*win, *target);
                    let (excl, ..) = held.remove(&key).expect("the walk paired it with a lock");
                    if close.is_blocking() {
                        // Blocks here until this lock epoch completes
                        // (grant + release) while still holding every
                        // other established lock.
                        block_on(&held, key, excl, step, &mut edges);
                    } else {
                        pending_iunlock.push((key, excl));
                    }
                }
                // flush_local: local completion only — forces no
                // acquisition and discharges no held→wanted edge.
                (At::Flush(f), _) if !rs.flushes[f].local_only => {
                    let f = &rs.flushes[f];
                    // A full flush (blocking or not) forces acquisition of
                    // the covered lazily-held locks: they are established
                    // from here on.
                    let covered = f.covers.iter().filter_map(|&e| match rs.epochs[e].kind {
                        EpochKind::Lock { target, exclusive } => Some(((f.win, target), exclusive)),
                        _ => None,
                    });
                    for (key, _) in covered.clone() {
                        if let Some(hold) = held.get_mut(&key) {
                            hold.2 = true;
                        }
                    }
                    if f.close.is_blocking() {
                        // And a *blocking* full flush additionally waits
                        // for the covered epochs' issued operations, which
                        // need the covered locks granted.
                        for (key, excl) in covered {
                            block_on(&held, key, excl, step, &mut edges);
                        }
                    }
                }
                (_, Stmt::WaitAll) => {
                    for (key, excl) in pending_iunlock.drain(..) {
                        block_on(&held, key, excl, step, &mut edges);
                    }
                }
                _ => {}
            }
        }
    }

    // Cycle search over (win, target) keys. Consecutive edges must come
    // from different ranks (a rank never blocks on its own hold) and must
    // conflict in lock mode (requester or holder exclusive); shared-hold
    // against shared-want never blocks.
    let mut adj: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(e.held).or_default().push(i);
    }
    let conflict = |want: &LockEdge, holder: &LockEdge| {
        want.rank != holder.rank && (want.want_excl || holder.held_excl)
    };
    let mut diags = Vec::new();
    let mut reported: Vec<Vec<(usize, usize)>> = Vec::new();
    // DFS over edge paths (consecutive conflicts verified at extension
    // time), bounded by the tiny program sizes. A cycle closes when the
    // last edge's wanted key is a held key already on the path.
    fn dfs(
        edges: &[LockEdge],
        adj: &BTreeMap<(usize, usize), Vec<usize>>,
        conflict: &dyn Fn(&LockEdge, &LockEdge) -> bool,
        path: &mut Vec<usize>,
        diags: &mut Vec<Diagnostic>,
        reported: &mut Vec<Vec<(usize, usize)>>,
    ) {
        let last = *path.last().unwrap();
        if let Some(pos) = path.iter().position(|&i| edges[i].held == edges[last].wanted) {
            // The closing hold must conflict with the final want as well.
            if conflict(&edges[last], &edges[path[pos]]) {
                let cycle: Vec<usize> = path[pos..].to_vec();
                let mut sig: Vec<(usize, usize)> = cycle.iter().map(|&i| edges[i].held).collect();
                sig.sort_unstable();
                if !reported.contains(&sig) {
                    reported.push(sig);
                    let anchor = cycle.iter().min_by_key(|&&i| edges[i].rank).copied().unwrap();
                    let e = &edges[anchor];
                    let witness: Vec<String> = cycle
                        .iter()
                        .map(|&i| {
                            let e = &edges[i];
                            format!(
                                "rank {} holds lock(win {}, rank {}) from stmt {} and \
                                 blocks on lock(win {}, rank {}) at stmt {}",
                                e.rank,
                                e.held.0,
                                e.held.1,
                                e.held_stmt,
                                e.wanted.0,
                                e.wanted.1,
                                e.block_stmt
                            )
                        })
                        .collect();
                    diags.push(Diagnostic {
                        code: Code::E014,
                        rank: e.rank,
                        step: Some(e.block_stmt),
                        detail: format!("lock-order inversion: {}", witness.join("; ")),
                    });
                }
            }
            return;
        }
        for &next in adj.get(&edges[last].wanted).map(Vec::as_slice).unwrap_or(&[]) {
            if !conflict(&edges[last], &edges[next]) {
                continue;
            }
            if path.iter().any(|&i| edges[i].held == edges[next].held) {
                continue;
            }
            path.push(next);
            dfs(edges, adj, conflict, path, diags, reported);
            path.pop();
        }
    }
    for i in 0..edges.len() {
        let mut path = vec![i];
        dfs(&edges, &adj, &conflict, &mut path, &mut diags, &mut reported);
    }
    diags
}

/// Run both whole-job deadlock passes.
pub(crate) fn deadlock_passes(sh: &Shape) -> Vec<Diagnostic> {
    let mut diags = fixpoint_pass(sh);
    diags.extend(lock_order_pass(sh));
    diags
}
