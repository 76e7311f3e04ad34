//! Flow-sensitive static analysis of an [`IrProgram`].
//!
//! One pass walks every rank's statement list through a per-(rank, window)
//! epoch state machine that mirrors the engine's API-level checks exactly
//! (`AlreadyInEpoch`, `EpochMismatch`, `NoEpoch`, the dormant-trailing-
//! fence tolerance, and the op→epoch routing order lock → lock_all → GATS
//! → fence), collecting every data access with its covering epoch and
//! concurrency scope. Cross-rank passes then check collective matching
//! (E011) and byte-range interval conflicts: cross-origin conflicts within
//! one concurrency scope (E006/E007) and same-origin cross-epoch conflicts
//! made concurrent by reorder flags (E009). The whole-job deadlock and
//! progress passes (E013–E017) live in [`crate::deadlock`] and run from
//! [`analyze`] after the per-rank walk.
//!
//! The analyzer recovers after every diagnostic (reports and keeps
//! walking), so one malformed statement yields one diagnostic rather than
//! a cascade.

use std::collections::BTreeMap;

use mpisim_core::trace::AccessKind;
use mpisim_core::ReduceOp;

use crate::diag::{Code, Diagnostic};
use crate::ir::{Close, FetchKind, IrProgram, Stmt};

/// How a value-producing read touches the target slot, for the conflict
/// matrix: a plain `Get` is a non-atomic read, a `NoOp` atomic is an
/// element-wise-atomic read, and a writing fetch carries its operator.
fn fetch_access(kind: FetchKind) -> AccessKind {
    match kind.write_op() {
        Some(op) => AccessKind::Atomic(op),
        None if kind.is_atomic() => AccessKind::Atomic(ReduceOp::NoOp),
        None => AccessKind::Read,
    }
}

/// Epoch kinds that matter for reorder-region analysis.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EKind {
    Fence,
    Gats,
    Lock,
    LockAll,
}

/// Which concurrency scope an access belongs to (who else can race with it
/// at the target window).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Scope {
    /// Fence phase `seq`: every rank's accesses of phase `seq` on the
    /// same window are concurrent.
    FencePhase(usize),
    /// GATS access: the origin's `start_seq`-th start whose group contains
    /// the target; resolved to the matching exposure instance in the
    /// cross-rank pass.
    Gats {
        /// Occurrence index of this (origin → target) start.
        start_seq: usize,
    },
    /// Exclusive lock: serialized by the lock manager, never concurrent.
    ExclusiveLock,
    /// Shared lock or `lock_all`: potentially concurrent with every other
    /// shared-mode access to the same target.
    Shared,
}

/// One recorded data access.
#[derive(Clone, Debug)]
struct Access {
    rank: usize,
    step: usize,
    win: usize,
    target: usize,
    lo: usize,
    hi: usize,
    kind: AccessKind,
    scope: Scope,
    /// Per-rank ordinal of the covering access epoch.
    epoch: usize,
    /// Per-(rank, window) reorder-concurrency region of the covering
    /// epoch.
    region: usize,
}

fn overlap(a: &Access, b: &Access) -> Option<(usize, usize)> {
    let lo = a.lo.max(b.lo);
    let hi = a.hi.min(b.hi);
    (lo < hi).then_some((lo, hi))
}

/// An outstanding nonblocking-epoch request, with the detail needed for
/// the flush-discharge rule.
struct OutReq {
    step: usize,
    what: &'static str,
    /// `Some` iff this is an `iflush` family request (dischargeable by a
    /// later covering blocking flush).
    flush: Option<(usize, Option<usize>, bool)>,
}

/// Per-window epoch-machine state of one rank.
#[derive(Default)]
struct WinState {
    /// Open fence epoch: `Some((ordinal, region, phase_seq, has_ops))`.
    fence: Option<(usize, usize, usize, bool)>,
    /// Fence statements executed on this window (collective fence count).
    fence_calls: usize,
    /// Open GATS access epoch.
    gats: Option<GatsState>,
    /// Open exposure epoch: (group, open step).
    exposure: Option<(Vec<usize>, usize)>,
    /// Open per-target locks: target → (exclusive, ordinal, region, step).
    locks: BTreeMap<usize, (bool, usize, usize, usize)>,
    /// Open lock_all epoch: (ordinal, region, step).
    lock_all: Option<(usize, usize, usize)>,
    /// Count of starts whose group contains each target (E011 + scope).
    starts_toward: BTreeMap<usize, usize>,
    /// This rank's posts on this window, in order: the exposure-instance
    /// list.
    posts: Vec<Vec<usize>>,
    /// Reorder-region bookkeeping (regions are per window: epochs on
    /// different windows touch disjoint memory).
    region: usize,
    prev_kind: Option<EKind>,
    /// A blocking close / wait happened since the last epoch open on this
    /// window: the next epoch cannot overlap anything before it.
    synced: bool,
}

/// Per-rank walker state.
struct RankState {
    rank: usize,
    n_ranks: usize,
    windows: Vec<usize>,
    reorder: bool,
    unsafe_fence_reorder: bool,

    /// Per-window epoch machines, created on first touch.
    wins: BTreeMap<usize, WinState>,

    /// Outstanding nonblocking-epoch requests.
    outstanding: Vec<OutReq>,

    /// Live IR-local bindings: local → the (win, target, disp, kind) of
    /// its dominating [`Stmt::ReadValue`] (later bindings shadow).
    locals: BTreeMap<usize, (usize, usize, usize, FetchKind)>,

    /// Per-rank epoch ordinal counter (shared across windows: an ordinal
    /// names one epoch of this rank).
    next_ordinal: usize,

    accesses: Vec<Access>,
    diags: Vec<Diagnostic>,
}

impl RankState {
    fn new(rank: usize, p: &IrProgram) -> Self {
        RankState {
            rank,
            n_ranks: p.n_ranks,
            windows: p.windows.clone(),
            reorder: p.reorder,
            unsafe_fence_reorder: p.unsafe_fence_reorder,
            wins: BTreeMap::new(),
            outstanding: Vec::new(),
            locals: BTreeMap::new(),
            next_ordinal: 0,
            accesses: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn diag(&mut self, code: Code, step: Option<usize>, detail: String) {
        self.diags.push(Diagnostic { code, rank: self.rank, step, detail });
    }

    /// Validate a statement's window index; reports and returns `false`
    /// when out of range.
    fn check_win(&mut self, win: usize, step: usize) -> bool {
        if win >= self.windows.len() {
            self.diag(
                Code::E010,
                Some(step),
                format!(
                    "statement addresses window {win} but the program declares {} window(s)",
                    self.windows.len()
                ),
            );
            return false;
        }
        true
    }

    fn ws(&mut self, win: usize) -> &mut WinState {
        self.wins.entry(win).or_default()
    }

    /// A blocking synchronization serializes the rank in real time: no
    /// later epoch (on any window) can progress concurrently with anything
    /// before it.
    fn sync_all(&mut self) {
        for ws in self.wins.values_mut() {
            ws.synced = true;
        }
    }

    /// Allocate the next access epoch's (ordinal, region) on `win`,
    /// advancing the window's reorder-concurrency region when the adjacent
    /// pair cannot progress concurrently: reorder flags off, a blocking
    /// synchronization between the opens, either side a `lock_all` epoch,
    /// or either side a fence epoch without the `unsafe_fence_reorder`
    /// extension.
    fn open_epoch(&mut self, win: usize, kind: EKind) -> (usize, usize) {
        let unsafe_fence = self.unsafe_fence_reorder;
        let reorder = self.reorder;
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let ws = self.ws(win);
        let fence_blocks = |k: EKind| matches!(k, EKind::Fence) && !unsafe_fence;
        let break_region = !reorder
            || ws.synced
            || kind == EKind::LockAll
            || ws.prev_kind == Some(EKind::LockAll)
            || fence_blocks(kind)
            || ws.prev_kind.map(fence_blocks).unwrap_or(false);
        if break_region {
            ws.region += 1;
        }
        ws.prev_kind = Some(kind);
        ws.synced = false;
        (ordinal, ws.region)
    }

    /// The engine's `check_fence_conflict`: a *non-dormant* open fence
    /// epoch on the same window blocks every other epoch-opening routine;
    /// a dormant trailing fence is tolerated.
    fn fence_conflict(&mut self, win: usize, step: usize, called: &str) {
        if let Some((_, _, seq, has_ops)) = self.ws(win).fence {
            if has_ops {
                self.diag(
                    Code::E005,
                    Some(step),
                    format!(
                        "{called} while fence phase {seq} of window {win} is open and has \
                         issued operations"
                    ),
                );
            }
        }
    }

    fn push_request(&mut self, step: usize, what: &'static str) {
        self.outstanding.push(OutReq { step, what, flush: None });
    }

    #[allow(clippy::too_many_arguments)]
    fn data_op(
        &mut self,
        step: usize,
        win: usize,
        target: usize,
        disp: usize,
        len: usize,
        kind: AccessKind,
        name: &str,
    ) {
        if !self.check_win(win, step) {
            return;
        }
        if target >= self.n_ranks {
            self.diag(
                Code::E002,
                Some(step),
                format!("{name} targets rank {target} but the job has {} ranks", self.n_ranks),
            );
            return;
        }
        let win_bytes = self.windows[win];
        if disp + len > win_bytes {
            self.diag(
                Code::E010,
                Some(step),
                format!(
                    "{name} touches bytes [{disp}, {}) of rank {target}'s {win_bytes}-byte \
                     window {win}",
                    disp + len,
                ),
            );
            return;
        }
        let rank = self.rank;
        let ws = self.ws(win);
        // Route to the covering access epoch exactly like the engine:
        // single-target lock → lock_all → GATS access (target in group) →
        // fence.
        let (scope, epoch, region) = if let Some(&(excl, ord, reg, _)) = ws.locks.get(&target) {
            (if excl { Scope::ExclusiveLock } else { Scope::Shared }, ord, reg)
        } else if let Some((ord, reg, _)) = ws.lock_all {
            (Scope::Shared, ord, reg)
        } else if let Some(g) = ws.gats.as_ref().filter(|g| g.group.contains(&target)) {
            (Scope::Gats { start_seq: g.start_seq[&target] }, g.ordinal, g.region)
        } else if ws.gats.is_some() && ws.fence.is_none() {
            self.diag(
                Code::E002,
                Some(step),
                format!("{name} targets rank {target}, which is not in the start group"),
            );
            return;
        } else if let Some((ord, reg, seq, has_ops)) = ws.fence.as_mut() {
            if ws.gats.is_some() {
                // The engine would silently route this op into the open
                // fence phase; it still escapes the start group.
                let d = format!(
                    "{name} targets rank {target}, which is not in the start group \
                     (the operation would fall through to fence phase {seq})"
                );
                *has_ops = true;
                let rec = (Scope::FencePhase(*seq), *ord, *reg);
                self.diag(Code::E002, Some(step), d);
                rec
            } else {
                *has_ops = true;
                (Scope::FencePhase(*seq), *ord, *reg)
            }
        } else {
            self.diag(
                Code::E001,
                Some(step),
                format!("{name} toward rank {target} with no access epoch open"),
            );
            return;
        };
        self.accesses.push(Access {
            rank,
            step,
            win,
            target,
            lo: disp,
            hi: disp + len,
            kind,
            scope,
            epoch,
            region,
        });
    }

    /// A blocking flush on `win` covering (`target`, `local_only`)
    /// completes — and thereby discharges — every earlier `iflush`-family
    /// request whose scope it covers: the engine's age stamps are
    /// monotone, so waiting for the later stamp completes every operation
    /// the earlier stamp covered. A full flush discharges local-only
    /// flushes of the same coverage (remote completion implies local); a
    /// `flush_local` only discharges local-only requests.
    fn discharge_flushes(&mut self, win: usize, target: Option<usize>, local_only: bool) {
        self.outstanding.retain(|r| match r.flush {
            Some((fw, ft, fl)) => {
                let covered = fw == win
                    && (target.is_none() || ft == target)
                    && (!local_only || fl);
                !covered
            }
            None => true,
        });
    }

    fn finish(&mut self) {
        // Gather end-of-program violations without consuming the
        // per-window state (the cross-rank passes still need it).
        let mut found: Vec<(Option<usize>, String)> = Vec::new();
        for (win, ws) in &self.wins {
            if let Some(g) = &ws.gats {
                found.push((
                    Some(g.step),
                    format!("GATS access epoch on window {win} is never completed"),
                ));
            }
            if let Some((_, step)) = &ws.exposure {
                found.push((
                    Some(*step),
                    format!("exposure epoch on window {win} is never waited"),
                ));
            }
            for (target, (_, _, _, step)) in &ws.locks {
                found.push((
                    Some(*step),
                    format!("lock on rank {target} (window {win}) is never unlocked"),
                ));
            }
            if let Some((_, _, step)) = ws.lock_all {
                found.push((
                    Some(step),
                    format!("lock_all epoch on window {win} is never unlocked"),
                ));
            }
            if let Some((_, _, seq, true)) = ws.fence {
                found.push((
                    None,
                    format!(
                        "trailing fence phase {seq} of window {win} issued operations but \
                         is never closed"
                    ),
                ));
            }
        }
        for (step, detail) in found {
            self.diag(Code::E003, step, detail);
        }
        let outstanding = std::mem::take(&mut self.outstanding);
        for r in outstanding {
            self.diag(
                Code::E008,
                Some(r.step),
                format!("request returned by {} is never tested or waited", r.what),
            );
        }
    }
}

/// Open-GATS bookkeeping.
struct GatsState {
    group: Vec<usize>,
    step: usize,
    ordinal: usize,
    region: usize,
    /// Per-target occurrence index of this start (0-based).
    start_seq: BTreeMap<usize, usize>,
}

fn walk_rank(rank: usize, p: &IrProgram) -> RankState {
    let mut st = RankState::new(rank, p);
    for (step, stmt) in p.ranks[rank].iter().enumerate() {
        if let Some(win) = stmt.win() {
            if !st.check_win(win, step) {
                continue;
            }
        }
        match stmt {
            Stmt::Fence { win, close } => {
                let win = *win;
                // The engine rejects fence with any other epoch kind open
                // on the same window.
                let ws = st.ws(win);
                if ws.gats.is_some()
                    || ws.exposure.is_some()
                    || !ws.locks.is_empty()
                    || ws.lock_all.is_some()
                {
                    st.diag(
                        Code::E005,
                        Some(step),
                        format!("fence while a GATS/lock/exposure epoch is open on window {win}"),
                    );
                }
                if st.ws(win).fence.is_some() && close.is_blocking() {
                    st.sync_all();
                }
                if matches!(close, Close::Nonblocking) {
                    // `ifence` always returns a request: the closing
                    // request, or a dummy opening request (§VII.C).
                    st.push_request(step, "ifence");
                }
                let seq = st.ws(win).fence_calls;
                st.ws(win).fence_calls += 1;
                let (ord, reg) = st.open_epoch(win, EKind::Fence);
                st.ws(win).fence = Some((ord, reg, seq, false));
            }
            Stmt::Start { win, group } => {
                let win = *win;
                st.fence_conflict(win, step, "start");
                let ws = st.ws(win);
                if ws.gats.is_some() {
                    st.diag(Code::E005, Some(step), "start while a start epoch is open".into());
                }
                let ws = st.ws(win);
                if !ws.locks.is_empty() || ws.lock_all.is_some() {
                    st.diag(Code::E005, Some(step), "start while a lock epoch is open".into());
                }
                let (ordinal, region) = st.open_epoch(win, EKind::Gats);
                let ws = st.ws(win);
                let mut start_seq = BTreeMap::new();
                for &t in group {
                    let c = ws.starts_toward.entry(t).or_insert(0);
                    start_seq.insert(t, *c);
                    *c += 1;
                }
                ws.gats = Some(GatsState { group: group.clone(), step, ordinal, region, start_seq });
            }
            Stmt::Complete { win, close } => {
                if st.ws(*win).gats.take().is_none() {
                    st.diag(Code::E004, Some(step), "complete without an open start epoch".into());
                }
                if close.is_blocking() {
                    st.sync_all();
                } else {
                    st.push_request(step, "icomplete");
                }
            }
            Stmt::Post { win, group } => {
                let win = *win;
                st.fence_conflict(win, step, "post");
                let ws = st.ws(win);
                if ws.exposure.is_some() {
                    st.diag(Code::E005, Some(step), "post while an exposure epoch is open".into());
                }
                let ws = st.ws(win);
                ws.exposure = Some((group.clone(), step));
                ws.posts.push(group.clone());
            }
            Stmt::WaitEpoch { win, close } => {
                if st.ws(*win).exposure.take().is_none() {
                    st.diag(Code::E004, Some(step), "wait without an open exposure epoch".into());
                }
                if close.is_blocking() {
                    st.sync_all();
                } else {
                    st.push_request(step, "iwait");
                }
            }
            Stmt::Lock { win, target, exclusive, nonblocking } => {
                let win = *win;
                if *target >= p.n_ranks {
                    st.diag(
                        Code::E002,
                        Some(step),
                        format!("lock targets rank {target} but the job has {} ranks", p.n_ranks),
                    );
                    continue;
                }
                st.fence_conflict(win, step, "lock");
                let ws = st.ws(win);
                if ws.locks.contains_key(target) {
                    st.diag(
                        Code::E005,
                        Some(step),
                        format!("lock on rank {target}, which is already locked"),
                    );
                }
                let ws = st.ws(win);
                if ws.lock_all.is_some() || ws.gats.is_some() {
                    st.diag(
                        Code::E005,
                        Some(step),
                        "lock while a lock_all/start epoch is open".into(),
                    );
                }
                if *nonblocking {
                    st.push_request(step, "ilock");
                }
                let (ord, reg) = st.open_epoch(win, EKind::Lock);
                st.ws(win).locks.insert(*target, (*exclusive, ord, reg, step));
            }
            Stmt::Unlock { win, target, close } => {
                if st.ws(*win).locks.remove(target).is_none() {
                    st.diag(
                        Code::E004,
                        Some(step),
                        format!("unlock of rank {target}, which is not locked"),
                    );
                }
                if close.is_blocking() {
                    st.sync_all();
                } else {
                    st.push_request(step, "iunlock");
                }
            }
            Stmt::LockAll { win, nonblocking } => {
                let win = *win;
                st.fence_conflict(win, step, "lock_all");
                let ws = st.ws(win);
                if !ws.locks.is_empty() || ws.lock_all.is_some() || ws.gats.is_some() {
                    st.diag(
                        Code::E005,
                        Some(step),
                        "lock_all while a lock/start epoch is open".into(),
                    );
                }
                if *nonblocking {
                    st.push_request(step, "ilock_all");
                }
                let (ord, reg) = st.open_epoch(win, EKind::LockAll);
                st.ws(win).lock_all = Some((ord, reg, step));
            }
            Stmt::UnlockAll { win, close } => {
                if st.ws(*win).lock_all.take().is_none() {
                    st.diag(
                        Code::E004,
                        Some(step),
                        "unlock_all without an open lock_all epoch".into(),
                    );
                }
                if close.is_blocking() {
                    st.sync_all();
                } else {
                    st.push_request(step, "iunlock_all");
                }
            }
            Stmt::Flush { win, target, local_only, close } => {
                let win = *win;
                let ws = st.ws(win);
                // The flush family requires an open passive-target epoch
                // covering the flushed target(s).
                let covered = match target {
                    Some(t) => ws.locks.contains_key(t) || ws.lock_all.is_some(),
                    None => !ws.locks.is_empty() || ws.lock_all.is_some(),
                };
                if !covered {
                    let what = match target {
                        Some(t) => format!("rank {t}"),
                        None => "any target".into(),
                    };
                    st.diag(
                        Code::E004,
                        Some(step),
                        format!(
                            "flush on window {win} without an open passive-target epoch \
                             covering {what}"
                        ),
                    );
                }
                if close.is_blocking() {
                    st.sync_all();
                    st.discharge_flushes(win, *target, *local_only);
                } else {
                    let what = if *local_only { "iflush_local" } else { "iflush" };
                    st.outstanding.push(OutReq {
                        step,
                        what,
                        flush: Some((win, *target, *local_only)),
                    });
                }
            }
            Stmt::Put { win, target, disp, len } | Stmt::PutVal { win, target, disp, len, .. } => {
                st.data_op(step, *win, *target, *disp, *len, AccessKind::Write, "put");
            }
            Stmt::Get { win, target, disp, len } => {
                st.data_op(step, *win, *target, *disp, *len, AccessKind::Read, "get");
            }
            Stmt::Acc { win, target, disp, len, op } => {
                st.data_op(step, *win, *target, *disp, *len, AccessKind::Atomic(*op), "accumulate");
            }
            Stmt::ReadValue { win, target, disp, kind, local } => {
                st.data_op(step, *win, *target, *disp, 8, fetch_access(*kind), "value read");
                st.locals.insert(*local, (*win, *target, *disp, *kind));
            }
            Stmt::AccVal { win, target, disp, op, .. } => {
                st.data_op(step, *win, *target, *disp, 8, AccessKind::Atomic(*op), "accumulate");
            }
            Stmt::SpinUntil { local, .. } => {
                // The spin re-executes its defining read, so it needs the
                // same covering epoch; it also blocks the host until the
                // value arrives, serializing like a blocking close. A
                // spin on an unbound local is a no-op.
                if let Some(&(win, target, disp, kind)) = st.locals.get(local) {
                    st.data_op(step, win, target, disp, 8, fetch_access(kind), "spin_until");
                    st.sync_all();
                }
            }
            Stmt::WaitAll => {
                st.outstanding.clear();
                st.sync_all();
            }
            Stmt::Compute { .. } | Stmt::Barrier => {}
        }
    }
    st.finish();
    st
}

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
fn crashed_dependencies(p: &IrProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let fatal: Vec<usize> =
        p.crashed.iter().copied().filter(|r| !p.recovered.contains(r)).collect();
    if fatal.is_empty() {
        return diags;
    }
    let dead = |r: &usize| fatal.contains(r);
    for (rank, stmts) in p.ranks.iter().enumerate() {
        if dead(&rank) {
            continue;
        }
        let mut diag = |step: usize, detail: String| {
            diags.push(Diagnostic { code: Code::E012, rank, step: Some(step), detail });
        };
        for (step, stmt) in stmts.iter().enumerate() {
            match stmt {
                Stmt::Start { group, .. } => {
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
                Stmt::Post { group, .. } => {
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
                Stmt::Lock { target, .. } if dead(target) => {
                    diag(
                        step,
                        format!(
                            "lock on rank {target}, which the fault model crashes: the \
                             grant may never arrive"
                        ),
                    );
                }
                Stmt::LockAll { .. } => {
                    diag(
                        step,
                        format!(
                            "lock_all needs a grant from every rank, but the fault model \
                             crashes {fatal:?} without recovery"
                        ),
                    );
                }
                Stmt::Fence { .. } | Stmt::Barrier => {
                    let name =
                        if matches!(stmt, Stmt::Fence { .. }) { "fence" } else { "barrier" };
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

/// Classify a conflicting pair: both mutate → E006, otherwise (one side is
/// a read) → E007.
fn conflict_code(a: AccessKind, b: AccessKind) -> Code {
    if a.writes() && b.writes() {
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
    let states: Vec<RankState> = (0..p.n_ranks).map(|r| walk_rank(r, p)).collect();
    let mut diags: Vec<Diagnostic> = states.iter().flat_map(|s| s.diags.clone()).collect();

    // E012: a surviving rank's epoch structure blocks on a peer the fault
    // model crashes. The crash may land before the dependency is
    // satisfied, so without the stall watchdog the program can hang.
    diags.extend(crashed_dependencies(p));

    // Whole-job deadlock & progress passes: the cross-rank fixpoint
    // interpreter (E013/E015/E016/E017 + collective-barrier E011) and the
    // lock-acquisition-order pass (E014).
    diags.extend(crate::deadlock::deadlock_passes(p));

    // E011a: collective fence counts must agree on every rank, per
    // window (a fence is job-collective on its window).
    for w in 0..p.windows.len() {
        let count = |s: &RankState| s.wins.get(&w).map(|ws| ws.fence_calls).unwrap_or(0);
        let base = count(&states[0]);
        for s in &states[1..] {
            let c = count(s);
            if c != base {
                diags.push(Diagnostic {
                    code: Code::E011,
                    rank: s.rank,
                    step: None,
                    detail: format!(
                        "rank {} makes {c} fence calls on window {w} but rank 0 makes {base}",
                        s.rank
                    ),
                });
            }
        }
    }

    // E011b: every (origin, target, window) start count must equal the
    // count of posts at the target on that window whose group contains
    // the origin.
    for o in &states {
        for (&w, ws) in &o.wins {
            for (&t, &n_starts) in &ws.starts_toward {
                if t >= p.n_ranks {
                    continue; // reported as E002 at the start site's ops
                }
                let n_posts = states[t]
                    .wins
                    .get(&w)
                    .map(|tw| tw.posts.iter().filter(|g| g.contains(&o.rank)).count())
                    .unwrap_or(0);
                if n_starts != n_posts {
                    diags.push(Diagnostic {
                        code: Code::E011,
                        rank: o.rank,
                        step: None,
                        detail: format!(
                            "rank {} starts toward rank {t} {n_starts} time(s) on window \
                             {w} but rank {t} posts toward rank {} {n_posts} time(s)",
                            o.rank, o.rank
                        ),
                    });
                }
            }
        }
    }

    // Resolve each GATS access to its exposure instance at the target: the
    // origin's `start_seq`-th start containing t (on that window) matches
    // t's `start_seq`-th post containing the origin.
    let mut accesses: Vec<(Access, Option<usize>)> = Vec::new();
    for s in &states {
        for a in &s.accesses {
            let exposure = match &a.scope {
                Scope::Gats { start_seq } => {
                    let post = states[a.target]
                        .wins
                        .get(&a.win)
                        .and_then(|tw| {
                            tw.posts
                                .iter()
                                .enumerate()
                                .filter(|(_, g)| g.contains(&a.rank))
                                .nth(*start_seq)
                                .map(|(i, _)| i)
                        });
                    if post.is_none() {
                        continue; // unmatched start: E011 already reported
                    }
                    post
                }
                _ => None,
            };
            accesses.push((a.clone(), exposure));
        }
    }

    // E006/E007: cross-origin conflicts within one concurrency scope.
    // Same-origin same-target operations are per-channel FIFO ordered by
    // the runtime, so only different origins can race here.
    for (i, (a, ea)) in accesses.iter().enumerate() {
        for (b, eb) in &accesses[i + 1..] {
            if a.rank == b.rank || a.target != b.target || a.win != b.win {
                continue;
            }
            let concurrent = match (&a.scope, &b.scope) {
                (Scope::FencePhase(x), Scope::FencePhase(y)) => x == y,
                (Scope::Gats { .. }, Scope::Gats { .. }) => ea == eb,
                (Scope::Shared, Scope::Shared) => true,
                _ => false,
            };
            if !concurrent {
                continue;
            }
            if let Some((lo, hi)) = overlap(a, b) {
                if a.kind.conflicts_with(b.kind) {
                    diags.push(Diagnostic {
                        code: conflict_code(a.kind, b.kind),
                        rank: a.rank,
                        step: Some(a.step),
                        detail: format!(
                            "bytes [{lo}, {hi}) of rank {}'s window {}: {} is unordered \
                             against {}",
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

    // E009: same-origin accesses in different epochs of one reorder-
    // concurrency region — the flags let the runtime progress those epochs
    // out of order, so conflicting overlaps are schedule-dependent.
    if p.reorder {
        for s in &states {
            for (i, a) in s.accesses.iter().enumerate() {
                for b in &s.accesses[i + 1..] {
                    if a.target != b.target
                        || a.win != b.win
                        || a.epoch == b.epoch
                        || a.region != b.region
                    {
                        continue;
                    }
                    if let Some((lo, hi)) = overlap(a, b) {
                        if a.kind.conflicts_with(b.kind) {
                            diags.push(Diagnostic {
                                code: Code::E009,
                                rank: s.rank,
                                step: Some(a.step),
                                detail: format!(
                                    "reorder flags allow epochs {} and {} to progress \
                                     concurrently, but bytes [{lo}, {hi}) of rank {}'s \
                                     window {} conflict: {} vs {}",
                                    a.epoch,
                                    b.epoch,
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
        }
    }

    diags
}
