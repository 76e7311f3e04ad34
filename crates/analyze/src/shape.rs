//! The resolved epoch structure of an [`IrProgram`]: the one walk every
//! static pass reads.
//!
//! [`Shape::of`] walks each rank's statement list once, keeping per
//! (rank, window) the open epochs in core's open set
//! ([`mpisim_core::epoch::OpenSet`]) and asking it what the engine's
//! API-level checks ask it (`AlreadyInEpoch`, `EpochMismatch`, `NoEpoch`,
//! the dormant-trailing-fence tolerance), and resolves, per rank:
//!
//! * every **epoch instance** ([`Epoch`]): kind with group or target and
//!   lock mode, window, opening statement, closing statement with its
//!   [`Close`] mode (or never closed), reorder-concurrency region, and —
//!   [`Shape::occurrence`] — per group member which of this rank's starts
//!   (posts) naming that peer it is: the positional id the paper matches
//!   epochs by (§VI.A rule 3);
//! * every **data access** ([`Access`]): statement, window, target, byte
//!   range, [`AccessKind`], the constant it leaves behind when known, and
//!   the epoch covering it, routed by the open set as the engine routes it:
//!   single-target lock → `lock_all` → GATS access epoch naming the target
//!   → fence phase;
//! * every **flush** with the passive-target epochs it covers, every
//!   **nonblocking request** with the `waitall` that consumes it, the fence
//!   calls per window and the barriers;
//! * [`Resolved::at`], the inverse index: what each statement resolved to.
//!
//! The cross-rank FIFO rule — origin `o`'s k-th start naming `t` meets
//! `t`'s k-th post naming `o` — is answered by [`Shape::matching_post`] and
//! [`Shape::matching_start`] and nowhere else.
//!
//! The walk reports what only it can see (E001–E005, E008, E010) into
//! [`Shape::diags`] and recovers after every diagnostic: a rejected
//! statement resolves to [`At::Nothing`] (no epoch opened, no access
//! recorded — the runtime would have returned an error instead of acting),
//! and the walk continues, so one malformed statement yields one diagnostic
//! rather than a cascade. An open that E005 refuses (nested `start`,
//! re-`lock`, a fence inside a lock epoch) leaves the open epochs as they
//! were, as the engine's `AlreadyInEpoch` does. A close without an open
//! resolves to nothing; an epoch whose close is missing has no close step.

use std::collections::BTreeMap;

use mpisim_core::epoch::{OpenSet, Slot};
use mpisim_core::trace::AccessKind;
use mpisim_core::{Rank, ReduceOp};

use crate::diag::{Code, Diagnostic};
use crate::ir::{Close, FetchKind, IrProgram, Stmt};

/// What an [`Epoch`] is, with what it was opened toward. Groups are
/// borrowed from the program.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum EpochKind<'p> {
    /// Fence phase `seq` of its window: opened by the window's `seq`-th
    /// fence call, closed by the next.
    Fence { seq: usize },
    /// GATS access epoch toward `group`.
    Start { group: &'p [usize] },
    /// Exposure epoch granting `group`.
    Post { group: &'p [usize] },
    /// Single-target lock epoch.
    Lock { target: usize, exclusive: bool },
    /// `lock_all` epoch (shared on every rank).
    LockAll,
}

/// One epoch instance of one rank.
#[derive(Debug)]
pub(crate) struct Epoch<'p> {
    pub kind: EpochKind<'p>,
    pub win: usize,
    /// Statement that opened it.
    pub open: usize,
    /// Statement that closes it and that call's mode; `None` when the
    /// program never closes it.
    pub close: Option<(usize, Close)>,
    /// Per-(rank, window) reorder-concurrency region: two access epochs
    /// of one region may progress concurrently under the reorder flags.
    pub region: usize,
}

impl EpochKind<'_> {
    /// The open-set slot an epoch of this kind occupies while open.
    fn slot(self) -> Slot {
        match self {
            EpochKind::Fence { .. } => Slot::Fence,
            EpochKind::Start { .. } => Slot::GatsAccess,
            EpochKind::Post { .. } => Slot::Exposure,
            EpochKind::Lock { target, .. } => Slot::Lock(Rank(target)),
            EpochKind::LockAll => Slot::LockAll,
        }
    }
}

impl<'p> Epoch<'p> {
    /// The start or post group (empty for the other kinds).
    pub fn group(&self) -> &'p [usize] {
        match self.kind {
            EpochKind::Start { group } | EpochKind::Post { group } => group,
            _ => &[],
        }
    }
}

/// Which statement form issued an [`Access`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Put,
    Get,
    Acc,
    ValueRead,
    /// A `SpinUntil` re-executing its defining value read.
    Spin,
}

impl Op {
    /// The name diagnostics use for it.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Acc => "accumulate",
            Op::ValueRead => "value read",
            Op::Spin => "spin_until",
        }
    }

    /// Whether target bytes come back to the origin, which makes a later
    /// one a dependent use of the writes before it.
    pub fn returns_value(self) -> bool {
        !matches!(self, Op::Put | Op::Acc)
    }
}

/// One data access that passed the walk's range checks.
#[derive(Clone, Debug)]
pub(crate) struct Access {
    pub rank: usize,
    pub step: usize,
    pub win: usize,
    pub target: usize,
    /// Byte range `[lo, hi)` of the target window.
    pub lo: usize,
    pub hi: usize,
    pub kind: AccessKind,
    pub op: Op,
    /// The constant the write leaves in the slot, when the statement
    /// fixes it (`AccVal` with `Replace`); every other write is ⊤.
    pub val: Option<u64>,
    /// The covering access epoch (index into [`Resolved::epochs`]);
    /// `None` when no open epoch covers the target (E001/E002).
    pub epoch: Option<usize>,
}

impl Access {
    /// The bytes both accesses touch, if any (window and target are the
    /// caller's to compare).
    pub fn overlap(&self, other: &Access) -> Option<(usize, usize)> {
        let (lo, hi) = (self.lo.max(other.lo), self.hi.min(other.hi));
        (lo < hi).then_some((lo, hi))
    }
}

/// One flush-family call.
pub(crate) struct Flush {
    pub win: usize,
    /// `Some(rank)` for `flush`/`flush_local`, `None` for the `_all` forms.
    pub target: Option<usize>,
    pub local_only: bool,
    pub close: Close,
    /// The open passive-target epochs it covers: the lock on `target` (or
    /// else the `lock_all`), or for an `_all` form every lock of the
    /// window by target rank and then the `lock_all` — the engine's
    /// `flush_all` visiting order.
    pub covers: Vec<usize>,
}

impl Flush {
    /// The `iflush` discharge rule: a blocking flush completes — and
    /// thereby discharges — every earlier `iflush`-family request `req`
    /// whose scope it covers. The engine's age stamps are monotone, so
    /// waiting for the later stamp completes every operation the earlier
    /// stamp covered. A full flush discharges local-only requests of the
    /// same coverage (remote completion implies local); a `flush_local`
    /// only discharges local-only requests.
    pub fn discharges(&self, req: &Flush) -> bool {
        req.win == self.win
            && (self.target.is_none() || req.target == self.target)
            && (!self.local_only || req.local_only)
    }
}

/// One nonblocking request (epoch open or close, or `iflush`).
pub(crate) struct Request {
    pub step: usize,
    /// The routine that returned it (`"ifence"`, `"icomplete"`, …).
    pub what: &'static str,
    /// The `waitall` that consumes it, if one does.
    pub waited: Option<usize>,
}

/// What one statement resolved to. Indices point into the owning
/// [`Resolved`]'s lists.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum At {
    /// `compute`, `waitall`, `barrier`, a close without an open, or a
    /// statement the walk rejected.
    Nothing,
    /// `start`, `post`, `lock`, `lock_all`: opens that epoch.
    Opens(usize),
    /// `complete`, `wait`, `unlock`, `unlock_all`: closes that epoch.
    Closes(usize),
    /// A fence call: closes the window's open phase, if any, and opens
    /// the next.
    Fence { closes: Option<usize>, opens: usize },
    /// A data statement (or a spin on a bound local): that access.
    Access(usize),
    /// A flush-family call: that flush.
    Flush(usize),
}

/// Everything resolved about one rank's program.
#[derive(Default)]
pub(crate) struct Resolved<'p> {
    /// Epochs in open order.
    pub epochs: Vec<Epoch<'p>>,
    /// Accesses in statement order.
    pub accesses: Vec<Access>,
    pub flushes: Vec<Flush>,
    /// Nonblocking requests in statement order.
    pub requests: Vec<Request>,
    /// Parallel to the statement list.
    pub at: Vec<At>,
    /// Per window: the fence calls, in call order.
    pub fences: Vec<Vec<usize>>,
    /// The barrier statements, in call order.
    pub barriers: Vec<usize>,
    /// `(window, target, epoch)` for every target every start names,
    /// sorted: the entries of one `(window, target)` are this rank's
    /// starts naming that target, in open order.
    starts_toward: Vec<Named>,
    /// The same for posts: `(window, origin, epoch)`.
    posts_toward: Vec<Named>,
}

/// `(window, peer, epoch)`: epoch is a start (post) on window naming peer.
type Named = (usize, usize, usize);

/// The entries of `filed` (sorted) for `(win, peer)`.
fn naming(filed: &[Named], win: usize, peer: usize) -> &[Named] {
    let from = filed.partition_point(|&(w, p, _)| (w, p) < (win, peer));
    let len = filed[from..].partition_point(|&(w, p, _)| (w, p) == (win, peer));
    &filed[from..from + len]
}

impl Resolved<'_> {
    /// The accesses epoch `e` covers, in statement order.
    pub fn accesses_of(&self, e: usize) -> impl Iterator<Item = &Access> {
        let ep = &self.epochs[e];
        let from = self.accesses.partition_point(|a| a.step < ep.open);
        self.accesses[from..]
            .iter()
            .take_while(|a| ep.close.is_none_or(|(c, _)| a.step < c))
            .filter(move |a| a.epoch == Some(e))
    }

    /// `(window, target, n)` for every target this rank starts toward:
    /// `n` of its starts on `window` name it. Window-major, then by target.
    pub fn start_counts(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let same = |a: &Named, b: &Named| (a.0, a.1) == (b.0, b.1);
        self.starts_toward.chunk_by(same).map(|starts| (starts[0].0, starts[0].1, starts.len()))
    }

    /// How many of this rank's posts on `win` name `origin`.
    pub fn posts_naming(&self, win: usize, origin: usize) -> usize {
        naming(&self.posts_toward, win, origin).len()
    }

    /// The per-rank ordinal of access epoch `e` (exposures do not count).
    pub fn ordinal(&self, e: usize) -> usize {
        self.epochs[..e].iter().filter(|e| !matches!(e.kind, EpochKind::Post { .. })).count()
    }
}

/// The resolved structure of a whole program.
pub(crate) struct Shape<'p> {
    pub p: &'p IrProgram,
    pub ranks: Vec<Resolved<'p>>,
    /// What the walk itself reported, rank by rank.
    pub diags: Vec<Diagnostic>,
}

impl<'p> Shape<'p> {
    /// Resolve `p`: one walk per rank, each over the same per-window state
    /// (reset, its open sets' buffers kept).
    pub fn of(p: &'p IrProgram) -> Self {
        let mut diags = Vec::new();
        let mut wins: Vec<WinOpen> = p.windows.iter().map(|_| WinOpen::default()).collect();
        let ranks = (0..p.ranks.len()).map(|r| Walk::run(p, r, &mut wins, &mut diags)).collect();
        Shape { p, ranks, diags }
    }

    /// Which of `rank`'s starts (posts) on its window naming `peer` epoch
    /// `e` is, 0-based; `None` when its group does not name `peer`.
    pub fn occurrence(&self, rank: usize, e: usize, peer: usize) -> Option<usize> {
        let rs = &self.ranks[rank];
        let epoch = &rs.epochs[e];
        let filed = match epoch.kind {
            EpochKind::Post { .. } => &rs.posts_toward,
            _ => &rs.starts_toward,
        };
        naming(filed, epoch.win, peer).binary_search_by_key(&e, |&(.., e)| e).ok()
    }

    /// The exposure epoch of `t` that origin `o`'s access epoch `start`
    /// meets (both indices into their rank's epochs): if `start` is `o`'s
    /// k-th start naming `t`, `t`'s k-th post naming `o`.
    pub fn matching_post(&self, o: usize, start: usize, t: usize) -> Option<usize> {
        let k = self.occurrence(o, start, t)?;
        let posts = naming(&self.ranks.get(t)?.posts_toward, self.ranks[o].epochs[start].win, o);
        posts.get(k).map(|&(.., e)| e)
    }

    /// The access epoch of `o` that target `t`'s exposure epoch `post`
    /// meets: if `post` is `t`'s k-th post naming `o`, `o`'s k-th start
    /// naming `t`.
    pub fn matching_start(&self, t: usize, post: usize, o: usize) -> Option<usize> {
        let k = self.occurrence(t, post, o)?;
        let starts = naming(&self.ranks.get(o)?.starts_toward, self.ranks[t].epochs[post].win, t);
        starts.get(k).map(|&(.., e)| e)
    }
}

/// Which bytes of whose window a data statement touches, and how.
#[derive(Copy, Clone)]
struct Touch {
    op: Op,
    win: usize,
    target: usize,
    disp: usize,
    len: usize,
    kind: AccessKind,
    val: Option<u64>,
}

/// The one decoding of a data statement (`None` for every other).
fn touch(stmt: &Stmt) -> Option<Touch> {
    let t =
        |op, win, target, disp, len, kind| Touch { op, win, target, disp, len, kind, val: None };
    Some(match *stmt {
        Stmt::Put { win, target, disp, len } | Stmt::PutVal { win, target, disp, len, .. } => {
            t(Op::Put, win, target, disp, len, AccessKind::Write)
        }
        Stmt::Get { win, target, disp, len } => {
            t(Op::Get, win, target, disp, len, AccessKind::Read)
        }
        Stmt::Acc { win, target, disp, len, op } => {
            t(Op::Acc, win, target, disp, len, AccessKind::Atomic(op))
        }
        Stmt::AccVal { win, target, disp, op, val } => Touch {
            val: (op == ReduceOp::Replace).then_some(val),
            ..t(Op::Acc, win, target, disp, 8, AccessKind::Atomic(op))
        },
        // For the conflict matrix a plain `Get` is a non-atomic read, a
        // `NoOp` atomic an element-wise-atomic read, and a writing fetch
        // carries its operator.
        Stmt::ReadValue { win, target, disp, kind, .. } => {
            let access = match kind {
                FetchKind::Get => AccessKind::Read,
                _ => AccessKind::Atomic(kind.write_op().unwrap_or(ReduceOp::NoOp)),
            };
            t(Op::ValueRead, win, target, disp, 8, access)
        }
        _ => return None,
    })
}

/// E005's detail for opening an epoch in `new` while `old` is open on
/// window `win` (`seq`: the open fence phase).
fn clash_detail(new: Slot, old: Slot, win: usize, seq: usize) -> String {
    match (new, old) {
        (_, Slot::Fence) => format!(
            "{} while fence phase {seq} of window {win} is open and has issued operations",
            new.routines().0
        ),
        (Slot::Fence, _) => {
            format!("fence while a GATS/lock/exposure epoch is open on window {win}")
        }
        (Slot::GatsAccess, Slot::GatsAccess) => "start while a start epoch is open".into(),
        (Slot::GatsAccess, _) => "start while a lock epoch is open".into(),
        (Slot::Exposure, _) => "post while an exposure epoch is open".into(),
        (Slot::Lock(Rank(t)), Slot::Lock(_)) => {
            format!("lock on rank {t}, which is already locked")
        }
        (Slot::Lock(_), _) => "lock while a lock_all/start epoch is open".into(),
        (Slot::LockAll, _) => "lock_all while a lock/start epoch is open".into(),
    }
}

/// The open epochs and reorder bookkeeping of one window of one rank.
#[derive(Default)]
struct WinOpen {
    /// The open epochs (indices into [`Resolved::epochs`]) by slot.
    open: OpenSet<usize>,
    region: usize,
    /// The window's last access epoch never shares a region (see `open`).
    prev_apart: bool,
    /// A blocking close / wait happened since the last epoch open on this
    /// window: the next epoch cannot overlap anything before it.
    synced: bool,
}

/// The per-rank walker.
struct Walk<'a, 'p> {
    p: &'p IrProgram,
    rank: usize,
    out: Resolved<'p>,
    wins: &'a mut [WinOpen],
    /// Requests not yet consumed: index into `out.requests`, and for an
    /// `iflush` its index into `out.flushes`.
    outstanding: Vec<(usize, Option<usize>)>,
    /// Live IR-local bindings: local → its dominating value read (later
    /// bindings shadow).
    locals: BTreeMap<usize, Touch>,
    diags: &'a mut Vec<Diagnostic>,
}

impl<'a, 'p> Walk<'a, 'p> {
    fn run(
        p: &'p IrProgram,
        rank: usize,
        wins: &'a mut [WinOpen],
        diags: &'a mut Vec<Diagnostic>,
    ) -> Resolved<'p> {
        let stmts = &p.ranks[rank];
        let out = Resolved {
            at: vec![At::Nothing; stmts.len()],
            fences: vec![Vec::new(); p.windows.len()],
            ..Default::default()
        };
        for w in wins.iter_mut() {
            let mut open = std::mem::take(&mut w.open);
            open.clear();
            *w = WinOpen { open, ..Default::default() };
        }
        let mut walk =
            Walk { p, rank, out, wins, outstanding: Vec::new(), locals: BTreeMap::new(), diags };
        for (step, stmt) in stmts.iter().enumerate() {
            walk.stmt(step, stmt);
        }
        walk.finish();
        walk.out
    }

    fn diag(&mut self, code: Code, step: Option<usize>, detail: String) {
        self.diags.push(Diagnostic { code, rank: self.rank, step, detail });
    }

    /// A blocking synchronization serializes the rank in real time: no
    /// later epoch (on any window) can progress concurrently with anything
    /// before it.
    fn sync_all(&mut self) {
        for w in self.wins.iter_mut() {
            w.synced = true;
        }
    }

    /// Record a new epoch on `win`. An access epoch advances the window's
    /// reorder-concurrency region when it and its predecessor cannot
    /// progress concurrently: reorder flags off, a blocking synchronization
    /// between the opens, either side a `lock_all` epoch, or either side a
    /// fence epoch without the `unsafe_fence_reorder` extension. A start
    /// (post) is filed under each group member. The caller has checked
    /// for an E005 clash: a refused open never gets here.
    fn open(&mut self, win: usize, step: usize, kind: EpochKind<'p>) -> usize {
        let e = self.out.epochs.len();
        let w = &mut self.wins[win];
        if !matches!(kind, EpochKind::Post { .. }) {
            let apart = matches!(kind, EpochKind::LockAll)
                || (matches!(kind, EpochKind::Fence { .. }) && !self.p.unsafe_fence_reorder);
            if !self.p.reorder || w.synced || apart || w.prev_apart {
                w.region += 1;
            }
            w.prev_apart = apart;
            w.synced = false;
        }
        match kind {
            EpochKind::Start { group } => {
                self.out.starts_toward.extend(group.iter().map(|&t| (win, t, e)))
            }
            EpochKind::Post { group } => {
                self.out.posts_toward.extend(group.iter().map(|&o| (win, o, e)))
            }
            _ => {}
        }
        self.out.epochs.push(Epoch { kind, win, open: step, close: None, region: w.region });
        w.open.open(kind.slot(), e);
        self.out.at[step] = At::Opens(e);
        e
    }

    /// E005 for opening an epoch in `new`: the open epochs the open set
    /// says forbid it, a fence phase first, one line per distinct detail.
    /// A fence phase without accesses is dormant and tolerated. `true` when
    /// the open is refused: like the engine's `AlreadyInEpoch`, the call
    /// then does nothing — no request, no close, no open.
    fn clashes(&mut self, win: usize, step: usize, new: Slot) -> bool {
        let (out, seq) = (&self.out, self.out.fences[win].len().saturating_sub(1));
        let dormant = |&f: &usize| out.accesses_of(f).next().is_none();
        let mut found: Vec<_> = (self.wins[win].open.clashes(new, dormant))
            .map(|old| {
                let first = match old {
                    Slot::Fence => 0,
                    _ if old == new => 1,
                    _ => 2,
                };
                (first, clash_detail(new, old, win, seq))
            })
            .collect();
        found.sort_by_key(|&(first, _)| first);
        found.dedup_by(|a, b| a.1 == b.1);
        let refused = !found.is_empty();
        for (_, detail) in found {
            self.diag(Code::E005, Some(step), detail);
        }
        refused
    }

    /// An epoch-opening call at `step` (`ireq` names its nonblocking form,
    /// if it is one).
    fn opening(&mut self, step: usize, win: usize, kind: EpochKind<'p>, ireq: Option<&'static str>) {
        if self.clashes(win, step, kind.slot()) {
            return;
        }
        if let Some(what) = ireq {
            self.request(step, what, None);
        }
        self.open(win, step, kind);
    }

    fn request(&mut self, step: usize, what: &'static str, flush: Option<usize>) {
        self.outstanding.push((self.out.requests.len(), flush));
        self.out.requests.push(Request { step, what, waited: None });
    }

    /// An epoch-closing call at `step` on the epoch open in `slot`; E004
    /// if there is none.
    fn close(&mut self, step: usize, win: usize, slot: Slot, mode: Close) {
        let open = self.wins[win].open.close(slot);
        if let Some(e) = open {
            self.out.epochs[e].close = Some((step, mode));
            self.out.at[step] = At::Closes(e);
        }
        if mode.is_blocking() {
            self.sync_all();
        } else {
            let request = match slot {
                Slot::GatsAccess => "icomplete",
                Slot::Exposure => "iwait",
                Slot::Lock(_) => "iunlock",
                _ => "iunlock_all",
            };
            self.request(step, request, None);
        }
        if open.is_none() {
            let detail = match slot {
                Slot::GatsAccess => "complete without an open start epoch".into(),
                Slot::Exposure => "wait without an open exposure epoch".into(),
                Slot::Lock(Rank(t)) => format!("unlock of rank {t}, which is not locked"),
                _ => "unlock_all without an open lock_all epoch".into(),
            };
            self.diag(Code::E004, Some(step), detail);
        }
    }

    fn access(&mut self, step: usize, t: Touch) {
        let Touch { op, win, target, disp, len, kind, val } = t;
        let name = op.name();
        if target >= self.p.n_ranks {
            let n = self.p.n_ranks;
            let detail = format!("{name} targets rank {target} but the job has {n} ranks");
            return self.diag(Code::E002, Some(step), detail);
        }
        let win_bytes = self.p.windows[win];
        let Some(hi) = disp.checked_add(len).filter(|&hi| hi <= win_bytes) else {
            let detail = format!(
                "{name} touches bytes [{disp}, {}) of rank {target}'s {win_bytes}-byte window \
                 {win}",
                disp.saturating_add(len),
            );
            return self.diag(Code::E010, Some(step), detail);
        };
        let open = &self.wins[win].open;
        let in_group = |&e: &usize| self.out.epochs[e].group().contains(&target);
        let epoch = open.covering(Rank(target), in_group).copied();
        let fence = open.get(Slot::Fence).copied();
        if open.get(Slot::GatsAccess).is_some() && (epoch.is_none() || epoch == fence) {
            // The engine would silently route this op into an open fence
            // phase; it still escapes the start group.
            let fell = epoch.map(|_| {
                let seq = self.out.fences[win].len() - 1;
                format!(" (the operation would fall through to fence phase {seq})")
            });
            let detail = format!(
                "{name} targets rank {target}, which is not in the start group{}",
                fell.unwrap_or_default()
            );
            self.diag(Code::E002, Some(step), detail);
        } else if epoch.is_none() {
            let detail = format!("{name} toward rank {target} with no access epoch open");
            self.diag(Code::E001, Some(step), detail);
        }
        self.out.at[step] = At::Access(self.out.accesses.len());
        let rank = self.rank;
        self.out.accesses.push(Access {
            rank,
            step,
            win,
            target,
            lo: disp,
            hi,
            kind,
            op,
            val,
            epoch,
        });
    }

    fn stmt(&mut self, step: usize, stmt: &'p Stmt) {
        let n_windows = self.p.windows.len();
        if let Some(win) = stmt.win().filter(|&w| w >= n_windows) {
            let detail = format!(
                "statement addresses window {win} but the program declares {n_windows} window(s)"
            );
            return self.diag(Code::E010, Some(step), detail);
        }
        match *stmt {
            Stmt::Fence { win, close } => {
                if self.clashes(win, step, Slot::Fence) {
                    return;
                }
                let closes = self.wins[win].open.get(Slot::Fence).copied();
                if let Some(f) = closes {
                    self.out.epochs[f].close = Some((step, close));
                    if close.is_blocking() {
                        self.sync_all();
                    }
                }
                if !close.is_blocking() {
                    // `ifence` always returns a request: the closing
                    // request, or a dummy opening request (§VII.C).
                    self.request(step, "ifence", None);
                }
                let seq = self.out.fences[win].len();
                self.out.fences[win].push(step);
                let opens = self.open(win, step, EpochKind::Fence { seq });
                self.out.at[step] = At::Fence { closes, opens };
            }
            Stmt::Start { win, ref group } => {
                self.opening(step, win, EpochKind::Start { group }, None)
            }
            Stmt::Post { win, ref group } => {
                self.opening(step, win, EpochKind::Post { group }, None)
            }
            Stmt::Lock { win, target, exclusive, nonblocking } => {
                if target >= self.p.n_ranks {
                    let n = self.p.n_ranks;
                    let detail = format!("lock targets rank {target} but the job has {n} ranks");
                    return self.diag(Code::E002, Some(step), detail);
                }
                let kind = EpochKind::Lock { target, exclusive };
                self.opening(step, win, kind, nonblocking.then_some("ilock"));
            }
            Stmt::LockAll { win, nonblocking } => {
                self.opening(step, win, EpochKind::LockAll, nonblocking.then_some("ilock_all"))
            }
            Stmt::Complete { win, close } => self.close(step, win, Slot::GatsAccess, close),
            Stmt::WaitEpoch { win, close } => self.close(step, win, Slot::Exposure, close),
            Stmt::Unlock { win, target, close } => {
                self.close(step, win, Slot::Lock(Rank(target)), close)
            }
            Stmt::UnlockAll { win, close } => self.close(step, win, Slot::LockAll, close),
            Stmt::Flush { win, target, local_only, close } => {
                let covers = self.wins[win].open.flushed(target.map(Rank));
                // The flush family requires an open passive-target epoch
                // covering the flushed target(s).
                if covers.is_empty() {
                    let what = target.map_or("any target".into(), |t| format!("rank {t}"));
                    let detail = format!(
                        "flush on window {win} without an open passive-target epoch covering \
                         {what}"
                    );
                    self.diag(Code::E004, Some(step), detail);
                }
                let flush = Flush { win, target, local_only, close, covers };
                let me = self.out.flushes.len();
                if close.is_blocking() {
                    self.sync_all();
                    let flushes = &self.out.flushes;
                    self.outstanding
                        .retain(|&(_, f)| !f.is_some_and(|f| flush.discharges(&flushes[f])));
                } else {
                    self.request(
                        step,
                        if local_only { "iflush_local" } else { "iflush" },
                        Some(me),
                    );
                }
                self.out.flushes.push(flush);
                self.out.at[step] = At::Flush(me);
            }
            Stmt::SpinUntil { local, .. } => {
                // The spin re-executes its defining read, so it needs the
                // same covering epoch; it also blocks the host until the
                // value arrives, serializing like a blocking close. A
                // spin on an unbound local is a no-op.
                if let Some(&read) = self.locals.get(&local) {
                    self.access(step, Touch { op: Op::Spin, ..read });
                    self.sync_all();
                }
            }
            Stmt::WaitAll => {
                for (q, _) in self.outstanding.drain(..) {
                    self.out.requests[q].waited = Some(step);
                }
                self.sync_all();
            }
            Stmt::Barrier => self.out.barriers.push(step),
            Stmt::Compute { .. } => {}
            _ => {
                let t = touch(stmt).expect("every remaining statement is a data statement");
                self.access(step, t);
                if let Stmt::ReadValue { local, .. } = *stmt {
                    self.locals.insert(local, t);
                }
            }
        }
    }

    /// End of program: epochs still open (E003) and requests never
    /// consumed (E008).
    fn finish(&mut self) {
        self.out.starts_toward.sort_unstable();
        self.out.posts_toward.sort_unstable();
        for win in 0..self.wins.len() {
            // Slot order: start, post, locks by target, `lock_all`, and a
            // trailing fence phase that issued operations.
            let out = &self.out;
            let open: Vec<usize> = (self.wins[win].open.iter())
                .filter(|&(slot, &e)| slot != Slot::Fence || out.accesses_of(e).next().is_some())
                .map(|(_, &e)| e)
                .collect();
            for e in open {
                let Epoch { kind, open, .. } = self.out.epochs[e];
                let (step, detail) = match kind {
                    EpochKind::Start { .. } => (
                        Some(open),
                        format!("GATS access epoch on window {win} is never completed"),
                    ),
                    EpochKind::Post { .. } => {
                        (Some(open), format!("exposure epoch on window {win} is never waited"))
                    }
                    EpochKind::Lock { target, .. } => (
                        Some(open),
                        format!("lock on rank {target} (window {win}) is never unlocked"),
                    ),
                    EpochKind::LockAll => {
                        (Some(open), format!("lock_all epoch on window {win} is never unlocked"))
                    }
                    EpochKind::Fence { seq } => (
                        None,
                        format!(
                            "trailing fence phase {seq} of window {win} issued operations but is \
                             never closed"
                        ),
                    ),
                };
                self.diag(Code::E003, step, detail);
            }
        }
        for (q, _) in std::mem::take(&mut self.outstanding) {
            let Request { step, what, .. } = self.out.requests[q];
            let detail = format!("request returned by {what} is never tested or waited");
            self.diag(Code::E008, Some(step), detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_value_clean;

    const BLOCKING: Close = Close::Blocking;

    fn put(win: usize, target: usize) -> Stmt {
        Stmt::Put { win, target, disp: 0, len: 8 }
    }

    fn lock(target: usize) -> Stmt {
        Stmt::Lock { win: 0, target, exclusive: true, nonblocking: false }
    }

    /// A fence, a start naming the target, a `lock_all` and a lock on the
    /// target, opened in that order in every combination: each illegal mix
    /// is refused, as the engine refuses it, so the operation routes to the
    /// first of start, `lock_all` and lock that opened, and else to the
    /// fence phase (dormant until then, so it refuses nothing).
    #[test]
    fn an_op_routes_to_the_epoch_the_walk_let_open() {
        for mask in 0..16u32 {
            let [fence, start, lock_all, locked] = [0, 1, 2, 3].map(|bit| mask >> bit & 1 == 1);
            let mut p = IrProgram::new(2, 64);
            let opens = [
                (fence, Stmt::Fence { win: 0, close: BLOCKING }),
                (start, Stmt::Start { win: 0, group: vec![1] }),
                (lock_all, Stmt::LockAll { win: 0, nonblocking: false }),
                (locked, lock(1)),
            ];
            p.ranks[0].extend(opens.into_iter().filter(|(on, _)| *on).map(|(_, stmt)| stmt));
            p.ranks[0].push(put(0, 1));
            let sh = Shape::of(&p);
            let rs = &sh.ranks[0];
            let want = match () {
                _ if start => Some(EpochKind::Start { group: &[1] }),
                _ if lock_all => Some(EpochKind::LockAll),
                _ if locked => Some(EpochKind::Lock { target: 1, exclusive: true }),
                _ if fence => Some(EpochKind::Fence { seq: 0 }),
                _ => None,
            };
            assert_eq!(rs.accesses[0].epoch.map(|e| rs.epochs[e].kind), want, "mask {mask:04b}");
        }
    }

    /// The FIFO rule in both directions, for a peer named in three starts
    /// (posts) with differing groups; a start or post with no counterpart,
    /// or asked about a rank outside its group, matches nothing.
    #[test]
    fn the_kth_start_naming_a_target_meets_its_kth_post_naming_the_origin() {
        let mut p = IrProgram::new(3, 64);
        let gats = |groups: &[&[usize]], post: bool| -> Vec<Stmt> {
            let pair = |g: &&[usize]| match post {
                true => [
                    Stmt::Post { win: 0, group: g.to_vec() },
                    Stmt::WaitEpoch { win: 0, close: BLOCKING },
                ],
                false => [
                    Stmt::Start { win: 0, group: g.to_vec() },
                    Stmt::Complete { win: 0, close: BLOCKING },
                ],
            };
            groups.iter().flat_map(pair).collect()
        };
        p.ranks[0] = gats(&[&[1], &[2], &[2, 1], &[1, 2]], false);
        p.ranks[1] = gats(&[&[0], &[2], &[0, 2], &[0]], true);
        p.ranks[2] = gats(&[&[0], &[0]], true);
        let sh = Shape::of(&p);
        // Each rank's k-th epoch opens at statement 2k.
        let opened = |rank: usize, e: Option<usize>| e.map(|e| sh.ranks[rank].epochs[e].open);
        let post_met = |k: usize, t| opened(t, sh.matching_post(0, k, t));
        assert_eq!([0, 2, 3].map(|k| post_met(k, 1)), [Some(0), Some(4), Some(6)]);
        assert_eq!([1, 2, 3].map(|k| post_met(k, 2)), [Some(0), Some(2), None]);
        assert_eq!(post_met(0, 2), None);
        let start_met = |k: usize, o| opened(o, sh.matching_start(1, k, o));
        assert_eq!([0, 2, 3].map(|k| start_met(k, 0)), [Some(0), Some(4), Some(6)]);
        assert_eq!([start_met(1, 2), start_met(1, 0)], [None, None]);
    }

    /// Malformed programs resolve without panicking, to what a runtime that
    /// rejects the bad call leaves behind, and the walk reports the codes
    /// `analyze` has always reported for them.
    #[test]
    fn malformed_programs_resolve_and_are_reported() {
        let resolve = |stmts: Vec<Stmt>, want: &[Code], check: &dyn Fn(&Resolved)| {
            let mut p = IrProgram::new(2, 64);
            p.ranks[0] = stmts;
            let sh = Shape::of(&p);
            assert_eq!(sh.diags.iter().map(|d| d.code).collect::<Vec<_>>(), want);
            check(&sh.ranks[0]);
        };
        // Closes without an open: nothing to close.
        let orphans = vec![
            Stmt::Complete { win: 0, close: BLOCKING },
            Stmt::WaitEpoch { win: 0, close: BLOCKING },
            Stmt::Unlock { win: 0, target: 1, close: BLOCKING },
            Stmt::UnlockAll { win: 0, close: BLOCKING },
            Stmt::Flush { win: 0, target: None, local_only: false, close: BLOCKING },
        ];
        resolve(orphans, &[Code::E004; 5], &|rs| {
            assert!(rs.epochs.is_empty() && rs.flushes[0].covers.is_empty());
            assert_eq!(rs.at[..4], [At::Nothing; 4]);
        });
        // An epoch never closed has no close step.
        resolve(vec![lock(1), put(0, 1)], &[Code::E003], &|rs| {
            assert_eq!((rs.epochs[0].close, rs.accesses[0].epoch), (None, Some(0)));
        });
        // An operation outside any epoch has no covering epoch.
        resolve(vec![put(0, 1)], &[Code::E001], &|rs| assert_eq!(rs.accesses[0].epoch, None));
        // Window or target out of range: the statement resolves to nothing.
        let fence = Stmt::Fence { win: 0, close: BLOCKING };
        let strays = vec![
            fence,
            put(3, 1),
            put(0, 9),
            lock(9),
            Stmt::LockAll { win: 3, nonblocking: false },
        ];
        resolve(strays, &[Code::E010, Code::E002, Code::E002, Code::E010], &|rs| {
            assert_eq!((rs.epochs.len(), rs.accesses.len()), (1, 0));
            assert_eq!(rs.at[1..], [At::Nothing; 4]);
        });
        // A nested start is refused: the open one covers the put and closes.
        let start = || Stmt::Start { win: 0, group: vec![1] };
        let nested = vec![start(), start(), put(0, 1), Stmt::Complete { win: 0, close: BLOCKING }];
        resolve(nested, &[Code::E005], &|rs| {
            assert_eq!((rs.epochs.len(), rs.epochs[0].close), (1, Some((3, BLOCKING))));
            assert_eq!((rs.at[1], rs.at[3]), (At::Nothing, At::Closes(0)));
            assert_eq!(rs.accesses[0].epoch, Some(0));
        });
    }

    /// On clean programs every access has a covering epoch and every epoch
    /// but a window's trailing fence phase has a close step.
    #[test]
    fn clean_programs_resolve_completely() {
        for p in (0..64).map(generate_value_clean) {
            let sh = Shape::of(&p);
            assert!(sh.diags.is_empty(), "{:?}", sh.diags);
            for rs in &sh.ranks {
                assert!(rs.accesses.iter().all(|a| a.epoch.is_some()));
                for epoch in &rs.epochs {
                    let trailing = matches!(
                        epoch.kind,
                        EpochKind::Fence { seq } if seq + 1 == rs.fences[epoch.win].len()
                    );
                    assert_eq!(epoch.close.is_none(), trailing, "{epoch:?}");
                }
            }
        }
    }
}
