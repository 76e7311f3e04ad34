//! Epoch objects — the middleware-side representation of RMA epochs, and
//! the one place their lifecycle is written.
//!
//! Following §VI/§VII of the paper, an epoch has two lifetimes: the
//! *application-level* one (open → closed, `AppState`) and the *internal*
//! one (deferred → active → complete, `Phase`). They advance
//! independently — an epoch created while another is still active stays
//! deferred, and its RMA calls and even its closing are *recorded* and
//! replayed when the progress engine activates it. Both are private to
//! [`EpochObj`]: the engine moves them only through the transition methods
//! (`hold_lazily`, `activate`, `close`, `force_by_flush`, `finish`), each of
//! which `debug_assert`s that its edge is legal (DESIGN.md §4.5).

use std::collections::VecDeque;

use mpisim_net::{Entry, VecMap};

use crate::msg::OpKind;
use crate::types::{EpochId, Group, LockKind, Rank, Req};

/// The five epoch kinds of MPI-3 RMA.
#[derive(Clone, Debug)]
pub enum EpochKind {
    /// Origin-side GATS access epoch (`start`/`complete`).
    GatsAccess {
        /// Targets of the access epoch.
        group: Group,
    },
    /// Target-side GATS exposure epoch (`post`/`wait`).
    GatsExposure {
        /// Origins allowed to access.
        group: Group,
    },
    /// Passive-target epoch toward a single target (`lock`/`unlock`).
    Lock {
        /// The locked target.
        target: Rank,
        /// Exclusive or shared.
        lock: LockKind,
    },
    /// Passive-target epoch toward every rank (`lock_all`/`unlock_all`);
    /// always shared.
    LockAll,
    /// Fence epoch: simultaneously an access and an exposure epoch on every
    /// rank of the window.
    Fence {
        /// Window-global fence sequence number.
        seq: u64,
    },
}

/// Which side of a communication an epoch represents, for the reorder-flag
/// predicate of §VI.B ([`crate::WinInfo::overlaps`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// Origin side (access).
    Access,
    /// Target side (exposure).
    Exposure,
    /// Both at once (fence).
    Both,
}

impl EpochKind {
    /// Whether this is a passive-target epoch (flushes allowed).
    pub fn is_passive(&self) -> bool {
        matches!(self, EpochKind::Lock { .. } | EpochKind::LockAll)
    }

    /// Short name for traces and diagnostics.
    pub fn name(&self) -> &'static str {
        self.slot().name()
    }

    /// The open-set slot an epoch of this kind occupies while the
    /// application has it open.
    pub fn slot(&self) -> Slot {
        match self {
            EpochKind::GatsAccess { .. } => Slot::GatsAccess,
            EpochKind::GatsExposure { .. } => Slot::Exposure,
            EpochKind::Lock { target, .. } => Slot::Lock(*target),
            EpochKind::LockAll => Slot::LockAll,
            EpochKind::Fence { .. } => Slot::Fence,
        }
    }
}

/// Where an application-level open epoch sits in a window side's open set
/// ([`crate::window::WinRank::open`]): one slot per kind, except that
/// single-target lock epochs toward distinct targets coexist.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    /// The GATS access epoch (`start` … `complete`).
    GatsAccess,
    /// The GATS exposure epoch (`post` … `wait`).
    Exposure,
    /// The lock epoch toward one target (`lock` … `unlock`).
    Lock(Rank),
    /// The lock-all epoch (`lock_all` … `unlock_all`).
    LockAll,
    /// The fence epoch (`fence` … next `fence`).
    Fence,
}

impl Slot {
    /// The kind's label in traces, timelines and stall reports.
    pub fn name(self) -> &'static str {
        match self {
            Slot::GatsAccess => "gats-access",
            Slot::Exposure => "gats-exposure",
            Slot::Lock(_) => "lock",
            Slot::LockAll => "lock-all",
            Slot::Fence => "fence",
        }
    }

    /// The routines that open and close an epoch in this slot, as error
    /// messages name them.
    pub fn routines(self) -> (&'static str, &'static str) {
        match self {
            Slot::GatsAccess => ("start", "complete"),
            Slot::Exposure => ("post", "wait"),
            Slot::Lock(_) => ("lock", "unlock"),
            Slot::LockAll => ("lock_all", "unlock_all"),
            Slot::Fence => ("fence", "fence"),
        }
    }

    /// The side of a communication an epoch in this slot represents.
    pub fn side(self) -> Side {
        match self {
            Slot::GatsAccess | Slot::Lock(_) | Slot::LockAll => Side::Access,
            Slot::Exposure => Side::Exposure,
            Slot::Fence => Side::Both,
        }
    }

    /// Whether this is a passive-target slot (flushes allowed; held back by
    /// the lazy baseline).
    pub fn is_passive(self) -> bool {
        matches!(self, Slot::Lock(_) | Slot::LockAll)
    }

    /// Whether an epoch open in `self` forbids opening one in `new`: a
    /// fence phase admits no other epoch, the exposure side is independent
    /// of the access side, and access-side epochs exclude each other
    /// except single-target locks toward distinct targets. A fence call
    /// *closes* an open fence epoch, so that pair never conflicts.
    pub fn excludes(self, new: Slot) -> bool {
        match (self, new) {
            (Slot::Fence, Slot::Fence) => false,
            (Slot::Fence, _) | (_, Slot::Fence) => true,
            (Slot::Exposure, Slot::Exposure) => true,
            (Slot::Exposure, _) | (_, Slot::Exposure) => false,
            (Slot::Lock(a), Slot::Lock(b)) => a == b,
            _ => true,
        }
    }
}

/// The application-level open epochs of one window side, by [`Slot`]: the
/// one legality table of the simulator. The engine keeps an
/// `OpenSet<EpochId>` per window side ([`crate::window::WinRank::open`]);
/// the static walk of `mpisim-analyze` keeps one per (rank, window) over
/// its own epoch indices. Both ask it the same three questions — which
/// open epochs forbid an open, which epoch covers an RMA call, which
/// passive epochs a flush covers — so the two layers cannot disagree.
#[derive(Debug)]
pub struct OpenSet<E>(VecMap<Slot, E>);

impl<E> Default for OpenSet<E> {
    fn default() -> Self {
        OpenSet(VecMap::new())
    }
}

impl<E> OpenSet<E> {
    /// Enter `e` in `slot`, displacing whatever was open there.
    pub fn open(&mut self, slot: Slot, e: E) {
        self.0.insert(slot, e);
    }

    /// Vacate every slot, keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Vacate `slot`, returning the epoch that was open there.
    pub fn close(&mut self, slot: Slot) -> Option<E> {
        self.0.remove(&slot)
    }

    /// The epoch open in `slot`.
    pub fn get(&self, slot: Slot) -> Option<&E> {
        self.0.get(&slot)
    }

    /// The open epochs in slot order: GATS access, exposure, the locks by
    /// target rank, `lock_all`, fence.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &E)> {
        self.0.iter().map(|(slot, e)| (*slot, e))
    }

    /// The slots whose open epochs forbid opening one in `new`
    /// ([`Slot::excludes`]), in slot order. An open fence epoch that
    /// `dormant` calls dormant — a trailing fence phase without operations
    /// — never does: it coexists with the next epochs and the next fence
    /// call closes it.
    pub fn clashes<'a>(
        &'a self,
        new: Slot,
        dormant: impl Fn(&E) -> bool + 'a,
    ) -> impl Iterator<Item = Slot> + 'a {
        self.iter()
            .filter(move |&(slot, e)| slot.excludes(new) && !(slot == Slot::Fence && dormant(e)))
            .map(|(slot, _)| slot)
    }

    /// The open access epoch that covers an RMA call toward `target`, in
    /// the order single-target lock → `lock_all` → GATS access epoch, if
    /// `in_group` says its group names `target` → fence phase. (More than
    /// one of these open at once is erroneous; the order decides anyway.)
    pub fn covering(&self, target: Rank, in_group: impl Fn(&E) -> bool) -> Option<&E> {
        [Slot::Lock(target), Slot::LockAll, Slot::GatsAccess, Slot::Fence]
            .into_iter()
            .filter_map(|slot| Some((slot, self.get(slot)?)))
            .find(|&(slot, e)| slot != Slot::GatsAccess || in_group(e))
            .map(|(_, e)| e)
    }

    /// The open passive-target epochs a flush covers: toward `Some(t)` the
    /// lock on `t`, else the `lock_all`; for the `_all` forms (`None`)
    /// every lock by target rank, then the `lock_all`.
    pub fn flushed(&self, target: Option<Rank>) -> Vec<E>
    where
        E: Copy,
    {
        match target {
            Some(t) => {
                let lock = self.get(Slot::Lock(t)).or(self.get(Slot::LockAll));
                lock.copied().into_iter().collect()
            }
            None => self.iter().filter(|(slot, _)| slot.is_passive()).map(|(_, e)| *e).collect(),
        }
    }
}

/// Internal lifetime of an epoch (§VII.A): driven by the progress engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Created, not yet activated: calls are recorded, nothing is sent.
    Deferred,
    /// Activated: access ids assigned, requests and grants flowing.
    Active,
    /// Finished — completed, cancelled or retired dormant — and about to
    /// leave the window's epoch queue.
    Complete,
}

/// Application-level lifetime of an epoch: driven by the MPI calls. `Held`
/// and `Flushed` are the lazy baseline's sub-states of an open
/// passive-target epoch (MVAPICH's lazy lock acquisition, §VIII.A).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum AppState {
    /// Open: the application may still add ops.
    Open,
    /// Open, and deferred whole by the lazy baseline until the closing
    /// call.
    Held,
    /// Open, and forced out of the lazy hold by a flush: the lock is
    /// requested early and recorded ops may issue before the closing call
    /// (MVAPICH behaviour — flush triggers the lazy lock request).
    Flushed,
    /// The closing routine ran; `req` fires when the epoch finishes.
    Closed {
        /// The epoch-closing request.
        req: Req,
    },
}

/// A recorded RMA operation (not yet on the wire).
#[derive(Debug)]
pub struct OpDesc {
    /// Monotonic age within the window (flush stamping, §VII.C).
    pub age: u64,
    /// Target rank.
    pub target: Rank,
    /// Byte displacement into the target window.
    pub disp: usize,
    /// The operation.
    pub kind: OpKind,
    /// Request handle for request-based variants and fetch results.
    pub req: Option<Req>,
}

/// An issued RMA op that has not fully completed.
#[derive(Debug)]
pub struct LiveOp {
    /// Target rank.
    pub target: Rank,
    /// Awaiting local completion (origin buffer reuse).
    pub needs_local: bool,
    /// Awaiting a get/fetch response.
    pub needs_resp: bool,
    /// Awaiting the remote acknowledgement (tracked in passive epochs for
    /// `unlock`/`flush` remote-completion semantics).
    pub needs_ack: bool,
    /// Request completed on local completion (request-based ops) or with
    /// data on response arrival (get/fetch).
    pub req: Option<Req>,
}

impl LiveOp {
    /// Fully complete?
    pub fn done(&self) -> bool {
        !self.needs_local && !self.needs_resp && !self.needs_ack
    }

    /// Locally complete (buffer reusable, responses in)?
    pub fn locally_done(&self) -> bool {
        !self.needs_local && !self.needs_resp
    }
}

/// Per-target progress of an access-side epoch.
#[derive(Debug, Default)]
pub struct TargetState {
    /// Access id toward this target (`A_i` of §VII.B); 0 = unassigned.
    pub access_id: u64,
    /// Recorded or rendezvous-stalled ops not yet on the wire.
    pub unsent: u64,
    /// Data-plane messages sent to this target (fence accounting).
    pub data_msgs_sent: u64,
    /// Issued ops toward this target still in the epoch's live set.
    pub live: u32,
    /// Whether the target granted this access (`A_i ≤ g_r`).
    pub granted: bool,
    /// Whether the closing announcement toward this target — GATS done,
    /// unlock or `FenceDone` — has been sent.
    pub announced: bool,
    /// Whether the target sits on another node (recorded at activation,
    /// for the lazy baseline's issue gate).
    pub internode: bool,
    /// Whether the target is on the epoch's ready list.
    queued: bool,
}

impl TargetState {
    /// Whether the closing announcement toward this target may go out once
    /// the epoch is closed: access granted, every recorded op on the wire
    /// and — for passive epochs, whose unlock promises remote completion —
    /// no issued op still awaiting its completion or acknowledgement.
    fn announceable(&self, passive: bool) -> bool {
        self.granted && self.unsent == 0 && !self.announced && (self.live == 0 || !passive)
    }
}

/// The epoch object (§VII.A): created inactive, possibly deferred, recording
/// application-level events until activation.
#[derive(Debug)]
pub struct EpochObj {
    /// Identifier within this rank's side of the window.
    pub id: EpochId,
    /// Kind and parameters.
    pub kind: EpochKind,
    /// Internal lifetime.
    phase: Phase,
    /// Application-level lifetime.
    app: AppState,
    /// Recorded RMA calls awaiting activation/grant ("epoch recording",
    /// §VII.A).
    pub pending_ops: VecDeque<OpDesc>,
    /// Access-side per-target progress. Private: the counters below are
    /// kept in step with it at every transition (DESIGN.md §10.1).
    targets: VecMap<Rank, TargetState>,
    /// Exposure-side: origin → expected done id.
    exposure_origins: VecMap<Rank, u64>,
    /// Issued-but-incomplete ops with their ages, oldest first. Ops mostly
    /// issue and complete in age order, so entries join near the back and
    /// leave near the front.
    live_ops: VecDeque<(u64, LiveOp)>,
    /// Closing announcements still owed: access-side targets not yet
    /// `announced`, or exposure-side origins whose done packet is not in.
    /// A closed epoch completes when this is 0 and `live_ops` is empty.
    announce_left: u32,
    /// Same-node targets activated but not yet granted.
    ungranted_intra: u32,
    /// Other-node targets activated but not yet granted.
    ungranted_inter: u32,
    /// Targets that became announceable since the last emit pass (each at
    /// most once, see `TargetState::queued`), so a pass visits only these.
    ready: Vec<Rank>,
    /// The dormant trailing fence that was open when this epoch opened
    /// (set by [`crate::window::WinRank::open_epoch`]). Once a later fence
    /// call closes it, the activation predicate may keep skipping it for
    /// this epoch: program order puts this epoch *before* that close.
    pub(crate) opened_in_fence: Option<EpochId>,
}

impl EpochObj {
    /// Create a fresh (inactive, deferred) epoch object.
    pub fn new(id: EpochId, kind: EpochKind) -> Self {
        let mut e = EpochObj::blank(id, kind);
        e.prefill_targets();
        e
    }

    /// An epoch object with every container empty, before its targets are
    /// seeded. Allocates nothing.
    fn blank(id: EpochId, kind: EpochKind) -> Self {
        EpochObj {
            id,
            kind,
            phase: Phase::Deferred,
            app: AppState::Open,
            pending_ops: VecDeque::new(),
            targets: VecMap::new(),
            exposure_origins: VecMap::new(),
            live_ops: VecDeque::new(),
            announce_left: 0,
            ungranted_intra: 0,
            ungranted_inter: 0,
            ready: Vec::new(),
            opened_in_fence: None,
        }
    }

    /// Reinitialize a recycled epoch object in place (arena reuse, see
    /// [`crate::window::WinRank::open_epoch`]): every field ends up exactly
    /// as [`EpochObj::new`] leaves it — it *is* a new object — except that
    /// every container keeps its allocated capacity, so reopening an epoch
    /// no larger than one this object held allocates nothing.
    pub fn reset(&mut self, id: EpochId, kind: EpochKind) {
        let old = std::mem::replace(self, EpochObj::blank(id, kind));
        self.pending_ops = old.pending_ops;
        self.targets = old.targets;
        self.exposure_origins = old.exposure_origins;
        self.live_ops = old.live_ops;
        self.ready = old.ready;
        self.pending_ops.clear();
        self.targets.clear();
        self.exposure_origins.clear();
        self.live_ops.clear();
        self.ready.clear();
        self.prefill_targets();
    }

    /// Whether the progress engine activated the epoch and it has not
    /// finished yet.
    pub fn is_active(&self) -> bool {
        self.phase == Phase::Active
    }

    /// Whether the epoch finished (it is then on its way out of the queue).
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Complete
    }

    /// Whether the closing routine ran.
    pub fn is_closed(&self) -> bool {
        matches!(self.app, AppState::Closed { .. })
    }

    /// Whether the lazy baseline holds the epoch back from activation.
    pub fn is_held(&self) -> bool {
        self.app == AppState::Held
    }

    /// The lazy baseline's issue gate (§VIII.B): nothing is issued before
    /// the closing routine — unless a flush forced the epoch out.
    pub fn issues_lazily(&self) -> bool {
        self.is_closed() || self.app == AppState::Flushed
    }

    /// Open edge of the lazy baseline: a just-created passive-target epoch
    /// is deferred whole until its closing call or a flush.
    pub(crate) fn hold_lazily(&mut self) {
        debug_assert!(self.kind.is_passive(), "only passive epochs are held");
        debug_assert_eq!((self.phase, self.app), (Phase::Deferred, AppState::Open));
        self.app = AppState::Held;
    }

    /// deferred → active. A held epoch cannot activate.
    pub(crate) fn activate(&mut self) {
        debug_assert_eq!(self.phase, Phase::Deferred, "activated twice: {self:?}");
        debug_assert!(!self.is_held(), "activated while lazily held: {self:?}");
        self.phase = Phase::Active;
    }

    /// open → closed, `req` to fire once the epoch finishes. Legal while
    /// deferred (the close is replayed at activation) and releases a lazy
    /// hold.
    pub(crate) fn close(&mut self, req: Req) {
        debug_assert!(!self.is_closed() && !self.is_complete(), "closed twice: {self:?}");
        self.app = AppState::Closed { req };
    }

    /// A flush over this open passive-target epoch: under the lazy
    /// baseline it forces the epoch out of deferral. Returns whether a
    /// hold was released (the epoch became activatable).
    pub(crate) fn force_by_flush(&mut self) -> bool {
        debug_assert!(!self.is_closed(), "flush over a closed epoch: {self:?}");
        let held = self.is_held();
        if held {
            self.app = AppState::Flushed;
        }
        held
    }

    /// → complete, from any live state: a closed active epoch whose
    /// conditions hold, a closed epoch the watchdog cancels (active or
    /// still deferred), or a dormant fence retired unclosed. Returns the
    /// closing request to fire.
    pub(crate) fn finish(&mut self) -> Option<Req> {
        debug_assert!(!self.is_complete(), "finished twice: {self:?}");
        debug_assert!(
            self.is_closed() || self.is_dormant_fence(),
            "only a dormant fence finishes unclosed: {self:?}"
        );
        self.phase = Phase::Complete;
        match self.app {
            AppState::Closed { req } => Some(req),
            _ => None,
        }
    }

    /// Seed the per-target progress map from the kind's target set. A
    /// fresh target is ungranted, hence not announceable: nothing to queue.
    fn prefill_targets(&mut self) {
        match &self.kind {
            EpochKind::GatsAccess { group } => {
                for r in group.ranks() {
                    self.targets.insert(*r, TargetState::default());
                }
            }
            EpochKind::Lock { target, .. } => {
                self.targets.insert(*target, TargetState::default());
            }
            _ => {}
        }
        self.announce_left = self.targets.len() as u32;
    }

    /// Apply `f` to `target`'s state, created (and counted as owing its
    /// announcement) on first use, then queue the target if that made it
    /// announceable. Every write to a [`TargetState`] goes through here, so
    /// an announceable target is always on the ready list.
    fn update_target<R>(&mut self, target: Rank, f: impl FnOnce(&mut TargetState) -> R) -> R {
        let passive = self.kind.is_passive();
        let ts = match self.targets.entry(target) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.announce_left += 1;
                v.insert(TargetState::default())
            }
        };
        let r = f(ts);
        if !ts.queued && ts.announceable(passive) {
            ts.queued = true;
            self.ready.push(target);
        }
        r
    }

    /// Access-side per-target progress, by rank.
    pub fn targets(&self) -> &VecMap<Rank, TargetState> {
        &self.targets
    }

    /// Issued-but-incomplete ops with their ages, oldest first.
    pub fn live_ops(&self) -> &VecDeque<(u64, LiveOp)> {
        &self.live_ops
    }

    fn live_pos(&self, age: u64) -> Result<usize, usize> {
        self.live_ops.binary_search_by_key(&age, |(a, _)| *a)
    }

    /// Exposure-side: origin → expected done id.
    pub fn exposure_origins(&self) -> &VecMap<Rank, u64> {
        &self.exposure_origins
    }

    /// Closing announcements still owed (see the field).
    pub fn announce_left(&self) -> u32 {
        self.announce_left
    }

    /// An RMA call toward `target` was recorded.
    pub(crate) fn record_op(&mut self, target: Rank) {
        self.update_target(target, |ts| ts.unsent += 1);
    }

    /// Activation: `target` gets its access id and its grant status so far.
    pub(crate) fn assign(&mut self, target: Rank, access_id: u64, granted: bool, internode: bool) {
        self.update_target(target, |ts| {
            ts.access_id = access_id;
            ts.granted = granted;
            ts.internode = internode;
        });
        if !granted {
            *self.ungranted(internode) += 1;
        }
    }

    /// `target`'s grant arrived.
    pub(crate) fn grant(&mut self, target: Rank) {
        let internode = self.update_target(target, |ts| {
            debug_assert!(!ts.granted, "granted twice");
            ts.granted = true;
            ts.internode
        });
        *self.ungranted(internode) -= 1;
    }

    fn ungranted(&mut self, internode: bool) -> &mut u32 {
        if internode {
            &mut self.ungranted_inter
        } else {
            &mut self.ungranted_intra
        }
    }

    /// The lazy baseline's issue gate: every target granted, or — with
    /// `internode_only` — every target on another node.
    pub(crate) fn all_granted(&self, internode_only: bool) -> bool {
        self.ungranted_inter == 0 && (internode_only || self.ungranted_intra == 0)
    }

    /// One recorded op toward `target` went on the wire.
    pub(crate) fn op_sent(&mut self, target: Rank) {
        self.update_target(target, |ts| {
            ts.unsent -= 1;
            ts.data_msgs_sent += 1;
        });
    }

    /// Track an issued op until it fully completes.
    pub(crate) fn add_live(&mut self, age: u64, op: LiveOp) {
        self.update_target(op.target, |ts| ts.live += 1);
        let at = self.live_ops.partition_point(|(a, _)| *a < age);
        debug_assert!(self.live_ops.get(at).is_none_or(|(a, _)| *a != age), "op issued twice");
        self.live_ops.insert(at, (age, op));
    }

    /// Mutable access to one live op's completion flags.
    pub(crate) fn live_op_mut(&mut self, age: u64) -> Option<&mut LiveOp> {
        let at = self.live_pos(age).ok()?;
        Some(&mut self.live_ops[at].1)
    }

    /// A live op fully completed.
    pub(crate) fn finish_live(&mut self, age: u64) {
        if let Some((_, op)) = self.live_pos(age).ok().and_then(|at| self.live_ops.remove(at)) {
            self.update_target(op.target, |ts| ts.live -= 1);
        }
    }

    /// Watchdog cancellation: forget every live and recorded op, returning
    /// the requests they held. The epoch is dead afterwards — the per-target
    /// counts are not brought along.
    pub(crate) fn abandon_ops(&mut self) -> Vec<Req> {
        let mut reqs: Vec<Req> = self.live_ops.iter().filter_map(|(_, o)| o.req).collect();
        reqs.extend(self.pending_ops.drain(..).filter_map(|op| op.req));
        self.live_ops.clear();
        reqs
    }

    /// Whether an emit pass has anything to visit.
    pub(crate) fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// The emit pass of a *closed* epoch: visit the ready list in rank
    /// order, mark every target that is still announceable as announced
    /// and append `(target, word)` to `out` — `word` is what the packet
    /// carries, the fence's data-message count or the access id. Returns
    /// the number of targets visited.
    pub(crate) fn take_announceable(&mut self, out: &mut Vec<(Rank, u64)>) -> u64 {
        let passive = self.kind.is_passive();
        let fence = matches!(self.kind, EpochKind::Fence { .. });
        self.ready.sort_unstable();
        let visits = self.ready.len() as u64;
        for t in self.ready.drain(..) {
            let ts = self.targets.get_mut(&t).expect("queued target has state");
            ts.queued = false;
            if ts.announceable(passive) {
                ts.announced = true;
                self.announce_left -= 1;
                out.push((t, if fence { ts.data_msgs_sent } else { ts.access_id }));
            }
        }
        visits
    }

    /// Activation of an exposure epoch: `origin` owes done packet `exp_id`
    /// unless it was `received` already.
    pub(crate) fn expect_done(&mut self, origin: Rank, exp_id: u64, received: bool) {
        self.exposure_origins.insert(origin, exp_id);
        if !received {
            self.announce_left += 1;
        }
    }

    /// An origin's awaited done packet arrived.
    pub(crate) fn done_arrived(&mut self) {
        self.announce_left -= 1;
    }

    /// Debug-build check that every counter of an activated epoch equals
    /// what the rescan it replaced computed, and that no announceable
    /// target is missing from the ready list. (The exposure side is checked
    /// against ω by the engine.)
    pub(crate) fn counters_match_scan(&self) -> bool {
        let passive = self.kind.is_passive();
        let count = |f: &dyn Fn(&TargetState) -> bool| {
            self.targets.values().filter(|t| f(t)).count() as u32
        };
        // The old unlock pass: a target is blocked by any op not yet done.
        let mut blocking: VecMap<Rank, u32> = VecMap::new();
        for (_, op) in self.live_ops.iter().filter(|(_, o)| !o.done()) {
            *blocking.entry(op.target).or_default() += 1;
        }
        (self.kind.slot() == Slot::Exposure || self.announce_left == count(&|t| !t.announced))
            && self.ungranted_inter == count(&|t| !t.granted && t.internode)
            && self.ungranted_intra == count(&|t| !t.granted && !t.internode)
            && self.ready.len() as u32 == count(&|t| t.queued)
            && self
                .targets
                .iter()
                .all(|(r, t)| t.live == blocking.get(r).copied().unwrap_or(0))
            && self.targets.values().all(|t| t.queued || !t.announceable(passive))
    }

    /// Whether this epoch may issue RMA toward `target` (open access epochs
    /// only; LockAll and Fence cover every rank).
    pub fn covers_target(&self, target: Rank) -> bool {
        match &self.kind {
            EpochKind::GatsAccess { .. } | EpochKind::Lock { .. } => {
                self.targets.contains_key(&target)
            }
            EpochKind::LockAll | EpochKind::Fence { .. } => true,
            EpochKind::GatsExposure { .. } => false,
        }
    }

    /// Whether this is a dormant trailing fence: open, never closed, and
    /// without any recorded or issued operation.
    pub fn is_dormant_fence(&self) -> bool {
        !self.is_closed() && self.is_empty_fence()
    }

    /// Whether this is a fence epoch without any recorded or issued
    /// operation.
    pub fn is_empty_fence(&self) -> bool {
        matches!(self.kind, EpochKind::Fence { .. })
            && self.pending_ops.is_empty()
            && self.live_ops.is_empty()
            && self.targets.values().all(|t| t.data_msgs_sent == 0 && t.unsent == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_kinds() {
        assert!(EpochKind::Lock {
            target: Rank(0),
            lock: LockKind::Shared
        }
        .is_passive());
        assert!(EpochKind::LockAll.is_passive());
        assert!(!EpochKind::GatsAccess {
            group: Group::new([1]),
        }
        .is_passive());
    }

    #[test]
    fn new_epoch_prefills_targets() {
        let e = EpochObj::new(
            EpochId(1),
            EpochKind::GatsAccess {
                group: Group::new([1, 3]),
            },
        );
        assert_eq!(e.targets.len(), 2);
        assert!(e.covers_target(Rank(3)));
        assert!(!e.covers_target(Rank(2)));
        let l = EpochObj::new(
            EpochId(2),
            EpochKind::Lock {
                target: Rank(5),
                lock: LockKind::Exclusive,
            },
        );
        assert!(l.covers_target(Rank(5)));
        assert!(!l.covers_target(Rank(4)));
        let la = EpochObj::new(EpochId(3), EpochKind::LockAll);
        assert!(la.covers_target(Rank(17)));
    }

    #[test]
    fn live_op_states() {
        let mut e = EpochObj::new(EpochId(1), EpochKind::LockAll);
        e.live_ops.push_back((
            1,
            LiveOp {
                target: Rank(0),
                needs_local: true,
                needs_resp: false,
                needs_ack: true,
                req: None,
            },
        ));
        let op = e.live_op_mut(1).unwrap();
        assert!(!op.locally_done() && !op.done());
        op.needs_local = false;
        assert!(op.locally_done() && !op.done());
        op.needs_ack = false;
        assert!(op.done());
    }

    #[test]
    fn ready_list_reports_a_target_when_it_becomes_announceable() {
        let mut e = EpochObj::new(EpochId(1), EpochKind::LockAll);
        e.activate();
        for t in 0..3 {
            e.assign(Rank(t), 1, false, t == 2);
        }
        assert_eq!(e.announce_left(), 3);
        e.grant(Rank(2));
        assert!(e.all_granted(true) && !e.all_granted(false));
        e.grant(Rank(0));
        e.grant(Rank(1));
        assert!(e.all_granted(false));
        // Rank 1 gets an op that is on the wire but not acknowledged.
        e.record_op(Rank(1));
        e.op_sent(Rank(1));
        let op = LiveOp {
            target: Rank(1),
            needs_local: false,
            needs_resp: false,
            needs_ack: true,
            req: None,
        };
        e.add_live(7, op);
        assert!(e.counters_match_scan());
        // The emit pass visits the three queued targets in rank order and
        // announces the two idle ones; rank 1 is blocked and dropped.
        let mut out = Vec::new();
        assert_eq!(e.take_announceable(&mut out), 3);
        assert_eq!(out, [(Rank(0), 1), (Rank(2), 1)]);
        assert_eq!(e.announce_left(), 1);
        assert!(!e.has_ready());
        // Its last live op completing is what queues it again.
        e.finish_live(7);
        out.clear();
        assert_eq!(e.take_announceable(&mut out), 1);
        assert_eq!(out, [(Rank(1), 1)]);
        assert_eq!(e.announce_left(), 0);
        assert!(e.live_ops().is_empty() && e.counters_match_scan());
    }

    /// Every legal path through the two lifetimes, and arena reuse after
    /// each: `reset` must leave a recycled object exactly as `new` would —
    /// a lifecycle field it forgot would show up in the `Debug` output.
    #[test]
    fn every_legal_lifecycle_edge_succeeds_and_reset_restores_new() {
        let req = Req(9);
        let lock = EpochKind::Lock { target: Rank(1), lock: LockKind::Shared };
        let fence = EpochKind::Fence { seq: 3 };
        type Path = fn(&mut EpochObj, Req) -> Option<Req>;
        let paths: [(&str, &EpochKind, Path); 7] = [
            ("open, activate, close, complete", &lock, |e, req| {
                e.activate();
                assert!(e.is_active() && !e.is_closed());
                e.close(req);
                assert!(e.is_active() && e.is_closed());
                e.finish()
            }),
            ("closed while deferred, then activated", &lock, |e, req| {
                e.close(req);
                assert!(!e.is_active() && e.is_closed());
                e.activate();
                assert!(e.is_active() && e.is_closed());
                e.finish()
            }),
            ("lazy hold released by the close", &EpochKind::LockAll, |e, req| {
                e.hold_lazily();
                assert!(e.is_held() && !e.issues_lazily());
                e.close(req);
                assert!(!e.is_held() && e.issues_lazily());
                e.activate();
                e.finish()
            }),
            ("lazy hold forced by a flush", &lock, |e, req| {
                e.hold_lazily();
                assert!(e.force_by_flush(), "the first flush releases the hold");
                assert!(!e.is_held() && e.issues_lazily() && !e.is_closed());
                assert!(!e.force_by_flush(), "a second flush has nothing to release");
                e.activate();
                assert!(e.issues_lazily(), "forced issue survives activation");
                e.close(req);
                e.finish()
            }),
            ("closed, active, cancelled with ops in flight", &lock, |e, req| {
                e.activate();
                e.assign(Rank(1), 4, false, true);
                e.grant(Rank(1));
                e.record_op(Rank(1));
                e.op_sent(Rank(1));
                let op = LiveOp {
                    target: Rank(1),
                    needs_local: false,
                    needs_resp: false,
                    needs_ack: true,
                    req: Some(Req(2)),
                };
                e.add_live(1, op);
                e.opened_in_fence = Some(EpochId(1));
                e.close(req);
                assert_eq!(e.abandon_ops(), [Req(2)]);
                e.finish()
            }),
            ("closed, never activated, cancelled", &lock, |e, req| {
                e.close(req);
                e.finish()
            }),
            ("dormant fence retired unclosed", &fence, |e, _| {
                e.activate();
                e.assign(Rank(0), 0, true, false);
                assert!(e.is_dormant_fence());
                e.finish()
            }),
        ];
        let mut e = EpochObj::new(EpochId(1), EpochKind::LockAll);
        for (id, (name, kind, path)) in paths.into_iter().enumerate() {
            let id = EpochId(id as u64 + 2);
            e.reset(id, kind.clone());
            let new = EpochObj::new(id, kind.clone());
            assert_eq!(format!("{e:?}"), format!("{new:?}"), "reset before: {name}");
            assert!(!e.is_active() && !e.is_closed() && !e.is_complete() && !e.is_held());
            let fired = path(&mut e, req);
            assert!(e.is_complete() && !e.is_active(), "{name}");
            assert_eq!(fired, e.is_closed().then_some(req), "{name}");
        }
        e.reset(EpochId(1), EpochKind::LockAll);
        let new = EpochObj::new(EpochId(1), EpochKind::LockAll);
        assert_eq!(format!("{e:?}"), format!("{new:?}"), "reset after the last path");
    }
}
