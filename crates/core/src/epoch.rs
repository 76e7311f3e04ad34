//! Epoch objects — the middleware-side representation of RMA epochs.
//!
//! Following §VI/§VII of the paper, an epoch distinguishes its
//! *application-level lifetime* (open → closed) from its *internal
//! lifetime* (activated → completed). An epoch created while another is
//! still active stays **deferred**: its RMA calls and even its closing are
//! *recorded* and replayed when the progress engine activates it.

use std::collections::{BTreeMap, HashMap, VecDeque};

use mpisim_net::Payload;
use mpisim_sim::SimTime;

use crate::datatype::{Datatype, ReduceOp};
use crate::msg::FetchKind;
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
/// predicate of §VI.B.
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
    /// The epoch's side.
    pub fn side(&self) -> Side {
        match self {
            EpochKind::GatsAccess { .. } | EpochKind::Lock { .. } | EpochKind::LockAll => {
                Side::Access
            }
            EpochKind::GatsExposure { .. } => Side::Exposure,
            EpochKind::Fence { .. } => Side::Both,
        }
    }

    /// Whether the reorder flags are forbidden across this epoch (§VI.B:
    /// flags never apply when either adjacent epoch is `lock_all` or
    /// fence-based).
    pub fn excluded_from_reorder(&self) -> bool {
        matches!(self, EpochKind::LockAll | EpochKind::Fence { .. })
    }

    /// Whether this is a passive-target epoch (flushes allowed).
    pub fn is_passive(&self) -> bool {
        matches!(self, EpochKind::Lock { .. } | EpochKind::LockAll)
    }

    /// Short name for traces and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            EpochKind::GatsAccess { .. } => "gats-access",
            EpochKind::GatsExposure { .. } => "gats-exposure",
            EpochKind::Lock { .. } => "lock",
            EpochKind::LockAll => "lock-all",
            EpochKind::Fence { .. } => "fence",
        }
    }
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

/// The payload-level variants of an RMA operation.
#[derive(Debug)]
pub enum OpKind {
    /// Put `payload` at the target.
    Put {
        /// Data to write (packed).
        payload: Payload,
        /// Target-side layout.
        layout: crate::msg::Layout,
    },
    /// Get `len` packed bytes from the target.
    Get {
        /// Packed bytes to read.
        len: usize,
        /// Target-side layout to gather from.
        layout: crate::msg::Layout,
    },
    /// Accumulate `payload` into the target.
    Acc {
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator.
        op: ReduceOp,
        /// Operand data.
        payload: Payload,
    },
    /// Fetch-style atomic returning previous contents.
    Fetch {
        /// Which fetch flavour.
        fetch: FetchKind,
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator.
        op: ReduceOp,
        /// Operand data.
        operand: Payload,
    },
}

impl OpKind {
    /// Whether the op sends a payload whose local completion must be
    /// tracked before the origin buffer is reusable.
    pub fn sends_payload(&self) -> bool {
        !matches!(self, OpKind::Get { .. })
    }

    /// Whether the op awaits a response message.
    pub fn expects_response(&self) -> bool {
        matches!(self, OpKind::Get { .. } | OpKind::Fetch { .. })
    }
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
    /// Whether the target granted this access (`A_i ≤ g_r`).
    pub granted: bool,
    /// Recorded or rendezvous-stalled ops not yet on the wire.
    pub unsent: u64,
    /// Data-plane messages sent to this target (fence accounting).
    pub data_msgs_sent: u64,
    /// Whether the per-target done packet has been sent.
    pub done_sent: bool,
    /// Whether the unlock packet has been sent (passive epochs).
    pub unlock_sent: bool,
}

/// The epoch object (§VII.A): created inactive, possibly deferred, recording
/// application-level events until activation.
#[derive(Debug)]
pub struct EpochObj {
    /// Identifier within this rank's side of the window.
    pub id: EpochId,
    /// Kind and parameters.
    pub kind: EpochKind,
    /// Internal lifetime started (progress engine activated it).
    pub activated: bool,
    /// Application-level lifetime ended (closing routine invoked).
    pub closed: bool,
    /// Internal lifetime ended (all completion conditions met).
    pub complete: bool,
    /// The epoch-closing request, if the epoch was closed.
    pub close_req: Option<Req>,
    /// Virtual time at which the closing routine ran (stall-watchdog
    /// deadline anchor; `None` while the application may still add ops).
    pub closed_at: Option<SimTime>,
    /// Recorded RMA calls awaiting activation/grant ("epoch recording",
    /// §VII.A).
    pub pending_ops: VecDeque<OpDesc>,
    /// Access-side per-target progress.
    pub targets: BTreeMap<Rank, TargetState>,
    /// Exposure-side: origin → expected done id.
    pub exposure_origins: BTreeMap<Rank, u64>,
    /// Issued-but-incomplete ops, by age.
    pub live_ops: HashMap<u64, LiveOp>,
    /// Baseline (lazy) behaviour: hold activation until the closing call.
    pub lazy_hold: bool,
    /// A flush forced this lazy epoch out of deferral mid-epoch: the lock
    /// was requested early and recorded ops may issue before the closing
    /// call (MVAPICH behaviour — flush triggers the lazy lock request).
    pub flush_forced: bool,
    /// The dormant trailing fence that was open when this epoch opened
    /// (set by [`crate::window::WinRank::push_epoch`]). Once a later fence
    /// call closes it, the activation predicate may keep skipping it for
    /// this epoch: program order puts this epoch *before* that close.
    pub(crate) opened_in_fence: Option<EpochId>,
}

impl EpochObj {
    /// Create a fresh (inactive, deferred) epoch object.
    pub fn new(id: EpochId, kind: EpochKind) -> Self {
        let mut e = EpochObj {
            id,
            kind,
            activated: false,
            closed: false,
            complete: false,
            close_req: None,
            closed_at: None,
            pending_ops: VecDeque::new(),
            targets: BTreeMap::new(),
            exposure_origins: BTreeMap::new(),
            live_ops: HashMap::new(),
            lazy_hold: false,
            flush_forced: false,
            opened_in_fence: None,
        };
        e.prefill_targets();
        e
    }

    /// Reinitialize a recycled epoch object in place (arena reuse, see
    /// [`crate::window::WinRank::new_epoch`]): every field ends up exactly
    /// as [`EpochObj::new`] would leave it, but `pending_ops` and
    /// `live_ops` keep their allocated capacity.
    pub fn reset(&mut self, id: EpochId, kind: EpochKind) {
        self.id = id;
        self.kind = kind;
        self.activated = false;
        self.closed = false;
        self.complete = false;
        self.close_req = None;
        self.closed_at = None;
        self.pending_ops.clear();
        self.targets.clear();
        self.exposure_origins.clear();
        self.live_ops.clear();
        self.lazy_hold = false;
        self.flush_forced = false;
        self.opened_in_fence = None;
        self.prefill_targets();
    }

    /// Seed the per-target progress map from the kind's target set.
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

    /// Count of live ops that still block local completion.
    pub fn live_local(&self) -> usize {
        self.live_ops.values().filter(|o| !o.locally_done()).count()
    }

    /// Whether every live op is fully done (including acks).
    pub fn live_all_done(&self) -> bool {
        self.live_ops.values().all(|o| o.done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sides_and_exclusions() {
        let acc = EpochKind::GatsAccess {
            group: Group::new([1]),
        };
        assert_eq!(acc.side(), Side::Access);
        assert!(!acc.excluded_from_reorder());
        let exp = EpochKind::GatsExposure {
            group: Group::new([0]),
        };
        assert_eq!(exp.side(), Side::Exposure);
        assert!(EpochKind::LockAll.excluded_from_reorder());
        assert!(EpochKind::Fence { seq: 1 }.excluded_from_reorder());
        assert_eq!(EpochKind::Fence { seq: 1 }.side(), Side::Both);
        assert!(EpochKind::Lock {
            target: Rank(0),
            lock: LockKind::Shared
        }
        .is_passive());
        assert!(EpochKind::LockAll.is_passive());
        assert!(!acc.is_passive());
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
        e.live_ops.insert(
            1,
            LiveOp {
                target: Rank(0),
                needs_local: true,
                needs_resp: false,
                needs_ack: true,
                req: None,
            },
        );
        assert_eq!(e.live_local(), 1);
        assert!(!e.live_all_done());
        e.live_ops.get_mut(&1).unwrap().needs_local = false;
        assert_eq!(e.live_local(), 0);
        assert!(!e.live_all_done());
        e.live_ops.get_mut(&1).unwrap().needs_ack = false;
        assert!(e.live_all_done());
    }

    #[test]
    fn op_kind_flags() {
        let put = OpKind::Put {
            payload: Payload::Synthetic(8),
            layout: crate::msg::Layout::Contig,
        };
        assert!(put.sends_payload() && !put.expects_response());
        let get = OpKind::Get { len: 8, layout: crate::msg::Layout::Contig };
        assert!(!get.sends_payload() && get.expects_response());
        let fetch = OpKind::Fetch {
            fetch: FetchKind::FetchAndOp,
            dt: Datatype::U64,
            op: ReduceOp::Sum,
            operand: Payload::Synthetic(8),
        };
        assert!(fetch.sends_payload() && fetch.expects_response());
    }
}
