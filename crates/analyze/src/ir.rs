//! The program IR: per-rank statement lists over one or more windows.
//!
//! This is the one executable and analysable form of an RMA program:
//! every epoch-open, epoch-close, flush, data operation and stretch of
//! local compute is its own statement, with the blocking/nonblocking
//! distinction explicit and the target window named. The analyzer, the
//! slack pass and the rewriter read it; [`crate::exec`] runs it against
//! the simulator, one API call per statement — so the program analysed
//! and the program executed are the same value. `mpisim-check` lowers its
//! generated programs into this shape and both analyses and executes the
//! result.
//!
//! Every epoch/op statement carries a `win` index into
//! [`IrProgram::windows`]; single-window programs use window `0`
//! throughout (the [`IrProgram::new`] constructor allocates it).

use mpisim_core::{ReduceOp, WinInfo};

/// Whether an epoch-closing (or epoch-opening) routine is the blocking or
/// the nonblocking (`i`-prefixed) variant. Nonblocking variants return a
/// request that must eventually be consumed via the test/wait family
/// (§VII.C) — dropping it is diagnostic [`crate::Code::E008`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Close {
    /// Blocking variant: the call itself waits for epoch completion.
    Blocking,
    /// Nonblocking variant: returns a request consumed by a later
    /// [`Stmt::WaitAll`].
    Nonblocking,
}

impl Close {
    /// Whether this close synchronizes at the call site.
    pub fn is_blocking(self) -> bool {
        matches!(self, Close::Blocking)
    }
}

/// How a value-producing read ([`Stmt::ReadValue`]) fetches its 8-byte
/// slot from the target window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// Plain `MPI_GET`: a non-atomic read of the slot.
    Get,
    /// `MPI_GET_ACCUMULATE` with operator `op`: atomically applies `op`
    /// to the slot and returns its prior value (`NoOp` reads without
    /// modifying).
    GetAcc(ReduceOp),
    /// `MPI_FETCH_AND_OP` with operator `op`: the single-element form of
    /// `GetAcc`.
    FetchOp(ReduceOp),
}

impl FetchKind {
    /// The operator this read *writes* with, if it modifies the slot at
    /// all (`Get` and the `NoOp` atomics are pure reads).
    pub fn write_op(self) -> Option<ReduceOp> {
        match self {
            FetchKind::Get => None,
            FetchKind::GetAcc(op) | FetchKind::FetchOp(op) => {
                (op != ReduceOp::NoOp).then_some(op)
            }
        }
    }
}

/// One statement of one rank's program. Epoch and data statements name
/// the window they address via a `win` index into
/// [`IrProgram::windows`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `MPI_WIN_FENCE` / `MPI_WIN_IFENCE`: closes the current fence epoch
    /// (if any) and opens the next fence phase on `win`.
    Fence {
        /// Window index.
        win: usize,
        /// Blocking or nonblocking close.
        close: Close,
    },
    /// `MPI_WIN_START`: open a GATS access epoch toward `group` on `win`.
    Start {
        /// Window index.
        win: usize,
        /// Target ranks of the access epoch.
        group: Vec<usize>,
    },
    /// `MPI_WIN_COMPLETE` / `MPI_WIN_ICOMPLETE`.
    Complete {
        /// Window index.
        win: usize,
        /// Blocking or nonblocking close.
        close: Close,
    },
    /// `MPI_WIN_POST`: open an exposure epoch toward `group` on `win`.
    Post {
        /// Window index.
        win: usize,
        /// Origin ranks granted access.
        group: Vec<usize>,
    },
    /// `MPI_WIN_WAIT` / `MPI_WIN_IWAIT`: close the exposure epoch.
    WaitEpoch {
        /// Window index.
        win: usize,
        /// Blocking or nonblocking close.
        close: Close,
    },
    /// `MPI_WIN_LOCK` / `MPI_WIN_ILOCK` on one target.
    Lock {
        /// Window index.
        win: usize,
        /// Locked rank.
        target: usize,
        /// Exclusive (vs shared) lock.
        exclusive: bool,
        /// `true` for `ilock`: the dummy epoch-open request must still be
        /// consumed (§VII.C).
        nonblocking: bool,
    },
    /// `MPI_WIN_UNLOCK` / `MPI_WIN_IUNLOCK`.
    Unlock {
        /// Window index.
        win: usize,
        /// The rank being unlocked.
        target: usize,
        /// Blocking or nonblocking close.
        close: Close,
    },
    /// `MPI_WIN_LOCK_ALL` / `MPI_WIN_ILOCK_ALL` (shared lock on every
    /// rank).
    LockAll {
        /// Window index.
        win: usize,
        /// `true` for `ilock_all`: the dummy epoch-open request must still
        /// be consumed (§VII.C).
        nonblocking: bool,
    },
    /// `MPI_WIN_UNLOCK_ALL` / `MPI_WIN_IUNLOCK_ALL`.
    UnlockAll {
        /// Window index.
        win: usize,
        /// Blocking or nonblocking close.
        close: Close,
    },
    /// `MPI_WIN_FLUSH` family: force completion of operations issued so
    /// far in the surrounding passive-target epoch, without closing it.
    /// The engine implements this by age-stamping the epoch's in-flight
    /// requests and completing the stamped prefix (`FlushState`), so a
    /// blocking flush discharges every earlier nonblocking request of
    /// the covered scope — see the E008 discharge rule.
    Flush {
        /// Window index.
        win: usize,
        /// `Some(rank)` for `flush`/`flush_local`; `None` for the
        /// `_all` variants covering every locked target.
        target: Option<usize>,
        /// `flush_local` family: completes locally only (origin buffers
        /// reusable), not at the target.
        local_only: bool,
        /// Blocking (`flush*`) or nonblocking (`iflush*`) variant.
        close: Close,
    },
    /// `MPI_PUT` of `len` bytes at `disp` in `target`'s window.
    Put {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement.
        disp: usize,
        /// Length in bytes.
        len: usize,
    },
    /// `MPI_PUT` of `len` bytes of the *known* fill byte `val` at `disp`
    /// in `target`'s window ([`Stmt::Put`] leaves the payload unspecified).
    PutVal {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement.
        disp: usize,
        /// Length in bytes.
        len: usize,
        /// The byte every payload position holds.
        val: u8,
    },
    /// `MPI_GET` of `len` bytes at `disp` from `target`'s window.
    Get {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement.
        disp: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Accumulate-family atomic update of `len` bytes at `disp`.
    Acc {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement.
        disp: usize,
        /// Length in bytes.
        len: usize,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Value-producing read: fetch the 8-byte slot at `disp` of
    /// `target`'s window and bind its value to IR local `local`. The
    /// binding is what value-dependent guards ([`Stmt::SpinUntil`])
    /// reference; rebinding a local shadows the earlier definition.
    ReadValue {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement of the 8-byte slot.
        disp: usize,
        /// Get / get_accumulate / fetch_and_op flavour.
        kind: FetchKind,
        /// The IR local the fetched value is bound to.
        local: usize,
    },
    /// Accumulate-family atomic write of the *known* 8-byte constant
    /// `val` (little-endian) at `disp` of `target`'s window — the
    /// flag-publication half of value-dependent synchronization. With
    /// `op == Replace` the slot's post-state is exactly `val`; any other
    /// operator folds `val` into the prior contents. (The existing
    /// [`Stmt::Acc`] models an accumulate whose operand is unknown.)
    AccVal {
        /// Window index.
        win: usize,
        /// Target rank.
        target: usize,
        /// Byte displacement of the 8-byte slot.
        disp: usize,
        /// Reduction operator.
        op: ReduceOp,
        /// The known operand value.
        val: u64,
    },
    /// Value-dependent guard: re-execute `local`'s defining
    /// [`Stmt::ReadValue`] (fetch + flush) until the fetched value
    /// equals `expect` — the flag/counter/lock-word spin at the heart of
    /// value-dependent synchronization. The spin blocks the host like a
    /// blocking close; whether it can ever be satisfied is decided by
    /// the abstract value domain of the whole-job deadlock pass
    /// ([`crate::Code::E018`]). Spinning on a local no dominating
    /// `ReadValue` binds is a no-op.
    SpinUntil {
        /// The IR local whose defining read is re-executed.
        local: usize,
        /// The value the spin waits for.
        expect: u64,
    },
    /// `ns` nanoseconds of local computation between MPI calls: no
    /// effect on any window's epoch state, but it is where a nonblocking
    /// close finds work to overlap.
    Compute {
        /// Virtual nanoseconds of host work.
        ns: u64,
    },
    /// Consume every outstanding nonblocking-epoch request
    /// (`MPI_WAITALL` over the collected requests).
    WaitAll,
    /// Job-wide barrier (no effect on window epoch state).
    Barrier,
}

impl Stmt {
    /// The window this statement addresses, if any (`WaitAll` and
    /// `Barrier` are window-less).
    pub fn win(&self) -> Option<usize> {
        match *self {
            Stmt::Fence { win, .. }
            | Stmt::Start { win, .. }
            | Stmt::Complete { win, .. }
            | Stmt::Post { win, .. }
            | Stmt::WaitEpoch { win, .. }
            | Stmt::Lock { win, .. }
            | Stmt::Unlock { win, .. }
            | Stmt::LockAll { win, .. }
            | Stmt::UnlockAll { win, .. }
            | Stmt::Flush { win, .. }
            | Stmt::Put { win, .. }
            | Stmt::PutVal { win, .. }
            | Stmt::Get { win, .. }
            | Stmt::Acc { win, .. }
            | Stmt::ReadValue { win, .. }
            | Stmt::AccVal { win, .. } => Some(win),
            // A spin addresses its defining read's window indirectly;
            // the walker resolves the binding itself.
            Stmt::SpinUntil { .. } | Stmt::Compute { .. } | Stmt::WaitAll | Stmt::Barrier => None,
        }
    }
}

/// A whole-job program over one or more windows: `ranks[r]` is rank
/// `r`'s statement sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrProgram {
    /// Number of ranks in the job.
    pub n_ranks: usize,
    /// Size in bytes of each window, indexed by the `win` field of
    /// statements (bounds check for [`crate::Code::E010`]).
    pub windows: Vec<usize>,
    /// Window info reorder flags asserted: concurrently progressed epochs
    /// may activate out of order. It sets all four `*_REORDER` flags of
    /// the program's info ([`IrProgram::info`]).
    pub reorder: bool,
    /// The `unsafe_fence_reorder` extension: reorder flags additionally
    /// apply across fence epochs (never across `lock_all`; §VI.B, §X).
    pub unsafe_fence_reorder: bool,
    /// Ranks the job's fault model declares crashed (NIC death at some
    /// point of the run). A surviving rank whose epoch structure blocks on
    /// one of these peers can never terminate without the watchdog
    /// cancelling the epoch — diagnostic [`crate::Code::E012`].
    pub crashed: Vec<usize>,
    /// Ranks in [`IrProgram::crashed`] that the recovery subsystem
    /// restarts from an epoch-aligned checkpoint after a bounded outage.
    /// Their NIC comes back, the reliability sublayer retransmits across
    /// the outage, and the restored window + ω state let every blocked
    /// grant and completion notification eventually arrive — so the
    /// [`crate::Code::E012`] rule is relaxed for dependencies on them.
    /// Listing a rank here without also listing it in `crashed` has no
    /// effect.
    pub recovered: Vec<usize>,
    /// Per-rank statement lists.
    pub ranks: Vec<Vec<Stmt>>,
}

impl IrProgram {
    /// An empty program skeleton for `n_ranks` ranks with a single
    /// window (index 0) of `win_bytes` bytes.
    pub fn new(n_ranks: usize, win_bytes: usize) -> Self {
        IrProgram {
            n_ranks,
            windows: vec![win_bytes],
            reorder: false,
            unsafe_fence_reorder: false,
            crashed: Vec::new(),
            recovered: Vec::new(),
            ranks: vec![Vec::new(); n_ranks],
        }
    }

    /// The info every window of the program has: the static walk asks
    /// §VI.B's rule ([`WinInfo::overlaps`]) under it, and [`crate::exec`]
    /// allocates the windows with it, so the program analysed is the
    /// program run.
    pub fn info(&self) -> WinInfo {
        let flags = if self.reorder { WinInfo::all_reorder() } else { WinInfo::default() };
        WinInfo { unsafe_fence_reorder: self.unsafe_fence_reorder, ..flags }
    }

    /// Allocate an additional window of `bytes` bytes; returns its
    /// index for use in statements.
    pub fn add_window(&mut self, bytes: usize) -> usize {
        self.windows.push(bytes);
        self.windows.len() - 1
    }
}
