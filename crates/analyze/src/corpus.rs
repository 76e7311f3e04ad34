//! Generated-erroneous program corpus.
//!
//! Seeded families of protocol-violating programs — the analyzer must
//! flag **every** member (0 missed violations is a CI gate):
//!
//! * [`NegFamily::DroppedClose`] — a well-formed prefix whose final epoch
//!   is opened but never closed (missing complete / wait / unlock /
//!   unlock_all / closing fence) → `E003`.
//! * [`NegFamily::OutOfEpochOp`] — a well-formed program with one data
//!   operation inserted where no access epoch is open → `E001`.
//! * [`NegFamily::ConflictingPuts`] — two origins touch overlapping bytes
//!   of one target window inside the same fence phase → `E006` (or `E007`
//!   when one side is a get).
//! * [`NegFamily::CrashedDependency`] — a well-formed program whose epoch
//!   structure blocks on a peer the fault model crashes (a GATS start
//!   toward a rank whose exposure may never open) → `E012`.
//!
//! Six **deadlock families** ([`NegFamily::DEADLOCKS`]) whose members
//! are *certain* deadlocks under every schedule — each is both flagged
//! statically (E013–E018) and executed by `mpisim-check --deadlocks`,
//! where the PR-4 stall watchdog must cancel the stuck epoch
//! (`Degradation::EpochStall`), cross-validating the static pass against
//! the dynamic layer:
//!
//! * [`NegFamily::PscwCycle`] — two ranks each `start → complete` toward
//!   the other *before* posting their own exposure → E013.
//! * [`NegFamily::LockOrderInversion`] — ABBA exclusive-lock acquisition
//!   across two ranks, with a flush+barrier proving both first holds are
//!   established before either second acquisition → E014.
//! * [`NegFamily::MissingExposure`] — a GATS access epoch whose target
//!   never posts → E015.
//! * [`NegFamily::FenceMismatch`] — one rank fences a window one more
//!   time than the other participants → E016.
//! * [`NegFamily::OrphanWait`] — a `waitall` consuming an `icomplete`
//!   request whose grant can never arrive → E017.
//! * [`NegFamily::ValueDeadlock`] — a rank spins on a fetched flag word
//!   while every peer publishes a *different* constant, so the expected
//!   value is outside the abstract value domain → E018. At runtime the
//!   peers' closing fence blocks on the spinner past the watchdog
//!   budget (the spin itself is execution-bounded so the run
//!   terminates); [`generate_value_clean`] is the satisfiable twin the
//!   analyzer must pass and the executor must run stall-free.
//!
//! [`catalog_cases`] additionally provides one minimal deterministic
//! positive program per diagnostic code; [`sweep_corpus`] sweeps both, and
//! is `mpisim-check`'s `static-corpus` row.

use std::fmt::Display;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mpisim_core::ReduceOp;

use crate::diag::{has_code, Code, Diagnostic};
use crate::ir::{Close, FetchKind, IrProgram, Stmt};

/// Window size used by every corpus program.
pub const NEG_WIN_BYTES: usize = 64;

/// A generated-erroneous program family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NegFamily {
    /// Final epoch's close is dropped → `E003`.
    DroppedClose,
    /// One data operation outside any epoch → `E001`.
    OutOfEpochOp,
    /// Cross-origin overlapping conflicting accesses in one fence phase →
    /// `E006`/`E007`.
    ConflictingPuts,
    /// Epoch structure blocks on a crashed peer → `E012`.
    CrashedDependency,
    /// Mutual start/complete-before-post between two ranks → `E013`.
    PscwCycle,
    /// ABBA exclusive-lock acquisition across two ranks → `E014`.
    LockOrderInversion,
    /// GATS access epoch whose target never posts → `E015`.
    MissingExposure,
    /// One rank makes an extra collective fence call → `E016`.
    FenceMismatch,
    /// `waitall` on an `icomplete` that can never be granted → `E017`.
    OrphanWait,
    /// Spin on a fetched flag value no reachable write supplies →
    /// `E018`.
    ValueDeadlock,
}

impl NegFamily {
    /// All families, in sweep order.
    pub const ALL: [NegFamily; 10] = [
        NegFamily::DroppedClose,
        NegFamily::OutOfEpochOp,
        NegFamily::ConflictingPuts,
        NegFamily::CrashedDependency,
        NegFamily::PscwCycle,
        NegFamily::LockOrderInversion,
        NegFamily::MissingExposure,
        NegFamily::FenceMismatch,
        NegFamily::OrphanWait,
        NegFamily::ValueDeadlock,
    ];

    /// The certain-deadlock families: every member stalls under every
    /// execution schedule, so `mpisim-check` cross-validates them against
    /// the stall watchdog.
    pub const DEADLOCKS: [NegFamily; 6] = [
        NegFamily::PscwCycle,
        NegFamily::LockOrderInversion,
        NegFamily::MissingExposure,
        NegFamily::FenceMismatch,
        NegFamily::OrphanWait,
        NegFamily::ValueDeadlock,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NegFamily::DroppedClose => "dropped-close",
            NegFamily::OutOfEpochOp => "out-of-epoch-op",
            NegFamily::ConflictingPuts => "conflicting-puts",
            NegFamily::CrashedDependency => "crashed-dependency",
            NegFamily::PscwCycle => "pscw-cycle",
            NegFamily::LockOrderInversion => "lock-inversion",
            NegFamily::MissingExposure => "missing-exposure",
            NegFamily::FenceMismatch => "fence-mismatch",
            NegFamily::OrphanWait => "orphan-wait",
            NegFamily::ValueDeadlock => "value-deadlock",
        }
    }
}

/// One generated erroneous program plus the diagnostic the analyzer is
/// required to produce for it.
#[derive(Clone, Debug)]
pub struct NegCase {
    /// The erroneous program.
    pub program: IrProgram,
    /// The code that must appear in `analyze(&program)`.
    pub expect: Code,
}

fn ops_for(rng: &mut SmallRng, win: usize, target: usize) -> Vec<Stmt> {
    let n = rng.gen_range(1..3usize);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..8usize);
            let disp = rng.gen_range(0..NEG_WIN_BYTES - len);
            match rng.gen_range(0..3u32) {
                0 => Stmt::Put { win, target, disp, len },
                1 => Stmt::Get { win, target, disp, len },
                _ => Stmt::Acc { win, target, disp: (disp / 8) * 8, len: 8, op: ReduceOp::Sum },
            }
        })
        .collect()
}

/// Append one well-formed epoch (with its close) on window 0 to rank 0's
/// program and matching cooperation to the other ranks. `close` controls
/// whether the epoch-closing statement is emitted.
fn push_epoch(rng: &mut SmallRng, p: &mut IrProgram, close: bool, allow_fence: bool) {
    let n = p.n_ranks;
    let win = 0;
    let target = rng.gen_range(1..n);
    let kind = if allow_fence { rng.gen_range(0..4u32) } else { rng.gen_range(1..4u32) };
    match kind {
        0 => {
            // Fence phase (collective).
            for r in 0..n {
                p.ranks[r].push(Stmt::Fence { win, close: Close::Blocking });
            }
            p.ranks[0].extend(ops_for(rng, win, target));
            if close {
                for r in 0..n {
                    p.ranks[r].push(Stmt::Fence { win, close: Close::Blocking });
                }
            } else {
                // Rank 0 drops the closing fence; issuing more ops keeps
                // its trailing phase non-dormant so E003 is guaranteed.
                // (The other ranks still fence, so E011 fires too — the
                // sweep only requires the expected code to be present.)
                for r in 1..n {
                    p.ranks[r].push(Stmt::Fence { win, close: Close::Blocking });
                }
                p.ranks[0].extend(ops_for(rng, win, target));
            }
        }
        1 => {
            let group: Vec<usize> = (1..n).collect();
            p.ranks[0].push(Stmt::Start { win, group });
            p.ranks[0].extend(ops_for(rng, win, target));
            if close {
                p.ranks[0].push(Stmt::Complete { win, close: Close::Blocking });
            }
            for r in 1..n {
                p.ranks[r].push(Stmt::Post { win, group: vec![0] });
                p.ranks[r].push(Stmt::WaitEpoch { win, close: Close::Blocking });
            }
        }
        2 => {
            p.ranks[0].push(Stmt::Lock { win, target, exclusive: true, nonblocking: false });
            p.ranks[0].extend(ops_for(rng, win, target));
            if close {
                p.ranks[0].push(Stmt::Unlock { win, target, close: Close::Blocking });
            }
        }
        _ => {
            p.ranks[0].push(Stmt::LockAll { win, nonblocking: false });
            p.ranks[0].extend(ops_for(rng, win, target));
            if close {
                p.ranks[0].push(Stmt::UnlockAll { win, close: Close::Blocking });
            }
        }
    }
}

/// Deterministically generate the `index`-th erroneous program of a
/// family.
pub fn generate_negative(family: NegFamily, index: u64) -> NegCase {
    let mut rng =
        SmallRng::seed_from_u64(0xBAD_C0DE ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n_ranks = 3;
    let mut p = IrProgram::new(n_ranks, NEG_WIN_BYTES);
    match family {
        NegFamily::DroppedClose => {
            for _ in 0..rng.gen_range(0..3usize) {
                push_epoch(&mut rng, &mut p, true, true);
            }
            push_epoch(&mut rng, &mut p, false, true);
            NegCase { program: p, expect: Code::E003 }
        }
        NegFamily::OutOfEpochOp => {
            let stray = {
                let target = rng.gen_range(1..n_ranks);
                let len = rng.gen_range(1..8usize);
                let disp = rng.gen_range(0..NEG_WIN_BYTES - len);
                Stmt::Put { win: 0, target, disp, len }
            };
            let before = rng.gen_bool(0.5);
            if before {
                p.ranks[0].push(stray);
                for _ in 0..rng.gen_range(1..3usize) {
                    push_epoch(&mut rng, &mut p, true, true);
                }
            } else {
                // No fence epochs here: a program that ever fences keeps a
                // trailing fence phase open which would legally absorb the
                // stray op (the analyzer would report E003, not E001).
                for _ in 0..rng.gen_range(1..3usize) {
                    push_epoch(&mut rng, &mut p, true, false);
                }
                p.ranks[0].push(stray);
            }
            NegCase { program: p, expect: Code::E001 }
        }
        NegFamily::ConflictingPuts => {
            // Ranks 1 and 2 access rank 0's window in the same fence
            // phase with a guaranteed byte overlap.
            let lo = rng.gen_range(0..NEG_WIN_BYTES - 16);
            let len_a = rng.gen_range(4..12usize);
            // Start the second access inside the first one's range.
            let delta = rng.gen_range(0..len_a);
            let lo_b = lo + delta;
            let len_b = rng.gen_range(1..8usize).min(NEG_WIN_BYTES - lo_b);
            let use_get = index % 2 == 1;
            for r in 0..n_ranks {
                p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
            }
            p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: lo, len: len_a });
            p.ranks[2].push(if use_get {
                Stmt::Get { win: 0, target: 0, disp: lo_b, len: len_b }
            } else {
                Stmt::Put { win: 0, target: 0, disp: lo_b, len: len_b }
            });
            for r in 0..n_ranks {
                p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
            }
            NegCase { program: p, expect: if use_get { Code::E007 } else { Code::E006 } }
        }
        NegFamily::CrashedDependency => {
            // A few well-formed non-fence epochs, then a GATS start whose
            // group contains the peer the fault model crashes: if the
            // crash lands before that peer's post, rank 0's complete can
            // never terminate.
            for _ in 0..rng.gen_range(0..3usize) {
                push_epoch(&mut rng, &mut p, true, false);
            }
            let victim = rng.gen_range(1..n_ranks);
            p.crashed = vec![victim];
            let group: Vec<usize> = (1..n_ranks).collect();
            p.ranks[0].push(Stmt::Start { win: 0, group });
            p.ranks[0].extend(ops_for(&mut rng, 0, victim));
            p.ranks[0].push(Stmt::Complete { win: 0, close: Close::Blocking });
            for r in 1..n_ranks {
                p.ranks[r].push(Stmt::Post { win: 0, group: vec![0] });
                p.ranks[r].push(Stmt::WaitEpoch { win: 0, close: Close::Blocking });
            }
            NegCase { program: p, expect: Code::E012 }
        }
        NegFamily::PscwCycle => {
            let win = deadlock_prefix(&mut rng, &mut p);
            // Ranks 0 and 1 each close an access epoch toward the other
            // before posting their own exposure: neither grant can ever
            // arrive. Start/post counts stay balanced, so this is a pure
            // cycle (no E011).
            for (me, peer) in [(0usize, 1usize), (1, 0)] {
                p.ranks[me].push(Stmt::Start { win, group: vec![peer] });
                p.ranks[me].extend(ops_for(&mut rng, win, peer));
                p.ranks[me].push(Stmt::Complete { win, close: Close::Blocking });
                p.ranks[me].push(Stmt::Post { win, group: vec![peer] });
                p.ranks[me].push(Stmt::WaitEpoch { win, close: Close::Blocking });
            }
            NegCase { program: p, expect: Code::E013 }
        }
        NegFamily::LockOrderInversion => {
            let win = deadlock_prefix(&mut rng, &mut p);
            // ABBA: rank 0 locks target 1 then 2; rank 1 locks target 2
            // then 1. The put + blocking flush proves each first hold is
            // granted before the barrier, so the inversion deadlocks
            // under every schedule. Every rank joins the barrier.
            for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
                p.ranks[me].extend([
                    Stmt::Lock { win, target: first, exclusive: true, nonblocking: false },
                    Stmt::Put { win, target: first, disp: 0, len: 8 },
                    Stmt::Flush { win, target: Some(first), local_only: false, close: Close::Blocking },
                    Stmt::Barrier,
                    Stmt::Lock { win, target: second, exclusive: true, nonblocking: false },
                    Stmt::Put { win, target: second, disp: 8, len: 8 },
                    Stmt::Unlock { win, target: second, close: Close::Blocking },
                    Stmt::Unlock { win, target: first, close: Close::Blocking },
                ]);
            }
            p.ranks[2].push(Stmt::Barrier);
            NegCase { program: p, expect: Code::E014 }
        }
        NegFamily::MissingExposure => {
            let win = deadlock_prefix(&mut rng, &mut p);
            // The target never posts, so rank 0's blocking complete can
            // never be granted.
            let victim = rng.gen_range(1..n_ranks);
            p.ranks[0].push(Stmt::Start { win, group: vec![victim] });
            p.ranks[0].extend(ops_for(&mut rng, win, victim));
            p.ranks[0].push(Stmt::Complete { win, close: Close::Blocking });
            NegCase { program: p, expect: Code::E015 }
        }
        NegFamily::FenceMismatch => {
            let win = deadlock_prefix(&mut rng, &mut p);
            // One collective fence phase everyone joins, then rank 0
            // alone fences again: its closing announcement set can never
            // be completed by the missing participants.
            for r in 0..n_ranks {
                p.ranks[r].push(Stmt::Fence { win, close: Close::Blocking });
            }
            let target = rng.gen_range(1..n_ranks);
            p.ranks[0].extend(ops_for(&mut rng, win, target));
            p.ranks[0].push(Stmt::Fence { win, close: Close::Blocking });
            NegCase { program: p, expect: Code::E016 }
        }
        NegFamily::OrphanWait => {
            let win = deadlock_prefix(&mut rng, &mut p);
            // The icomplete request's grant can never arrive (no matching
            // post), so the waitall can never return.
            let victim = rng.gen_range(1..n_ranks);
            p.ranks[0].push(Stmt::Start { win, group: vec![victim] });
            p.ranks[0].extend(ops_for(&mut rng, win, victim));
            p.ranks[0].push(Stmt::Complete { win, close: Close::Nonblocking });
            p.ranks[0].push(Stmt::WaitAll);
            NegCase { program: p, expect: Code::E017 }
        }
        NegFamily::ValueDeadlock => {
            push_value_spin(&mut rng, &mut p, false);
            NegCase { program: p, expect: Code::E018 }
        }
    }
}

/// Append the value-spin protocol to `p` (3 ranks): rank 0 spins on an
/// 8-byte flag slot of its own window on a dedicated flag window while
/// the peers publish a constant there via atomic `Replace`, then every
/// rank joins a two-call fence tail. With `satisfiable` the peers
/// publish exactly the expected value — the spin terminates, the
/// program is analyzer-clean and runs stall-free. Without it they
/// publish a *different* constant: the expected value is outside the
/// abstract value domain (E018), and at runtime the peers' closing
/// fence blocks on the spinner past the watchdog budget while the
/// execution-bounded spin eventually gives up, so the run terminates
/// with the stall recorded.
fn push_value_spin(rng: &mut SmallRng, p: &mut IrProgram, satisfiable: bool) {
    let n = p.n_ranks;
    // A few clean epochs on window 0, then a dedicated flag window so
    // no prefix write overlaps the spun slot (an overlapping unknown
    // write would be ⊤ and legitimately suppress E018).
    for _ in 0..rng.gen_range(0..3usize) {
        push_epoch(rng, p, true, true);
    }
    let flag_win = p.add_window(NEG_WIN_BYTES);
    let disp = rng.gen_range(0..NEG_WIN_BYTES / 8) * 8;
    let published = rng.gen_range(1..=100u64);
    let expect =
        if satisfiable { published } else { published + rng.gen_range(1..=100u64) };
    for r in 1..n {
        p.ranks[r].extend([
            Stmt::Lock { win: flag_win, target: 0, exclusive: false, nonblocking: false },
            Stmt::AccVal {
                win: flag_win,
                target: 0,
                disp,
                op: ReduceOp::Replace,
                val: published,
            },
            Stmt::Unlock { win: flag_win, target: 0, close: Close::Blocking },
        ]);
    }
    p.ranks[0].extend([
        Stmt::LockAll { win: flag_win, nonblocking: false },
        Stmt::ReadValue {
            win: flag_win,
            target: 0,
            disp,
            kind: FetchKind::FetchOp(ReduceOp::NoOp),
            local: 0,
        },
        Stmt::SpinUntil { local: 0, expect },
        Stmt::UnlockAll { win: flag_win, close: Close::Blocking },
    ]);
    for _ in 0..2 {
        for r in 0..n {
            p.ranks[r].push(Stmt::Fence { win: flag_win, close: Close::Blocking });
        }
    }
}

/// Deterministically generate the `index`-th *satisfiable* value-spin
/// program: the same shape as [`NegFamily::ValueDeadlock`] except the
/// peers publish exactly the expected flag value. The analyzer must
/// report nothing and the executor must run it stall-free — the clean
/// direction of the E018 cross-validation.
pub fn generate_value_clean(index: u64) -> IrProgram {
    let mut rng =
        SmallRng::seed_from_u64(0x600D_F1A6 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    push_value_spin(&mut rng, &mut p, true);
    p
}

/// Shared deadlock-family preamble: a few clean epochs on window 0, and
/// (half the time) a second window for the deadlocking tail — so the
/// analyzer's multi-window tracking and the IR executor both get
/// exercised. Returns the window the tail should use.
fn deadlock_prefix(rng: &mut SmallRng, p: &mut IrProgram) -> usize {
    for _ in 0..rng.gen_range(0..3usize) {
        push_epoch(rng, p, true, true);
    }
    if rng.gen_bool(0.5) {
        p.add_window(NEG_WIN_BYTES)
    } else {
        0
    }
}

/// One minimal deterministic positive program per diagnostic code: the
/// analyzer must report exactly that code's violation. Used by
/// [`sweep_corpus`] and the per-code diagnostics tests.
pub fn catalog_cases() -> Vec<(Code, IrProgram)> {
    let mut out = Vec::new();

    // E001: put before any epoch opens.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    out.push((Code::E001, p));

    // E002: op toward a rank outside the start group.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    out.push((Code::E002, p));

    // E003: lock never unlocked.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
    ]);
    out.push((Code::E003, p));

    // E004: unlock of a rank that was never locked.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].push(Stmt::Unlock { win: 0, target: 1, close: Close::Blocking });
    out.push((Code::E004, p));

    // E005: lock_all while a GATS access epoch is open.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::LockAll { win: 0, nonblocking: false },
        Stmt::UnlockAll { win: 0, close: Close::Blocking },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    out.push((Code::E005, p));

    // E006: cross-origin overlapping puts in one fence phase.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    for r in 0..3 {
        p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
    }
    p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Put { win: 0, target: 0, disp: 4, len: 8 });
    for r in 0..3 {
        p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
    }
    out.push((Code::E006, p));

    // E007: cross-origin put/get overlap in one fence phase.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    for r in 0..3 {
        p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
    }
    p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Get { win: 0, target: 0, disp: 4, len: 8 });
    for r in 0..3 {
        p.ranks[r].push(Stmt::Fence { win: 0, close: Close::Blocking });
    }
    out.push((Code::E007, p));

    // E008: iflush request never waited (and never discharged by a later
    // covering blocking flush).
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    out.push((Code::E008, p));

    // E009: reorder flags + unsafe fence reorder + conflicting puts in
    // adjacent fence phases.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.reorder = true;
    p.unsafe_fence_reorder = true;
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    p.ranks[1].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
    ]);
    out.push((Code::E009, p));

    // E010: put past the end of the window.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: NEG_WIN_BYTES - 4, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    out.push((Code::E010, p));

    // E011: unequal job-wide barrier counts (fence-count mismatches now
    // also classify as E016; the bare barrier keeps E011's catalog entry
    // minimal and distinct).
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([Stmt::Barrier, Stmt::Barrier]);
    p.ranks[1].push(Stmt::Barrier);
    out.push((Code::E011, p));

    // E012: start toward a peer the fault model crashes.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    p.crashed = vec![2];
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([
            Stmt::Post { win: 0, group: vec![0] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    out.push((Code::E012, p));

    // E013: mutual complete-before-post cycle between two ranks.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    for (me, peer) in [(0usize, 1usize), (1, 0)] {
        p.ranks[me].extend([
            Stmt::Start { win: 0, group: vec![peer] },
            Stmt::Complete { win: 0, close: Close::Blocking },
            Stmt::Post { win: 0, group: vec![peer] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    out.push((Code::E013, p));

    // E014: ABBA exclusive-lock inversion across two ranks.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Flush { win: 0, target: Some(first), local_only: false, close: Close::Blocking },
            Stmt::Barrier,
            Stmt::Lock { win: 0, target: second, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
        ]);
    }
    p.ranks[2].push(Stmt::Barrier);
    out.push((Code::E014, p));

    // E015: blocking complete toward a rank that never posts.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    out.push((Code::E015, p));

    // E016: rank 0 fences once more than rank 1.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].push(Stmt::Fence { win: 0, close: Close::Blocking });
    out.push((Code::E016, p));

    // E017: waitall on an icomplete whose grant never arrives.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Complete { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    out.push((Code::E017, p));

    // E018: spin on a flag value the peer never publishes (it replaces
    // the slot with 1, the spin wants 2 — byte 0 is uncoverable).
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::LockAll { win: 0, nonblocking: false },
        Stmt::ReadValue {
            win: 0,
            target: 0,
            disp: 0,
            kind: FetchKind::FetchOp(ReduceOp::NoOp),
            local: 0,
        },
        Stmt::SpinUntil { local: 0, expect: 2 },
        Stmt::UnlockAll { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Lock { win: 0, target: 0, exclusive: false, nonblocking: false },
        Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Replace, val: 1 },
        Stmt::Unlock { win: 0, target: 0, close: Close::Blocking },
    ]);
    out.push((Code::E018, p));

    out
}

/// One minimal deterministic E-clean program per *advisory* code: the
/// slack pass ([`crate::analyze_slack`]) must report that code. Used by
/// [`sweep_corpus`] and the W-series diagnostics tests.
pub fn slack_catalog_cases() -> Vec<(Code, IrProgram)> {
    let mut out = Vec::new();

    // W001: blocking flush whose guarantee nothing consumes before the
    // epoch's own unlock.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    out.push((Code::W001, p));

    // W002: fence phase close with no dependent use before end of
    // program (the trailing barrier is conflict-free: only rank 0
    // writes).
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    out.push((Code::W002, p));

    // W003: unlock whose completion no later statement depends on.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].push(Stmt::Barrier);
    out.push((Code::W003, p));

    // W004: start group names rank 2 but the epoch only operates toward
    // rank 1.
    let mut p = IrProgram::new(3, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([
            Stmt::Post { win: 0, group: vec![0] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    out.push((Code::W004, p));

    // W005: exposure epoch whose matched access epoch never operates
    // toward the exposing rank.
    let mut p = IrProgram::new(2, NEG_WIN_BYTES);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    out.push((Code::W005, p));

    out
}

/// What [`sweep_corpus`] found.
#[derive(Debug, Default)]
pub struct CorpusSweep {
    /// Programs checked.
    pub checked: usize,
    /// One `MISS:` line per program the analyzer did not flag as required.
    pub misses: Vec<String>,
}

/// Sweep the corpus through the analyzer: seeds `0..seeds` of every
/// [`NegFamily`] must carry their expected code, every [`catalog_cases`]
/// program its code, and every [`slack_catalog_cases`] program must be
/// E-clean and carry its W-code. `each` sees every program's label and the
/// diagnostics checked for it (the slack pass's for the W-catalog), in
/// sweep order.
pub fn sweep_corpus(seeds: u64, mut each: impl FnMut(&dyn Display, &[Diagnostic])) -> CorpusSweep {
    let codes = |diags: &[Diagnostic]| diags.iter().map(|d| d.code).collect::<Vec<_>>();
    let mut sweep = CorpusSweep::default();
    for family in NegFamily::ALL {
        for index in 0..seeds {
            let case = generate_negative(family, index);
            let diags = crate::analyze(&case.program);
            sweep.checked += 1;
            each(&format_args!("{} #{index}", family.label()), &diags);
            if !has_code(&diags, case.expect) {
                sweep.misses.push(format!(
                    "MISS: {} seed {index} not flagged with {} (got: {:?})",
                    family.label(),
                    case.expect,
                    codes(&diags)
                ));
            }
        }
    }
    for (code, program) in catalog_cases() {
        let diags = crate::analyze(&program);
        sweep.checked += 1;
        each(&format_args!("catalog {code}"), &diags);
        if !has_code(&diags, code) {
            sweep.misses.push(format!(
                "MISS: catalog case for {code} not flagged (got: {:?})",
                codes(&diags)
            ));
        }
    }
    for (code, program) in slack_catalog_cases() {
        let errors = crate::analyze(&program);
        let slack = crate::analyze_slack(&program);
        sweep.checked += 1;
        each(&format_args!("catalog {code}"), &slack.diags);
        if !errors.is_empty() {
            sweep.misses.push(format!(
                "MISS: slack catalog case for {code} is not E-clean (got: {:?})",
                codes(&errors)
            ));
        } else if !has_code(&slack.diags, code) {
            sweep.misses.push(format!(
                "MISS: slack catalog case for {code} not flagged (got: {:?})",
                codes(&slack.diags)
            ));
        }
    }
    sweep
}
