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
//! [`cases`] is the verdict table: every fixed program that pins an
//! analyzer verdict, once, as a row that either flags a code or is a near
//! miss the analyzer must pass. [`sweep_corpus`] sweeps the families and
//! every flagging row, and is `mpisim-check`'s `static-corpus` row.

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

/// What one row of [`cases`] pins.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// For an E-code, [`crate::analyze`] reports the code; for a W-code,
    /// the program is E-clean and [`crate::analyze_slack`] reports it.
    Flags(Code),
    /// [`crate::analyze`] reports nothing: a near miss (the smallest edit
    /// that makes a firing row legal), or an E-clean program a slack test
    /// reads.
    Clean,
}

/// One row of the verdict table: a named program and what the analyzer
/// must say about it.
#[derive(Clone, Debug)]
pub struct Case {
    /// Unique; it names the codes the row is about. The minimal program
    /// of each code is named by the code alone.
    pub name: &'static str,
    /// The verdict.
    pub expect: Expect,
    /// The program.
    pub program: IrProgram,
}

impl Case {
    /// The diagnostics the row is judged on (the slack pass's for a
    /// W-code, the analyzer's otherwise), and a `MISS:` line unless the
    /// row holds.
    pub fn judge(&self) -> (Vec<Diagnostic>, Option<String>) {
        let codes = |diags: &[Diagnostic]| diags.iter().map(|d| d.code).collect::<Vec<_>>();
        let name = self.name;
        let errors = crate::analyze(&self.program);
        match self.expect {
            Expect::Clean => {
                let miss = (!errors.is_empty())
                    .then(|| format!("MISS: {name} is not clean (got: {:?})", codes(&errors)));
                (errors, miss)
            }
            Expect::Flags(code) if Code::ADVISORY.contains(&code) => {
                let slack = crate::analyze_slack(&self.program).diags;
                let miss = if !errors.is_empty() {
                    Some(format!("MISS: {name} is not E-clean (got: {:?})", codes(&errors)))
                } else {
                    (!has_code(&slack, code)).then(|| {
                        format!("MISS: {name} not flagged with {code} (got: {:?})", codes(&slack))
                    })
                };
                (slack, miss)
            }
            Expect::Flags(code) => {
                let miss = (!has_code(&errors, code)).then(|| {
                    format!("MISS: {name} not flagged with {code} (got: {:?})", codes(&errors))
                });
                (errors, miss)
            }
        }
    }

    fn with(mut self, edit: impl FnOnce(&mut IrProgram)) -> Self {
        edit(&mut self.program);
        self
    }
}

fn case(name: &'static str, expect: Expect, ranks: Vec<Vec<Stmt>>) -> Case {
    let mut program = IrProgram::new(ranks.len(), NEG_WIN_BYTES);
    program.ranks = ranks;
    Case { name, expect, program }
}

const B: Close = Close::Blocking;
const NB: Close = Close::Nonblocking;

fn put(target: usize, disp: usize) -> Stmt {
    Stmt::Put { win: 0, target, disp, len: 8 }
}

fn get(target: usize, disp: usize) -> Stmt {
    Stmt::Get { win: 0, target, disp, len: 8 }
}

fn acc(target: usize, op: ReduceOp) -> Stmt {
    Stmt::Acc { win: 0, target, disp: 0, len: 8, op }
}

fn fence(close: Close) -> Stmt {
    Stmt::Fence { win: 0, close }
}

fn start(group: &[usize]) -> Stmt {
    Stmt::Start { win: 0, group: group.to_vec() }
}

fn complete(close: Close) -> Stmt {
    Stmt::Complete { win: 0, close }
}

fn post(group: &[usize]) -> Stmt {
    Stmt::Post { win: 0, group: group.to_vec() }
}

fn wait(close: Close) -> Stmt {
    Stmt::WaitEpoch { win: 0, close }
}

fn lock(target: usize, exclusive: bool) -> Stmt {
    Stmt::Lock { win: 0, target, exclusive, nonblocking: false }
}

fn unlock(target: usize) -> Stmt {
    Stmt::Unlock { win: 0, target, close: B }
}

fn lock_all() -> Stmt {
    Stmt::LockAll { win: 0, nonblocking: false }
}

fn unlock_all() -> Stmt {
    Stmt::UnlockAll { win: 0, close: B }
}

fn flush(target: Option<usize>, local_only: bool, close: Close) -> Stmt {
    Stmt::Flush { win: 0, target, local_only, close }
}

/// Rank 0 runs `stmts`; the other `n - 1` ranks run nothing.
fn solo(n: usize, stmts: Vec<Stmt>) -> Vec<Vec<Stmt>> {
    let mut ranks = vec![Vec::new(); n];
    ranks[0] = stmts;
    ranks
}

/// One fence phase on every rank: each runs its `mids` entry between two
/// blocking fences.
fn phase(mids: Vec<Vec<Stmt>>) -> Vec<Vec<Stmt>> {
    mids.into_iter().map(|mid| [vec![fence(B)], mid, vec![fence(B)]].concat()).collect()
}

/// Rank 0 runs `f(1)` and rank 1 `f(0)`: each names the other.
fn mirrored(f: impl Fn(usize) -> Vec<Stmt>) -> Vec<Vec<Stmt>> {
    vec![f(1), f(0)]
}

/// Rank 0 takes locks on ranks 1 then 2, rank 1 on 2 then 1, putting
/// under each; `hold(first)` runs between the first put and the second
/// lock. Rank 2 runs nothing.
fn abba(exclusive: bool, hold: impl Fn(usize) -> Vec<Stmt>) -> Vec<Vec<Stmt>> {
    let mut ranks = vec![Vec::new(); 3];
    for (me, first, second) in [(0, 1, 2), (1, 2, 1)] {
        ranks[me] = [
            vec![lock(first, exclusive), put(first, 0)],
            hold(first),
            vec![lock(second, exclusive), put(second, 8), unlock(second), unlock(first)],
        ]
        .concat();
    }
    ranks
}

/// Rank 0 spins on its own slot 0 for `expect` under `lock_all`; rank 1
/// replaces the slot with `published` under a shared lock.
fn value_spin(published: u64, expect: u64) -> Vec<Vec<Stmt>> {
    let read = FetchKind::FetchOp(ReduceOp::NoOp);
    vec![
        vec![
            lock_all(),
            Stmt::ReadValue { win: 0, target: 0, disp: 0, kind: read, local: 0 },
            Stmt::SpinUntil { local: 0, expect },
            unlock_all(),
        ],
        vec![
            lock(0, false),
            Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Replace, val: published },
            unlock(0),
        ],
    ]
}

/// Rank 0 fences three phases on window 0, putting 8 bytes toward rank 1
/// at 0 and then at `second_disp`, with nonblocking closes; rank 1 fences.
fn fence_phases(second_disp: usize) -> Vec<Vec<Stmt>> {
    vec![
        vec![fence(B), put(1, 0), fence(NB), put(1, second_disp), fence(NB), Stmt::WaitAll],
        vec![fence(B), fence(B), fence(B)],
    ]
}

/// The verdict table: every program that pins an analyzer verdict, once.
///
/// The first rows are one minimal program per code, named by the code
/// (E001–E018, then W001–W005); the rest follow by code, each firing
/// row before the near misses that make it legal. [`sweep_corpus`] reads
/// every `Flags` row; `tests/diagnostics.rs` judges every row and reads
/// by name the programs of the tests that assert more than a code;
/// `tests/verdicts_agree.rs` runs every row through the engine.
pub fn cases() -> Vec<Case> {
    use Code::*;
    use Expect::{Clean, Flags};
    use Stmt::{Barrier, WaitAll};
    let serve = || vec![post(&[0]), wait(B)];
    let crashed = |crashed: &[usize], recovered: &[usize]| {
        let (crashed, recovered) = (crashed.to_vec(), recovered.to_vec());
        move |p: &mut IrProgram| (p.crashed, p.recovered) = (crashed, recovered)
    };
    let fence_reorder = |p: &mut IrProgram| (p.reorder, p.unsafe_fence_reorder) = (true, true);
    let lock_put_unlock = |target| vec![lock(target, true), put(target, 0), unlock(target)];
    vec![
        // One minimal program per code.
        case("E001", Flags(E001), solo(2, vec![put(1, 0)])),
        case("E002", Flags(E002), vec![vec![start(&[1]), put(2, 0), complete(B)], serve(), vec![]]),
        case("E003", Flags(E003), solo(2, vec![lock(1, true), put(1, 0)])),
        case("E004", Flags(E004), solo(2, vec![unlock(1)])),
        // Its `unlock_all` closes the `lock_all` it refused: E004 too.
        case("E005", Flags(E005), vec![
            vec![start(&[1]), lock_all(), unlock_all(), complete(B)],
            serve(),
        ]),
        case("E006", Flags(E006), phase(vec![vec![], vec![put(0, 0)], vec![put(0, 4)]])),
        case("E007", Flags(E007), phase(vec![vec![], vec![put(0, 0)], vec![get(0, 4)]])),
        // An iflush request never waited and no later blocking flush
        // discharges.
        case("E008", Flags(E008), solo(2, vec![
            lock(1, true), put(1, 0), flush(Some(1), false, NB), unlock(1),
        ])),
        // The same bytes in two fence phases that `unsafe_fence_reorder`
        // lets progress concurrently.
        case("E009", Flags(E009), fence_phases(0)).with(fence_reorder),
        case("E010", Flags(E010), solo(2, vec![
            lock(1, true), put(1, NEG_WIN_BYTES - 4), unlock(1),
        ])),
        // Unequal barrier counts (a fence-count mismatch is E016 too).
        case("E011", Flags(E011), vec![vec![Barrier, Barrier], vec![Barrier]]),
        case("E012", Flags(E012), vec![
            vec![start(&[1, 2]), put(2, 0), complete(B)], serve(), serve(),
        ]).with(crashed(&[2], &[])),
        case("E013", Flags(E013), mirrored(|peer| {
            vec![start(&[peer]), complete(B), post(&[peer]), wait(B)]
        })),
        // The flush and the barrier prove both first holds are granted.
        case("E014", Flags(E014), abba(true, |t| vec![flush(Some(t), false, B), Barrier]))
            .with(|p| p.ranks[2].push(Barrier)),
        case("E015", Flags(E015), solo(2, vec![start(&[1]), put(1, 0), complete(B)])),
        case("E016", Flags(E016), vec![vec![fence(B), put(1, 0), fence(B)], vec![fence(B)]]),
        case("E017", Flags(E017), solo(2, vec![start(&[1]), complete(NB), WaitAll])),
        // The only write deposits 1; the spin wants 2.
        case("E018", Flags(E018), value_spin(1, 2)),
        case("W001", Flags(W001), solo(2, vec![
            lock(1, true), put(1, 0), flush(Some(1), false, B), unlock(1),
        ])),
        // Only rank 0 writes, so the trailing barrier is conflict-free.
        case("W002", Flags(W002), vec![
            vec![fence(B), put(1, 0), fence(B), Barrier],
            vec![fence(B), fence(B), Barrier],
        ]),
        case("W003", Flags(W003), vec![
            vec![lock(1, true), put(1, 0), unlock(1), Barrier],
            vec![Barrier],
        ]),
        case("W004", Flags(W004), vec![
            vec![start(&[1, 2]), put(1, 0), complete(B)], serve(), serve(),
        ]),
        case("W005", Flags(W005), vec![vec![start(&[1]), complete(B)], serve()]),
        // E001–E005.
        case("E001 E003 near-miss put-inside-lock", Clean, solo(2, lock_put_unlock(1))),
        case("E002 near-miss target-in-group", Clean, vec![
            vec![start(&[1, 2]), put(2, 0), complete(B)], serve(), serve(),
        ]),
        // A start, a post, a lock and puts toward rank 2 of a 2-rank job,
        // past the window's end and on a window never declared.
        case("E002 ranks-outside-the-job", Flags(E002), solo(2, vec![
            start(&[2]),
            complete(B),
            post(&[1, 2]),
            wait(B),
            Stmt::Lock { win: 0, target: 2, exclusive: true, nonblocking: true },
            lock_all(),
            put(2, 0),
            put(1, 60),
            Stmt::Put { win: 1, target: 1, disp: 0, len: 8 },
            unlock_all(),
        ])),
        // A group naming a rank outside the job: refused before anything
        // opens, so the close has nothing to close.
        case("E002 start-group-outside-the-job", Flags(E002), {
            solo(2, vec![start(&[5]), complete(B)])
        }),
        case("E002 post-group-outside-the-job", Flags(E002), solo(2, vec![post(&[5]), wait(B)])),
        case("E004 flush-without-lock", Flags(E004), solo(2, vec![flush(Some(1), false, B)])),
        // Closes without opens, flushes without a passive epoch, and an
        // operation after its epoch closed.
        case("E004 closes-without-opens", Flags(E004), solo(2, vec![
            complete(B),
            wait(B),
            unlock_all(),
            flush(Some(1), false, B),
            flush(None, false, B),
            lock(1, false),
            put(1, 0),
            unlock(1),
            put(1, 0),
        ])),
        case("E004 near-miss matched-unlock", Clean, solo(2, vec![lock(1, false), unlock(1)])),
        // A start while a fence phase has issued operations: refused, so
        // the second fence closes that phase cleanly.
        case("E005 start-in-fence-phase", Flags(E005), vec![
            vec![fence(B), put(1, 0), start(&[1]), fence(B)],
            vec![fence(B), fence(B)],
        ]),
        // Neither the start nor the lock opened: their closes have nothing
        // to close.
        case("E005 start-and-lock-in-fence-phase", Flags(E005), vec![
            vec![
                fence(B), put(1, 0), start(&[1]), complete(B), lock(1, false), unlock(1), fence(B),
            ],
            vec![fence(B), fence(B)],
        ]),
        // The peer's one fence only opens.
        case("E005 fence-in-lock-epoch", Flags(E005), vec![
            vec![lock(1, false), fence(B), unlock(1)],
            vec![fence(B)],
        ]),
        // The same lock twice, then `lock_all` and `start` over it; the one
        // lock that opened closes.
        case("E005 lock-twice", Flags(E005), solo(2, vec![
            lock(1, false), lock(1, false), lock_all(), start(&[1]), unlock(1),
        ])),
        case("E005 post-twice", Flags(E005), vec![
            vec![start(&[1]), put(1, 0), complete(B)],
            vec![post(&[0]), post(&[0]), wait(B)],
        ]),
        // A dormant trailing fence phase tolerates a lock epoch under it.
        case("E005 near-miss dormant-trailing-fence", Clean, vec![
            [vec![fence(B), fence(B)], lock_put_unlock(1)].concat(),
            vec![fence(B), fence(B)],
        ]),
        // E006–E010.
        case("E006 mixed-op-accumulates", Flags(E006), phase(vec![
            vec![], vec![acc(0, ReduceOp::Sum)], vec![acc(0, ReduceOp::Prod)],
        ])),
        case("E006 near-miss disjoint-puts", Clean, phase(vec![
            vec![], vec![put(0, 0)], vec![put(0, 8)],
        ])),
        case("E006 near-miss same-op-accumulates", Clean, phase(vec![
            vec![], vec![acc(0, ReduceOp::Sum)], vec![acc(0, ReduceOp::Sum)],
        ])),
        case("E007 near-miss get-get-overlap", Clean, phase(vec![
            vec![], vec![get(0, 0)], vec![get(0, 4)],
        ])),
        case("E008 leaked-ifence", Flags(E008), vec![
            vec![fence(B), fence(NB)],
            vec![fence(B), fence(B)],
        ]),
        case("E008 iflush-under-shared-lock", Flags(E008), solo(2, vec![
            lock(1, false), put(1, 0), flush(Some(1), false, NB), unlock(1),
        ])),
        // `flush_local` completes locally only: the remote request stays.
        case("E008 flush-local-keeps-iflush", Flags(E008), solo(2, vec![
            lock(1, false),
            put(1, 0),
            flush(Some(1), false, NB),
            flush(Some(1), true, B),
            unlock(1),
        ])),
        case("E008 near-miss ifence-waited", Clean, vec![
            vec![fence(B), fence(NB), WaitAll],
            vec![fence(B), fence(B)],
        ]),
        // A later blocking flush of the same target discharges the request.
        case("E008 near-miss flush-discharges-iflush", Clean, solo(2, vec![
            lock(1, false),
            put(1, 0),
            flush(Some(1), false, NB),
            flush(Some(1), false, B),
            unlock(1),
        ])),
        case("E008 near-miss flush-all-discharges", Clean, solo(3, vec![
            lock_all(),
            put(1, 0),
            flush(Some(1), false, NB),
            put(2, 8),
            flush(Some(2), false, NB),
            flush(None, false, B),
            unlock_all(),
        ])),
        case("E009 near-miss disjoint-phases", Clean, fence_phases(8)).with(fence_reorder),
        case("E009 near-miss no-reorder-flags", Clean, fence_phases(0)),
        case("E010 displacement-overflow", Flags(E010), phase(vec![
            vec![Stmt::Put { win: 0, target: 1, disp: usize::MAX, len: 2 }], vec![],
        ])),
        case("E010 near-miss put-to-window-end", Clean, solo(2, vec![
            lock(1, true), put(1, NEG_WIN_BYTES - 8), unlock(1),
        ])),
        // E011–E014.
        case("E011 unequal-fence-counts", Flags(E011), vec![
            vec![fence(B), fence(B)],
            vec![fence(B)],
        ]),
        case("E011 start-without-post", Flags(E011), solo(2, vec![start(&[1]), complete(B)])),
        case("E011 near-miss matched-collectives", Clean, vec![
            vec![fence(B), fence(B), start(&[1]), complete(B)],
            [vec![fence(B), fence(B)], serve()].concat(),
        ]),
        case("E012 lock-on-crashed-peer", Flags(E012), solo(3, lock_put_unlock(1)))
            .with(crashed(&[1], &[])),
        // Two crashed peers, one restarted: only the other is a hazard.
        case("E012 one-of-two-recovered", Flags(E012), {
            solo(4, [lock_put_unlock(1), lock_put_unlock(2)].concat())
        })
        .with(crashed(&[1, 2], &[2])),
        case("E012 barrier-with-crashed-peer", Flags(E012), vec![vec![Barrier]; 3])
            .with(crashed(&[2], &[])),
        // Rank 2 crashes, but no surviving rank waits on it.
        case("E012 near-miss crash-avoided", Clean, solo(3, lock_put_unlock(1)))
            .with(crashed(&[2], &[])),
        case("E012 near-miss recovered-peer", Clean, solo(3, lock_put_unlock(1)))
            .with(crashed(&[1], &[1])),
        case("E012 near-miss barrier-recovered", Clean, vec![vec![Barrier]; 3])
            .with(crashed(&[2], &[2])),
        // The crashed rank's own dangling dependencies are the fault
        // model's doing, not the program's.
        case("E012 near-miss crashed-rank-own-program", Clean, {
            solo(3, vec![lock(1, true), unlock(1)])
        })
        .with(crashed(&[0], &[])),
        case("E013 with-puts", Flags(E013), mirrored(|peer| {
            vec![start(&[peer]), put(peer, 0), complete(B), post(&[peer]), wait(B)]
        })),
        case("E013 near-miss post-before-start", Clean, mirrored(|peer| {
            vec![post(&[peer]), start(&[peer]), put(peer, 0), complete(B), wait(B)]
        })),
        case("E014 flush-pins-the-hold", Flags(E014), abba(true, |t| {
            vec![flush(Some(t), false, B)]
        })),
        // A nonblocking full flush still forces the lazy lock's grant.
        case("E014 iflush-pins-the-hold", Flags(E014), abba(true, |t| {
            vec![flush(Some(t), false, NB)]
        }))
        .with(|p| p.ranks[..2].iter_mut().for_each(|r| r.push(WaitAll))),
        case("E014 near-miss consistent-order", Clean, {
            let both = vec![
                lock(1, true), put(1, 0), flush(Some(1), false, B),
                lock(2, true), put(2, 8), unlock(2), unlock(1),
            ];
            vec![both.clone(), both, vec![]]
        }),
        case("E014 near-miss shared-locks", Clean, abba(false, |t| vec![flush(Some(t), false, B)])),
        // `flush_local` forces no acquisition, so the first hold stays lazy.
        case("E014 near-miss flush-local", Clean, abba(true, |t| vec![flush(Some(t), true, B)])),
        case("E014 near-miss lazy-holds", Clean, abba(true, |_| vec![])),
        // E015–E018.
        case("E015 post-without-origin", Flags(E015), vec![vec![], serve()]),
        case("E015 W005 near-miss matching-post", Clean, vec![
            vec![start(&[1]), put(1, 0), complete(B)], serve(),
        ]),
        case("E016 extra-trailing-fence", Flags(E016), vec![
            vec![fence(B), put(1, 0), fence(B), fence(B)],
            vec![fence(B), fence(B)],
        ]),
        case("E016 near-miss equal-fence-counts", Clean, phase(vec![vec![put(1, 0)], vec![]])),
        // Each window's fence count matches, though the windows' differ.
        case("E016 near-miss per-window-planes", Clean, {
            let w1 = vec![Stmt::Fence { win: 1, close: B }; 2];
            let ranks = phase(vec![vec![put(1, 0)], vec![]]);
            ranks.into_iter().map(|r| [r, w1.clone()].concat()).collect()
        })
        .with(|p| {
            p.add_window(NEG_WIN_BYTES);
        }),
        case("E017 with-put", Flags(E017), solo(2, vec![
            start(&[1]), put(1, 0), complete(NB), WaitAll,
        ])),
        case("E017 near-miss exposure-present", Clean, vec![
            vec![start(&[1]), put(1, 0), complete(NB), WaitAll], serve(),
        ]),
        // The spinner writes the value itself, but only after the spin.
        case("E018 own-write-after-spin", Flags(E018), value_spin(1, 2)).with(|p| {
            let write = Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Replace, val: 2 };
            p.ranks[0].insert(3, write);
        }),
        case("E018 near-miss published-value-matches", Clean, value_spin(2, 2)),
        // A non-replace accumulate could deposit anything.
        case("E018 near-miss unknown-operand-write", Clean, value_spin(0, 0xDEAD)).with(|p| {
            p.ranks[1][1] = Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Sum, val: 1 };
        }),
        // Windows start zeroed: spinning for 0 needs no writer.
        case("E018 near-miss zero-by-init", Clean, value_spin(0, 0)).with(|p| p.ranks[1].clear()),
        // E-clean programs the slack tests read.
        case("W001 near-miss iflush-discharged", Clean, solo(2, vec![
            lock(1, true),
            put(1, 0),
            flush(Some(1), false, NB),
            flush(Some(1), false, B),
            unlock(1),
        ])),
        case("W001 localize", Clean, solo(2, vec![
            lock(1, true), put(1, 0), flush(Some(1), true, NB), flush(Some(1), false, B), unlock(1),
        ])),
        case("W002 near-miss barrier-publishes", Clean, vec![
            vec![fence(B), put(1, 0), fence(B), Barrier],
            vec![fence(B), fence(B), Barrier, lock(1, false), get(1, 0), unlock(1)],
        ]),
        case("W002 near-miss reorder-pinned", Clean, mirrored(|peer| {
            vec![fence(B), put(peer, 0), fence(B), put(peer, 0), fence(B), Barrier]
        }))
        .with(|p| p.reorder = true),
        case("W003 near-miss barrier-publishes", Clean, vec![
            [lock_put_unlock(1), vec![Barrier]].concat(),
            vec![Barrier, lock(1, false), get(1, 0), unlock(1)],
        ]),
        case("W004 near-miss every-target-used", Clean, vec![
            vec![start(&[1, 2]), put(1, 0), put(2, 0), complete(B)], serve(), serve(),
        ]),
    ]
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
/// [`NegFamily`] must carry their expected code, and every `Flags` row of
/// [`cases`] must hold. `each` sees every program's label and the
/// diagnostics checked for it (the slack pass's for a W-code), in sweep
/// order.
pub fn sweep_corpus(seeds: u64, mut each: impl FnMut(&dyn Display, &[Diagnostic])) -> CorpusSweep {
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
                    diags.iter().map(|d| d.code).collect::<Vec<_>>()
                ));
            }
        }
    }
    for row in cases().into_iter().filter(|row| row.expect != Expect::Clean) {
        let (diags, miss) = row.judge();
        sweep.checked += 1;
        each(&format_args!("catalog {}", row.name), &diags);
        sweep.misses.extend(miss);
    }
    sweep
}
