//! # mpisim-check — deterministic conformance harness
//!
//! Differential testing for the nonblocking-RMA middleware: generated RMA
//! programs are executed across the full strategy × API matrix under a
//! sweep of *legal* schedule perturbations, and every run must both
//! reproduce a sequential oracle byte for byte and satisfy the ω-triple
//! protocol invariants recovered from the engine's traces.
//!
//! The schedule space is explored through three orthogonal knobs, all
//! deterministic given their seeds:
//!
//! * the simulation kernel's **tie-break seed** permutes same-virtual-time
//!   events (legal because per-channel delivery times keep FIFO order);
//! * **network perturbation profiles** sweep latency jitter × credit
//!   starvation ([`mpisim_net::NetParams::perturbation_profile`]);
//! * the **simulation seed** re-rolls every jitter stream.
//!
//! Pipeline: [`program::generate`] → [`lower::lower`] resolves the program,
//! for the run's close mode, into the analyzer's IR → static analysis of
//! that IR ([`mpisim_analyze::analyze`]) → [`run::execute`] hands the same
//! IR to the one interpreter ([`mpisim_analyze::exec`]) → oracle
//! comparison + [`audit::audit`] + happens-before race detection
//! ([`mpisim_analyze::detect_races`]), all via [`verify`] → on failure,
//! [`shrink::shrink`] and [`shrink::reproducer`] emit a minimized
//! ready-to-paste test.
//!
//! The harness proves it can catch real bugs by injecting them: the engine
//! recognizes the fault names `"skip-grant"` (liveness: a dropped exposure
//! grant, surfacing as deadlock), `"double-acc"` (safety: accumulates
//! applied twice, surfacing as oracle divergence), and `"hb-race"` (a
//! planted unsynchronized local window read, caught only by the race
//! detector) — see [`mpisim_core::Fault`].
//!
//! The static deadlock analyzer gets the same treatment in
//! [`crossval`]: the deadlock corpus must be flagged *and* stall under
//! the armed watchdog ([`exec_ir`] executes IR programs directly),
//! while analyzer-clean generated programs must run stall-free.
//!
//! The pooled execution kernel is pinned to its thread-per-rank baseline
//! in [`crossval::crossval_exec`]: a slice of the conformance corpus is
//! replayed under every execution mode and must be byte-identical in
//! verdicts, memories, stats, and traces — while `--inject nondet-exec`
//! plants a genuinely nondeterministic kernel tie-break that the same
//! comparison must catch.
//!
//! The synchronization-slack rewriter closes its own loop in
//! [`crossval::crossval_rewrites`]: every conformance program the
//! rewriter relaxes must stay analyzer-clean, reproduce the original's
//! final memory at every strategy × seed point
//! ([`exec_ir_with`]), and strictly reduce the engine's
//! `sync_blocked_steps` — while `--inject bad-rewrite` plants an
//! unsound relaxation that the differential comparison alone must
//! catch.
//!
//! The crash-recovery subsystem gets the same treatment in [`recovery`]:
//! crash points enumerated from a fault-free probe are replayed with one
//! rank crashed mid-job (alone and stacked on a lossy fault plan), and
//! every run must still converge byte-identically to the oracle with
//! nothing but healthy `recovered` degradations — while `--inject
//! bad-recovery` plants a stale checkpoint restore that the differential
//! comparison must observe on every planted run.

#![warn(missing_docs)]

pub mod audit;
pub mod crossval;
pub mod diff;
pub mod lower;
pub mod program;
pub mod recovery;
pub mod run;
pub mod shrink;

pub use audit::{audit, Violation};
pub use crossval::{
    crossval_clean, crossval_deadlocks, crossval_exec, crossval_flagged, crossval_rewrites,
    CrossValReport, ExecValReport, RewriteValReport,
};
pub use diff::{
    spec_for_seed, sweep_family, sweep_family_with, verify, verify_with, Failure, FailureKind,
    FoundFailure, VerifyOpts, MATRIX,
};
pub use lower::lower;
pub use mpisim_core::SyncStrategy;
pub use program::{generate, oracle, Epoch, Family, Op, Program};
pub use recovery::{crossval_recovery, crossval_recovery_bad, RecoveryValReport};
pub use run::{
    exec_ir, exec_ir_with, execute, execute_exec, ExecOpts, RunFailure, RunOutcome, RunSpec,
};
pub use shrink::{reproducer, shrink};
