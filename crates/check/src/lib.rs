//! # mpisim-check — deterministic conformance harness
//!
//! Differential testing for the nonblocking-RMA middleware: generated RMA
//! programs are executed across the full strategy × API matrix under a
//! sweep of *legal* schedule perturbations, and every run must both
//! reproduce a sequential oracle byte for byte and satisfy the ω-triple
//! protocol invariants recovered from the engine's trace.
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
//! The harness proves it can catch real bugs by injecting them:
//! [`mpisim_core::Fault::ALL`] is every bug the runtime can plant — a
//! dropped exposure grant (liveness, surfacing as deadlock), accumulates
//! applied twice (safety, surfacing as oracle divergence), an
//! unsynchronized local window read only the race detector catches, a
//! nondeterministic kernel tie-break and a stale crash restore — each
//! armed by its name in [`RunSpec::fault`].
//!
//! The other layers get the same treatment, each in one sweep that also
//! carries its own planted fault: the static deadlock analyzer against
//! the stall watchdog ([`crossval_deadlocks`]), a job against its own
//! rerun in one process ([`crossval_exec`]), the slack rewriter against the
//! original program ([`crossval_rewrites`]), and crash recovery against
//! the oracle ([`crossval_recovery`]). [`suite`] is the one table of what
//! runs: [`SWEEPS`] lists every sweep with its width flag, [`PLANTS`]
//! every plant with the sweep it rides, how it is armed and the one
//! detector that must catch it; the CLI is [`suite::run`] over them.

#![warn(missing_docs)]

pub mod audit;
pub mod crossval;
pub mod diff;
pub mod lower;
pub mod program;
pub mod recovery;
pub mod run;
pub mod shrink;
pub mod suite;

pub use audit::{audit, Violation};
pub use crossval::{crossval_deadlocks, crossval_exec, crossval_rewrites};
pub use diff::{
    spec_for_seed, sweep_family, sweep_family_with, verify, verify_with, Failure, FailureKind,
    FoundFailure, VerifyOpts, MATRIX,
};
pub use lower::lower;
pub use mpisim_core::SyncStrategy;
pub use program::{generate, oracle, Epoch, Family, Op, Program};
pub use recovery::crossval_recovery;
pub use run::{exec_ir_with, execute, execute_exec, RunFailure, RunOutcome, RunSpec};
pub use shrink::{reproducer, shrink};
pub use suite::{Outcome, Plant, Sweep, PLANTS, SWEEPS};
