//! Static and dynamic correctness analysis for the RMA epoch protocol.
//!
//! Two cooperating layers over the `mpisim-core` simulator:
//!
//! 1. **Static analyzer** ([`analyze`]) — a flow-sensitive per-(rank,
//!    window) epoch state machine over a small multi-window program IR
//!    ([`IrProgram`]). It rejects operations outside an access epoch,
//!    targets outside the start group, missing `complete`/`wait`/
//!    `unlock`, illegal synchronization-strategy mixes, conflicting
//!    overlapping put/put and put/get pairs (byte-range interval
//!    analysis), nonblocking epoch requests that are never tested or
//!    waited (with the flush-discharge rule for `iflush` requests), and
//!    reorder-flag configurations whose legality conditions ("never
//!    across `lock_all`; across fence only with `unsafe_fence_reorder`")
//!    the program violates. On top of the per-rank walk, the whole-job
//!    deadlock passes build an inter-rank wait-for graph via a symbolic
//!    ω-triple fixpoint interpreter plus a lock-acquisition-order scan,
//!    yielding E013 (cyclic cross-rank wait, with a rank-annotated
//!    witness), E014 (lock-order inversion), E015 (missing/mismatched
//!    exposure), E016 (fence-participation mismatch), E017 (wait on a
//!    never-completing request) and E018 (value-dependent deadlock: a
//!    spin on a fetched window value no reachable remote write can ever
//!    satisfy, decided by an abstract written-constants/⊤ value domain
//!    per byte of the spun slot). Each rejection is a [`Diagnostic`]
//!    with a stable [`Code`] (`E001`…) plus rank and statement
//!    provenance.
//!
//! 2. **Dynamic race detector** ([`detect_races`]) — vector-clock
//!    happens-before checking over the sync records of the trace a
//!    simulated run produces. Synchronization edges are the epoch protocol's own
//!    messages (post→start and lock grants, complete→wait and unlock
//!    notifications, fence-completion announcements); data accesses carry
//!    byte ranges and access kinds. Conflicting overlapping accesses that
//!    no traced edge orders are reported as [`Race`]s.
//!
//! Every static pass — [`analyze`], the deadlock passes, [`analyze_slack`]
//! and each [`rewrite()`] pass — reads one resolved epoch structure of the
//! program (`shape.rs`): one walk per rank resolves epochs, accesses,
//! flushes and requests, and the cross-rank FIFO start/post matching is
//! resolved once in `Shape::of`, into one pairing table the passes read.
//! The walk keeps its open epochs in the engine's own legality table,
//! `mpisim_core::epoch::OpenSet`, so which opens clash, which epoch covers
//! an operation and which epochs a flush covers are the runtime's answers.
//!
//! The static layer over-approximates (it reasons about all schedules),
//! the dynamic layer under-approximates (it sees one schedule); together
//! they bracket the protocol semantics, and `mpisim-check` runs both on
//! every generated program.
//!
//! On top of the correctness layers sits the **synchronization-slack
//! pass** ([`analyze_slack`]) with its mechanical rewriter
//! ([`rewrite()`]): it classifies every blocking synchronization point as
//! elidable / relaxable / required via a per-(rank, window)
//! byte-interval dataflow (advisory codes `W001`–`W005`), and rewrites
//! the relaxable ones to their nonblocking forms — the optimization the
//! source paper argues for, proved safe differentially by
//! `mpisim-check`'s rewrite-equivalence sweep. The rewriter prices
//! every candidate relaxation with a virtual-time [`CostModel`]
//! calibrated from the engine's `sync_blocked_ns` counters on the fence
//! halo of `crates/core/tests/nonblocking_never_loses.rs`, skipping
//! relaxations whose bookkeeping would cost more than the reclaimed
//! overlap, and mechanizes the W004 over-wide-group fix via symmetric
//! [`GroupShrink`] pairs.

#![warn(missing_docs)]

// The application twins that `shape.rs`'s tests include name this crate
// by its package name.
#[cfg(test)]
extern crate self as mpisim_analyze;

pub mod analyzer;
pub mod corpus;
mod deadlock;
pub mod diag;
pub mod exec;
pub mod ir;
pub mod race;
pub mod rewrite;
mod shape;
pub mod slack;

pub use analyzer::analyze;
pub use corpus::{
    cases, generate_negative, generate_value_clean, sweep_corpus, Case, CorpusSweep, Expect,
    NegCase, NegFamily, NEG_WIN_BYTES,
};
pub use diag::{has_code, Code, Diagnostic};
pub use exec::{exec_ir_with, interpret, ApiError, Run, RunFailure};
pub use ir::{Close, FetchKind, IrProgram, Stmt};
pub use race::{detect_races, detect_races_in, Race, RaceAccess};
pub use rewrite::{
    rewrite, rewrite_with, rewrite_with_model, CostModel, RewriteMode, RewriteReport,
};
pub use slack::{
    analyze_slack, GroupShrink, SlackClass, SlackFinding, SlackReport, SyncKind,
};
