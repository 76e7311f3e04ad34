//! # nonblocking-rma — nonblocking epochs for MPI one-sided communication
//!
//! A complete Rust reproduction of *"Nonblocking Epochs in MPI One-Sided
//! Communication"* (SC 2014): an MPI-like RMA middleware in which every
//! epoch synchronization — opening, closing, flushing — has a nonblocking
//! variant, plus the deferred-epoch progress engine, O(1) ω-triple epoch
//! matching, and the four out-of-order progression flags the paper
//! proposes. Ranks execute on a deterministic discrete-event simulation of
//! a QDR-InfiniBand-class cluster, so every latency in the paper's
//! evaluation can be regenerated on a laptop.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`sim`] — the discrete-event kernel (`mpisim-sim`);
//! * [`net`] — the interconnect model (`mpisim-net`);
//! * [`core`] — the RMA middleware (`mpisim-core`), also re-exported at
//!   the top level;
//! * [`apps`] — LU, transactions, and halo kernels (`mpisim-apps`).
//!
//! ## Quickstart
//!
//! ```
//! use nonblocking_rma::{run_job, JobConfig, LockKind, Rank};
//!
//! let report = run_job(JobConfig::new(2), |env| {
//!     let win = env.win_allocate(64).unwrap();
//!     env.barrier().unwrap();
//!     if env.rank().idx() == 0 {
//!         // A fully nonblocking passive-target epoch (§V of the paper):
//!         let _open = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
//!         env.put(win, Rank(1), 0, b"epoch!").unwrap();
//!         let done = env.iunlock(win, Rank(1)).unwrap();
//!         env.compute(nonblocking_rma::SimTime::from_micros(100)); // overlap
//!         env.wait(done).unwrap();
//!     }
//!     env.barrier().unwrap();
//!     let mine = env.read_local(win, 0, 6).unwrap();
//!     env.win_free(win).unwrap();
//!     mine // what each rank returns comes back in rank order
//! })
//! .unwrap();
//! assert_eq!(report.results[1], b"epoch!");
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses that regenerate every figure of the paper.

pub use mpisim_apps as apps;
pub use mpisim_core as core;
pub use mpisim_net as net;
pub use mpisim_sim as sim;

pub use mpisim_core::{
    run_job, Datatype, Engine, EngineStats, Group, JobConfig, JobReport, LockKind, Rank, RankEnv,
    RankStats, ReduceOp, Req, RmaError, RmaResult, SyncStrategy, WinId, WinInfo,
};
pub use mpisim_sim::SimTime;
