//! # mpisim-core — nonblocking MPI RMA epochs on a simulated cluster
//!
//! A from-scratch Rust implementation of the system described in
//! *"Nonblocking Epochs in MPI One-Sided Communication"* (SC 2014):
//! an MPI-like one-sided communication middleware in which **every** epoch
//! synchronization routine — opening, closing, and flushing — has a
//! nonblocking variant whose completion is detected through the test/wait
//! family, making the entire lifetime of an RMA epoch wait-free at the
//! application level.
//!
//! The middleware implements the paper's design literally:
//!
//! * **deferred epochs** with event recording and replay (§VI, §VII.A);
//! * **O(1) epoch matching** via the per-peer ω = ⟨a, e, g⟩ counter
//!   triples, with grants sequenced per origin (§VII.B);
//! * **specialized request objects** — dummy epoch-opening requests,
//!   epoch-closing requests, and age-stamped flush requests (§VII.C);
//! * the **seven-step progress sweep** (§VII.D);
//! * the four **info-object reorder flags** `A_A_A_R`, `A_A_E_R`,
//!   `E_A_E_R`, `E_A_A_R` enabling out-of-order epoch progression (§VI.B);
//! * a **lazy baseline** strategy reproducing the documented vanilla
//!   MVAPICH behaviour for comparison (§VIII).
//!
//! Because no native MPI runtime is available to modify, ranks run on a
//! deterministic discrete-event simulation (`mpisim-sim`) over a calibrated
//! InfiniBand-like network model (`mpisim-net`); all latencies below are
//! virtual time.
//!
//! ## Quickstart
//!
//! ```
//! use mpisim_core::{run_job, JobConfig, Group, LockKind, Rank};
//!
//! let report = run_job(JobConfig::new(2), |env| {
//!     let win = env.win_allocate(64).unwrap();
//!     // Passive-target epoch, fully nonblocking:
//!     if env.rank().idx() == 0 {
//!         let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
//!         env.put(win, Rank(1), 0, b"hello").unwrap();
//!         let done = env.iunlock(win, Rank(1)).unwrap();
//!         // ... overlap computation here ...
//!         env.wait(done).unwrap();
//!     }
//!     env.barrier().unwrap();
//!     if env.rank().idx() == 1 {
//!         assert_eq!(env.read_local(win, 0, 5).unwrap(), b"hello");
//!     }
//!     env.win_free(win).unwrap();
//! })
//! .unwrap();
//! assert!(report.sim.events_executed > 0);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod coll;
pub mod config;
pub mod datatype;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod lock;
pub mod msg;
pub mod request;
pub mod runtime;
mod slab;
pub mod trace;
pub mod types;
pub mod window;
mod worklist;

pub use api::{RankEnv, CALL_ENTRY, PER_OP};
pub use config::{ExecMode, JobConfig, SyncStrategy, WinInfo};
pub use datatype::{Datatype, ReduceOp};
pub use engine::{
    Degradation, Engine, EngineStats, Fault, ProtocolError, RankStats, RecoveryReport,
    StallReport,
};
pub use error::{RmaError, RmaResult};
pub use runtime::{run_job, JobReport};
pub use types::{Group, LockKind, Rank, Req, WinId};
