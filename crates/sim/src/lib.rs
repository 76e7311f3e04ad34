//! # mpisim-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the MPI-RMA middleware reproduction: a virtual
//! clock, an event queue, and *cooperatively scheduled processes*. Each
//! simulated MPI rank runs exclusively (one entity at a time), models
//! computation with [`ProcCtx::advance`], and waits for anything else by
//! parking ([`ProcCtx::park`]) until somebody readies it by id
//! ([`SimHandle::wake`]) — the condition waited for lives with the caller,
//! not in the kernel. By default ranks are stackful fibers multiplexed
//! onto the driver thread ([`ExecMode::Pooled`]) so thousands of ranks fit
//! in one process; the legacy one-OS-thread-per-rank mode
//! ([`ExecMode::ThreadPerRank`]) remains available as a differential
//! baseline. Two runs with the same seed and the same program produce
//! bit-identical schedules in every mode.
//!
//! ## Example
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use mpisim_sim::{Sim, SimTime};
//!
//! let mut sim = Sim::new(1);
//! let h = sim.handle();
//! let ready = Arc::new(AtomicBool::new(false));
//! let r = ready.clone();
//! let client = sim.spawn("client", move |ctx| {
//!     while !r.load(Ordering::Relaxed) {
//!         ctx.park(); // woken by id; the condition is ours to re-check
//!     }
//!     assert_eq!(ctx.now(), SimTime::from_micros(5));
//! });
//! sim.spawn("server", move |ctx| {
//!     ctx.advance(SimTime::from_micros(5)); // boot time
//!     ready.store(true, Ordering::Relaxed);
//!     h.wake(client);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
#[path = "fiber_fallback.rs"]
mod fiber;
mod kernel;
mod parker;
mod process;
mod queue;
mod rng;
mod time;

pub use kernel::{ExecMode, ProcId, Sim, SimError, SimHandle, SimStats};
pub use process::ProcCtx;
pub use rng::{mix64, seeded_rng};
pub use time::SimTime;
