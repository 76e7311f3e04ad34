//! # mpisim-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the MPI-RMA middleware reproduction: a virtual
//! clock, an event queue, and *cooperatively scheduled processes*. Each
//! simulated MPI rank runs exclusively (one entity at a time), blocks in
//! virtual time via [`Signal`]s, and models computation with
//! [`ProcCtx::advance`]. By default ranks are stackful fibers multiplexed
//! onto the driver thread ([`ExecMode::Pooled`]) so thousands of ranks fit
//! in one process; the legacy one-OS-thread-per-rank mode
//! ([`ExecMode::ThreadPerRank`]) remains available as a differential
//! baseline. Two runs with the same seed and the same program produce
//! bit-identical schedules in every mode.
//!
//! ## Example
//!
//! ```
//! use mpisim_sim::{Sim, SimTime, Signal};
//!
//! let mut sim = Sim::new(1);
//! let ready = Signal::new();
//! let r = ready.clone();
//! sim.spawn("server", move |ctx| {
//!     ctx.advance(SimTime::from_micros(5)); // boot time
//!     r.fire();
//! });
//! sim.spawn("client", move |ctx| {
//!     ctx.wait(&ready);
//!     assert_eq!(ctx.now(), SimTime::from_micros(5));
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
mod rng;
mod time;

pub use kernel::{
    ExecMode, ProcId, Sim, SimError, SimHandle, SimStats, DEFAULT_EVENT_CAP, DEFAULT_STACK_SIZE,
};
pub use process::{ProcCtx, Signal};
pub use rng::{mix64, seeded_rng};
pub use time::SimTime;
