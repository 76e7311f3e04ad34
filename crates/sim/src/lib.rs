//! # mpisim-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the MPI-RMA middleware reproduction: a virtual
//! clock, an event queue, and *cooperatively scheduled processes*. Each
//! simulated MPI rank runs exclusively (one entity at a time), models
//! computation with [`ProcCtx::advance`], and waits for anything else by
//! parking ([`ProcCtx::park`]) until somebody readies it by id
//! ([`SimHandle::wake`]) — the condition waited for lives with the caller,
//! not in the kernel. Ranks are stackful fibers that the driver thread
//! resumes inline, so thousands of ranks fit in one process, and that one
//! thread owns the whole simulation: its state sits in `Rc`/`RefCell`
//! cells with no lock, and [`SimHandle`] and [`ProcCtx`] are not `Send`.
//! Two runs with the same seed and the same program produce bit-identical
//! schedules. The crate builds for x86_64 Linux only (the fiber switch is
//! x86_64 assembly over Linux `mmap`); any other target stops with a
//! `compile_error!`.
//!
//! ## Example
//!
//! ```
//! use std::cell::Cell;
//! use std::rc::Rc;
//! use mpisim_sim::{Sim, SimTime};
//!
//! let mut sim = Sim::new(1);
//! let h = sim.handle();
//! let ready = Rc::new(Cell::new(false));
//! let r = ready.clone();
//! let client = sim.spawn("client", move |ctx| {
//!     while !r.get() {
//!         ctx.park(); // woken by id; the condition is ours to re-check
//!     }
//!     assert_eq!(ctx.now(), SimTime::from_micros(5));
//! });
//! sim.spawn("server", move |ctx| {
//!     ctx.advance(SimTime::from_micros(5)); // boot time
//!     ready.set(true);
//!     h.wake(client);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "mpisim-sim builds only for x86_64 Linux: every simulated process is a fiber whose \
     context switch is x86_64 System V assembly over Linux mmap, and there is no thread \
     fallback to run it on"
);

mod fiber;
mod kernel;
mod process;
mod queue;
mod rng;
mod time;

#[doc(hidden)]
pub use fiber::free_stack_resident_pages;
pub use fiber::on_driver_stack;
pub use kernel::{ProcId, Sim, SimError, SimHandle, SimStats, Stamp, TieBreak};
pub use process::ProcCtx;
pub use rng::{mix64, seeded_rng, splitmix64, Rng, Uniform};
pub use time::SimTime;
