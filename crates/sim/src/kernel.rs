//! The discrete-event kernel: virtual clock, event queue, and the
//! cooperative scheduler that interleaves simulated processes
//! deterministically.
//!
//! # Execution model
//!
//! Exactly one entity runs at any instant: either the scheduler (executing
//! an event callback) or one process. Determinism follows from three rules:
//!
//! 1. events are ordered by time, then by a tie-break: their sequence
//!    number, or a seeded permutation of it ([`Sim::set_tiebreak`]);
//! 2. ready processes run in FIFO order, and all ready processes run before
//!    the next event is popped;
//! 3. process code itself only observes virtual time through the kernel.
//!
//! Every process is a stackful [fiber](crate::fiber) — a parked
//! *continuation*, not a parked thread — that the driver resumes inline on
//! its own thread: a context switch is ~20 instructions and no syscall.
//! The driver thread is the only thread that touches the kernel, so its
//! state is a plain `RefCell` behind an `Rc`, with no lock: [`SimHandle`]
//! and [`ProcCtx`] are not `Send`. A borrow a slice still holds when it
//! yields is a "RefCell already borrowed" panic, with its location, at
//! the next borrow.
//!
//! The scheduler is work-aware by construction: only processes somebody
//! readied — the driver popping an [`Action::Wake`], or
//! [`SimHandle::wake`] — ever enter the ready queue, so a step never sweeps
//! idle ranks: cost scales with runnable work, not with the rank count.
//!
//! # Suspending and readying
//!
//! A process gives up the CPU in one way: it marks itself `Blocked` and
//! yields ([`ProcCtx::park`]). It gets it back in one way: somebody moves it
//! from `Blocked` to the ready queue ([`SimHandle::wake`], a no-op in any
//! other state). The kernel keeps no condition, no waiter list and no
//! registration: *why* a process parked is the parker's business, and it
//! re-checks that condition when `park` returns. [`ProcCtx::advance`] is the
//! one condition the kernel itself knows — "my wake-up record has been
//! popped" — and is written exactly that way.
//!
//! # What one event and one slice cost
//!
//! The event queue (`queue.rs`) is one ordered-map entry per pending
//! instant over a list of slots in tie-break order: a push is one lookup of
//! its instant and, in FIFO order, a tail append; a pop unlinks the head of
//! the earliest instant. A slot owns its [`Action`]: `Call` is a boxed
//! callback run after the pop's borrow is released; `Wake` ends a process's
//! [`ProcCtx::advance`] and is carried out by the driver under the borrow
//! of the pop that found it — clear the process's `sleeping` flag, ready it
//! — so a timed sleep is one slot and no allocation. A slice boundary is
//! one kernel borrow on the driver's side: under it the driver takes a
//! panic payload the last slice may have left and pops the ready queue.
//! The abort flag a process reads before and after every yield is a `Cell`
//! outside that borrow.
//!
//! An event that may never be needed costs no slot at all: its place in
//! the order can be taken ahead of it ([`SimHandle::reserve`], one
//! sequence number and no push) and the event pushed there later
//! ([`SimHandle::schedule_stamped`]) only if it turns out to have work to
//! do; the kernel answers whether a reserved place has already gone by
//! ([`SimHandle::passed`]), so a caller can settle such an event's effect
//! in place instead. Every other event keeps the key it would have had, so
//! the order is the one in which every reserved event was pushed. The
//! network's credit returns are the one user (DESIGN.md §15.3).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use crate::fiber::{self, Fiber};
use crate::process::{AbortToken, ProcCtx};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// Identifier of a simulated process (dense, assigned in spawn order).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub usize);

/// Why a simulation run ended unsuccessfully.
#[derive(Debug)]
pub enum SimError {
    /// No process can run and no event is pending, but some processes have
    /// not finished: the simulated program deadlocked.
    Deadlock {
        /// Virtual time at which the deadlock was detected: the horizon, as
        /// in [`SimStats::final_time`].
        now: SimTime,
        /// Labels of the processes that are still blocked.
        blocked: Vec<String>,
    },
    /// The configured event cap was exceeded (runaway-simulation backstop).
    EventCapExceeded {
        /// The cap that was exceeded.
        cap: u64,
    },
    /// The OS refused a process its fiber stack: typically the per-process
    /// mapping limit (`vm.max_map_count`; a fiber stack is two mappings, so
    /// a process runs out at about half that many ranks). [`Sim::spawn`]
    /// keeps the first such failure and maps nothing more; [`Sim::run`]
    /// returns it instead of driving the simulation, after unwinding the
    /// processes spawned before it as on a deadlock. Its stacks then go
    /// back to the OS, none to the thread's next simulation.
    SpawnFailed {
        /// Label of the process that could not be spawned.
        process: String,
        /// Processes in the simulation at the failure, this one included.
        processes: usize,
        /// What the OS said.
        error: std::io::Error,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { now, blocked } => {
                write!(f, "simulation deadlock at {now}: blocked processes: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
            SimError::EventCapExceeded { cap } => {
                write!(f, "simulation exceeded event cap of {cap} events")
            }
            SimError::SpawnFailed {
                process,
                processes,
                error,
            } => {
                write!(
                    f,
                    "cannot spawn {process} as process {processes} of the simulation: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary statistics returned by a successful [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Number of event callbacks executed.
    pub events_executed: u64,
    /// Number of scheduler-to-process context switches performed.
    pub context_switches: u64,
    /// The simulation's horizon: the latest instant at which an event was
    /// scheduled or a place was [reserved](SimHandle::reserve). It is the
    /// instant of the last event had every reserved place been scheduled,
    /// so it can lie after the last process finished (a credit return
    /// still travelling back, say) and does not depend on which reserved
    /// events were actually run.
    pub final_time: SimTime,
}

/// A place in the event order taken ahead of its event
/// ([`SimHandle::reserve`]): an instant and the tie-break key the event
/// would have had, had it been scheduled at the reservation. Stamps order
/// as their events would pop.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    at: SimTime,
    key: u64,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum ProcState {
    Ready,
    Running,
    Blocked,
    Finished,
}

pub(crate) struct ProcRec {
    pub(crate) label: String,
    pub(crate) state: ProcState,
    /// Set by [`ProcCtx::advance`] when it pushes its [`Action::Wake`],
    /// cleared by the driver when it pops it: a process that finds it still
    /// set after a slice was woken by something else and goes back to sleep.
    pub(crate) sleeping: bool,
}

type EventFn = Box<dyn FnOnce()>;

/// What a popped event does: end a process's [`ProcCtx::advance`] — done by
/// the driver itself, under the borrow of the pop — or run a scheduled
/// callback.
pub(crate) enum Action {
    Wake(ProcId),
    Call(EventFn),
}

/// How same-time events are ordered ([`Sim::set_tiebreak`]). The kernel
/// never promises an order among same-time events, only that *some* total
/// order is picked; each mode below picks one from the event's sequence
/// number.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Scheduling order: the sequence number itself.
    Fifo,
    /// A seeded hash of the sequence number — a deterministic, seed-keyed
    /// permutation of every tie. Each seed is one legal alternative
    /// schedule; the conformance harness sweeps seeds to explore the
    /// schedule space.
    Seeded(u64),
}

pub(crate) struct Inner {
    pub(crate) now: SimTime,
    next_seq: u64,
    queue: EventQueue,
    /// The instant being drained and the largest tie-break popped at it:
    /// a reserved place at or before this has gone by ([`Inner::passed`]).
    drained: Stamp,
    /// The latest instant pushed or reserved ([`SimStats::final_time`]).
    horizon: SimTime,
    tiebreak: TieBreak,
    pub(crate) ready: VecDeque<ProcId>,
    pub(crate) procs: Vec<ProcRec>,
    /// The payload of a process that panicked in the slice that just ran;
    /// the driver takes it under the borrow of its next ready-queue pop.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    events_executed: u64,
    context_switches: u64,
    event_cap: u64,
}

impl Inner {
    /// Tie-break key for a freshly assigned sequence number.
    fn tiebreak_key(&self, seq: u64) -> u64 {
        match self.tiebreak {
            TieBreak::Fifo => seq,
            TieBreak::Seeded(seed) => crate::rng::mix64(seed, seq),
        }
    }

    /// Take the next place in the event order at `at`.
    fn stamp(&mut self, at: SimTime) -> Stamp {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.horizon = self.horizon.max(at);
        Stamp { at, key: self.tiebreak_key(seq) }
    }

    /// Push one event due at `at`.
    pub(crate) fn push_event(&mut self, at: SimTime, action: Action) {
        let stamp = self.stamp(at);
        self.queue.push(at, stamp.key, action);
    }

    /// Whether an event pushed at `stamp` when it was reserved would have
    /// been popped by now. Within an instant a push may pop before events
    /// already popped (a smaller key under [`TieBreak::Seeded`]), so the
    /// test is against the largest key popped at the instant, not the
    /// last: a reserved place is due after the instant it was taken in
    /// ([`SimHandle::reserve`]), so its event would have been pending since
    /// its instant began, and it pops before any event with a larger key.
    fn passed(&self, stamp: Stamp) -> bool {
        stamp <= self.drained
    }

    /// Move a blocked process to the ready queue. Idempotent for processes
    /// that are already ready, running, or finished.
    fn make_ready(&mut self, pid: ProcId) {
        let rec = &mut self.procs[pid.0];
        if rec.state == ProcState::Blocked {
            rec.state = ProcState::Ready;
            self.ready.push_back(pid);
        }
    }
}

/// Shared kernel state: the event queue plus per-process scheduling records.
pub(crate) struct SimCore {
    pub(crate) inner: RefCell<Inner>,
    /// Set once by `abort_all`, read by every process before and after
    /// every yield, outside the `inner` borrow.
    aborting: Cell<bool>,
    seed: u64,
}

impl SimCore {
    pub(crate) fn is_aborting(&self) -> bool {
        self.aborting.get()
    }
}

/// A cloneable handle for reading the clock and scheduling events. Event
/// callbacks run on the driver while no process runs, so they may freely
/// mutate state shared with processes.
///
/// The handle belongs to the driver thread, which owns the whole
/// simulation; it is not `Send`:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<mpisim_sim::SimHandle>();
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Rc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.inner.borrow().now
    }

    /// The seed this simulation was built with.
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// Schedule `f` to run `delay` after the current virtual time.
    pub fn schedule<F: FnOnce() + 'static>(&self, delay: SimTime, f: F) {
        let mut inner = self.core.inner.borrow_mut();
        let at = inner.now + delay;
        inner.push_event(at, Action::Call(Box::new(f)))
    }

    /// Schedule `f` at absolute virtual time `at` (clamped to now if in the
    /// past).
    pub fn schedule_at<F: FnOnce() + 'static>(&self, at: SimTime, f: F) {
        let mut inner = self.core.inner.borrow_mut();
        let at = at.max(inner.now);
        inner.push_event(at, Action::Call(Box::new(f)))
    }

    /// Take the next place in the event order at `at`, which must lie after
    /// the current time, without scheduling anything: every later event
    /// keeps the tie-break it would have had if an event had been
    /// scheduled here. Push the event at its place with
    /// [`SimHandle::schedule_stamped`] before it has [`passed`], or never;
    /// either way `at` counts toward [`SimStats::final_time`].
    ///
    /// [`passed`]: SimHandle::passed
    pub fn reserve(&self, at: SimTime) -> Stamp {
        let mut inner = self.core.inner.borrow_mut();
        // A place in the instant being drained could belong before events
        // already popped, and `passed` could not tell.
        debug_assert!(at > inner.now, "reserved {at} at {}", inner.now);
        inner.stamp(at)
    }

    /// Schedule `f` at the place `stamp` reserved, which must not have
    /// passed: it pops exactly where an event scheduled at the reservation
    /// would have.
    pub fn schedule_stamped<F: FnOnce() + 'static>(&self, stamp: Stamp, f: F) {
        let mut inner = self.core.inner.borrow_mut();
        debug_assert!(!inner.passed(stamp), "{stamp:?} scheduled after it passed");
        inner.queue.push(stamp.at, stamp.key, Action::Call(Box::new(f)))
    }

    /// Whether an event scheduled at `stamp` would already have run: true
    /// once an event ordered at or after it has been popped.
    pub fn passed(&self, stamp: Stamp) -> bool {
        self.core.inner.borrow().passed(stamp)
    }

    /// Number of events executed so far (useful for instrumentation).
    pub fn events_executed(&self) -> u64 {
        self.core.inner.borrow().events_executed
    }

    /// Ready `pid` if it is parked ([`ProcCtx::park`], or the park inside
    /// [`ProcCtx::advance`]): it runs after every process already in the
    /// ready queue, at the current virtual time. A no-op for a process that
    /// is ready, running or finished, so a wake can never be counted twice.
    pub fn wake(&self, pid: ProcId) {
        self.core.inner.borrow_mut().make_ready(pid);
    }
}

/// The simulation builder and driver.
///
/// ```
/// use mpisim_sim::{Sim, SimTime};
///
/// let mut sim = Sim::new(42);
/// sim.spawn("worker", |ctx| {
///     ctx.advance(SimTime::from_micros(10));
///     assert_eq!(ctx.now(), SimTime::from_micros(10));
/// });
/// let stats = sim.run().unwrap();
/// assert_eq!(stats.final_time, SimTime::from_micros(10));
/// ```
pub struct Sim {
    core: Rc<SimCore>,
    /// One fiber per process, indexed by [`ProcId`].
    fibers: Vec<Fiber>,
    /// The first spawn the OS refused; [`Sim::run`] returns it.
    spawn_error: Option<SimError>,
}

/// Runaway-simulation backstop: [`Sim::run`] stops with
/// [`SimError::EventCapExceeded`] past this many events.
const DEFAULT_EVENT_CAP: u64 = 2_000_000_000;

impl Sim {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Rc::new(SimCore {
                inner: RefCell::new(Inner {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    queue: EventQueue::new(),
                    drained: Stamp { at: SimTime::ZERO, key: 0 },
                    horizon: SimTime::ZERO,
                    ready: VecDeque::new(),
                    procs: Vec::new(),
                    panic_payload: None,
                    tiebreak: TieBreak::Fifo,
                    events_executed: 0,
                    context_switches: 0,
                    event_cap: DEFAULT_EVENT_CAP,
                }),
                aborting: Cell::new(false),
                seed,
            }),
            fibers: Vec::new(),
            spawn_error: None,
        }
    }

    /// Lower the event cap, so a test can reach the backstop.
    #[cfg(test)]
    fn set_event_cap(&mut self, cap: u64) {
        self.core.inner.borrow_mut().event_cap = cap;
    }

    /// Order same-time events by `tiebreak` instead of the default
    /// [`TieBreak::Fifo`].
    ///
    /// Must be set before the first event is scheduled to be meaningful
    /// (events already queued keep the key assigned at push time).
    pub fn set_tiebreak(&mut self, tiebreak: TieBreak) {
        let mut inner = self.core.inner.borrow_mut();
        debug_assert!(inner.queue.is_empty(), "tie-break changed after events were scheduled");
        inner.tiebreak = tiebreak;
    }

    /// A handle for scheduling events and reading the clock.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: self.core.clone(),
        }
    }

    /// Spawn a simulated process. The closure starts at virtual time zero,
    /// in spawn order, and is cooperatively scheduled as a stackful fiber.
    /// If the OS refuses the stack, [`Sim::run`] returns
    /// [`SimError::SpawnFailed`].
    pub fn spawn<F>(&mut self, label: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + 'static,
    {
        let pid = {
            let mut inner = self.core.inner.borrow_mut();
            let pid = ProcId(inner.procs.len());
            inner.procs.push(ProcRec {
                label: label.into(),
                state: ProcState::Ready,
                sleeping: false,
            });
            inner.ready.push_back(pid);
            pid
        };
        if self.spawn_error.is_some() {
            return pid;
        }
        let core = self.core.clone();
        let ctx = ProcCtx::new(core.clone(), pid);
        // Run `f`, then record completion and any real panic payload (the
        // AbortToken unwind is pure control flow). Control returns to the
        // driver through the fiber's final switch.
        let body = move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            let mut inner = core.inner.borrow_mut();
            inner.procs[pid.0].state = ProcState::Finished;
            if let Err(payload) = result {
                if !payload.is::<AbortToken>() {
                    inner.panic_payload.get_or_insert(payload);
                }
            }
        };
        match Fiber::new(Box::new(body)) {
            Ok(fiber) => {
                self.fibers.push(fiber);
                debug_assert_eq!(self.fibers.len(), pid.0 + 1);
            }
            Err(error) => {
                self.spawn_error = Some(SimError::SpawnFailed {
                    process: self.core.inner.borrow().procs[pid.0].label.clone(),
                    processes: pid.0 + 1,
                    error,
                });
            }
        }
        pid
    }

    /// Drive the simulation to completion: run ready processes, then pop
    /// events, until every process finishes (Ok) or nothing can make
    /// progress (deadlock error). Panics raised inside processes are
    /// propagated to the caller. A spawn the OS refused is returned before
    /// any event runs ([`SimError::SpawnFailed`]).
    pub fn run(mut self) -> Result<SimStats, SimError> {
        let outcome = match self.spawn_error.take() {
            Some(e) => Drive::Err(e),
            None => self.drive(),
        };
        match outcome {
            Drive::Done(stats) => Ok(stats),
            Drive::Err(e) => {
                self.abort_all();
                Err(e)
            }
            Drive::Panicked(payload) => {
                self.abort_all();
                panic::resume_unwind(payload);
            }
        }
    }

    fn drive(&mut self) -> Drive {
        loop {
            // Phase 1: drain ready processes (FIFO). Only processes with
            // pending work ever appear here, so idle ranks cost nothing.
            loop {
                // One borrow per slice boundary covers everything the slice
                // (or event) that just ran may have left behind.
                let pid = {
                    let mut inner = self.core.inner.borrow_mut();
                    // The process yielded back Blocked, Ready again, or
                    // Finished — possibly with a panic to propagate.
                    if let Some(p) = inner.panic_payload.take() {
                        return Drive::Panicked(p);
                    }
                    match inner.ready.pop_front() {
                        Some(p) => {
                            inner.procs[p.0].state = ProcState::Running;
                            inner.context_switches += 1;
                            p
                        }
                        None => break,
                    }
                };
                // The driver becomes the process for one slice: a stack
                // switch each way, until it parks or finishes.
                self.fibers[pid.0].resume();
            }

            // Phase 2: execute the next event.
            let call = {
                let mut inner = self.core.inner.borrow_mut();
                let Some((at, key, action)) = inner.queue.pop() else {
                    // No events, no ready processes: either everyone is done
                    // or we are deadlocked.
                    let blocked: Vec<String> = inner
                        .procs
                        .iter()
                        .filter(|p| p.state != ProcState::Finished)
                        .map(|p| p.label.clone())
                        .collect();
                    if blocked.is_empty() {
                        return Drive::Done(SimStats {
                            events_executed: inner.events_executed,
                            context_switches: inner.context_switches,
                            final_time: inner.horizon,
                        });
                    }
                    return Drive::Err(SimError::Deadlock { now: inner.horizon, blocked });
                };
                debug_assert!(at >= inner.now, "event in the past");
                inner.now = at;
                if at > inner.drained.at {
                    inner.drained = Stamp { at, key };
                } else {
                    inner.drained.key = inner.drained.key.max(key);
                }
                inner.events_executed += 1;
                if inner.events_executed > inner.event_cap {
                    return Drive::Err(SimError::EventCapExceeded { cap: inner.event_cap });
                }
                match action {
                    Action::Wake(pid) => {
                        inner.procs[pid.0].sleeping = false;
                        inner.make_ready(pid);
                        continue;
                    }
                    Action::Call(f) => f,
                }
            };
            call();
        }
    }

    /// Unwind every unfinished process so the run can terminate; used on
    /// deadlock or propagated panic.
    fn abort_all(&mut self) {
        // The unwind is driven by `panic_any(AbortToken)` in each blocked
        // process — pure control flow, not an error. Silence the default
        // panic hook for that payload type (once, process-wide) so a
        // deadlocked simulation doesn't spray one backtrace per rank.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<AbortToken>().is_none() {
                    prev(info);
                }
            }));
        });
        self.core.aborting.set(true);
        // Resume every unfinished fiber until it unwinds: a suspended fiber
        // aborts at the yield it returns into, a never-started one aborts
        // at its first blocking call (both checks live in `ProcCtx::park`).
        // The loop guards against slices that block again without
        // observing the flag; each resume strictly advances the fiber
        // toward its AbortToken unwind.
        for f in self.fibers.iter_mut() {
            while !f.is_finished() {
                f.resume();
            }
        }
    }
}

impl Drop for Sim {
    /// Hand the fibers' stacks to the next simulation on this thread
    /// (`fiber::retire`). A spawn was refused exactly when a process has
    /// no fiber; such a simulation gives every stack back to the OS, and so
    /// does one whose kernel a stranded slice still borrows mutably (a bug
    /// the driver has already panicked on; a drop must not panic again).
    fn drop(&mut self) {
        let fibers = std::mem::take(&mut self.fibers);
        let refused = self
            .core
            .inner
            .try_borrow()
            .map_or(true, |inner| inner.procs.len() > fibers.len());
        fiber::retire(fibers, refused);
    }
}

enum Drive {
    Done(SimStats),
    Err(SimError),
    Panicked(Box<dyn std::any::Any + Send>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new(0);
        let stats = sim.run().unwrap();
        assert_eq!(stats.final_time, SimTime::ZERO);
        assert_eq!(stats.events_executed, 0);
    }

    #[test]
    fn events_run_in_time_then_seq_order() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, d) in [30u64, 10, 20, 10].iter().enumerate() {
            let log = log.clone();
            h.schedule(SimTime::from_nanos(*d), move || log.borrow_mut().push(i));
        }
        sim.run().unwrap();
        // delays 10(i=1), 10(i=3) tie-broken by insertion, then 20, then 30
        assert_eq!(*log.borrow(), vec![1, 3, 2, 0]);
    }

    fn tie_order(tiebreak: TieBreak) -> Vec<usize> {
        let mut sim = Sim::new(0);
        sim.set_tiebreak(tiebreak);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        // Eight events tied at t=10ns, one late straggler at t=20ns.
        for i in 0..8 {
            let log = log.clone();
            h.schedule(SimTime::from_nanos(10), move || log.borrow_mut().push(i));
        }
        let log2 = log.clone();
        h.schedule(SimTime::from_nanos(20), move || log2.borrow_mut().push(99));
        sim.run().unwrap();
        log.take()
    }

    #[test]
    fn tiebreak_default_is_fifo() {
        assert_eq!(tie_order(TieBreak::Fifo), vec![0, 1, 2, 3, 4, 5, 6, 7, 99]);
    }

    #[test]
    fn tiebreak_seed_permutes_only_ties() {
        let base = tie_order(TieBreak::Fifo);
        let mut saw_reorder = false;
        for seed in 0..8u64 {
            let p = tie_order(TieBreak::Seeded(seed));
            // Same event set, straggler still strictly last.
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5, 6, 7, 99]);
            assert_eq!(*p.last().unwrap(), 99);
            // Same seed, same schedule.
            assert_eq!(p, tie_order(TieBreak::Seeded(seed)));
            saw_reorder |= p != base;
        }
        assert!(saw_reorder, "no seed in 0..8 permuted an 8-way tie");
    }

    #[test]
    fn event_cap_is_enforced() {
        let mut sim = Sim::new(0);
        sim.set_event_cap(10);
        let h = sim.handle();
        fn reschedule(h: SimHandle) {
            let h2 = h.clone();
            h.schedule(SimTime::from_nanos(1), move || reschedule(h2));
        }
        reschedule(h);
        match sim.run() {
            Err(SimError::EventCapExceeded { cap: 10 }) => {}
            other => panic!("expected cap error, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_propagates() {
        let mut sim = Sim::new(0);
        sim.spawn("bad", |_| panic!("boom-xyz"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom-xyz"));
    }

    #[test]
    fn deadlock_reports_blocked_labels() {
        let mut sim = Sim::new(0);
        sim.spawn("stuck-rank", |ctx| ctx.park()); // never woken
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked, vec!["stuck-rank".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn reruns_produce_identical_stats_and_schedules() {
        fn run_once() -> (SimStats, Vec<(u64, usize)>) {
            let mut sim = Sim::new(11);
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..12usize {
                let log = log.clone();
                sim.spawn(format!("p{i}"), move |ctx| {
                    for step in 0..6u64 {
                        ctx.advance(SimTime::from_nanos((i as u64 * 7 + step * 3) % 13 + 1));
                        log.borrow_mut().push((ctx.now().as_nanos(), i));
                    }
                });
            }
            let stats = sim.run().unwrap();
            (stats, log.take())
        }
        let base = run_once();
        assert_eq!(base.1.len(), 12 * 6);
        assert_eq!(run_once(), base);
    }

    #[test]
    fn immediate_panic_with_unstarted_peer_terminates() {
        // Regression: a process panicking during the very first ready-drain
        // used to strand peers that had never started — abort_all resumed
        // them, they ran to their first park, and the run hung. The
        // aborting check before the yield in `park` unwinds them now.
        let mut sim = Sim::new(0);
        sim.spawn("bomb", |_| panic!("early-boom"));
        sim.spawn("late-starter", |ctx| ctx.park()); // would block forever
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("early-boom"));
    }

    #[test]
    fn a_borrow_held_across_a_yield_panics_at_the_next_borrow() {
        // A slice that parks while it still borrows the kernel is a bug the
        // driver's next borrow reports: a "RefCell already borrowed" panic, not a hang.
        let mut sim = Sim::new(0);
        sim.spawn("holder", |ctx| {
            let core = ctx.handle().core;
            let _held = core.inner.borrow();
            crate::fiber::yield_current();
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(msg.contains("already"), "{msg}");
    }
}
