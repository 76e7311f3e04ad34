//! Process-side API: the context handed to each simulated process and the
//! one-shot [`Signal`] used to block on conditions maintained elsewhere
//! (event callbacks or other processes).
//!
//! A process gives up execution in two ways. [`ProcCtx::advance`] sleeps
//! until a known instant: one heap record that names the process, woken by
//! the driver itself. [`ProcCtx::wait`] / [`ProcCtx::wait_any`] block on a
//! condition somebody else will publish by firing a [`Signal`]. Both
//! re-check in a loop, because a stale registration left by `wait_any` can
//! ready the process early.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::{Action, ProcId, ProcState, SimCore, SimHandle};
use crate::time::SimTime;

/// Marker payload used to unwind process threads when a run is aborted
/// (deadlock or propagated panic). Never observed by user code.
pub(crate) struct AbortToken;

/// Context passed to every simulated process closure.
///
/// All interaction with virtual time goes through this context: reading the
/// clock, advancing it (modelled computation), and blocking on [`Signal`]s.
pub struct ProcCtx {
    core: Arc<SimCore>,
    pid: ProcId,
    parker: Arc<crate::parker::Parker>,
    label: String,
}

impl ProcCtx {
    pub(crate) fn new(
        core: Arc<SimCore>,
        pid: ProcId,
        parker: Arc<crate::parker::Parker>,
        label: String,
    ) -> Self {
        ProcCtx {
            core,
            pid,
            parker,
            label,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// This process's label (for diagnostics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.inner.lock().now
    }

    /// A handle for scheduling events from within this process.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: self.core.clone(),
        }
    }

    /// Advance virtual time by `d` for this process: models computation or
    /// any other busy period. Other processes and events run meanwhile.
    ///
    /// The sleep is one heap record (`Action::Wake`) and a flag on the
    /// process record, nothing else: the deadline is known, so there is no
    /// condition to publish and no waiter list to keep. Wake-ups can be
    /// spurious exactly as in [`ProcCtx::wait`] (a stale registration with a
    /// signal that fires mid-sleep), so the flag is re-checked in a loop.
    pub fn advance(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let mut inner = self.core.inner.lock();
        let at = inner.now + d;
        inner.push_event(at, Action::Wake(self.pid));
        inner.procs[self.pid.0].sleeping = true;
        loop {
            inner.procs[self.pid.0].state = ProcState::Blocked;
            drop(inner);
            self.yield_to_scheduler();
            inner = self.core.inner.lock();
            if !inner.procs[self.pid.0].sleeping {
                return;
            }
        }
    }

    /// Block until `sig` fires. Returns immediately if it already fired.
    ///
    /// Wake-ups can be spurious (a process that once registered with several
    /// signals may be woken by a stale one), so the fired flag is re-checked
    /// in a loop.
    pub fn wait(&self, sig: &Signal) {
        loop {
            {
                let mut s = sig.inner.lock();
                if s.fired {
                    return;
                }
                s.waiters.push(self.pid);
                s.core.get_or_insert_with(|| self.core.clone());
                let mut inner = self.core.inner.lock();
                inner.procs[self.pid.0].state = ProcState::Blocked;
            }
            self.yield_to_scheduler();
        }
    }

    /// Block until any signal in `sigs` fires. Returns the index of a fired
    /// signal (the lowest one if several fired).
    pub fn wait_any(&self, sigs: &[Signal]) -> usize {
        assert!(!sigs.is_empty(), "wait_any on empty signal set");
        loop {
            {
                // Check first, then register with every pending signal.
                for (i, s) in sigs.iter().enumerate() {
                    if s.inner.lock().fired {
                        return i;
                    }
                }
                for s in sigs {
                    let mut st = s.inner.lock();
                    st.waiters.push(self.pid);
                    st.core.get_or_insert_with(|| self.core.clone());
                }
                let mut inner = self.core.inner.lock();
                inner.procs[self.pid.0].state = ProcState::Blocked;
            }
            self.yield_to_scheduler();
        }
    }

    fn yield_to_scheduler(&self) {
        // Checked *before* giving up execution as well as after: a process
        // that was never started when the run began aborting (it runs its
        // body for the first time during abort_all) must unwind at its
        // first blocking call instead of parking forever.
        if self.core.is_aborting() {
            std::panic::panic_any(AbortToken);
        }
        if crate::fiber::on_fiber() {
            // Pooled mode: suspend this continuation; control returns to
            // the driver (or pool worker) that resumed it.
            crate::fiber::yield_current();
        } else {
            // Thread mode: hand the baton back and park this OS thread.
            self.core.sched.unpark();
            self.parker.park();
        }
        if self.core.is_aborting() {
            std::panic::panic_any(AbortToken);
        }
    }
}

#[derive(Default)]
pub(crate) struct SignalInner {
    pub(crate) fired: bool,
    pub(crate) waiters: Vec<ProcId>,
    pub(crate) core: Option<Arc<SimCore>>,
}

/// A one-shot, broadcast wake-up flag.
///
/// Processes block on a `Signal` with [`ProcCtx::wait`]; any code running in
/// the simulation (an event callback, middleware invoked by another process)
/// fires it with [`Signal::fire`]. Once fired it stays fired; waiting on a
/// fired signal returns immediately. For recurring conditions, create a
/// fresh `Signal` per wait and re-check the condition in a loop.
#[derive(Clone, Default)]
pub struct Signal {
    pub(crate) inner: Arc<Mutex<SignalInner>>,
}

impl Signal {
    /// Create an unfired signal.
    pub fn new() -> Self {
        Signal::default()
    }

    /// Fire the signal, waking every currently blocked waiter. Idempotent.
    pub fn fire(&self) {
        let (core, waiters) = {
            let mut s = self.inner.lock();
            s.fired = true;
            (s.core.clone(), std::mem::take(&mut s.waiters))
        };
        if let Some(core) = core {
            for pid in waiters {
                core.make_ready(pid);
            }
        }
    }

    /// Whether the signal has fired.
    pub fn is_fired(&self) -> bool {
        self.inner.lock().fired
    }
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signal(fired={})", self.is_fired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;

    #[test]
    fn advance_moves_only_this_process() {
        let mut sim = Sim::new(0);
        let t_a = Arc::new(Mutex::new(SimTime::ZERO));
        let t_b = Arc::new(Mutex::new(SimTime::ZERO));
        let (ta, tb) = (t_a.clone(), t_b.clone());
        sim.spawn("a", move |ctx| {
            ctx.advance(SimTime::from_micros(100));
            *ta.lock() = ctx.now();
        });
        sim.spawn("b", move |ctx| {
            ctx.advance(SimTime::from_micros(5));
            *tb.lock() = ctx.now();
        });
        sim.run().unwrap();
        assert_eq!(*t_a.lock(), SimTime::from_micros(100));
        assert_eq!(*t_b.lock(), SimTime::from_micros(5));
    }

    #[test]
    fn advance_zero_is_a_noop() {
        let mut sim = Sim::new(0);
        sim.spawn("a", |ctx| {
            ctx.advance(SimTime::ZERO);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn signal_handoff_between_processes() {
        let mut sim = Sim::new(0);
        let sig = Signal::new();
        let data = Arc::new(Mutex::new(0u32));
        let (s1, d1) = (sig.clone(), data.clone());
        sim.spawn("producer", move |ctx| {
            ctx.advance(SimTime::from_micros(42));
            *d1.lock() = 7;
            s1.fire();
        });
        let d2 = data.clone();
        sim.spawn("consumer", move |ctx| {
            ctx.wait(&sig);
            assert_eq!(*d2.lock(), 7);
            assert_eq!(ctx.now(), SimTime::from_micros(42));
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_on_fired_signal_returns_immediately() {
        let mut sim = Sim::new(0);
        sim.spawn("a", |ctx| {
            let sig = Signal::new();
            sig.fire();
            ctx.wait(&sig);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_any_returns_first_fired() {
        let mut sim = Sim::new(0);
        let sigs = [Signal::new(), Signal::new(), Signal::new()];
        let s1 = sigs[1].clone();
        sim.spawn("firer", move |ctx| {
            ctx.advance(SimTime::from_micros(3));
            s1.fire();
        });
        let sigs2 = sigs.clone();
        sim.spawn("waiter", move |ctx| {
            let i = ctx.wait_any(&sigs2);
            assert_eq!(i, 1);
            assert_eq!(ctx.now(), SimTime::from_micros(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn signal_broadcast_wakes_all_waiters() {
        let mut sim = Sim::new(0);
        let sig = Signal::new();
        let count = Arc::new(Mutex::new(0));
        for i in 0..5 {
            let (s, c) = (sig.clone(), count.clone());
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.wait(&s);
                *c.lock() += 1;
            });
        }
        let s = sig.clone();
        sim.spawn("firer", move |ctx| {
            ctx.advance(SimTime::from_micros(1));
            s.fire();
        });
        sim.run().unwrap();
        assert_eq!(*count.lock(), 5);
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        // Two identical runs must produce identical event orderings.
        fn run_once() -> Vec<(u64, usize)> {
            let mut sim = Sim::new(7);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..20 {
                let log = log.clone();
                sim.spawn(format!("p{i}"), move |ctx| {
                    for step in 0..5 {
                        ctx.advance(SimTime::from_nanos(((i * 13 + step * 7) % 11) + 1));
                        log.lock().push((ctx.now().as_nanos(), i as usize));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}
