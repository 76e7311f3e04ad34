//! Process-side API: the context handed to each simulated process.
//!
//! A process gives up the CPU through [`ProcCtx::park`] and nothing else:
//! mark this process `Blocked`, yield to the driver. It runs again once
//! somebody readies it — [`SimHandle::wake`] from an event callback or from
//! another process's slice, or the driver itself popping this process's
//! [`Action::Wake`] record — and `park` then simply returns. The kernel does
//! not know what the process is waiting for; the caller keeps its condition
//! in state of its own and re-checks it after every `park`, because a wake
//! meant for an earlier park may land during a later one.
//! [`ProcCtx::advance`] is that pattern with the one condition the kernel
//! does own: push a wake-up record for `now + d`, park until the driver has
//! popped it.

use std::cell::RefMut;
use std::rc::Rc;

use crate::kernel::{Action, Inner, ProcId, ProcState, SimCore, SimHandle};
use crate::time::SimTime;

/// Marker payload used to unwind suspended processes when a run is aborted
/// (deadlock or propagated panic). Never observed by user code.
pub(crate) struct AbortToken;

/// Context passed to every simulated process closure.
///
/// All interaction with virtual time goes through this context: reading the
/// clock, advancing it (modelled computation), and parking until woken.
pub struct ProcCtx {
    core: Rc<SimCore>,
    pid: ProcId,
}

impl ProcCtx {
    pub(crate) fn new(core: Rc<SimCore>, pid: ProcId) -> Self {
        ProcCtx { core, pid }
    }

    /// This process's id — what a waker passes to [`SimHandle::wake`].
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.inner.borrow().now
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
    /// The sleep is one queued event (`Action::Wake`) and a flag on the
    /// process record, nothing else. A [`SimHandle::wake`] that lands
    /// mid-sleep costs one slice: the flag is still set, so the process
    /// parks again until exactly the deadline.
    pub fn advance(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let mut inner = self.core.inner.borrow_mut();
        let at = inner.now + d;
        inner.push_event(at, Action::Wake(self.pid));
        inner.procs[self.pid.0].sleeping = true;
        while inner.procs[self.pid.0].sleeping {
            self.park_under(inner);
            inner = self.core.inner.borrow_mut();
        }
    }

    /// Give up the CPU until somebody readies this process
    /// ([`SimHandle::wake`]). Nothing is recorded about *why*: publish the
    /// condition (and this process's [`pid`](ProcCtx::pid)) where the waker
    /// will find it before parking, and re-check it on return — exactly one
    /// entity runs at a time, so nothing can slip in between the publication
    /// and the park. A process nobody wakes shows up in
    /// [`SimError::Deadlock`](crate::SimError::Deadlock).
    pub fn park(&self) {
        self.park_under(self.core.inner.borrow_mut());
    }

    /// [`ProcCtx::park`] for a caller that already borrows the kernel
    /// (`advance`, one borrow each way): mark `Blocked`, release, yield.
    fn park_under(&self, mut inner: RefMut<'_, Inner>) {
        inner.procs[self.pid.0].state = ProcState::Blocked;
        drop(inner);
        self.yield_to_scheduler();
    }

    fn yield_to_scheduler(&self) {
        // Checked *before* giving up execution as well as after: a process
        // that was never started when the run began aborting (it runs its
        // body for the first time during abort_all) must unwind at its
        // first blocking call instead of parking forever.
        if self.core.is_aborting() {
            std::panic::panic_any(AbortToken);
        }
        // Suspend this continuation; control returns to the driver that
        // resumed it.
        crate::fiber::yield_current();
        if self.core.is_aborting() {
            std::panic::panic_any(AbortToken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use std::cell::{Cell, RefCell};

    #[test]
    fn advance_moves_only_this_process() {
        let mut sim = Sim::new(0);
        let t_a = Rc::new(Cell::new(SimTime::ZERO));
        let t_b = Rc::new(Cell::new(SimTime::ZERO));
        let (ta, tb) = (t_a.clone(), t_b.clone());
        sim.spawn("a", move |ctx| {
            ctx.advance(SimTime::from_micros(100));
            ta.set(ctx.now());
        });
        sim.spawn("b", move |ctx| {
            ctx.advance(SimTime::from_micros(5));
            tb.set(ctx.now());
        });
        sim.run().unwrap();
        assert_eq!(t_a.get(), SimTime::from_micros(100));
        assert_eq!(t_b.get(), SimTime::from_micros(5));
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
    fn park_until_a_flag_hands_off_between_processes() {
        // The whole protocol: the consumer publishes its condition (the
        // flag) and parks; the producer sets the flag and wakes it by id.
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let data = Rc::new(Cell::new(None));
        let d2 = data.clone();
        let consumer = sim.spawn("consumer", move |ctx| {
            while d2.get().is_none() {
                ctx.park();
            }
            assert_eq!(d2.get(), Some(7));
            assert_eq!(ctx.now(), SimTime::from_micros(42));
        });
        sim.spawn("producer", move |ctx| {
            ctx.advance(SimTime::from_micros(42));
            data.set(Some(7));
            h.wake(consumer);
        });
        sim.run().unwrap();
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        // Two identical runs must produce identical event orderings.
        fn run_once() -> Vec<(u64, usize)> {
            let mut sim = Sim::new(7);
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..20 {
                let log = log.clone();
                sim.spawn(format!("p{i}"), move |ctx| {
                    for step in 0..5 {
                        ctx.advance(SimTime::from_nanos(((i * 13 + step * 7) % 11) + 1));
                        log.borrow_mut().push((ctx.now().as_nanos(), i as usize));
                    }
                });
            }
            sim.run().unwrap();
            log.take()
        }
        assert_eq!(run_once(), run_once());
    }
}
