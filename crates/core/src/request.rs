//! Request objects — the internal implementation of the `MPI_REQUEST`
//! handles used by the test/wait family (§VII.C).
//!
//! Requests are specialized at creation as epoch-opening (dummy, completed
//! immediately — the paper's rule for all nonblocking epoch-opening
//! routines), epoch-closing, flush, communication (request-based RMA),
//! two-sided, or barrier requests. The handle is a [`Slab`] key, which makes
//! stale handles detectable.
//!
//! The request is also what a rank blocks on: a pending request records the
//! one process parked on it ([`ReqTable::poll`]), and
//! [`ReqTable::complete`] is the single place a blocked rank is readied.

use bytes::Bytes;
use mpisim_sim::{ProcId, SimHandle};

use crate::error::{RmaError, RmaResult};
use crate::slab::Slab;
use crate::types::Req;

/// What a request stands for (diagnostics; completion logic is uniform).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// Dummy epoch-opening request: complete at creation (§VII.C).
    EpochOpen,
    /// Epoch-closing request (icomplete/iwait/iunlock/ifence/...).
    EpochClose,
    /// Flush request, age-stamped.
    Flush,
    /// Request-based RMA operation (rput/rget/...), or a fetch result.
    Comm,
    /// Two-sided send/recv.
    P2p,
    /// Barrier.
    Barrier,
}

struct ReqState {
    kind: ReqKind,
    done: bool,
    data: Option<Bytes>,
    /// The process parked on this request, readied by `complete`.
    waiter: Option<ProcId>,
}

/// One request-lifecycle transition, recorded when logging is enabled.
/// Consumed by the conformance harness's auditor: a handle must go
/// `Alloc → Complete → Consume`, complete effectively once, and be
/// consumed exactly once — application-visible completion happens only at
/// test/wait, which is the sole caller of `consume` (§VII.C).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReqEvent {
    /// Allocated pending. Dummy epoch-open requests log `Alloc`
    /// immediately followed by `Complete` (complete at creation).
    Alloc(ReqKind),
    /// Transitioned to complete (first effective completion only;
    /// idempotent re-completions are not logged).
    Complete,
    /// Consumed by test/wait; the slot is freed.
    Consume,
}

/// Table of live requests. One per job, inside the engine state.
pub struct ReqTable {
    sim: SimHandle,
    slots: Slab<ReqState>,
    logging: bool,
    log: Vec<(Req, ReqEvent)>,
}

impl ReqTable {
    /// Create an empty table whose completions ready processes of `sim`,
    /// with lifecycle logging (see [`ReqEvent`]) on or off.
    pub fn new(sim: SimHandle, logging: bool) -> Self {
        ReqTable { sim, slots: Slab::default(), logging, log: Vec::new() }
    }

    /// Drain the recorded lifecycle log.
    pub fn take_log(&mut self) -> Vec<(Req, ReqEvent)> {
        std::mem::take(&mut self.log)
    }

    /// Allocate a pending request.
    pub fn alloc(&mut self, kind: ReqKind) -> Req {
        let r = Req(self.slots.insert(ReqState {
            kind,
            done: false,
            data: None,
            waiter: None,
        }));
        if self.logging {
            self.log.push((r, ReqEvent::Alloc(kind)));
        }
        r
    }

    /// Allocate a request that is already complete (the dummy epoch-opening
    /// request of §VII.C).
    pub fn alloc_done(&mut self, kind: ReqKind) -> Req {
        let r = self.alloc(kind);
        self.complete(r, None);
        r
    }

    /// Mark a request complete, attaching optional result data, and ready
    /// the process parked on it. Completing an already-complete request is
    /// a no-op for `data == None` (idempotent completion notifications are
    /// common).
    pub fn complete(&mut self, r: Req, data: Option<Bytes>) {
        let st = self
            .slots
            .get_mut(r.0)
            .expect("engine completed a request that does not exist");
        if st.done && data.is_none() {
            return;
        }
        let transition = !st.done;
        st.done = true;
        if data.is_some() {
            st.data = data;
        }
        if let Some(pid) = st.waiter.take() {
            self.sim.wake(pid);
        }
        if self.logging && transition {
            self.log.push((r, ReqEvent::Complete));
        }
    }

    /// Whether the request is complete. Errors on stale handles.
    pub fn is_done(&self, r: Req) -> RmaResult<bool> {
        self.slots.get(r.0).map(|s| s.done).ok_or(RmaError::InvalidRequest)
    }

    /// The request's kind. Errors on stale handles.
    pub fn kind(&self, r: Req) -> RmaResult<ReqKind> {
        self.slots.get(r.0).map(|s| s.kind).ok_or(RmaError::InvalidRequest)
    }

    /// The step the whole test/wait family shares. A complete request is
    /// consumed: `Ok(Some(data))`. A pending one stays, `Ok(None)`, and if
    /// the caller is about to park (`waiter`) it is recorded as the process
    /// `complete` will ready — idempotently. A request holds one waiter: a
    /// second process parking on it is misuse and errs at once, like a
    /// stale handle.
    pub fn poll(&mut self, r: Req, waiter: Option<ProcId>) -> RmaResult<Option<Option<Bytes>>> {
        let st = self.slots.get_mut(r.0).ok_or(RmaError::InvalidRequest)?;
        if st.done {
            return self.consume(r).map(Some);
        }
        if let Some(pid) = waiter {
            if st.waiter.is_some_and(|other| other != pid) {
                return Err(RmaError::InvalidRequest);
            }
            st.waiter = Some(pid);
        }
        Ok(None)
    }

    /// Withdraw `pid` as the waiter of every still-live request in `reqs`
    /// (what `wait_any` owes the requests it did not consume).
    pub fn forget(&mut self, reqs: &[Req], pid: ProcId) {
        for r in reqs {
            if let Some(st) = self.slots.get_mut(r.0).filter(|st| st.waiter == Some(pid)) {
                st.waiter = None;
            }
        }
    }

    /// Consume a *completed* request, returning its result data. Errors if
    /// the handle is stale; panics if the request is not complete (callers
    /// check or wait first).
    pub fn consume(&mut self, r: Req) -> RmaResult<Option<Bytes>> {
        let st = self.slots.remove(r.0).ok_or(RmaError::InvalidRequest)?;
        assert!(st.done, "consume() on an incomplete request");
        if self.logging {
            self.log.push((r, ReqEvent::Consume));
        }
        Ok(st.data)
    }

    /// Number of live (unconsumed) requests — used by leak-check tests.
    pub fn live(&self) -> usize {
        self.slots.iter().count()
    }

    /// Number of live requests a process is registered on — between MPI
    /// calls, one per rank currently blocked in the wait family.
    pub fn parked(&self) -> usize {
        self.slots.iter().filter(|st| st.waiter.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim_sim::Sim;

    fn table() -> ReqTable {
        ReqTable::new(Sim::new(0).handle(), true)
    }

    #[test]
    fn lifecycle() {
        let mut t = table();
        let r = t.alloc(ReqKind::EpochClose);
        assert!(!t.is_done(r).unwrap());
        t.complete(r, Some(Bytes::from_static(b"xy")));
        assert!(t.is_done(r).unwrap());
        assert_eq!(t.consume(r).unwrap().unwrap().as_ref(), b"xy");
        // Handle is now stale.
        assert_eq!(t.is_done(r), Err(RmaError::InvalidRequest));
    }

    #[test]
    fn alloc_done_is_complete_at_creation() {
        let mut t = table();
        let r = t.alloc_done(ReqKind::EpochOpen);
        assert!(t.is_done(r).unwrap());
        assert_eq!(t.kind(r).unwrap(), ReqKind::EpochOpen);
    }

    #[test]
    fn slot_reuse_invalidates_old_handle() {
        let mut t = table();
        let r1 = t.alloc(ReqKind::Comm);
        t.complete(r1, None);
        t.consume(r1).unwrap();
        let r2 = t.alloc(ReqKind::Comm);
        assert_ne!(r1, r2);
        assert_eq!(t.is_done(r1), Err(RmaError::InvalidRequest));
        assert!(!t.is_done(r2).unwrap());
    }

    #[test]
    fn poll_registers_one_waiter_and_completion_clears_it() {
        let mut sim = Sim::new(0);
        let (me, other) = (sim.spawn("me", |_| {}), sim.spawn("other", |_| {}));
        let mut t = ReqTable::new(sim.handle(), false);
        let r = t.alloc(ReqKind::P2p);
        assert_eq!((t.poll(r, None), t.parked()), (Ok(None), 0)); // a test registers nobody
        assert_eq!((t.poll(r, Some(me)), t.poll(r, Some(me)), t.parked()), (Ok(None), Ok(None), 1));
        assert_eq!(t.poll(r, Some(other)), Err(RmaError::InvalidRequest));
        t.forget(&[r], other); // not its registration: stays
        assert_eq!(t.parked(), 1);
        t.complete(r, None); // wakes `me` (a no-op: it never parked)
        assert_eq!(t.parked(), 0);
        assert_eq!(t.poll(r, Some(other)), Ok(Some(None))); // done: consumed
        assert_eq!(t.poll(r, None), Err(RmaError::InvalidRequest)); // stale
        sim.run().unwrap();
    }

    #[test]
    fn idempotent_completion() {
        let mut t = table();
        let r = t.alloc(ReqKind::Flush);
        t.complete(r, None);
        t.complete(r, None); // no panic
        assert!(t.is_done(r).unwrap());
    }

    #[test]
    fn log_records_lifecycle_in_order() {
        let mut t = table();
        let r = t.alloc(ReqKind::Comm);
        t.complete(r, None);
        t.complete(r, None); // idempotent: not logged twice
        t.consume(r).unwrap();
        let d = t.alloc_done(ReqKind::EpochOpen);
        assert_eq!(
            t.take_log(),
            vec![
                (r, ReqEvent::Alloc(ReqKind::Comm)),
                (r, ReqEvent::Complete),
                (r, ReqEvent::Consume),
                (d, ReqEvent::Alloc(ReqKind::EpochOpen)),
                (d, ReqEvent::Complete),
            ]
        );
        assert!(t.take_log().is_empty());
    }

    #[test]
    fn live_count_tracks_alloc_and_consume() {
        let mut t = table();
        assert_eq!(t.live(), 0);
        let a = t.alloc(ReqKind::Comm);
        let b = t.alloc(ReqKind::Comm);
        assert_eq!(t.live(), 2);
        t.complete(a, None);
        t.consume(a).unwrap();
        assert_eq!(t.live(), 1);
        t.complete(b, None);
        t.consume(b).unwrap();
        assert_eq!(t.live(), 0);
    }
}
