//! Request objects — the internal implementation of the `MPI_REQUEST`
//! handles used by the test/wait family (§VII.C).
//!
//! Requests are specialized at creation as epoch-opening (dummy, completed
//! immediately — the paper's rule for all nonblocking epoch-opening
//! routines), epoch-closing, flush, communication (request-based RMA),
//! two-sided, or barrier requests. The handle is a `Slab` key, which makes
//! stale handles detectable.
//!
//! The request is also what a rank blocks on: a pending request records the
//! one process parked on it ([`ReqTable::poll`]), and
//! [`ReqTable::complete`] is the single place a blocked rank is readied.
//!
//! The table records no trace itself: it remembers each request's owning
//! rank, and its transitions tell the engine what to trace ([`ReqEvent`]).

use mpisim_net::Bytes;
use mpisim_sim::{ProcId, SimHandle};

use crate::error::{RmaError, RmaResult};
use crate::slab::Slab;
use crate::types::{Rank, Req};

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
    /// The index of the rank whose call allocated the request. A `u32`
    /// fits the padding beside `kind` and `done`, so keeping it makes the
    /// state no larger: an untraced job pays nothing for it.
    owner: u32,
    kind: ReqKind,
    done: bool,
    data: Option<Bytes>,
    /// The process parked on this request, readied by `complete`.
    waiter: Option<ProcId>,
}

/// One request-lifecycle transition, the event of a request record of the
/// trace ([`crate::trace::TraceEvent::Req`]). Read by the conformance
/// harness's auditor: a handle must go `Alloc → Complete → Consume`,
/// complete effectively once, and be consumed exactly once —
/// application-visible completion happens only at test/wait, the only
/// callers of [`ReqTable::poll`], which consumes (§VII.C).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReqEvent {
    /// Allocated pending. Dummy epoch-open requests trace `Alloc`
    /// immediately followed by `Complete` (complete at creation).
    Alloc(ReqKind),
    /// Transitioned to complete (first effective completion only;
    /// idempotent re-completions are not traced).
    Complete,
    /// Consumed by test/wait; the slot is freed.
    Consume,
}

/// Table of live requests. One per job, inside the engine state.
pub struct ReqTable {
    sim: SimHandle,
    slots: Slab<ReqState>,
}

impl ReqTable {
    /// Create an empty table whose completions ready processes of `sim`.
    pub fn new(sim: SimHandle) -> Self {
        ReqTable { sim, slots: Slab::default() }
    }

    /// Allocate a pending request owned by `owner`.
    pub fn alloc(&mut self, owner: Rank, kind: ReqKind) -> Req {
        let owner = u32::try_from(owner.idx()).expect("a rank index fits in u32");
        Req(self.slots.insert(ReqState { owner, kind, done: false, data: None, waiter: None }))
    }

    /// Mark a request complete, attaching optional result data, and ready
    /// the process parked on it. Completing an already-complete request is
    /// a no-op for `data == None` (idempotent completion notifications are
    /// common). Returns the owner if this call completed the request: the
    /// one effective completion, [`ReqEvent::Complete`].
    #[must_use]
    pub fn complete(&mut self, r: Req, data: Option<Bytes>) -> Option<Rank> {
        let st = self
            .slots
            .get_mut(r.0)
            .expect("engine completed a request that does not exist");
        if st.done && data.is_none() {
            return None;
        }
        let transition = !st.done;
        st.done = true;
        if data.is_some() {
            st.data = data;
        }
        if let Some(pid) = st.waiter.take() {
            self.sim.wake(pid);
        }
        transition.then_some(Rank(st.owner as usize))
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
    /// consumed and its slot freed ([`ReqEvent::Consume`]): `Ok(Some((owner,
    /// data)))`. A pending one stays, `Ok(None)`, and if the caller is about
    /// to park (`waiter`) it is recorded as the process `complete` will
    /// ready — idempotently. A request holds one waiter: a second process
    /// parking on it is misuse and errs at once, like a stale handle.
    pub fn poll(
        &mut self,
        r: Req,
        waiter: Option<ProcId>,
    ) -> RmaResult<Option<(Rank, Option<Bytes>)>> {
        let st = self.slots.get_mut(r.0).ok_or(RmaError::InvalidRequest)?;
        if st.done {
            let st = self.slots.remove(r.0).expect("a live request");
            return Ok(Some((Rank(st.owner as usize), st.data)));
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
        ReqTable::new(Sim::new(0).handle())
    }

    #[test]
    fn lifecycle() {
        let mut t = table();
        let r = t.alloc(Rank(0), ReqKind::EpochClose);
        assert!(!t.is_done(r).unwrap());
        assert_eq!(t.complete(r, Some(Bytes::new(b"xy".to_vec()))), Some(Rank(0)));
        assert!(t.is_done(r).unwrap());
        let (owner, data) = t.poll(r, None).unwrap().unwrap();
        assert_eq!((owner, data.unwrap().as_slice()), (Rank(0), &b"xy"[..]));
        // Handle is now stale.
        assert_eq!(t.is_done(r), Err(RmaError::InvalidRequest));
    }

    #[test]
    fn alloc_done_is_complete_at_creation() {
        let mut t = table();
        let r = t.alloc(Rank(0), ReqKind::EpochOpen);
        assert_eq!(t.complete(r, None), Some(Rank(0)));
        assert!(t.is_done(r).unwrap());
        assert_eq!(t.kind(r).unwrap(), ReqKind::EpochOpen);
    }

    #[test]
    fn slot_reuse_invalidates_old_handle() {
        let mut t = table();
        let r1 = t.alloc(Rank(0), ReqKind::Comm);
        assert_eq!(t.complete(r1, None), Some(Rank(0)));
        t.poll(r1, None).unwrap();
        let r2 = t.alloc(Rank(0), ReqKind::Comm);
        assert_ne!(r1, r2);
        assert_eq!(t.is_done(r1), Err(RmaError::InvalidRequest));
        assert!(!t.is_done(r2).unwrap());
    }

    #[test]
    fn poll_registers_one_waiter_and_completion_clears_it() {
        let mut sim = Sim::new(0);
        let (me, other) = (sim.spawn("me", |_| {}), sim.spawn("other", |_| {}));
        let mut t = ReqTable::new(sim.handle());
        let r = t.alloc(Rank(0), ReqKind::P2p);
        assert_eq!((t.poll(r, None), t.parked()), (Ok(None), 0)); // a test registers nobody
        assert_eq!((t.poll(r, Some(me)), t.poll(r, Some(me)), t.parked()), (Ok(None), Ok(None), 1));
        assert_eq!(t.poll(r, Some(other)), Err(RmaError::InvalidRequest));
        t.forget(&[r], other); // not its registration: stays
        assert_eq!(t.parked(), 1);
        assert_eq!(t.complete(r, None), Some(Rank(0))); // wakes `me` (a no-op: it never parked)
        assert_eq!(t.parked(), 0);
        assert_eq!(t.poll(r, Some(other)), Ok(Some((Rank(0), None)))); // done: consumed
        assert_eq!(t.poll(r, None), Err(RmaError::InvalidRequest)); // stale
        sim.run().unwrap();
    }

    #[test]
    fn idempotent_completion() {
        let mut t = table();
        let r = t.alloc(Rank(0), ReqKind::Flush);
        assert_eq!(t.complete(r, None), Some(Rank(0)));
        assert_eq!(t.complete(r, None), None); // no panic
        assert!(t.is_done(r).unwrap());
    }

    /// Each transition the engine traces is reported once, with the rank
    /// that allocated the request (not the one that completes or consumes
    /// it).
    #[test]
    fn transitions_report_the_owner_once() {
        let mut t = table();
        let r = t.alloc(Rank(2), ReqKind::Comm);
        assert_eq!(t.complete(r, None), Some(Rank(2)));
        assert_eq!(t.complete(r, None), None); // idempotent: not traced twice
        assert_eq!(t.poll(r, None), Ok(Some((Rank(2), None))));
        let d = t.alloc(Rank(3), ReqKind::EpochOpen);
        assert_eq!(t.complete(d, Some(Bytes::new(b"z".to_vec()))), Some(Rank(3)));
        assert_eq!(t.complete(d, Some(Bytes::new(b"w".to_vec()))), None); // new data, no transition
        assert_eq!(t.poll(d, None), Ok(Some((Rank(3), Some(Bytes::new(b"w".to_vec()))))));
        assert_eq!(t.poll(r, None), Err(RmaError::InvalidRequest));
    }

    #[test]
    fn live_count_tracks_alloc_and_consume() {
        let mut t = table();
        assert_eq!(t.live(), 0);
        let a = t.alloc(Rank(0), ReqKind::Comm);
        let b = t.alloc(Rank(1), ReqKind::Comm);
        assert_eq!(t.live(), 2);
        assert_eq!(t.complete(a, None), Some(Rank(0)));
        t.poll(a, None).unwrap();
        assert_eq!(t.live(), 1);
        assert_eq!(t.complete(b, None), Some(Rank(1)));
        t.poll(b, None).unwrap();
        assert_eq!(t.live(), 0);
    }
}
