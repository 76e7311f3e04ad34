//! Target-side passive-target lock manager.
//!
//! Each rank hosts one lock per window. Requests queue in arrival order;
//! the engine grants a queued request when (a) its origin's grant sequence
//! makes it *eligible* (grants to one origin are emitted in access-id
//! order, §VII.B) and (b) the lock state admits it. FIFO fairness: a
//! request that is eligible but blocked by the lock state blocks everything
//! behind it, so writers cannot starve behind a stream of readers.

use std::collections::{BTreeSet, VecDeque};

use crate::types::{LockKind, Rank};

/// Current holder state of one window's lock at one rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum LockState {
    /// Nobody holds the lock.
    #[default]
    Free,
    /// Held shared by the contained number of origins.
    Shared(usize),
    /// Held exclusively by one origin.
    Excl(Rank),
}

/// A queued lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueuedLock {
    /// Requesting origin.
    pub origin: Rank,
    /// The origin's access id toward this target.
    pub access_id: u64,
    /// Exclusive or shared.
    pub kind: LockKind,
}

/// The lock manager for one window at one rank.
#[derive(Debug, Default)]
pub struct LockMgr {
    state: LockState,
    queue: VecDeque<QueuedLock>,
    /// Origins holding the lock (one hold per origin).
    holders: BTreeSet<Rank>,
}

impl LockMgr {
    /// Current lock state.
    pub fn state(&self) -> &LockState {
        &self.state
    }

    /// Number of queued (ungranted) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue an arriving request (arrival order preserved). A request
    /// from an origin that currently holds the lock is legal: with the
    /// reorder flags, back-to-back lock epochs toward the same target put
    /// the next epoch's request in flight before the previous unlock.
    pub fn enqueue(&mut self, req: QueuedLock) {
        self.queue.push_back(req);
    }

    /// Whether the lock state would admit `kind` right now.
    pub fn admits(&self, kind: LockKind) -> bool {
        matches!(
            (&self.state, kind),
            (LockState::Free, _) | (LockState::Shared(_), LockKind::Shared)
        )
    }

    /// Grant a specific queued request (the engine decided it is eligible
    /// and admissible). Panics if the request is not queued or not
    /// admissible — the engine's pump must check first.
    pub fn grant(&mut self, origin: Rank, access_id: u64) {
        let pos = self
            .queue
            .iter()
            .position(|q| q.origin == origin && q.access_id == access_id)
            .expect("granting a lock request that is not queued");
        let req = self.queue.remove(pos).unwrap();
        assert!(self.admits(req.kind), "granting an inadmissible lock");
        assert!(
            !self.holders.contains(&origin),
            "origin {origin} granted a lock it already holds (erroneous program)"
        );
        self.state = match (&self.state, req.kind) {
            (LockState::Free, LockKind::Exclusive) => LockState::Excl(origin),
            (LockState::Free, LockKind::Shared) => LockState::Shared(1),
            (LockState::Shared(n), LockKind::Shared) => LockState::Shared(n + 1),
            _ => unreachable!(),
        };
        self.holders.insert(origin);
    }

    /// Release the lock held by `origin`. Panics if it holds nothing
    /// (erroneous program).
    pub fn release(&mut self, origin: Rank) {
        assert!(
            self.holders.remove(&origin),
            "{origin} released a lock it does not hold (erroneous program)"
        );
        self.state = match &self.state {
            LockState::Excl(r) => {
                assert_eq!(*r, origin, "exclusive lock released by a non-holder");
                LockState::Free
            }
            LockState::Shared(1) => LockState::Free,
            LockState::Shared(n) => LockState::Shared(n - 1),
            LockState::Free => panic!("release on a free lock"),
        };
    }

    /// Iterate queued requests in arrival order.
    pub fn queue_iter(&self) -> impl Iterator<Item = &QueuedLock> {
        self.queue.iter()
    }

    /// Whether `origin` currently holds the lock.
    pub fn holds(&self, origin: Rank) -> bool {
        self.holders.contains(&origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(origin: usize, id: u64, kind: LockKind) -> QueuedLock {
        QueuedLock {
            origin: Rank(origin),
            access_id: id,
            kind,
        }
    }

    #[test]
    fn exclusive_serializes() {
        let mut m = LockMgr::default();
        m.enqueue(req(0, 1, LockKind::Exclusive));
        m.enqueue(req(1, 1, LockKind::Exclusive));
        assert!(m.admits(LockKind::Exclusive));
        m.grant(Rank(0), 1);
        assert_eq!(*m.state(), LockState::Excl(Rank(0)));
        assert!(!m.admits(LockKind::Exclusive));
        assert!(!m.admits(LockKind::Shared));
        m.release(Rank(0));
        assert_eq!(*m.state(), LockState::Free);
        m.grant(Rank(1), 1);
        assert!(m.holds(Rank(1)));
    }

    #[test]
    fn shared_holders_accumulate() {
        let mut m = LockMgr::default();
        for o in 0..3 {
            m.enqueue(req(o, 1, LockKind::Shared));
        }
        m.grant(Rank(0), 1);
        m.grant(Rank(1), 1);
        m.grant(Rank(2), 1);
        assert_eq!(*m.state(), LockState::Shared(3));
        m.release(Rank(1));
        assert_eq!(*m.state(), LockState::Shared(2));
        m.release(Rank(0));
        m.release(Rank(2));
        assert_eq!(*m.state(), LockState::Free);
    }

    #[test]
    fn shared_blocks_exclusive() {
        let mut m = LockMgr::default();
        m.enqueue(req(0, 1, LockKind::Shared));
        m.grant(Rank(0), 1);
        assert!(m.admits(LockKind::Shared));
        assert!(!m.admits(LockKind::Exclusive));
    }

    #[test]
    fn requeue_while_holding_is_legal_but_double_grant_is_not() {
        let mut m = LockMgr::default();
        m.enqueue(req(0, 1, LockKind::Shared));
        m.grant(Rank(0), 1);
        // Back-to-back epoch: request queued while holding is fine...
        m.enqueue(req(0, 2, LockKind::Shared));
        assert_eq!(m.queued(), 1);
        // ...and becomes grantable after the release.
        m.release(Rank(0));
        m.grant(Rank(0), 2);
        assert!(m.holds(Rank(0)));
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_grant_same_origin_panics() {
        let mut m = LockMgr::default();
        m.enqueue(req(0, 1, LockKind::Shared));
        m.enqueue(req(0, 2, LockKind::Shared));
        m.grant(Rank(0), 1);
        m.grant(Rank(0), 2);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut m = LockMgr::default();
        m.release(Rank(0));
    }

    #[test]
    fn queue_order_preserved() {
        let mut m = LockMgr::default();
        m.enqueue(req(2, 1, LockKind::Exclusive));
        m.enqueue(req(0, 5, LockKind::Shared));
        let order: Vec<Rank> = m.queue_iter().map(|q| q.origin).collect();
        assert_eq!(order, vec![Rank(2), Rank(0)]);
        assert_eq!(m.queued(), 2);
    }
}
