//! Fundamental identifier and group types used across the middleware.

use std::rc::Rc;

pub use mpisim_net::Rank;

/// Identifier of an RMA window (dense per job).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WinId(pub u32);

/// Identifier of an epoch object within one rank's side of one window.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EpochId(pub u64);

/// An application-level request handle, as returned by the nonblocking API
/// and consumed by the test/wait family.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[must_use = "requests must be completed with wait/test or leaked knowingly"]
pub struct Req(pub u64);

/// An ordered set of ranks, used as the group argument of the general
/// active-target synchronization (GATS) calls.
///
/// Cheap to clone (`Rc` inside). Construction validates that ranks are
/// strictly increasing, which rules out duplicates.
#[derive(Clone, Debug)]
pub struct Group {
    ranks: Rc<Vec<Rank>>,
}

impl Group {
    /// Build a group from an iterator of rank indices. Panics on duplicates
    /// or unsorted input.
    pub fn new(ranks: impl IntoIterator<Item = usize>) -> Self {
        let v: Vec<Rank> = ranks.into_iter().map(Rank).collect();
        assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "group ranks must be strictly increasing"
        );
        Group { ranks: Rc::new(v) }
    }

    /// A single-rank group.
    pub fn single(r: Rank) -> Self {
        Group::new([r.idx()])
    }

    /// The member ranks, ascending.
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Whether `r` is a member (binary search).
    pub fn contains(&self, r: Rank) -> bool {
        self.ranks.binary_search(&r).is_ok()
    }
}

/// Exclusive or shared passive-target lock, mirroring
/// `MPI_LOCK_EXCLUSIVE` / `MPI_LOCK_SHARED`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// Only one origin may hold the lock.
    Exclusive,
    /// Any number of origins may hold the lock concurrently.
    Shared,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_construction() {
        let g = Group::new([0, 2, 5]);
        assert_eq!(g.len(), 3);
        assert!(g.contains(Rank(2)));
        assert!(!g.contains(Rank(1)));
    }

    #[test]
    fn single_and_empty() {
        let s = Group::single(Rank(7));
        assert_eq!(s.ranks(), &[Rank(7)]);
        assert!(Group::new(std::iter::empty()).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_ranks_rejected() {
        let _ = Group::new([1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_ranks_rejected() {
        let _ = Group::new([2, 1]);
    }
}
