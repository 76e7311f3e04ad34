//! A window side reopens epochs from its pool of retired objects, and a
//! recycled object keeps every container's capacity — its recorded and
//! live ops, its ready list and its per-target and per-origin tables — so
//! once a side has held an epoch of a given size, opening and retiring one
//! allocates nothing, as the counting allocator (`tests/support/alloc.rs`)
//! counts it.

use std::sync::atomic::Ordering;

use mpisim_core::epoch::{EpochKind, Slot};
use mpisim_core::window::WinRank;
use mpisim_core::{Group, LockKind, Rank, WinInfo};

#[path = "../../../tests/support/alloc.rs"]
mod alloc;

use alloc::{ALLOCS, COUNTING};

/// One round: a lock epoch and a two-target GATS access epoch open side by
/// side, then leave the open set and retire, as their closing calls and
/// completion would take them out.
fn round(w: &mut WinRank, lock: &EpochKind, gats: &EpochKind) {
    let l = w.open_epoch(lock.clone()).id;
    let g = w.open_epoch(gats.clone()).id;
    assert!(w.epoch(g).covers_target(Rank(2)) && !w.epoch(g).covers_target(Rank(3)));
    assert_eq!(w.epoch(l).targets().len() + w.epoch(g).targets().len(), 3);
    w.open.close(Slot::Lock(Rank(1)));
    w.open.close(Slot::GatsAccess);
    w.retire(l);
    w.retire(g);
}

#[test]
fn reopening_recycled_epochs_allocates_nothing() {
    const ROUNDS: u64 = 1000;
    let mut w = WinRank::new(64, WinInfo::default());
    let lock = EpochKind::Lock { target: Rank(1), lock: LockKind::Shared };
    let gats = EpochKind::GatsAccess { group: Group::new([1, 2]) };
    // Warm-up: the pool, the queue, the open set and both recycled
    // objects' tables reach their working size. The pool hands objects
    // back in reverse, so the second round swaps which object serves
    // which kind.
    round(&mut w, &lock, &gats);
    round(&mut w, &lock, &gats);

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        round(&mut w, &lock, &gats);
    }
    let steady = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert_eq!(steady, 0, "{steady} allocations in {ROUNDS} lock + GATS epoch reopenings");
    assert!(w.epochs.is_empty() && w.open.iter().next().is_none());
}
