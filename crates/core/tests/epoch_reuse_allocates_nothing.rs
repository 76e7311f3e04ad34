//! A window side reopens epochs from its pool of retired objects, and a
//! recycled object keeps every container's capacity — its recorded and
//! live ops, its ready list and its per-target and per-origin tables — so
//! once a side has held an epoch of a given size, opening and retiring one
//! allocates nothing, as the counting allocator (`tests/support/alloc.rs`)
//! counts it. The API's engine calls, which run on the driver's stack,
//! allocate nothing for the hop either.

use std::sync::atomic::{AtomicU64, Ordering};

use mpisim_core::epoch::{EpochKind, Slot};
use mpisim_core::window::WinRank;
use mpisim_core::{run_job, Group, JobConfig, LockKind, Rank, RmaError, WinInfo};
use mpisim_sim::SimTime;

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
    let lock = EpochKind::Lock {
        target: Rank(1),
        lock: LockKind::Shared,
    };
    let gats = EpochKind::GatsAccess {
        group: Group::new([1, 2]),
    };
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
    assert_eq!(
        steady, 0,
        "{steady} allocations in {ROUNDS} lock + GATS epoch reopenings"
    );
    assert!(w.epochs.is_empty() && w.open.iter().next().is_none());
}

/// A rank's calls that allocate nothing in the engine — the ledger, a
/// local store, a one-rank barrier, a refused `MPI_WIN_TEST` — each an
/// engine call on the driver's stack, in steady state. Only the measured
/// rounds are counted, so the job's own setup never lands in the other
/// test's count.
#[test]
fn api_calls_on_the_driver_stack_allocate_nothing() {
    const ROUNDS: u64 = 1000;
    static STEADY: AtomicU64 = AtomicU64::new(u64::MAX);
    let report = run_job(JobConfig::new(1), |env| {
        let win = env.win_allocate(64).unwrap();
        let round = |i: u64| {
            env.compute(SimTime::from_nanos(10));
            env.write_local(win, 0, &i.to_le_bytes()).unwrap();
            env.barrier().unwrap();
            assert_eq!(
                env.test_epoch(win),
                Err(RmaError::EpochMismatch { called: "test" })
            );
            assert_eq!((env.n_ranks(), env.stats().calls), (1, 2 + 2 * (i + 1)));
        };
        round(0);
        COUNTING.with(|c| c.set(true));
        let before = ALLOCS.load(Ordering::Relaxed);
        (1..=ROUNDS).for_each(round);
        STEADY.store(ALLOCS.load(Ordering::Relaxed) - before, Ordering::Relaxed);
        COUNTING.with(|c| c.set(false));
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(report.is_clean());
    let steady = STEADY.load(Ordering::Relaxed);
    assert_eq!(
        steady, 0,
        "{steady} allocations in {ROUNDS} rounds of driver-stack API calls"
    );
}
