//! A window side reopens epochs from its pool of retired objects, and a
//! recycled object keeps every container's capacity — its recorded and
//! live ops, its ready list and its per-target and per-origin tables — so
//! once a side has held an epoch of a given size, opening and retiring one
//! allocates nothing, as the counting allocator (`tests/support/alloc.rs`)
//! counts it. The API's engine calls, which run on the driver's stack,
//! allocate nothing for the hop either. Whole epoch rounds through the API
//! still allocate in steady state, and `pins.txt` holds how much, so a
//! change there moves a named row.
//!
//! The counter is one process-wide total, so the tests measure one at a
//! time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mpisim_core::epoch::{EpochKind, Slot};
use mpisim_core::window::WinRank;
use mpisim_core::{run_job, Group, JobConfig, LockKind, Rank, RankEnv, RmaError, WinId, WinInfo};
use mpisim_sim::SimTime;

#[path = "../../../tests/support/alloc.rs"]
mod alloc;
#[path = "../../../tests/support/pin.rs"]
mod pin;

use alloc::{ALLOCS, COUNTING};

/// Holds off the other tests of this binary while one counts.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static COUNTER: Mutex<()> = Mutex::new(());
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _alone = one_at_a_time();
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
    let _alone = one_at_a_time();
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

/// Allocations in 1 000 rounds of `round` by rank 0 of an `n`-rank job on
/// one window, after two rounds of warm-up; the other ranks wait at a
/// barrier meanwhile.
fn steady_allocations(n: usize, round: fn(&RankEnv, WinId)) -> u64 {
    const ROUNDS: u64 = 1000;
    static STEADY: AtomicU64 = AtomicU64::new(u64::MAX);
    let report = run_job(JobConfig::new(n), move |env| {
        let win = env.win_allocate(64).unwrap();
        if env.rank() == Rank(0) {
            round(env, win);
            round(env, win);
            COUNTING.with(|c| c.set(true));
            let before = ALLOCS.load(Ordering::Relaxed);
            (0..ROUNDS).for_each(|_| round(env, win));
            STEADY.store(ALLOCS.load(Ordering::Relaxed) - before, Ordering::Relaxed);
            COUNTING.with(|c| c.set(false));
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(report.is_clean());
    STEADY.load(Ordering::Relaxed)
}

/// Epoch rounds through the API allocate in steady state: a fence's
/// self-message boxes its delivery closure and its arrival tally is a new
/// `FenceTally`, and the passive-target rounds allocate as well. The counts
/// are pinned, not judged: a change that removes one moves its row.
#[test]
fn api_epoch_rounds_allocate_what_the_pins_say() {
    let _alone = one_at_a_time();
    let rows = [
        ("fence/1-rank", steady_allocations(1, |env, win| env.fence(win).unwrap())),
        (
            "lock_all+unlock_all/1-rank",
            steady_allocations(1, |env, win| {
                env.lock_all(win).unwrap();
                env.unlock_all(win).unwrap();
            }),
        ),
        (
            "lock+unlock/2-rank",
            steady_allocations(2, |env, win| {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.unlock(win, Rank(1)).unwrap();
            }),
        ),
    ];
    pin::check("core/epoch_reuse_allocates_nothing::api_epoch_rounds_allocate_what_the_pins_say", rows);
}
