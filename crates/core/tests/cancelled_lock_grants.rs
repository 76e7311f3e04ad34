//! Regression tests for the PR-5 watchdog-cancellation protocol fixes:
//! a cancelled lock epoch must give back what it owes the lock plane —
//! grants it already holds are released immediately, and grants still in
//! flight are bounced with an unlock when they finally land — and a
//! blocking flush inside a lazy-deferred lock epoch must force lock
//! acquisition instead of self-deadlocking.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_core::{
    run_job, Degradation, JobConfig, LockKind, Rank, SyncStrategy,
};
use mpisim_net::{FaultPlan, Partition};
use mpisim_sim::SimTime;

/// A queued lock request whose epoch the watchdog cancelled is granted
/// *after* the cancellation. The late grant must be bounced with an
/// immediate unlock so the target's lock queue keeps moving — proven by
/// a third requester behind the dead one acquiring the lock and landing
/// its data.
#[test]
fn late_grant_after_cancellation_is_bounced() {
    let budget = SimTime::from_millis(1);
    let cfg = JobConfig::new(3).with_watchdog(budget);
    let report = run_job(cfg, |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        match env.rank().idx() {
            1 => {
                // Grab rank 2's lock first and sit on it far past the
                // watchdog budget, so rank 0's request stays queued.
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.compute(SimTime::from_millis(5));
                env.unlock(win, Rank(2)).unwrap();
                // Re-queue behind rank 0's now-dead request: this only
                // completes if rank 0 bounces its late grant.
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put(win, Rank(2), 0, b"after-bounce").unwrap();
                env.unlock(win, Rank(2)).unwrap();
            }
            0 => {
                // Ensure rank 1's request reaches the target first.
                env.compute(SimTime::from_micros(100));
                let l = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put(win, Rank(2), 32, &[7; 4]).unwrap();
                let u = env.iunlock(win, Rank(2)).unwrap();
                // These return only because the watchdog cancels the
                // closed-but-ungranted epoch.
                env.wait(l).unwrap();
                env.wait(u).unwrap();
            }
            _ => {}
        }
        env.barrier().unwrap();
        if env.rank().idx() == 2 {
            assert_eq!(env.read_local(win, 0, 12).unwrap(), b"after-bounce");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(!report.is_clean());
    let stalls: Vec<_> = report
        .degradations
        .iter()
        .filter_map(|d| match d {
            Degradation::EpochStall(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(stalls.len(), 1, "{:?}", report.degradations);
    assert_eq!(stalls[0].kind, "lock");
    assert_eq!(stalls[0].rank, Rank(0));
    assert_eq!(report.engine.epochs_cancelled, 1);
    // The bounce and rank 1's own unlocks all landed at the target.
    assert!(report.engine.unlocks_applied >= 3, "{:?}", report.engine);
}

/// A cancelled lock_all epoch that already holds grants from reachable
/// peers must release them. Rank 1's own subsequent exclusive lock of
/// its window only completes if rank 0's cancelled epoch let go.
#[test]
fn cancelled_epoch_releases_grants_it_holds() {
    let mut plan = FaultPlan::none(5);
    plan.partitions.push(Partition {
        a: Rank(0),
        b: Rank(2),
        from: SimTime::from_micros(50),
        until: SimTime::from_secs(1_000),
    });
    let mut cfg = JobConfig::all_internode(3).with_reliability();
    cfg.net.faults = Some(plan);
    let budget = SimTime::from_millis(1);
    cfg = cfg.with_watchdog(budget);
    let report = run_job(cfg, |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        // When rank 1 had unlocked; the others return zero.
        match env.rank().idx() {
            0 => {
                env.compute(SimTime::from_micros(100)); // step past the cut
                // lock_all: grants from self and rank 1 arrive, the one
                // from partitioned rank 2 never does.
                let l = env.ilock_all(win).unwrap();
                env.put(win, Rank(1), 0, &[9; 4]).unwrap();
                let u = env.iunlock_all(win).unwrap();
                env.wait(l).unwrap();
                env.wait(u).unwrap(); // returns via watchdog cancellation
                SimTime::ZERO
            }
            1 => {
                // Wait until well after rank 0 was cancelled, then take
                // our own lock: it only gets granted if the cancelled
                // epoch released the grant it held on us.
                env.compute(SimTime::from_millis(3));
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.unlock(win, Rank(1)).unwrap();
                env.now()
            }
            _ => SimTime::ZERO,
        }
        // No closing collective: the partition never heals.
    })
    .unwrap();
    assert!(!report.is_clean());
    let stalls: Vec<_> = report
        .degradations
        .iter()
        .filter_map(|d| match d {
            Degradation::EpochStall(r) => Some(r),
            _ => None,
        })
        .collect();
    // Exactly rank 0's lock_all stalled; rank 1's lock was NOT wedged by
    // a leaked grant (it would have been cancelled too).
    assert_eq!(stalls.len(), 1, "{:?}", report.degradations);
    assert_eq!(stalls[0].kind, "lock-all");
    assert_eq!(stalls[0].rank, Rank(0));
    assert_eq!(report.engine.epochs_cancelled, 1);
    // Held and owed unlocks balance: the two grants the cancelled epoch
    // held (self, rank 1) plus rank 1's own lock are all released; the
    // request toward partitioned rank 2 never arrived, so nothing is owed.
    let e = &report.engine;
    assert_eq!((e.lock_grants, e.unlocks_applied), (3, 3));
    // Recorded before completion became counted (see
    // `engine_worklists.rs`): the cancellation path must not move either.
    // The frames toward rank 2 retry until the retransmit budget runs out
    // (≈14.5 ms), which is what ends the run. Events are modelled events,
    // as in `engine_worklists.rs`'s pin: credit returns settled without an
    // event count too.
    let events = report.sim.events_executed + report.net.lazy_credit_returns;
    let counts = format!("{:?}", (report.final_time.as_nanos(), events, report.net.msgs_sent));
    let rows = [("final-ns/events/msgs", counts), ("sweeps/step_runs", format!("{:?}", (e.sweeps, e.step_runs)))];
    pin::check("core/cancelled_lock_grants::cancelled_epoch_releases_grants_it_holds", rows);
    let t = report.results[1];
    assert!(
        t >= SimTime::from_millis(3) && t < SimTime::from_millis(4),
        "rank 1's lock must complete promptly after the release, got {t:?}"
    );
}

/// MVAPICH-style lazy baseline: the lock epoch is deferred whole until
/// unlock, but a blocking flush demands remote completion *now*. The
/// flush must force lock acquisition and issue the covered ops instead
/// of waiting on an epoch that will never activate on its own.
#[test]
fn blocking_flush_forces_lazy_lock_acquisition() {
    let report = run_job(
        JobConfig::all_internode(2).with_strategy(SyncStrategy::LazyBaseline),
        |env| {
            let win = env.win_allocate(64).unwrap();
            env.barrier().unwrap();
            // What rank 1 saw mid-epoch; rank 0 returns nothing.
            let seen = if env.rank().idx() == 0 {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put(win, Rank(1), 0, b"flushed").unwrap();
                // Self-deadlock hazard: under the lazy baseline nothing
                // else ever activates this epoch.
                env.flush(win, Rank(1)).unwrap();
                env.compute(SimTime::from_millis(1));
                env.put(win, Rank(1), 32, b"unlocked").unwrap();
                env.unlock(win, Rank(1)).unwrap();
                Vec::new()
            } else {
                // Read mid-epoch, long before rank 0's unlock at ~1 ms:
                // only a forced flush can have landed the bytes by now.
                env.compute(SimTime::from_micros(500));
                env.read_local(win, 0, 7).unwrap()
            };
            env.barrier().unwrap();
            if env.rank().idx() == 1 {
                assert_eq!(env.read_local(win, 0, 7).unwrap(), b"flushed");
                assert_eq!(env.read_local(win, 32, 8).unwrap(), b"unlocked");
            }
            env.win_free(win).unwrap();
            seen
        },
    )
    .unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.results[1], b"flushed");
    assert_eq!(report.engine.epochs_cancelled, 0);
}
