//! `run_job`'s result contract: each rank closure's return value comes
//! back in `JobReport::results`, in rank order whatever order the ranks
//! finished in, and a job that fails returns no results at all — and
//! leaves nothing behind: its engine is freed and the thread runs the next
//! job.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};
use std::thread;

use mpisim_core::{run_job, Engine, Group, JobConfig, LockKind, Rank, RankStats, CALL_ENTRY, PER_OP};
use mpisim_sim::{SimError, SimTime};

/// Rank `r` of `n` computes `(n - r) × 10 µs`, so the ranks finish in
/// reverse rank order; each returns its rank and its finish time.
fn reverse_finishers(n: usize) -> Vec<(usize, SimTime)> {
    run_job(JobConfig::all_internode(n), move |env| {
        let me = env.rank().idx();
        env.compute(SimTime::from_micros(10 * (n - me) as u64));
        (me, env.now())
    })
    .unwrap()
    .results
}

#[test]
fn results_come_back_in_rank_order_not_finish_order() {
    let results = reverse_finishers(5);
    let ranks: Vec<usize> = results.iter().map(|r| r.0).collect();
    assert_eq!(ranks, [0, 1, 2, 3, 4]);
    assert!(
        results.windows(2).all(|w| w[0].1 > w[1].1),
        "the ranks must have finished in reverse order: {results:?}"
    );
}

#[test]
fn a_unit_closure_gives_one_result_per_rank() {
    let report = run_job(JobConfig::new(7), |env| env.barrier().unwrap()).unwrap();
    assert_eq!(report.results.len(), 7);
}

#[test]
fn a_deadlocked_job_is_an_error() {
    let res = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            // A receive nobody sends to.
            let _ = env.recv(Rank(1), 999);
        }
        env.rank().idx()
    });
    assert!(res.is_err(), "a deadlock returned results: {:?}", res.map(|r| r.results));
}

#[test]
fn a_rerun_returns_identical_results() {
    assert_eq!(reverse_finishers(6), reverse_finishers(6));
}

/// The time ledger on a late post: rank 1 computes 100 µs before posting,
/// so rank 0's blocking `complete` parks until the grant arrives. Each
/// rank's ledger counts its calls, ops and parks exactly, its parts sum to
/// its clock, and the engine's blocking totals are the ledgers' sums.
#[test]
fn the_ledger_accounts_every_nanosecond_of_a_late_post() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        if env.rank().idx() == 0 {
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, &[7; 8]).unwrap();
            let before = env.stats().blocked;
            env.complete(win).unwrap();
            let waited = env.stats().blocked - before;
            assert!(waited >= SimTime::from_micros(90), "complete parked only {waited:?}");
        } else {
            env.compute(SimTime::from_micros(100));
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
        }
        env.win_free(win).unwrap();
        (env.stats(), env.now())
    })
    .unwrap();
    let stats: Vec<RankStats> = report.results.iter().map(|r| r.0).collect();
    let got: Vec<_> = stats.iter().map(|s| (s.calls, s.ops, s.parks, s.compute_time)).collect();
    // Rank 0: allocate + its barrier, start, put, complete, free + its
    // barrier; it parks in both barriers and in `complete`. Rank 1: the
    // same without start and put, and its closing barrier is complete at
    // its wait.
    assert_eq!(got, [(7, 1, 3, SimTime::ZERO), (6, 0, 2, SimTime::from_micros(100))]);
    for (s, now) in &report.results {
        assert_eq!(s.mpi_time(), CALL_ENTRY * s.calls + PER_OP * s.ops + s.blocked);
        assert_eq!(s.compute_time + s.mpi_time(), *now);
    }
    let blocked_ns = stats.iter().map(|s| s.blocked.as_nanos()).sum::<u64>();
    assert_eq!(report.engine.sync_blocked_steps, stats.iter().map(|s| s.parks).sum::<u64>());
    assert_eq!(report.engine.sync_blocked_ns, blocked_ns);
}


/// 4096 ranks torn down mid-epoch: each opens a GATS access epoch toward
/// its right neighbour, puts, and blocks in `complete` while nobody posts.
/// The deadlock unwinds every rank's fiber, so the job's engine is freed;
/// then a 4096-rank lock/put/unlock ring runs on the same thread, every
/// rank on the driver thread, every window checked.
#[test]
fn a_job_torn_down_mid_epoch_frees_its_engine_and_the_next_job_runs() {
    const N: usize = 4096;
    let engine: Rc<RefCell<Weak<Engine>>> = Rc::default();
    let blocked = Rc::new(Cell::new(0usize));
    let (seen, reached) = (engine.clone(), blocked.clone());
    let res = run_job(JobConfig::new(N), move |env| {
        if env.rank().idx() == 0 {
            *seen.borrow_mut() = Rc::downgrade(env.engine());
        }
        let win = env.win_allocate(16).unwrap();
        env.barrier().unwrap();
        let right = Rank((env.rank().idx() + 1) % N);
        env.start(win, Group::single(right)).unwrap();
        env.put(win, right, 0, &[1; 8]).unwrap();
        reached.set(reached.get() + 1);
        let _ = env.complete(win);
    });
    match res {
        Err(SimError::Deadlock { blocked, .. }) => assert_eq!(blocked.len(), N),
        other => panic!("expected the deadlock, got {:?}", other.map(|r| r.results.len())),
    }
    assert_eq!(blocked.get(), N, "every rank reached its complete");
    assert!(engine.borrow().upgrade().is_none(), "the torn-down job's engine is still alive");

    let driver = thread::current().id();
    let report = run_job(JobConfig::new(N), move |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let (left, right) = ((me + N - 1) % N, Rank((me + 1) % N));
        env.lock(win, right, LockKind::Exclusive).unwrap();
        env.put(win, right, 0, &(me as u64).to_le_bytes()).unwrap();
        env.unlock(win, right).unwrap();
        env.barrier().unwrap();
        let ok = env.read_local(win, 0, 8).unwrap() == (left as u64).to_le_bytes();
        env.win_free(win).unwrap();
        (ok, thread::current().id() == driver)
    })
    .unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
    let wrong = report.results.iter().filter(|(ok, _)| !ok).count();
    assert_eq!(wrong, 0, "ranks with wrong window contents");
    let off_driver = report.results.iter().filter(|(_, on_driver)| !on_driver).count();
    assert_eq!(off_driver, 0, "ranks that ran off the driver thread");
}
