//! Integration tests: §VI.A semantics rules, error detection, and
//! determinism.

use std::cell::Cell;
use std::rc::Rc;

use mpisim_core::{run_job, Group, JobConfig, LockKind, Rank, RankEnv, Req, RmaError, WinId};
use mpisim_sim::SimTime;

// ---------------------------------------------------------------------
// rule 1: any combination of blocking and nonblocking routines
// ---------------------------------------------------------------------

#[test]
fn mixed_blocking_and_nonblocking_epoch_routines() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(32).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // Nonblocking open + blocking close.
            let _ = env.istart(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            env.complete(win).unwrap();
            // Blocking open + nonblocking close.
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 8, &[2u8; 8]).unwrap();
            let r = env.icomplete(win).unwrap();
            env.wait(r).unwrap();
        } else {
            let r0 = env.ipost(win, Group::single(Rank(0))).unwrap();
            env.wait(r0).unwrap(); // dummy: completes immediately
            env.wait_epoch(win).unwrap();
            env.post(win, Group::single(Rank(0))).unwrap();
            let r = env.iwait(win).unwrap();
            env.wait(r).unwrap();
            assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![1u8; 8]);
            assert_eq!(env.read_local(win, 8, 8).unwrap(), vec![2u8; 8]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// rule: epoch-opening requests are dummies, complete at creation (§VII.C)
// ---------------------------------------------------------------------

#[test]
fn opening_requests_complete_immediately_even_when_deferred() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // First epoch still in flight...
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            let r1 = env.iunlock(win, Rank(1)).unwrap();
            // ...second epoch is deferred inside the engine, but its
            // opening request is already complete.
            let open2 = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            assert!(env.test(open2).unwrap(), "opening request must be complete at creation");
            env.put(win, Rank(1), 0, &[2u8; 8]).unwrap();
            let r2 = env.iunlock(win, Rank(1)).unwrap();
            env.wait(r1).unwrap();
            env.wait(r2).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// rule 2: buffers unsafe until completion detected — we verify the
// positive direction: after wait, data is there.
// ---------------------------------------------------------------------

#[test]
fn deferred_epoch_records_and_replays() {
    // Epoch 2 is opened, written, and closed while epoch 1 is still
    // active: everything is recorded and replayed on activation (§VII.A).
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(16).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 16]).unwrap();
            let r1 = env.iunlock(win, Rank(1)).unwrap();
            let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
            env.put(win, Rank(2), 0, &[2u8; 16]).unwrap();
            let r2 = env.iunlock(win, Rank(2)).unwrap();
            env.wait(r1).unwrap();
            env.wait(r2).unwrap();
        }
        env.barrier().unwrap();
        match env.rank().idx() {
            1 => assert_eq!(env.read_local(win, 0, 16).unwrap(), vec![1u8; 16]),
            2 => assert_eq!(env.read_local(win, 0, 16).unwrap(), vec![2u8; 16]),
            _ => {}
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// error detection
// ---------------------------------------------------------------------

#[test]
fn rma_outside_epoch_is_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        let err = env.put(win, Rank(1), 0, &[1]).unwrap_err();
        assert!(matches!(err, RmaError::NoEpoch { .. }), "got {err:?}");
        env.win_free(win).unwrap();
    })
    .unwrap();
}

/// The application-level epoch rules in full: every epoch-opening,
/// epoch-closing and `win_free` call against every kind of open epoch. One
/// fresh 3-rank job per cell; rank 0 opens the row's epoch, makes the
/// column's call (nonblocking variant, so a legal close never needs a peer)
/// and must see `Ok` (`.`), `AlreadyInEpoch` (`A`) or `EpochMismatch` (`M`)
/// carrying the routine's own name.
#[test]
fn open_close_matrix() {
    const T: Rank = Rank(1);
    const U: Rank = Rank(2);
    const OPEN: [&str; 7] = [
        "nothing",
        "fence (dormant)",
        "fence (with an op)",
        "start",
        "post",
        "lock(t)",
        "lock_all",
    ];
    const CALLS: [(&str, &str); 11] = [
        ("fence", "fence"),
        ("start", "start"),
        ("post", "post"),
        ("lock(t)", "lock"),
        ("lock(u)", "lock"),
        ("lock_all", "lock_all"),
        ("complete", "complete"),
        ("wait", "wait"),
        ("unlock(t)", "unlock"),
        ("unlock_all", "unlock_all"),
        ("win_free", "win_free"),
    ];
    // Rows follow OPEN, columns follow CALLS.
    const EXPECT: [&str; 7] = [
        // fence start post lock(t) lock(u) lock_all complete wait unlock(t) unlock_all win_free
        ". . . . . . M M M M .",
        ". . . . . . M M M M .",
        ". A A A A A M M M M A",
        "A A . A A A . M M M A",
        "A . A . . . M . M M A",
        "A A . A . A M M . M A",
        "A A . A A A M M M . A",
    ];
    for (row, open) in OPEN.iter().enumerate() {
        let verdicts: Vec<&str> = EXPECT[row].split(' ').collect();
        assert_eq!(verdicts.len(), CALLS.len());
        for (col, (call, called)) in CALLS.iter().enumerate() {
            let want = match verdicts[col] {
                "." => Ok(()),
                "A" => Err(RmaError::AlreadyInEpoch { called }),
                "M" => Err(RmaError::EpochMismatch { called }),
                v => panic!("bad verdict {v}"),
            };
            run_job(JobConfig::all_internode(3), move |env| {
                let win = env.win_allocate(8).unwrap();
                env.barrier().unwrap();
                if env.rank().idx() != 0 {
                    if *call == "win_free" {
                        env.win_free(win).unwrap();
                    }
                    return;
                }
                match *open {
                    "nothing" => {}
                    "fence (dormant)" => env.ifence(win).map(|_| ()).unwrap(),
                    "fence (with an op)" => {
                        let _ = env.ifence(win).unwrap();
                        env.put(win, T, 0, &[1u8; 8]).unwrap();
                        // Let the put land before a `win_free` column tears
                        // the target's side down.
                        env.compute(SimTime::from_micros(100));
                    }
                    "start" => env.start(win, Group::single(T)).unwrap(),
                    "post" => env.post(win, Group::single(T)).unwrap(),
                    "lock(t)" => env.lock(win, T, LockKind::Shared).unwrap(),
                    "lock_all" => env.lock_all(win).unwrap(),
                    o => panic!("bad row {o}"),
                }
                let got = match *call {
                    "fence" => env.ifence(win).map(|_| ()),
                    "start" => env.start(win, Group::single(T)),
                    "post" => env.post(win, Group::single(T)),
                    "lock(t)" => env.lock(win, T, LockKind::Shared),
                    "lock(u)" => env.lock(win, U, LockKind::Shared),
                    "lock_all" => env.lock_all(win),
                    "complete" => env.icomplete(win).map(|_| ()),
                    "wait" => env.iwait(win).map(|_| ()),
                    "unlock(t)" => env.iunlock(win, T).map(|_| ()),
                    "unlock_all" => env.iunlock_all(win).map(|_| ()),
                    "win_free" => env.win_free(win),
                    c => panic!("bad column {c}"),
                };
                assert_eq!(got, want, "{call} with {open} open");
            })
            .unwrap();
        }
    }
}

/// Every `RankEnv` routine that takes a window, reduced to whether it
/// failed and how.
type WinCall = fn(&RankEnv, WinId) -> Option<RmaError>;

const WIN_CALLS: [(&str, WinCall); 42] = {
    use mpisim_core::{Datatype::U64, ReduceOp::Sum};
    const T: Rank = Rank(1);
    const X: LockKind = LockKind::Exclusive;
    fn g() -> Group {
        Group::single(T)
    }
    [
        ("win_free", |e, w| e.win_free(w).err()),
        ("read_local", |e, w| e.read_local(w, 0, 1).err()),
        ("write_local", |e, w| e.write_local(w, 0, &[1]).err()),
        ("fence", |e, w| e.fence(w).err()),
        ("ifence", |e, w| e.ifence(w).err()),
        ("start", |e, w| e.start(w, g()).err()),
        ("istart", |e, w| e.istart(w, g()).err()),
        ("post", |e, w| e.post(w, g()).err()),
        ("ipost", |e, w| e.ipost(w, g()).err()),
        ("complete", |e, w| e.complete(w).err()),
        ("icomplete", |e, w| e.icomplete(w).err()),
        ("wait_epoch", |e, w| e.wait_epoch(w).err()),
        ("iwait", |e, w| e.iwait(w).err()),
        ("test_epoch", |e, w| e.test_epoch(w).err()),
        ("lock", |e, w| e.lock(w, T, X).err()),
        ("ilock", |e, w| e.ilock(w, T, X).err()),
        ("unlock", |e, w| e.unlock(w, T).err()),
        ("iunlock", |e, w| e.iunlock(w, T).err()),
        ("lock_all", |e, w| e.lock_all(w).err()),
        ("ilock_all", |e, w| e.ilock_all(w).err()),
        ("unlock_all", |e, w| e.unlock_all(w).err()),
        ("iunlock_all", |e, w| e.iunlock_all(w).err()),
        ("flush", |e, w| e.flush(w, T).err()),
        ("iflush", |e, w| e.iflush(w, T).err()),
        ("flush_local", |e, w| e.flush_local(w, T).err()),
        ("iflush_local", |e, w| e.iflush_local(w, T).err()),
        ("flush_all", |e, w| e.flush_all(w).err()),
        ("iflush_all", |e, w| e.iflush_all(w).err()),
        ("flush_local_all", |e, w| e.flush_local_all(w).err()),
        ("iflush_local_all", |e, w| e.iflush_local_all(w).err()),
        ("put", |e, w| e.put(w, T, 0, &[1]).err()),
        ("put_strided", |e, w| e.put_strided(w, T, 0, 2, 1, 2, &[1, 2]).err()),
        ("put_synthetic", |e, w| e.put_synthetic(w, T, 0, 1).err()),
        ("rput", |e, w| e.rput(w, T, 0, &[1]).err()),
        ("get", |e, w| e.get(w, T, 0, 1).err()),
        ("get_strided", |e, w| e.get_strided(w, T, 0, 2, 1, 2).err()),
        ("accumulate", |e, w| e.accumulate(w, T, 0, U64, Sum, &[0; 8]).err()),
        ("accumulate_synthetic", |e, w| e.accumulate_synthetic(w, T, 0, U64, Sum, 8).err()),
        ("raccumulate", |e, w| e.raccumulate(w, T, 0, U64, Sum, &[0; 8]).err()),
        ("get_accumulate", |e, w| e.get_accumulate(w, T, 0, U64, Sum, &[0; 8]).err()),
        ("fetch_and_op", |e, w| e.fetch_and_op(w, T, 0, U64, Sum, &[0; 8]).err()),
        ("compare_and_swap", |e, w| e.compare_and_swap(w, T, 0, U64, &[0; 8], &[1; 8]).err()),
    ]
};

/// Every `RankEnv` routine that names a GATS group or a flush target,
/// toward a rank outside a 2-rank job.
const RANK_CALLS: [(&str, WinCall); 8] = {
    const T: Rank = Rank(99);
    fn g() -> Group {
        Group::single(T)
    }
    [
        ("start", |e, w| e.start(w, g()).err()),
        ("istart", |e, w| e.istart(w, g()).err()),
        ("post", |e, w| e.post(w, g()).err()),
        ("ipost", |e, w| e.ipost(w, g()).err()),
        ("flush", |e, w| e.flush(w, T).err()),
        ("iflush", |e, w| e.iflush(w, T).err()),
        ("flush_local", |e, w| e.flush_local(w, T).err()),
        ("iflush_local", |e, w| e.iflush_local(w, T).err()),
    ]
};

/// A window id the application made up, and one whose window this rank
/// already freed (`win_free` twice included), are its error to handle: every
/// routine answers `InvalidWindow`, none panics, none leaves a request
/// behind, and the job finishes. So is a rank outside the job: every
/// `RANK_CALLS` routine answers `InvalidRank`.
#[test]
fn invalid_rank_and_window_rejected() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        assert!(matches!(
            env.lock(win, Rank(99), LockKind::Shared).unwrap_err(),
            RmaError::InvalidRank(99)
        ));
        // Inside an open epoch the made-up id is still what is wrong.
        env.lock(win, Rank(1), LockKind::Shared).unwrap();
        assert!(matches!(
            env.put(WinId(42), Rank(1), 0, &[1]).unwrap_err(),
            RmaError::InvalidWindow(WinId(42))
        ));
        env.unlock(win, Rank(1)).unwrap();
        // A group member or flush target outside the job is refused before
        // any epoch or request exists, outside an epoch and inside one.
        for in_lock_all in [false, true] {
            if in_lock_all {
                env.lock_all(win).unwrap();
            }
            for (routine, call) in RANK_CALLS {
                match call(env, win) {
                    Some(RmaError::InvalidRank(99)) => {}
                    other => panic!("{routine} toward rank 99 (lock_all {in_lock_all}): {other:?}"),
                }
            }
        }
        env.unlock_all(win).unwrap();
        env.win_free(win).unwrap();
        for (case, bad) in [("never allocated", WinId(42)), ("freed", win)] {
            for (routine, call) in WIN_CALLS {
                match call(env, bad) {
                    Some(RmaError::InvalidWindow(w)) if w == bad => {}
                    other => panic!("{routine} on a {case} window: {other:?}"),
                }
            }
            assert_eq!(env.engine().fence_records(env.rank(), bad), 0, "{case}");
        }
        // The engine is none the worse: a fresh window works.
        let win = env.win_allocate(8).unwrap();
        env.fence(win).unwrap();
        env.put(win, Rank(1), 0, &[7]).unwrap();
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
    assert!(report.is_clean(), "{:?}", report.degradations);
}

/// A peer that freed its side of a window cannot be named any more: a
/// lock, a GATS group, an RMA or a flush toward it answers
/// `InvalidWindow` at the call, where it used to be accepted and then
/// wait forever for a grant or an acknowledgement that could not come.
/// So does every call that names every rank, on both placements: fence,
/// `lock_all` and the `flush_all` family. There `fence; fence` used to
/// panic at the freed side ("window not created at this rank"), and
/// `lock_all; put; unlock_all` to deadlock internode and to panic
/// intranode, where its lock request was pushed into the freed side's
/// FIFO.
#[test]
fn calls_toward_a_freed_side_are_invalid_window() {
    const NAMES_PEER: [&str; 18] = [
        "fence", "ifence", "start", "istart", "post", "ipost", "lock", "ilock", "lock_all",
        "ilock_all", "flush", "iflush", "flush_local", "iflush_local", "flush_all", "iflush_all",
        "flush_local_all", "iflush_local_all",
    ];
    for cores_per_node in [1, 2] {
        let mut job = JobConfig::new(2);
        job.cores_per_node = cores_per_node;
        let report = run_job(job, |env| {
            let win = env.win_allocate(8).unwrap();
            if env.rank().idx() == 1 {
                env.win_free(win).unwrap();
                env.barrier().unwrap();
                return;
            }
            // Match the barrier inside rank 1's `win_free`, then let the
            // free itself happen.
            env.barrier().unwrap();
            env.compute(SimTime::from_micros(1));
            let gone = Err(RmaError::InvalidWindow(win));
            assert_eq!(env.lock(win, Rank(1), LockKind::Shared), gone);
            assert_eq!(env.put(win, Rank(1), 1 << 40, &[1; 8]), gone);
            assert!(matches!(env.unlock(win, Rank(1)), Err(RmaError::EpochMismatch { .. })));
            assert_eq!(env.fence(win), gone);
            assert_eq!(env.fence(win), gone);
            assert_eq!(env.lock_all(win), gone);
            assert_eq!(env.put(win, Rank(1), 0, &[1; 8]), gone);
            assert!(matches!(env.unlock_all(win), Err(RmaError::EpochMismatch { .. })));
            // Every routine that names rank 1 or every rank, the RMA calls
            // from `put` on.
            let ops = WIN_CALLS.iter().skip_while(|(routine, _)| *routine != "put");
            for (routine, call) in WIN_CALLS.iter().filter(|(r, _)| NAMES_PEER.contains(r)).chain(ops) {
                match call(env, win) {
                    Some(RmaError::InvalidWindow(w)) if w == win => {}
                    other => panic!("{routine} toward a freed side: {other:?}"),
                }
            }
            // This rank's own side is intact.
            env.lock(win, Rank(0), LockKind::Shared).unwrap();
            env.put(win, Rank(0), 0, &[7]).unwrap();
            env.unlock(win, Rank(0)).unwrap();
            env.barrier().unwrap();
        })
        .unwrap_or_else(|e| panic!("cores_per_node {cores_per_node}: {e}"));
        assert_eq!(report.live_requests, 0);
        assert!(report.is_clean(), "{:?}", report.degradations);
    }
}

/// A side can be missing without any free: rank 0's creation is refused
/// (`BarrierPending`), so rank 0 never holds a side of rank 1's window.
/// A call on rank 1 that names rank 0, or every rank, is `InvalidWindow`
/// at the call, where a lock toward the missing side would wait forever
/// and a put would reach no side at all.
#[test]
fn calls_toward_a_side_never_created_are_invalid_window() {
    for cores_per_node in [1, 2] {
        let mut job = JobConfig::new(2);
        job.cores_per_node = cores_per_node;
        let report = run_job(job, |env| {
            if env.rank().idx() == 0 {
                let first = env.ibarrier().unwrap();
                assert_eq!(env.win_allocate(8).unwrap_err(), RmaError::BarrierPending);
                env.wait(first).unwrap();
                return;
            }
            // Its barrier matches rank 0's `ibarrier`.
            let win = env.win_allocate(8).unwrap();
            let gone = Err(RmaError::InvalidWindow(win));
            assert_eq!(env.lock(win, Rank(0), LockKind::Shared), gone);
            assert_eq!(env.put(win, Rank(0), 0, &[1; 8]), gone);
            assert!(matches!(env.unlock(win, Rank(0)), Err(RmaError::EpochMismatch { .. })));
            assert_eq!(env.fence(win), gone);
            assert_eq!(env.lock_all(win), gone);
            assert_eq!(env.flush_all(win), gone);
        })
        .unwrap_or_else(|e| panic!("cores_per_node {cores_per_node}: {e}"));
        assert_eq!(report.live_requests, 0);
        assert!(report.is_clean(), "{:?}", report.degradations);
    }
}

#[test]
fn datatype_mismatch_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        env.lock(win, Rank(1), LockKind::Shared).unwrap();
        // 7 bytes is not a multiple of 8.
        assert!(env
            .accumulate(win, Rank(1), 0, mpisim_core::Datatype::U64, mpisim_core::ReduceOp::Sum, &[0; 7])
            .is_err());
        // fetch_and_op on two elements.
        assert!(env
            .fetch_and_op(win, Rank(1), 0, mpisim_core::Datatype::U64, mpisim_core::ReduceOp::Sum, &[0; 16])
            .is_err());
        env.unlock(win, Rank(1)).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn stale_request_handles_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        let r = env.ibarrier().unwrap();
        env.wait(r).unwrap();
        // Consumed: a second wait must error, not hang.
        assert!(matches!(env.wait(r).unwrap_err(), RmaError::InvalidRequest));
        assert!(matches!(env.test(r).unwrap_err(), RmaError::InvalidRequest));
    })
    .unwrap();
}

#[test]
fn second_pending_barrier_is_refused() {
    // Rank 1 enters its barrier 100 µs late, so rank 0's stays pending:
    // another barrier on rank 0 — nonblocking, blocking, or the one inside
    // `win_allocate` / `win_free` — is an error, and takes no request. The
    // refused creation leaves no window side behind, so the next window's
    // id still agrees across ranks.
    let report = run_job(JobConfig::new(2), |env| {
        let win = env.win_allocate(8).unwrap();
        if env.rank().idx() == 0 {
            let first = env.ibarrier().unwrap();
            assert_eq!(env.ibarrier().unwrap_err(), RmaError::BarrierPending);
            assert_eq!(env.barrier().unwrap_err(), RmaError::BarrierPending);
            assert_eq!(env.win_free(win).unwrap_err(), RmaError::BarrierPending);
            assert_eq!(env.win_allocate(8).unwrap_err(), RmaError::BarrierPending);
            env.wait(first).unwrap();
        } else {
            env.compute(SimTime::from_micros(100));
            env.barrier().unwrap();
        }
        env.win_free(win).unwrap();
        let next = env.win_allocate(8).unwrap();
        env.win_free(next).unwrap();
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
}

#[test]
fn wait_all_waits_for_every_request_past_a_bad_handle() {
    // `MPI_Waitall` waits on every request: a stale handle is reported
    // (first error wins) but the requests after it are still waited for
    // and consumed, so the unlock's completion is observed.
    let report = run_job(JobConfig::new(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let a = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            let b = env.iunlock(win, Rank(1)).unwrap();
            env.wait(a).unwrap();
            assert!(matches!(env.wait_all([a, b]).unwrap_err(), RmaError::InvalidRequest));
            assert!(matches!(env.test(b).unwrap_err(), RmaError::InvalidRequest), "b not consumed");
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
}

#[test]
fn wait_any_returns_first_completion() {
    run_job(JobConfig::all_internode(3), |env| {
        if env.rank().idx() == 0 {
            // Two receives: rank 2 sends first (after 100 µs), rank 1
            // later (after 400 µs).
            let r1 = env.irecv(Rank(1), 1).unwrap();
            let r2 = env.irecv(Rank(2), 2).unwrap();
            let reqs = [r1, r2];
            let first = env.wait_any(&reqs).unwrap();
            assert_eq!(first, 1, "rank 2's message should complete first");
            let t_first = env.now();
            let second = env.wait_any(&[r1]).unwrap();
            assert_eq!(second, 0);
            assert!(env.now() > t_first);
        } else if env.rank().idx() == 1 {
            env.compute(SimTime::from_micros(400));
            env.send(Rank(0), 1, b"slow").unwrap();
        } else {
            env.compute(SimTime::from_micros(100));
            env.send(Rank(0), 2, b"fast").unwrap();
        }
    })
    .unwrap();
}

#[test]
fn wait_any_on_empty_or_stale_errors() {
    run_job(JobConfig::all_internode(1), |env| {
        assert!(matches!(
            env.wait_any(&[]).unwrap_err(),
            RmaError::InvalidRequest
        ));
        let r = env.ibarrier().unwrap();
        env.wait(r).unwrap();
        assert!(matches!(
            env.wait_any(&[r]).unwrap_err(),
            RmaError::InvalidRequest
        ));
    })
    .unwrap();
}

#[test]
fn wait_any_loop_leaves_no_registration_behind() {
    // 64 receives collected one wait_any at a time, completing in reverse
    // order 5 µs apart, so every call parks with the whole remaining set
    // pending. After each call this rank is registered on none of the
    // requests it did not consume (rank 1 never parks: nonblocking sends,
    // collected long after they completed).
    const N: u64 = 64;
    let report = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            let mut pending: Vec<Req> = (0..N).map(|t| env.irecv(Rank(1), t).unwrap()).collect();
            while !pending.is_empty() {
                let i = env.wait_any(&pending).unwrap();
                assert_eq!(i, pending.len() - 1, "the latest-posted receive completes first");
                let _consumed = pending.remove(i);
                assert_eq!(env.engine().parked_requests(), 0, "{} left", pending.len());
            }
        } else {
            env.compute(SimTime::from_micros(100)); // rank 0 posts all 64 first
            let sends: Vec<Req> = (0..N)
                .rev()
                .map(|t| {
                    env.compute(SimTime::from_micros(5));
                    env.isend(Rank(0), t, b"x").unwrap()
                })
                .collect();
            env.compute(SimTime::from_millis(1));
            env.wait_all(sends).unwrap();
        }
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
    // Rank 0 parked once per message and nobody else ever did.
    assert_eq!(report.engine.sync_blocked_steps, N);
}

#[test]
fn wait_any_with_a_stale_handle_mid_slice_registers_nowhere() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            let stale = env.ibarrier().unwrap();
            env.wait(stale).unwrap();
            let (a, b) = (env.irecv(Rank(1), 1).unwrap(), env.irecv(Rank(1), 2).unwrap());
            assert_eq!(env.wait_any(&[a, stale, b]).unwrap_err(), RmaError::InvalidRequest);
            assert_eq!(env.engine().parked_requests(), 0, "registered on `a` before erring");
            env.wait_all([a, b]).unwrap();
        } else {
            env.barrier().unwrap();
            env.compute(SimTime::from_micros(50));
            let sends = [env.isend(Rank(0), 1, b"a").unwrap(), env.isend(Rank(0), 2, b"b").unwrap()];
            env.compute(SimTime::from_millis(1));
            env.wait_all(sends).unwrap();
        }
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
}

#[test]
fn second_rank_parking_on_a_request_errs_instead_of_hanging() {
    // A request holds one waiter. Rank 0 is parked on its receive when
    // rank 1 (handed the same handle, which MPI forbids) waits on it too:
    // rank 1 gets InvalidRequest at once and rank 0 is still woken by the
    // message.
    let shared: Rc<Cell<Option<Req>>> = Rc::default();
    let report = run_job(JobConfig::all_internode(3), move |env| match env.rank().idx() {
        0 => {
            let r = env.irecv(Rank(2), 7).unwrap();
            shared.set(Some(r));
            assert_eq!(env.wait_data(r).unwrap().as_ref(), b"late");
            assert!(env.now() >= SimTime::from_micros(500));
        }
        1 => {
            env.compute(SimTime::from_micros(10));
            let r = shared.get().expect("rank 0 posted at t = 0");
            assert_eq!(env.wait(r).unwrap_err(), RmaError::InvalidRequest);
            assert_eq!(env.wait_any(&[r]).unwrap_err(), RmaError::InvalidRequest);
            assert!(env.now() < SimTime::from_micros(500), "erred at once, did not block");
            assert_eq!(env.engine().parked_requests(), 1, "rank 0's registration untouched");
        }
        _ => {
            env.compute(SimTime::from_micros(500));
            env.send(Rank(0), 7, b"late").unwrap();
        }
    })
    .unwrap();
    assert_eq!(report.live_requests, 0);
}

#[test]
fn flush_outside_passive_epoch_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        assert!(matches!(
            env.flush(win, Rank(1)).unwrap_err(),
            RmaError::NotPassiveEpoch
        ));
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn deadlocked_program_is_reported_not_hung() {
    let err = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            // Recv that never matches.
            let _ = env.recv(Rank(1), 999);
        }
    })
    .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("deadlock"), "got: {msg}");
    assert!(msg.contains("rank0"), "got: {msg}");
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

#[test]
fn identical_seeds_produce_identical_schedules() {
    fn run_once(seed: u64) -> (u64, u64) {
        let report = run_job(
            JobConfig::all_internode(6).with_seed(seed),
            |env| {
                let win = env.win_allocate(64).unwrap();
                env.barrier().unwrap();
                let me = env.rank().idx();
                let n = env.n_ranks();
                for round in 0..4 {
                    let t = Rank((me + round + 1) % n);
                    env.lock(win, t, LockKind::Exclusive).unwrap();
                    env.put(win, t, 0, &[round as u8; 8]).unwrap();
                    env.unlock(win, t).unwrap();
                    env.compute(SimTime::from_micros((me as u64 * 7 + 3) % 20));
                }
                env.barrier().unwrap();
                env.win_free(win).unwrap();
            },
        )
        .unwrap();
        (report.final_time.as_nanos(), report.sim.events_executed)
    }
    let a = run_once(11);
    let b = run_once(11);
    assert_eq!(a, b, "same seed must reproduce the schedule exactly");
}

#[test]
fn per_rank_times_propagate_to_report() {
    let report = run_job(JobConfig::all_internode(3), |env| {
        env.compute(SimTime::from_micros(100));
        env.barrier().unwrap();
    })
    .unwrap();
    assert_eq!(report.ranks.len(), 3);
    for r in &report.ranks {
        assert_eq!(r.compute_time, SimTime::from_micros(100));
        assert!(r.calls >= 1);
    }
    assert!(report.net.msgs_sent > 0);
    assert!(report.final_time >= SimTime::from_micros(100));
}

// ---------------------------------------------------------------------
// window lifecycle
// ---------------------------------------------------------------------

#[test]
fn multiple_windows_are_independent() {
    run_job(JobConfig::all_internode(2), |env| {
        let w1 = env.win_allocate(8).unwrap();
        let w2 = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // Concurrent epochs on different windows are fine.
            env.lock(w1, Rank(1), LockKind::Exclusive).unwrap();
            env.lock(w2, Rank(1), LockKind::Exclusive).unwrap();
            env.put(w1, Rank(1), 0, &[1u8; 8]).unwrap();
            env.put(w2, Rank(1), 0, &[2u8; 8]).unwrap();
            env.unlock(w2, Rank(1)).unwrap();
            env.unlock(w1, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(w1, 0, 8).unwrap(), vec![1u8; 8]);
            assert_eq!(env.read_local(w2, 0, 8).unwrap(), vec![2u8; 8]);
        }
        env.win_free(w1).unwrap();
        env.win_free(w2).unwrap();
    })
    .unwrap();
}

#[test]
fn local_reads_and_writes_are_bounds_checked() {
    run_job(JobConfig::all_internode(1), |env| {
        let win = env.win_allocate(8).unwrap();
        assert!(env.read_local(win, 4, 8).is_err());
        assert!(env.write_local(win, 8, &[1]).is_err());
        env.write_local(win, 0, &[1; 8]).unwrap();
        assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![1; 8]);
        // A range whose end does not fit in a `usize` is out of bounds, not
        // an overflow, and its message does not overflow either.
        let err = env.read_local(win, usize::MAX, 2).unwrap_err();
        assert!(
            matches!(err, RmaError::OutOfBounds { disp: usize::MAX, len: 2, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("exceeds window"), "{err}");
        let err = env.write_local(win, usize::MAX, &[1, 2]).unwrap_err();
        assert!(
            matches!(err, RmaError::OutOfBounds { disp: usize::MAX, len: 2, .. }),
            "got {err:?}"
        );
        env.win_free(win).unwrap();
    })
    .unwrap();
}

/// An RMA call past the end of the target's side of the window is the
/// origin's error: it is refused at the call, nothing reaches the target,
/// and the epoch closes as if the call had not been made. The range is
/// held to the target's side, which may be shorter than the origin's.
#[test]
fn out_of_range_rma_is_refused_at_the_origin() {
    let report = run_job(JobConfig::all_internode(3), |env| {
        let me = env.rank().idx();
        let win = env.win_allocate(if me == 2 { 32 } else { 64 }).unwrap();
        if me == 0 {
            for (target, disp, len) in [(1, 60, 8), (1, usize::MAX, 2), (2, 40, 8)] {
                env.lock(win, Rank(target), LockKind::Exclusive).unwrap();
                let err = env.put(win, Rank(target), disp, &vec![1; len]).unwrap_err();
                assert!(
                    matches!(err, RmaError::OutOfBounds { target: t, disp: d, len: l, .. }
                        if (t, d, l) == (Rank(target), disp, len)),
                    "got {err:?}"
                );
                env.put(win, Rank(target), 0, &[1; 8]).unwrap();
                env.unlock(win, Rank(target)).unwrap();
            }
        }
        env.barrier().unwrap();
        let got = env.read_local(win, 0, 32).unwrap();
        env.win_free(win).unwrap();
        got
    })
    .unwrap();
    let mut want = vec![1; 8];
    want.resize(32, 0);
    assert_eq!(report.results, vec![vec![0; 32], want.clone(), want]);
}
