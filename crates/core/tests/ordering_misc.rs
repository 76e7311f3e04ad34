//! Ordering guarantees and miscellaneous semantics not covered elsewhere:
//! accumulate ordering between a pair, flush corner cases, window
//! lifecycle errors, and multi-window interleavings.


use mpisim_core::{
    run_job, Datatype, Group, JobConfig, LockKind, Rank, ReduceOp, RmaError, CALL_ENTRY,
};
use mpisim_sim::SimTime;

#[test]
fn accumulates_between_a_pair_apply_in_order() {
    // MPI orders accumulates between the same origin/target pair: Replace
    // then Sum must yield replace+sum, never sum-then-replace.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.write_local(win, 0, &100u64.to_le_bytes()).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.accumulate(win, Rank(1), 0, Datatype::U64, ReduceOp::Replace, &7u64.to_le_bytes())
                .unwrap();
            env.accumulate(win, Rank(1), 0, Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
                .unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            let v = u64::from_le_bytes(env.read_local(win, 0, 8).unwrap().try_into().unwrap());
            assert_eq!(v, 8, "Replace(7) then Sum(1) must give 8");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn put_then_get_same_epoch_sees_the_put() {
    // In-order channels make a get observe a preceding put of the same
    // epoch to the same target (stronger than MPI requires, matching the
    // paper's in-order InfiniBand channels).
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[0xEE; 8]).unwrap();
            let r = env.get(win, Rank(1), 0, 8).unwrap();
            env.unlock(win, Rank(1)).unwrap();
            assert_eq!(env.wait_data(r).unwrap().as_ref(), &[0xEE; 8]);
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn flush_with_nothing_outstanding_completes_immediately() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            let t0 = env.now();
            env.flush(win, Rank(1)).unwrap();
            env.flush_local_all(win).unwrap();
            let r = env.iflush_all(win).unwrap();
            assert!(env.test(r).unwrap(), "empty iflush must be complete at creation");
            assert!((env.now() - t0).as_micros_f64() < 10.0);
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn iflush_local_all_spans_open_locks() {
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            env.lock(win, Rank(2), LockKind::Shared).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            env.put_synthetic(win, Rank(2), 0, 1 << 20).unwrap();
            let r = env.iflush_local_all(win).unwrap();
            env.wait(r).unwrap();
            // Both buffers now reusable; epochs still open.
            env.unlock(win, Rank(1)).unwrap();
            env.unlock(win, Rank(2)).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn win_free_rejects_open_epochs() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        env.lock(win, Rank(1), LockKind::Shared).unwrap();
        let err = env.win_free(win).unwrap_err();
        assert!(matches!(err, RmaError::AlreadyInEpoch { .. }));
        env.unlock(win, Rank(1)).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn exposure_group_with_multiple_origins_and_staggered_arrivals() {
    run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(32).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // One exposure epoch for three origins arriving at 0/200/400 µs.
            env.post(win, Group::new([1, 2, 3])).unwrap();
            env.wait_epoch(win).unwrap();
            for s in 1..4usize {
                assert_eq!(env.read_local(win, s * 8, 8).unwrap(), vec![s as u8; 8]);
            }
        } else {
            let me = env.rank().idx();
            env.compute(SimTime::from_micros(200 * (me as u64 - 1)));
            env.start(win, Group::single(Rank(0))).unwrap();
            env.put(win, Rank(0), me * 8, &[me as u8; 8]).unwrap();
            env.complete(win).unwrap();
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn interleaved_epochs_on_two_windows_do_not_serialize() {
    // Epoch ordering is per window: an incomplete epoch on window A must
    // not defer epochs on window B.
    let report = run_job(JobConfig::all_internode(3), |env| {
        let wa = env.win_allocate(1 << 20).unwrap();
        let wb = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        // Rank 2's epoch length on window B; the others return 0.
        let t = match env.rank().idx() {
            0 => {
                // Epoch on A toward the late rank 1...
                env.start(wa, Group::single(Rank(1))).unwrap();
                env.put_synthetic(wa, Rank(1), 0, 1 << 20).unwrap();
                let ra = env.icomplete(wa).unwrap();
                // ...must not hold back the epoch on B toward punctual 2.
                env.start(wb, Group::single(Rank(2))).unwrap();
                env.put_synthetic(wb, Rank(2), 0, 1 << 20).unwrap();
                let rb = env.icomplete(wb).unwrap();
                env.wait(rb).unwrap();
                env.wait(ra).unwrap();
                0
            }
            1 => {
                env.compute(SimTime::from_micros(1000));
                env.post(wa, Group::single(Rank(0))).unwrap();
                env.wait_epoch(wa).unwrap();
                0
            }
            _ => {
                let t0 = env.now();
                env.post(wb, Group::single(Rank(0))).unwrap();
                env.wait_epoch(wb).unwrap();
                (env.now() - t0).as_nanos()
            }
        };
        env.barrier().unwrap();
        env.win_free(wa).unwrap();
        env.win_free(wb).unwrap();
        t
    })
    .unwrap();
    let us = report.results[2] as f64 / 1000.0;
    assert!(
        us < 800.0,
        "window B's epoch absorbed window A's delay: {us} µs"
    );
}

#[test]
fn test_polling_on_closing_request() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            let r = env.iunlock(win, Rank(1)).unwrap();
            let mut polls = 0;
            while !env.test(r).unwrap() {
                polls += 1;
                env.compute(SimTime::from_micros(25));
            }
            assert!(polls > 3, "1 MB epoch should need several polls, got {polls}");
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn many_small_epochs_back_to_back_complete_in_order_without_flags() {
    // Nonblocking epochs without flags serialize internally but must all
    // complete; their requests fire in order.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(256).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let mut reqs = Vec::new();
            for i in 0..16u8 {
                let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put(win, Rank(1), i as usize * 8, &[i; 8]).unwrap();
                reqs.push(env.iunlock(win, Rank(1)).unwrap());
            }
            env.wait_all(reqs).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            for i in 0..16u8 {
                assert_eq!(env.read_local(win, i as usize * 8, 8).unwrap(), vec![i; 8]);
            }
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn wait_all_is_one_mpi_call_and_free_when_empty() {
    // One `CALL_ENTRY` on the caller's clock and in `mpi_time`, one call
    // counted, whatever the number of requests.
    run_job(JobConfig::new(1), |env| {
        // A one-rank barrier is complete at creation.
        let reqs: Vec<_> = (0..256).map(|_| env.ibarrier().unwrap()).collect();
        let (t0, s0) = (env.now(), env.stats());
        env.wait_all(reqs.clone()).unwrap();
        let s1 = env.stats();
        assert_eq!(env.now() - t0, CALL_ENTRY);
        assert_eq!(s1.mpi_time() - s0.mpi_time(), CALL_ENTRY);
        assert_eq!(s1.calls - s0.calls, 1);
        // All 256 were consumed.
        for r in reqs {
            assert!(matches!(env.test(r).unwrap_err(), RmaError::InvalidRequest));
        }
    })
    .unwrap();

    // Over no request it is not a call at all: the same job with a hundred
    // empty `wait_all`s in it ends at the same instant after the same
    // number of events.
    let run = |empties: usize| {
        run_job(JobConfig::new(2), move |env| {
            env.barrier().unwrap();
            for _ in 0..empties {
                env.wait_all(None).unwrap();
            }
            env.compute(SimTime::from_micros(1));
            env.barrier().unwrap();
        })
        .unwrap()
    };
    let (without, with) = (run(0), run(100));
    assert_eq!(with.final_time, without.final_time);
    assert_eq!(with.sim.events_executed, without.sim.events_executed);
    assert_eq!(with.ranks[0].calls, without.ranks[0].calls);
}
