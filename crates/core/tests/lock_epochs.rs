//! Integration tests: passive-target epochs (lock/unlock, lock_all).


use mpisim_core::{run_job, Datatype, JobConfig, LockKind, Rank, ReduceOp, SyncStrategy};
use mpisim_sim::SimTime;

#[test]
fn exclusive_lock_put() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(16).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, b"locked-write").unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 0, 12).unwrap(), b"locked-write");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn exclusive_locks_serialize_atomic_increments() {
    // Read-modify-write under an exclusive lock must never lose updates.
    run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        for _ in 0..5 {
            env.lock(win, Rank(0), LockKind::Exclusive).unwrap();
            let r = env.get(win, Rank(0), 0, 8).unwrap();
            env.flush(win, Rank(0)).unwrap();
            let cur = u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap());
            env.put(win, Rank(0), 0, &(cur + 1).to_le_bytes()).unwrap();
            env.unlock(win, Rank(0)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let got = env.read_local(win, 0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 20);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn shared_locks_coexist_exclusive_waits() {
    let report = run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(8).unwrap();
        env.write_local(win, 0, &7u64.to_le_bytes()).unwrap();
        env.barrier().unwrap();
        // When each reader had read, and when the writer was done.
        let done = match env.rank().idx() {
            1 | 2 => {
                // Two shared readers hold the lock for 200 µs.
                env.lock(win, Rank(0), LockKind::Shared).unwrap();
                let r = env.get(win, Rank(0), 0, 8).unwrap();
                env.flush(win, Rank(0)).unwrap();
                let v = u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap());
                assert_eq!(v, 7);
                let read_at = env.now().as_nanos();
                env.compute(SimTime::from_micros(200));
                env.unlock(win, Rank(0)).unwrap();
                read_at
            }
            3 => {
                // A later exclusive writer must wait for both readers.
                env.compute(SimTime::from_micros(50));
                env.lock(win, Rank(0), LockKind::Exclusive).unwrap();
                env.put(win, Rank(0), 0, &9u64.to_le_bytes()).unwrap();
                env.unlock(win, Rank(0)).unwrap();
                env.now().as_nanos()
            }
            _ => 0,
        };
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let got = env.read_local(win, 0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 9);
        }
        env.win_free(win).unwrap();
        done
    })
    .unwrap();
    let done = report.results;
    let readers_done = done[1].max(done[2]);
    let writer_done = done[3];
    assert!(
        writer_done > readers_done + 200_000,
        "exclusive writer finished at {writer_done}ns, before shared holders released \
         (readers locked at {readers_done}ns + 200µs hold)"
    );
}

#[test]
fn lock_all_fetch_and_op_from_everyone() {
    run_job(JobConfig::all_internode(4), |env| {
        let n = env.n_ranks();
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        env.lock_all(win).unwrap();
        let mut reqs = Vec::new();
        for t in 0..n {
            reqs.push(
                env.fetch_and_op(win, Rank(t), 0, Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
                    .unwrap(),
            );
        }
        env.unlock_all(win).unwrap();
        for r in reqs {
            let _old = env.wait_data(r).unwrap();
        }
        env.barrier().unwrap();
        let got = env.read_local(win, 0, 8).unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), n as u64);
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn self_lock_works() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        let me = env.rank();
        env.lock(win, me, LockKind::Exclusive).unwrap();
        env.put(win, me, 0, &[5u8; 8]).unwrap();
        env.unlock(win, me).unwrap();
        assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![5u8; 8]);
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn concurrent_locks_to_distinct_targets() {
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // MPI allows holding locks to several targets at once.
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            env.put(win, Rank(2), 0, &[2u8; 8]).unwrap();
            env.unlock(win, Rank(2)).unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        match env.rank().idx() {
            1 => assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![1u8; 8]),
            2 => assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![2u8; 8]),
            _ => {}
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn late_unlock_shapes_blocking_vs_nonblocking() {
    // The paper's new inefficiency pattern (§III, Fig 6): a holder that
    // works 1000 µs before unlocking delays the next requester — unless the
    // epoch is closed early with IUNLOCK.
    fn second_lock_latency(nonblocking: bool) -> f64 {
        let report = run_job(JobConfig::all_internode(3), move |env| {
            let win = env.win_allocate(1 << 20).unwrap();
            env.barrier().unwrap();
            // The second requester's epoch length; the others return 0.
            let epoch = match env.rank().idx() {
                0 => {
                    // First holder.
                    env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, 1 << 20).unwrap();
                    if nonblocking {
                        // Close early, then overlap the work (Fig 1b).
                        let r = env.iunlock(win, Rank(2)).unwrap();
                        env.compute(SimTime::from_micros(1000));
                        env.wait(r).unwrap();
                    } else {
                        env.compute(SimTime::from_micros(1000));
                        env.unlock(win, Rank(2)).unwrap();
                    }
                    0
                }
                1 => {
                    // Second requester, slightly later.
                    env.compute(SimTime::from_micros(50));
                    let t0 = env.now();
                    env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, 1 << 20).unwrap();
                    env.unlock(win, Rank(2)).unwrap();
                    (env.now() - t0).as_nanos()
                }
                _ => 0,
            };
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            epoch
        })
        .unwrap();
        report.results[1] as f64 / 1000.0
    }
    let blocking = second_lock_latency(false);
    let nonblocking = second_lock_latency(true);
    assert!(
        blocking > 1200.0,
        "blocking Late Unlock should delay the second lock past 1.2 ms, got {blocking} µs"
    );
    assert!(
        nonblocking < 800.0,
        "iunlock should spare the second requester the 1000 µs work, got {nonblocking} µs"
    );
}

#[test]
fn writers_are_not_starved_by_reader_streams() {
    // FIFO fairness at the lock manager: a shared request arriving after a
    // queued exclusive request waits behind it.
    let report = run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        // When the writer and the second reader were granted.
        let granted = match env.rank().idx() {
            1 => {
                // First reader holds 300 µs.
                env.lock(win, Rank(0), LockKind::Shared).unwrap();
                env.compute(SimTime::from_micros(300));
                env.unlock(win, Rank(0)).unwrap();
                0
            }
            2 => {
                // Writer arrives while the reader holds.
                env.compute(SimTime::from_micros(50));
                env.lock(win, Rank(0), LockKind::Exclusive).unwrap();
                let granted = env.now().as_nanos();
                env.compute(SimTime::from_micros(50));
                env.unlock(win, Rank(0)).unwrap();
                granted
            }
            3 => {
                // Second reader arrives after the writer queued: although
                // the lock is held shared (compatible), FIFO fairness makes
                // it wait behind the writer.
                env.compute(SimTime::from_micros(150));
                env.lock(win, Rank(0), LockKind::Shared).unwrap();
                let granted = env.now().as_nanos();
                env.unlock(win, Rank(0)).unwrap();
                granted
            }
            _ => 0,
        };
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        granted
    })
    .unwrap();
    let (w, r2) = (report.results[2], report.results[3]);
    assert!(
        r2 > w,
        "late reader ({r2}ns) overtook the queued writer ({w}ns): starvation hazard"
    );
}

#[test]
fn lazy_baseline_has_no_lock_overlap() {
    // MVAPICH's lazy lock acquisition (§VIII.A): the epoch degenerates to
    // the unlock call, so in-epoch work cannot overlap the transfer.
    fn epoch_length(strategy: SyncStrategy) -> f64 {
        let report = run_job(JobConfig::all_internode(2).with_strategy(strategy), |env| {
            let win = env.win_allocate(1 << 20).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            if env.rank().idx() == 0 {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
                env.compute(SimTime::from_micros(1000));
                env.unlock(win, Rank(1)).unwrap();
            }
            let epoch = (env.now() - t0).as_nanos();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            epoch
        })
        .unwrap();
        report.results[0] as f64 / 1000.0
    }
    let lazy = epoch_length(SyncStrategy::LazyBaseline);
    let eager = epoch_length(SyncStrategy::Redesigned);
    // Lazy: 1000 µs work + ≈340 µs transfer serialized ⇒ ≈1340 µs.
    // Eager: transfer overlaps the work ⇒ ≈1010 µs.
    assert!(
        (1250.0..1500.0).contains(&lazy),
        "lazy first-lock epoch took {lazy} µs, expected ≈1340 µs"
    );
    assert!(
        (950.0..1150.0).contains(&eager),
        "eager first-lock epoch took {eager} µs, expected ≈1010 µs"
    );
}

/// Window ids are never reused, and the intranode sync word used to carry
/// the id in eight bits: the 257th window's first same-node lock request
/// panicked. The FIFO is per (window, peer), so the word carries neither.
#[test]
fn windows_beyond_the_256th_lock_a_same_node_peer() {
    run_job(JobConfig::new(2), |env| {
        let me = env.rank().idx();
        let peer = Rank(1 - me);
        for i in 0..300u32 {
            let win = env.win_allocate(8).unwrap();
            env.lock(win, peer, LockKind::Exclusive).unwrap();
            env.put(win, peer, 0, &i.to_le_bytes()).unwrap();
            env.unlock(win, peer).unwrap();
            env.barrier().unwrap();
            assert_eq!(env.read_local(win, 0, 4).unwrap(), i.to_le_bytes());
            env.win_free(win).unwrap();
        }
    })
    .unwrap();
}
