//! Integration tests: the flush family and atomic RMA operations.


use mpisim_core::{run_job, Datatype, JobConfig, LockKind, Rank, ReduceOp};
use mpisim_sim::SimTime;

#[test]
fn flush_completes_prior_ops_without_closing_epoch() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(16).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            env.flush(win, Rank(1)).unwrap();
            // After flush the first put is remotely complete; read it back
            // within the same epoch.
            let r = env.get(win, Rank(1), 0, 8).unwrap();
            env.flush(win, Rank(1)).unwrap();
            assert_eq!(env.wait_data(r).unwrap().as_ref(), &[1u8; 8]);
            // The epoch is still open: issue another op.
            env.put(win, Rank(1), 8, &[2u8; 8]).unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 8, 8).unwrap(), vec![2u8; 8]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn iflush_age_stamping_covers_only_prior_ops() {
    // §VII.C: "new RMA calls can be issued after an MPI_WIN_IFLUSH call
    // that is yet to complete" — the flush must not wait for them.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(4 << 20).unwrap();
        env.barrier().unwrap();
        let mut waits = (0, 0);
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            // Small op, then iflush, then a huge op the flush must ignore.
            env.put(win, Rank(1), 0, &[9u8; 64]).unwrap();
            let f = env.iflush(win, Rank(1)).unwrap();
            env.put_synthetic(win, Rank(1), 64, 2 << 20).unwrap();
            let t0 = env.now();
            env.wait(f).unwrap();
            let flush_wait = (env.now() - t0).as_nanos();
            let t1 = env.now();
            env.unlock(win, Rank(1)).unwrap();
            let unlock_wait = (env.now() - t1).as_nanos();
            waits = (flush_wait, unlock_wait);
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        waits
    })
    .unwrap();
    let v = report.results[0];
    let (flush_us, unlock_us) = (v.0 as f64 / 1000.0, v.1 as f64 / 1000.0);
    // The flush covers only the 64-byte put: quick. The unlock covers the
    // 2 MB put: hundreds of µs.
    assert!(
        flush_us < 300.0,
        "iflush waited for ops younger than its stamp: {flush_us} µs"
    );
    assert!(
        unlock_us > 400.0,
        "unlock should wait out the 2 MB transfer: {unlock_us} µs"
    );
}

#[test]
fn flush_local_vs_flush_remote_semantics() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(2 << 20).unwrap();
        env.barrier().unwrap();
        let mut waits = (0, 0);
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            let t0 = env.now();
            env.flush_local(win, Rank(1)).unwrap();
            let local = (env.now() - t0).as_nanos();
            let t1 = env.now();
            env.flush(win, Rank(1)).unwrap();
            let remote = (env.now() - t1).as_nanos();
            env.unlock(win, Rank(1)).unwrap();
            waits = (local, remote);
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        waits
    })
    .unwrap();
    let (local, remote) = report.results[0];
    // flush_local returns at local completion; the full flush additionally
    // covers the remote delivery + ack.
    assert!(remote > 0, "remote flush had nothing left to wait for");
    assert!(
        local + remote > local,
        "sanity: remote flush waited {remote}ns after local {local}ns"
    );
}

#[test]
fn flush_all_covers_multiple_lock_epochs() {
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            env.lock(win, Rank(2), LockKind::Shared).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            env.put(win, Rank(2), 0, &[2u8; 8]).unwrap();
            env.flush_all(win).unwrap();
            // After flush_all both targets hold the data (remotely
            // complete) even though both epochs remain open.
            let r1 = env.get(win, Rank(1), 0, 8).unwrap();
            let r2 = env.get(win, Rank(2), 0, 8).unwrap();
            env.flush_all(win).unwrap();
            assert_eq!(env.wait_data(r1).unwrap().as_ref(), &[1u8; 8]);
            assert_eq!(env.wait_data(r2).unwrap().as_ref(), &[2u8; 8]);
            env.unlock(win, Rank(1)).unwrap();
            env.unlock(win, Rank(2)).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn fetch_and_op_serializes_concurrent_counters() {
    // The transactional pattern of §IV.B in miniature: concurrent atomic
    // increments under shared lock_all must not lose updates.
    run_job(JobConfig::all_internode(6), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        env.lock_all(win).unwrap();
        let mut reqs = Vec::new();
        for _ in 0..10 {
            reqs.push(
                env.fetch_and_op(win, Rank(0), 0, Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
                    .unwrap(),
            );
        }
        env.unlock_all(win).unwrap();
        let mut olds: Vec<u64> = reqs
            .into_iter()
            .map(|r| {
                u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap())
            })
            .collect();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let final_v = u64::from_le_bytes(
                env.read_local(win, 0, 8).unwrap().try_into().unwrap(),
            );
            assert_eq!(final_v, 60, "6 ranks × 10 increments");
        }
        // Each rank's observed old values are strictly increasing (its own
        // ops are ordered within its epoch).
        let sorted = {
            let mut s = olds.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(olds, sorted);
        olds.dedup();
        assert_eq!(olds.len(), 10, "an old value was observed twice by one rank");
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn compare_and_swap_elects_exactly_one_winner() {
    let report = run_job(JobConfig::all_internode(5), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        env.lock_all(win).unwrap();
        let me = env.rank().idx() as u64 + 1;
        let r = env
            .compare_and_swap(win, Rank(0), 0, Datatype::U64, &0u64.to_le_bytes(), &me.to_le_bytes())
            .unwrap();
        env.unlock_all(win).unwrap();
        let old = u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap());
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let v = u64::from_le_bytes(env.read_local(win, 0, 8).unwrap().try_into().unwrap());
            assert!((1..=5).contains(&v));
        }
        env.win_free(win).unwrap();
        old == 0
    })
    .unwrap();
    let winners = report.results.iter().filter(|won| **won).count();
    assert_eq!(winners, 1, "CAS must elect exactly one winner");
}

#[test]
fn get_accumulate_returns_previous_contents() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(16).unwrap();
        env.write_local(win, 0, &5u64.to_le_bytes()).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            let r = env
                .get_accumulate(win, Rank(1), 0, Datatype::U64, ReduceOp::Sum, &3u64.to_le_bytes())
                .unwrap();
            env.unlock(win, Rank(1)).unwrap();
            let old = u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap());
            assert_eq!(old, 5);
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            let v = u64::from_le_bytes(env.read_local(win, 0, 8).unwrap().try_into().unwrap());
            assert_eq!(v, 8);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn large_accumulate_uses_rendezvous_and_stays_correct() {
    run_job(JobConfig::all_internode(2), |env| {
        let n = 4096usize; // 32 KB of u64 > 8 KB threshold
        let win = env.win_allocate(n * 8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let ones: Vec<u8> = mpisim_core::datatype::u64s_to_bytes(&vec![1u64; n]);
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.accumulate(win, Rank(1), 0, Datatype::U64, ReduceOp::Sum, &ones).unwrap();
            env.accumulate(win, Rank(1), 0, Datatype::U64, ReduceOp::Sum, &ones).unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            let got = mpisim_core::datatype::bytes_to_u64s(&env.read_local(win, 0, n * 8).unwrap());
            assert!(got.iter().all(|v| *v == 2), "rendezvous accumulate lost data");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn no_overlap_for_large_accumulate() {
    // §VIII.A: accumulates above 8 KB cannot overlap because of the
    // internal rendezvous. We verify the epoch cannot complete before the
    // rendezvous round trip even when closed early.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.accumulate_synthetic(win, Rank(1), 0, Datatype::U64, ReduceOp::Sum, 1 << 20)
                .unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        let epoch = (env.now() - t0).as_nanos();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        epoch
    })
    .unwrap();
    let us = report.results[0] as f64 / 1000.0;
    // 1 MB at ≈340 µs plus the RTS/CTS round trip and ack.
    assert!(us > 340.0, "large accumulate finished implausibly fast: {us} µs");
}

#[test]
fn rput_request_completes_at_local_completion() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            let r = env.rput(win, Rank(1), 0, &vec![7u8; 1 << 16]).unwrap();
            env.wait(r).unwrap(); // local completion inside the epoch
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 0, 4).unwrap(), vec![7u8; 4]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn noop_fetch_reads_atomically() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.write_local(win, 0, &33u64.to_le_bytes()).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            let r = env
                .fetch_and_op(win, Rank(1), 0, Datatype::U64, ReduceOp::NoOp, &0u64.to_le_bytes())
                .unwrap();
            env.unlock(win, Rank(1)).unwrap();
            let v = u64::from_le_bytes(env.wait_data(r).unwrap().as_ref().try_into().unwrap());
            assert_eq!(v, 33);
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            // NoOp must not modify the target.
            let v = u64::from_le_bytes(env.read_local(win, 0, 8).unwrap().try_into().unwrap());
            assert_eq!(v, 33);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn synthetic_payloads_time_like_real_ones() {
    fn run(synthetic: bool) -> u64 {
        let report = run_job(JobConfig::all_internode(2), move |env| {
            let win = env.win_allocate(1 << 20).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            if env.rank().idx() == 0 {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                if synthetic {
                    env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
                } else {
                    env.put(win, Rank(1), 0, &vec![1u8; 1 << 20]).unwrap();
                }
                env.unlock(win, Rank(1)).unwrap();
            }
            let epoch = (env.now() - t0).as_nanos();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            epoch
        })
        .unwrap();
        report.results[0]
    }
    assert_eq!(run(true), run(false), "synthetic and real payloads must cost the same time");
}

#[test]
fn compute_time_does_not_count_as_mpi_time() {
    run_job(JobConfig::all_internode(2), |env| {
        env.compute(SimTime::from_micros(500));
        env.barrier().unwrap();
        let s = env.stats();
        assert_eq!(s.compute_time, SimTime::from_micros(500));
        assert!(s.mpi_time < SimTime::from_micros(200));
        assert!(s.calls >= 1);
    })
    .unwrap();
}
