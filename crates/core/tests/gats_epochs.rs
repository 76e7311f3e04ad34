//! Integration tests: general active-target synchronization (GATS).


use mpisim_core::{run_job, Group, JobConfig, Rank, SyncStrategy};
use mpisim_sim::SimTime;

#[test]
fn start_put_complete_post_wait() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(32).unwrap();
        if env.rank().idx() == 0 {
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, b"gats-data").unwrap();
            env.complete(win).unwrap();
        } else {
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
            assert_eq!(env.read_local(win, 0, 9).unwrap(), b"gats-data");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn multiple_epochs_fifo_matching() {
    // Rule 3 of §VI.A: access and exposure epochs match FIFO per pair.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        if env.rank().idx() == 0 {
            for i in 0..5u8 {
                env.start(win, Group::single(Rank(1))).unwrap();
                env.put(win, Rank(1), i as usize * 8, &[i + 1; 8]).unwrap();
                env.complete(win).unwrap();
            }
        } else {
            for i in 0..5u8 {
                env.post(win, Group::single(Rank(0))).unwrap();
                env.wait_epoch(win).unwrap();
                // The i-th exposure matches the i-th access: its data (and
                // all previous epochs' data) must be visible.
                assert_eq!(env.read_local(win, i as usize * 8, 8).unwrap(), vec![i + 1; 8]);
            }
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn exposure_posted_far_ahead_persists() {
    // §VII.B: "when a target grants access to an origin that is several
    // epochs late, the granted access notification must persist."
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        if env.rank().idx() == 1 {
            // Target posts immediately.
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
            assert_eq!(env.read_local(win, 0, 3).unwrap(), b"abc");
        } else {
            // Origin arrives 2 ms later; the grant must still be there.
            env.compute(SimTime::from_millis(2));
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, b"abc").unwrap();
            env.complete(win).unwrap();
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn one_origin_many_targets() {
    run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(8).unwrap();
        if env.rank().idx() == 0 {
            env.start(win, Group::new([1, 2, 3])).unwrap();
            for t in 1..4usize {
                env.put(win, Rank(t), 0, &[t as u8; 8]).unwrap();
            }
            env.complete(win).unwrap();
        } else {
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
            assert_eq!(
                env.read_local(win, 0, 8).unwrap(),
                vec![env.rank().idx() as u8; 8]
            );
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn many_origins_one_target() {
    run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(32).unwrap();
        if env.rank().idx() == 0 {
            env.post(win, Group::new([1, 2, 3])).unwrap();
            env.wait_epoch(win).unwrap();
            for s in 1..4usize {
                assert_eq!(env.read_local(win, s * 8, 8).unwrap(), vec![s as u8; 8]);
            }
        } else {
            let me = env.rank().idx();
            env.start(win, Group::single(Rank(0))).unwrap();
            env.put(win, Rank(0), me * 8, &[me as u8; 8]).unwrap();
            env.complete(win).unwrap();
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn win_test_polls_exposure() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        if env.rank().idx() == 0 {
            env.compute(SimTime::from_micros(300));
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, &[9; 8]).unwrap();
            env.complete(win).unwrap();
        } else {
            env.post(win, Group::single(Rank(0))).unwrap();
            let mut polls = 0u32;
            while !env.test_epoch(win).unwrap() {
                polls += 1;
                env.compute(SimTime::from_micros(10));
            }
            assert!(polls > 0, "origin was late, test must fail at least once");
            assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![9; 8]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn late_post_blocks_blocking_complete() {
    // The Late Post inefficiency (§III): with blocking synchronization the
    // origin's `complete` absorbs the target's lateness.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            env.compute(SimTime::from_micros(1000)); // late post
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
        } else {
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            env.complete(win).unwrap();
        }
        let done = env.now().as_nanos();
        env.win_free(win).unwrap();
        done
    })
    .unwrap();
    let t = report.results[0] as f64 / 1000.0; // µs
    assert!(
        (1300.0..1500.0).contains(&t),
        "blocking complete under Late Post took {t} µs, expected ≈1340 µs"
    );
}

#[test]
fn icomplete_escapes_late_post() {
    // With MPI_WIN_ICOMPLETE the origin returns in ε and can proceed
    // (Eq. 2 of §IV.C.1).
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        let mut t_call = 0;
        if env.rank().idx() == 1 {
            env.compute(SimTime::from_micros(1000));
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
        } else {
            let t0 = env.now();
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            let req = env.icomplete(win).unwrap();
            t_call = (env.now() - t0).as_nanos();
            env.wait(req).unwrap();
        }
        env.win_free(win).unwrap();
        t_call
    })
    .unwrap();
    let t = report.results[0] as f64 / 1000.0;
    assert!(
        t < 20.0,
        "istart+put+icomplete took {t} µs, expected only ε-class overhead"
    );
}

#[test]
fn gats_lazy_baseline_waits_for_all_targets() {
    // §VIII.B: the baseline issues nothing until every internode target is
    // ready; the redesigned engine issues per-target as grants arrive. We
    // check the observable consequence: with one late target, the punctual
    // target still receives its data early under Redesigned but late under
    // LazyBaseline.
    fn run(strategy: SyncStrategy) -> u64 {
        let report = run_job(
            JobConfig::all_internode(3).with_strategy(strategy),
            |env| {
                let win = env.win_allocate(1 << 20).unwrap();
                env.barrier().unwrap();
                match env.rank().idx() {
                    0 => {
                        env.start(win, Group::new([1, 2])).unwrap();
                        env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
                        env.put_synthetic(win, Rank(2), 0, 1 << 20).unwrap();
                        env.complete(win).unwrap();
                    }
                    1 => {
                        // Punctual target.
                        env.post(win, Group::single(Rank(0))).unwrap();
                        env.wait_epoch(win).unwrap();
                    }
                    _ => {
                        // Late target.
                        env.compute(SimTime::from_micros(1000));
                        env.post(win, Group::single(Rank(0))).unwrap();
                        env.wait_epoch(win).unwrap();
                    }
                }
                let done = env.now().as_nanos();
                env.win_free(win).unwrap();
                done
            },
        )
        .unwrap();
        // Rank 1 is the punctual target.
        report.results[1]
    }
    let eager = run(SyncStrategy::Redesigned);
    let lazy = run(SyncStrategy::LazyBaseline);
    assert!(
        eager + 500_000 < lazy,
        "punctual target completed at {eager}ns (eager) vs {lazy}ns (lazy): \
         eager per-target issue should beat wait-for-all-targets by ≈1ms"
    );
}
