//! Integration tests: fence-based active-target epochs.

use mpisim_core::{run_job, Datatype, Degradation, JobConfig, Rank, ReduceOp, SyncStrategy};
use mpisim_net::{FaultPlan, Partition};
use mpisim_sim::SimTime;

#[test]
fn fence_put_roundtrip() {
    run_job(JobConfig::all_internode(4), |env| {
        let n = env.n_ranks();
        let me = env.rank().idx();
        let win = env.win_allocate(8 * n).unwrap();
        env.fence(win).unwrap();
        // Everyone puts its rank into slot `me` of the right neighbour.
        let dst = Rank((me + 1) % n);
        env.put(win, dst, 8 * me, &(me as u64).to_le_bytes()).unwrap();
        env.fence(win).unwrap();
        // After the fence, the left neighbour's value must be visible.
        let left = (me + n - 1) % n;
        let got = env.read_local(win, 8 * left, 8).unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), left as u64);
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn fence_many_rounds_accumulate() {
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(8).unwrap();
        env.fence(win).unwrap();
        for _round in 0..10 {
            // All ranks accumulate 1 into rank 0's counter.
            env.accumulate(win, Rank(0), 0, Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
                .unwrap();
            env.fence(win).unwrap();
        }
        if env.rank().idx() == 0 {
            let got = env.read_local(win, 0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 30);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn fence_barrier_semantics_blocks_until_all_arrive() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 1 {
            // Rank 1 is late to its closing fence.
            env.compute(mpisim_sim::SimTime::from_micros(500));
        }
        env.fence(win).unwrap();
        let exit_time = env.now().as_nanos();
        env.win_free(win).unwrap();
        exit_time
    })
    .unwrap();
    let t = report.results;
    // Rank 0's closing fence cannot exit before rank 1 reaches its own.
    assert!(
        t[0] >= 500_000,
        "rank0 exited its fence at {}ns, before the late rank arrived",
        t[0]
    );
}

#[test]
fn fence_get_reads_remote_data() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(16).unwrap();
        env.write_local(win, 0, &[7u8; 16]).unwrap();
        env.fence(win).unwrap();
        let req = if env.rank().idx() == 0 {
            Some(env.get(win, Rank(1), 4, 8).unwrap())
        } else {
            None
        };
        env.fence(win).unwrap();
        if let Some(r) = req {
            let data = env.wait_data(r).unwrap();
            assert_eq!(data.as_ref(), &[7u8; 8]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn fence_with_only_gets_completes_and_counts() {
    // Gets are request messages at the target; fence completion counting
    // must include them or the target's fence would wait forever.
    run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(16).unwrap();
        env.write_local(win, 0, &(env.rank().idx() as u64 + 7).to_le_bytes())
            .unwrap();
        env.fence(win).unwrap();
        let reqs: Vec<_> = (0..env.n_ranks())
            .filter(|t| *t != env.rank().idx())
            .map(|t| env.get(win, Rank(t), 0, 8).unwrap())
            .collect();
        env.fence(win).unwrap();
        for (i, r) in reqs.into_iter().enumerate() {
            let v = u64::from_le_bytes(env.wait_data(r).unwrap()[..].try_into().unwrap());
            assert!((7..7 + 3).contains(&v), "get {i} returned {v}");
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn fence_works_under_lazy_baseline() {
    run_job(
        JobConfig::all_internode(3).with_strategy(SyncStrategy::LazyBaseline),
        |env| {
            let n = env.n_ranks();
            let me = env.rank().idx();
            let win = env.win_allocate(8 * n).unwrap();
            env.fence(win).unwrap();
            for t in 0..n {
                if t != me {
                    env.put(win, Rank(t), 8 * me, &(me as u64 + 100).to_le_bytes())
                        .unwrap();
                }
            }
            env.fence(win).unwrap();
            for s in 0..n {
                if s != me {
                    let got = env.read_local(win, 8 * s, 8).unwrap();
                    assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), s as u64 + 100);
                }
            }
            env.win_free(win).unwrap();
        },
    )
    .unwrap();
}

#[test]
fn ifence_overlaps_but_preserves_barrier() {
    // Nonblocking fence: the closing request completes only after all
    // peers fence, but the call itself returns immediately.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 0 {
            env.put(win, Rank(1), 0, &[1u8; 32]).unwrap();
            let t0 = env.now();
            let req = env.ifence(win).unwrap();
            let call_cost = env.now() - t0;
            assert!(
                call_cost.as_micros_f64() < 5.0,
                "ifence blocked for {call_cost}"
            );
            env.wait(req).unwrap();
        } else {
            env.compute(mpisim_sim::SimTime::from_micros(200));
            env.fence(win).unwrap();
        }
        // Retire the fence phase so the window can be freed: both sides
        // close their trailing fence epoch.
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn empty_fences_are_cheap() {
    let report = run_job(JobConfig::all_internode(4), |env| {
        let win = env.win_allocate(8).unwrap();
        for _ in 0..5 {
            env.fence(win).unwrap();
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
    // 5 empty fences over 4 internode ranks should stay well under a ms.
    assert!(report.final_time.as_micros_f64() < 1000.0);
}

/// A fence epoch the stall watchdog cancels takes its per-sequence record
/// with it, and what arrives for that sequence afterwards — here the
/// announcements and the put a transient partition held back until after
/// the cancellation — is dropped instead of re-creating the record for the
/// life of the window.
#[test]
fn cancelled_fence_retires_its_record_and_late_arrivals_are_dropped() {
    let mut plan = FaultPlan::none(5);
    plan.partitions.push(Partition {
        a: Rank(0),
        b: Rank(2),
        from: SimTime::from_micros(50),
        until: SimTime::from_millis(2),
    });
    let mut cfg = JobConfig::all_internode(3)
        .with_reliability()
        .with_watchdog(SimTime::from_micros(500));
    cfg.net.faults = Some(plan);
    let report = run_job(cfg, |env| {
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        env.compute(SimTime::from_micros(100)); // step past the cut
        env.fence(win).unwrap();
        // 2 → 0 crosses the partition, as do 0's and 2's announcements to
        // each other; the retransmit sublayer lands them after the heal.
        env.put(win, Rank((me + 1) % n), 0, &[me as u8 + 1; 8]).unwrap();
        let closed = env.ifence(win).unwrap();
        env.wait(closed).unwrap(); // ranks 0 and 2: via the watchdog
        // Per-channel order: ranks 0 and 2 hear each other's barrier
        // message across the healed link behind the late fence traffic.
        env.barrier().unwrap();
        assert!(me == 1 || env.now() > SimTime::from_millis(2));
        assert_eq!(env.read_local(win, 0, 8).unwrap(), [((me + n - 1) % n) as u8 + 1; 8]);
        assert_eq!(env.engine().fence_records(env.rank(), win), 0);
        env.win_free(win).unwrap();
    })
    .unwrap();
    let mut stalled: Vec<(usize, &str)> = report
        .degradations
        .iter()
        .filter_map(|d| match d {
            Degradation::EpochStall(r) => Some((r.rank.idx(), r.kind)),
            _ => None,
        })
        .collect();
    stalled.sort_unstable();
    assert_eq!(stalled, [(0, "fence"), (2, "fence")], "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
}
