//! Robustness under network perturbation: with deterministic latency
//! jitter injected into every message, protocol correctness must be
//! unchanged (only timing moves), and the engine's introspection counters
//! must stay consistent.


use mpisim_core::{run_job, Datatype, Group, JobConfig, LockKind, Rank, ReduceOp};
use mpisim_sim::SimTime;

fn noisy(n: usize, seed: u64) -> JobConfig {
    let mut cfg = JobConfig::all_internode(n).with_seed(seed);
    cfg.net.jitter = SimTime::from_micros(37);
    cfg
}

#[test]
fn mixed_epochs_survive_jitter() {
    for seed in [1u64, 2, 3] {
        run_job(noisy(4, seed), |env| {
            let me = env.rank().idx();
            let n = env.n_ranks();
            let win = env.win_allocate(8 * n).unwrap();
            env.barrier().unwrap();
            // Lock phase.
            for off in 1..n {
                let t = Rank((me + off) % n);
                env.lock(win, t, LockKind::Exclusive).unwrap();
                env.accumulate(win, t, 0, Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
                    .unwrap();
                env.unlock(win, t).unwrap();
            }
            env.barrier().unwrap();
            let v = u64::from_le_bytes(env.read_local(win, 0, 8).unwrap().try_into().unwrap());
            assert_eq!(v, (n - 1) as u64);
            // GATS phase.
            if me == 0 {
                env.start(win, Group::new(1..n)).unwrap();
                for t in 1..n {
                    env.put(win, Rank(t), 8, &[9u8; 8]).unwrap();
                }
                env.complete(win).unwrap();
            } else {
                env.post(win, Group::single(Rank(0))).unwrap();
                env.wait_epoch(win).unwrap();
                assert_eq!(env.read_local(win, 8, 8).unwrap(), vec![9u8; 8]);
            }
            env.win_free(win).unwrap();
        })
        .unwrap();
    }
}

#[test]
fn jitter_changes_timing_not_results() {
    fn run(jitter_us: u64) -> (u64, Vec<u8>) {
        let mut cfg = JobConfig::all_internode(3).with_seed(11);
        cfg.net.jitter = SimTime::from_micros(jitter_us);
        let report = run_job(cfg, move |env| {
            let win = env.win_allocate(16).unwrap();
            env.barrier().unwrap();
            if env.rank().idx() == 0 {
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put(win, Rank(2), 0, &[5u8; 16]).unwrap();
                env.unlock(win, Rank(2)).unwrap();
            }
            env.barrier().unwrap();
            let data =
                if env.rank().idx() == 2 { env.read_local(win, 0, 16).unwrap() } else { Vec::new() };
            env.win_free(win).unwrap();
            data
        })
        .unwrap();
        (report.final_time.as_nanos(), report.results[2].clone())
    }
    let (t0, d0) = run(0);
    let (t1, d1) = run(80);
    assert_eq!(d0, d1, "payload must be identical under jitter");
    assert_ne!(t0, t1, "jitter should perturb the schedule");
}

#[test]
fn engine_stats_are_consistent() {
    let report = run_job(JobConfig::all_internode(3), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // Two back-to-back nonblocking lock epochs (the second defers).
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            let r1 = env.iunlock(win, Rank(1)).unwrap();
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 8, &[2u8; 8]).unwrap();
            let r2 = env.iunlock(win, Rank(1)).unwrap();
            env.wait(r1).unwrap();
            env.wait(r2).unwrap();
        }
        env.barrier().unwrap();
        let stats = (env.rank().idx() == 0).then(|| env.engine().engine_stats());
        env.win_free(win).unwrap();
        stats
    })
    .unwrap();
    let s = report.results[0].unwrap();
    assert!(s.epochs_opened >= 2, "{s:?}");
    assert_eq!(
        s.epochs_activated, s.epochs_completed,
        "every activated epoch completed: {s:?}"
    );
    assert!(s.epochs_activated >= 2, "{s:?}");
    assert!(
        s.epochs_deferred >= 1,
        "the second back-to-back lock epoch must have been deferred: {s:?}"
    );
    assert!(s.lock_grants >= 2, "{s:?}");
    assert!(s.sweeps > 0);
}
