//! The paper's cost argument (§IV.C, §VIII), pinned: a nonblocking
//! synchronization costs one small constant ε (`CALL_ENTRY`) per MPI call
//! and therefore never loses. For each kernel shape of the benchmark's
//! `epoch_mix_8` workload
//!
//! ```text
//! virt(Redesigned + nonblocking) ≤ virt(blocking series) + k·ε
//! ```
//!
//! against both blocking series (the lazy baseline and the redesigned
//! engine), where `k` is the number of MPI calls the nonblocking form of
//! the loop makes beyond the blocking form — read off the loop, checked
//! against the engine's per-rank call counter, and zero where the
//! nonblocking form makes fewer. Then the two applications of the paper's
//! evaluation at their smallest figure size.

use mpisim_apps::{run_lu, run_transactions, LuConfig, LuSync, TxConfig, TxMode};
use mpisim_core::{
    run_job, Datatype, Group, JobConfig, JobReport, LockKind, Rank, ReduceOp, SyncStrategy,
    WinInfo, CALL_ENTRY,
};
use mpisim_sim::SimTime;

const RANKS: usize = 8;
const ITERS: usize = 32;
/// Modelled computation per iteration: what a nonblocking close overlaps.
const THINK: SimTime = SimTime::from_nanos(2_008);

/// Fence-closed halo exchange on a ring; the nonblocking form computes
/// between `ifence` and the `wait` on its request.
fn halo_fence(cfg: JobConfig, nonblocking: bool) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate(16).unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        env.compute(THINK);
        env.fence(win).unwrap();
        for i in 0..ITERS as u64 {
            env.put(win, Rank(left), 8, &i.to_le_bytes()).unwrap();
            env.put(win, Rank(right), 0, &i.to_le_bytes()).unwrap();
            if nonblocking {
                let closed = env.ifence(win).unwrap();
                env.compute(THINK);
                env.wait(closed).unwrap();
            } else {
                env.fence(win).unwrap();
                env.compute(THINK);
            }
        }
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// Post/start/complete/wait ring under `all_reorder`; the nonblocking form
/// never waits inside the loop and collects `4 × ITERS` requests in one
/// `wait_all` — the paper's deep deferred-epoch queue.
fn gats_ring(cfg: JobConfig, nonblocking: bool) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate_with(8, WinInfo::all_reorder()).unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let (prev, next) = (Rank((me + n - 1) % n), Rank((me + 1) % n));
        let mut pending = Vec::new();
        for e in 0..ITERS as u64 {
            if nonblocking {
                pending.push(env.ipost(win, Group::single(prev)).unwrap());
                pending.push(env.istart(win, Group::single(next)).unwrap());
                env.put(win, next, 0, &e.to_le_bytes()).unwrap();
                pending.push(env.icomplete(win).unwrap());
                pending.push(env.iwait(win).unwrap());
            } else {
                env.post(win, Group::single(prev)).unwrap();
                env.start(win, Group::single(next)).unwrap();
                env.put(win, next, 0, &e.to_le_bytes()).unwrap();
                env.complete(win).unwrap();
                env.wait_epoch(win).unwrap();
            }
            env.compute(THINK);
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// Exclusive-lock ring: lock the right neighbour, put, unlock.
fn lock_ring(cfg: JobConfig, nonblocking: bool) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        let right = Rank((env.rank().idx() + 1) % env.n_ranks());
        let mut pending = Vec::new();
        for r in 0..ITERS {
            if nonblocking {
                pending.push(env.ilock(win, right, LockKind::Exclusive).unwrap());
                env.put(win, right, 8 * (r % 8), &[r as u8; 8]).unwrap();
                pending.push(env.iunlock(win, right).unwrap());
            } else {
                env.lock(win, right, LockKind::Exclusive).unwrap();
                env.put(win, right, 8 * (r % 8), &[r as u8; 8]).unwrap();
                env.unlock(win, right).unwrap();
            }
            env.compute(THINK);
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// `lock_all` storm: eight accumulates over the following ranks, then a
/// `get`, a `fetch_and_op` and a flush at the right neighbour, per round.
fn lock_all_storm(cfg: JobConfig, nonblocking: bool) -> JobReport {
    const ACCS: usize = 8;
    const COUNTER: usize = 32 * 8;
    run_job(cfg, move |env| {
        let win = env.win_allocate(COUNTER + 8).unwrap();
        env.compute(THINK);
        env.barrier().unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let right = Rank((me + 1) % n);
        let one = 1u64.to_le_bytes();
        let mut pending = Vec::new();
        for r in 0..ITERS {
            if nonblocking {
                pending.push(env.ilock_all(win).unwrap());
            } else {
                env.lock_all(win).unwrap();
            }
            for a in 0..ACCS {
                let (target, slot) = (Rank((me + a + 1) % n), (me + a + r) % 32);
                env.accumulate(win, target, slot * 8, Datatype::U64, ReduceOp::Sum, &one)
                    .unwrap();
            }
            let got = env.get(win, right, ((me + r) % 32) * 8, 8).unwrap();
            let bumped = env
                .fetch_and_op(win, right, COUNTER, Datatype::U64, ReduceOp::Sum, &one)
                .unwrap();
            if nonblocking {
                pending.extend([got, bumped, env.iflush(win, right).unwrap()]);
                pending.push(env.iunlock_all(win).unwrap());
            } else {
                // Flush first: the lazy baseline issues nothing before a
                // flush or the close.
                env.flush(win, right).unwrap();
                env.wait_all([got, bumped]).unwrap();
                env.unlock_all(win).unwrap();
            }
            env.compute(THINK);
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap()
}

#[test]
fn every_epoch_mix_kernel_holds_the_call_count_bound() {
    type Kernel = fn(JobConfig, bool) -> JobReport;
    let iters = ITERS as i64;
    // (kernel, MPI calls per rank: nonblocking form − blocking form).
    let kernels: [(&str, Kernel, i64); 4] = [
        // `ifence` + `wait` where the blocking form has one `fence`.
        ("halo_fence", halo_fence, iters),
        // Call for call the same loop; the one `wait_all` at the end holds
        // requests only in the nonblocking form, and an empty one is free.
        ("gats_ring", gats_ring, 1),
        ("lock_ring", lock_ring, 1),
        // The blocking form waits for its `get` and `fetch_and_op` every
        // round; the nonblocking form leaves them to the final `wait_all`.
        ("lock_all_storm", lock_all_storm, 1 - iters),
    ];
    for per_node in [16, 1] {
        for (name, kernel, extra_calls) in kernels {
            let run = |strategy, nonblocking| {
                let mut cfg = JobConfig::new(RANKS).with_strategy(strategy);
                cfg.cores_per_node = per_node;
                let r = kernel(cfg, nonblocking);
                assert!(r.is_clean(), "{name}: {:?}", r.degradations);
                assert_eq!(r.live_requests, 0, "{name}");
                r
            };
            let nb = run(SyncStrategy::Redesigned, true);
            let what = format!("{name}, {per_node} per node");
            for strategy in [SyncStrategy::Redesigned, SyncStrategy::LazyBaseline] {
                let blocking = run(strategy, false);
                for (a, b) in nb.ranks.iter().zip(&blocking.ranks) {
                    assert_eq!(a.calls as i64 - b.calls as i64, extra_calls, "{what}: k");
                }
                let allowance = CALL_ENTRY * extra_calls.max(0) as u64;
                assert!(
                    nb.final_time <= blocking.final_time + allowance,
                    "{what}: nonblocking {} > {strategy:?}+blocking {} + {extra_calls}·ε",
                    nb.final_time,
                    blocking.final_time,
                );
            }
        }
    }
}

/// Fig 12 at its smallest job size (64 ranks, 200 transactions each, depth
/// 16) and Fig 13 at its smallest point (1024² matrix on 8 ranks): the
/// nonblocking series is no slower than either blocking series.
#[test]
fn paper_apps_nonblocking_series_is_no_slower() {
    let job = |n: usize, strategy| {
        let mut job = JobConfig::new(n).with_strategy(strategy);
        job.cores_per_node = 16;
        job
    };
    let tx = |strategy, mode| {
        let cfg = TxConfig { mode, ..TxConfig::default() };
        run_transactions(job(64, strategy), cfg).unwrap().elapsed
    };
    let lu = |strategy, sync| run_lu(job(8, strategy), LuConfig::modeled(1024, sync)).unwrap().total_time;
    let tx_nb = tx(SyncStrategy::Redesigned, TxMode::Nonblocking { max_inflight: 16 });
    let lu_nb = lu(SyncStrategy::Redesigned, LuSync::Nonblocking);
    for strategy in [SyncStrategy::Redesigned, SyncStrategy::LazyBaseline] {
        let tx_blocking = tx(strategy, TxMode::Blocking);
        assert!(tx_nb <= tx_blocking, "transactions: {tx_nb} > {strategy:?} {tx_blocking}");
        let lu_blocking = lu(strategy, LuSync::Blocking);
        assert!(lu_nb <= lu_blocking, "LU: {lu_nb} > {strategy:?} {lu_blocking}");
    }
}
