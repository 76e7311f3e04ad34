//! Integration tests for the work-list-driven progress engine: the
//! pending-FIFO index and per-step dispatch must do exactly the work the
//! job generates — no more (idle steps never scan) and no less (every
//! pushed sync packet is drained by quiescence).

use mpisim_core::{run_job, JobConfig, JobReport, LockKind, Rank};
use mpisim_sim::SimError;

/// A mixed intranode workload: passive-target locks (exclusive and
/// shared), a GATS epoch, and a fence epoch, so every sync-packet kind
/// flows through the per-window-pair FIFOs.
fn mixed_job(cfg: JobConfig) -> Result<JobReport, SimError> {
    run_job(cfg, |env| {
        let win = env.win_allocate(256).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        // Passive target: everyone locks rank 0 and deposits a byte.
        env.lock(win, Rank(0), LockKind::Shared).unwrap();
        env.put(win, Rank(0), me * 8, &[me as u8; 8]).unwrap();
        env.unlock(win, Rank(0)).unwrap();
        // Exclusive ring: lock the right neighbour.
        let next = Rank((me + 1) % n);
        env.lock(win, next, LockKind::Exclusive).unwrap();
        env.put(win, next, 128, &[0xAB; 4]).unwrap();
        env.unlock(win, next).unwrap();
        env.barrier().unwrap();
        // Active target: a fence phase with puts from every rank.
        env.fence(win).unwrap();
        env.put(win, next, 160 + me * 4, &[me as u8; 4]).unwrap();
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
}

#[test]
fn fifo_packets_balance_at_quiescence() {
    let report = mixed_job(JobConfig::new(4)).unwrap();
    let e = &report.engine;
    assert!(e.fifo_packets > 0, "intranode job must use the FIFO path");
    assert_eq!(
        e.fifo_packets, e.fifo_drained,
        "every successfully pushed sync packet must be drained by quiescence"
    );
    assert_eq!(e.fifo_decode_errors, 0);
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
}

#[test]
fn fifo_balance_holds_under_fault_injection() {
    // Faults that complete (skip-grant deadlocks by design): the engine's
    // bookkeeping must stay balanced even while semantics are corrupted.
    for fault in ["double-acc", "hb-race"] {
        let mut cfg = JobConfig::new(4);
        cfg.fault = Some(fault.into());
        let report = mixed_job(cfg).unwrap();
        let e = &report.engine;
        assert_eq!(
            e.fifo_packets, e.fifo_drained,
            "fault {fault:?}: pushed != drained"
        );
        // These faults corrupt data, not the sync-packet wire format.
        assert_eq!(e.fifo_decode_errors, 0, "fault {fault:?}");
        assert!(report.is_clean(), "fault {fault:?}");
    }
}

#[test]
fn step_counters_account_for_real_work_only() {
    let report = mixed_job(JobConfig::new(4)).unwrap();
    let e = &report.engine;
    // The drain step ran, and item-level counters agree with it.
    assert!(e.step_runs[4] > 0, "FIFO drain step never ran: {:?}", e.step_runs);
    assert!(e.fifo_drained > 0);
    assert!(e.ops_issued > 0, "no RMA ops issued");
    assert!(e.issue_scans > 0, "ops were issued without any issue-step scan");
    // Per-step dispatch means no step can run more often than the sweep
    // loop itself iterates; each executed step is counted at most once
    // per iteration.
    let max_step = *e.step_runs.iter().max().unwrap();
    assert!(
        max_step <= e.sweeps,
        "a step ran {max_step} times in {} sweep iterations",
        e.sweeps
    );
    // Work-list gating: step 5 only runs when the pending-FIFO index is
    // non-empty, and every indexed ring holds at least one packet, so
    // each execution drains something — no empty scans. This holds in
    // both placements (all-internode still routes self-sync, e.g. a rank
    // locking itself, through its own FIFO).
    let internode = mixed_job(JobConfig::all_internode(4)).unwrap();
    for (label, rep) in [("intranode", &report), ("internode", &internode)] {
        let e = &rep.engine;
        assert_eq!(e.fifo_packets, e.fifo_drained, "{label}: pushed != drained");
        assert!(
            e.step_runs[4] <= e.fifo_drained,
            "{label}: drain step ran {} times but drained only {} packets",
            e.step_runs[4],
            e.fifo_drained
        );
    }
    assert!(
        internode.engine.fifo_packets < report.engine.fifo_packets,
        "all-internode placement should shift most sync off the FIFO path"
    );
}

// ---------------------------------------------------------------------
// Pinned behaviour of the completion paths
// ---------------------------------------------------------------------

use mpisim_core::{Datatype, Group, ReduceOp, SyncStrategy, WinInfo};
use mpisim_sim::SimTime;

/// What a simulator-only change must leave alone: virtual time, kernel
/// events, messages, sweeps and the per-step run counts.
type Pin = (u64, u64, u64, u64, [u64; 7]);

fn pin(r: &JobReport) -> Pin {
    assert!(r.is_clean(), "{:?}", r.degradations);
    assert_eq!(r.live_requests, 0);
    (
        r.final_time.as_nanos(),
        r.sim.events_executed,
        r.net.msgs_sent,
        r.engine.sweeps,
        r.engine.step_runs,
    )
}

/// The paper's two end-point series: redesigned engine driven through the
/// `i`-routines, or the lazy baseline driven through the blocking calls.
#[derive(Clone, Copy, Debug)]
enum Series {
    Nonblocking,
    LazyBlocking,
}

/// 16 ranks, on one node or four per node.
fn cfg16(series: Series, per_node: usize) -> JobConfig {
    let mut cfg = JobConfig::new(16);
    cfg.cores_per_node = per_node;
    match series {
        Series::Nonblocking => cfg,
        Series::LazyBlocking => cfg.with_strategy(SyncStrategy::LazyBaseline),
    }
}

const THINK: SimTime = SimTime::from_nanos(300);

/// One of the pinned kernels below.
type Kernel = fn(JobConfig, Series) -> JobReport;

/// Two fence-closed halo iterations on a ring (the benchmark's kernel).
fn fence_halo(cfg: JobConfig, series: Series) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate(16).unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        env.compute(THINK);
        env.fence(win).unwrap();
        for i in 0..2u64 {
            let v = ((me as u64) << 8 | i).to_le_bytes();
            env.put(win, Rank(left), 8, &v).unwrap();
            env.put(win, Rank(right), 0, &v).unwrap();
            match series {
                Series::Nonblocking => {
                    let closed = env.ifence(win).unwrap();
                    env.compute(THINK);
                    env.wait(closed).unwrap();
                }
                Series::LazyBlocking => {
                    env.fence(win).unwrap();
                    env.compute(THINK);
                }
            }
        }
        let got = env.read_local(win, 0, 16).unwrap();
        assert_eq!(got[..8], ((left as u64) << 8 | 1).to_le_bytes());
        assert_eq!(got[8..], ((right as u64) << 8 | 1).to_le_bytes());
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// One `lock_all` round: every rank Sum-accumulates 1 at its eight
/// successors.
fn lock_all_round(cfg: JobConfig, series: Series) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate(8).unwrap();
        env.compute(THINK);
        env.barrier().unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let one = 1u64.to_le_bytes();
        let mut pending = Vec::new();
        match series {
            Series::Nonblocking => pending.push(env.ilock_all(win).unwrap()),
            Series::LazyBlocking => env.lock_all(win).unwrap(),
        }
        for a in 1..=8 {
            env.accumulate(win, Rank((me + a) % n), 0, Datatype::U64, ReduceOp::Sum, &one)
                .unwrap();
        }
        match series {
            Series::Nonblocking => pending.push(env.iunlock_all(win).unwrap()),
            Series::LazyBlocking => env.unlock_all(win).unwrap(),
        }
        env.compute(THINK);
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        assert_eq!(env.read_local(win, 0, 8).unwrap(), 8u64.to_le_bytes());
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// Two GATS epochs on a ring with two targets each: every rank exposes to
/// its two predecessors and puts one word to each of its two successors.
fn gats_ring(cfg: JobConfig, series: Series) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate_with(16, WinInfo::all_reorder()).unwrap();
        let (me, n) = (env.rank().idx(), env.n_ranks());
        let pair = |a: usize, b: usize| Group::new([a.min(b), a.max(b)]);
        let origins = pair((me + n - 1) % n, (me + n - 2) % n);
        let targets = pair((me + 1) % n, (me + 2) % n);
        let mut pending = Vec::new();
        for e in 0..2u64 {
            let v = ((me as u64) << 8 | e).to_le_bytes();
            match series {
                Series::Nonblocking => {
                    pending.push(env.ipost(win, origins.clone()).unwrap());
                    pending.push(env.istart(win, targets.clone()).unwrap());
                }
                Series::LazyBlocking => {
                    env.post(win, origins.clone()).unwrap();
                    env.start(win, targets.clone()).unwrap();
                }
            }
            env.put(win, Rank((me + 1) % n), 0, &v).unwrap();
            env.put(win, Rank((me + 2) % n), 8, &v).unwrap();
            match series {
                Series::Nonblocking => {
                    pending.push(env.icomplete(win).unwrap());
                    pending.push(env.iwait(win).unwrap());
                }
                Series::LazyBlocking => {
                    env.complete(win).unwrap();
                    env.wait_epoch(win).unwrap();
                }
            }
            env.compute(THINK);
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        let got = env.read_local(win, 0, 16).unwrap();
        assert_eq!(got[..8], (((me + n - 1) % n) as u64 * 256 + 1).to_le_bytes());
        assert_eq!(got[8..], (((me + n - 2) % n) as u64 * 256 + 1).to_le_bytes());
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// Values recorded at the commit before completion became counted
/// (per-epoch counters + ready lists, per-seq fence tallies): that change
/// is simulator-only, so not one of them may move.
///
/// The four `Nonblocking` rows that end in a request-holding `wait_all`
/// were re-recorded when `wait_all` became one MPI call — one `CALL_ENTRY`
/// sleep per call instead of one per request, so (requests − 1) fewer
/// events on each of the 16 ranks and that many ε less on the caller's
/// path: `lock_all_round` (2 requests) 16 events and, where the wait is on
/// the critical path (16/node), 300 ns; `gats_ring` (8 requests) 112 events
/// and 7 ε = 2 100 ns at 16/node, 1 746 ns at 4/node where part of it was
/// hidden behind internode latency. Messages, sweeps and step counts are
/// the old ones.
#[test]
fn counted_completion_changes_no_observable_behaviour() {
    use Series::{LazyBlocking, Nonblocking};
    let pins: [(&str, Kernel, Series, usize, Pin); 12] = [
        ("fence_halo", fence_halo, Nonblocking, 16, (7929, 1088, 704, 912, [64, 96, 752, 112, 0, 0, 112])),
        ("fence_halo", fence_halo, Nonblocking, 4, (18919, 1576, 704, 912, [64, 96, 748, 96, 0, 0, 96])),
        ("fence_halo", fence_halo, LazyBlocking, 16, (8553, 1056, 704, 912, [64, 96, 688, 80, 0, 0, 80])),
        ("fence_halo", fence_halo, LazyBlocking, 4, (19570, 1544, 704, 912, [64, 96, 688, 80, 0, 0, 80])),
        ("lock_all_round", lock_all_round, Nonblocking, 16, (11876, 1840, 1152, 1632, [256, 400, 672, 128, 768, 512, 400])),
        ("lock_all_round", lock_all_round, Nonblocking, 4, (29462, 2696, 1152, 1632, [256, 400, 672, 24, 192, 512, 104])),
        ("lock_all_round", lock_all_round, LazyBlocking, 16, (12968, 1824, 1152, 1632, [256, 400, 544, 220, 768, 512, 288])),
        ("lock_all_round", lock_all_round, LazyBlocking, 4, (33778, 2680, 1152, 1632, [256, 400, 488, 15, 192, 512, 92])),
        ("gats_ring", gats_ring, Nonblocking, 16, (10332, 832, 384, 688, [64, 160, 320, 96, 128, 32, 256])),
        ("gats_ring", gats_ring, Nonblocking, 4, (22776, 1036, 384, 688, [64, 144, 328, 72, 80, 32, 168])),
        ("gats_ring", gats_ring, LazyBlocking, 16, (10176, 816, 384, 688, [64, 159, 192, 64, 128, 32, 223])),
        ("gats_ring", gats_ring, LazyBlocking, 4, (23887, 1020, 384, 688, [64, 140, 240, 56, 80, 32, 148])),
    ];
    for (name, kernel, series, per_node, want) in pins {
        let got = pin(&kernel(cfg16(series, per_node), series));
        assert_eq!(got, want, "{name} {series:?} {per_node}/node");
    }
}

/// `iunlock_all` with a put still unacknowledged: the fifteen idle targets
/// get their unlock at the close, in rank order; the busy one is blocked
/// and must be announced later, when the ack takes its last live op away —
/// a transition only the ready list reports.
#[test]
fn blocked_target_is_unlocked_when_its_last_op_completes() {
    use mpisim_core::trace::{Plane, SyncEvent, TraceEvent};
    let mut cfg = cfg16(Series::Nonblocking, 4);
    cfg.trace = true;
    let r = run_job(cfg, |env| {
        let win = env.win_allocate(4096).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let opened = env.ilock_all(win).unwrap();
            env.put(win, Rank(5), 0, &[7; 4096]).unwrap();
            env.flush_local(win, Rank(5)).unwrap();
            let closed = env.iunlock_all(win).unwrap();
            env.wait_all([opened, closed]).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    let unlocks: Vec<(SimTime, usize)> = r
        .trace
        .iter()
        .filter_map(|s| match s.event {
            TraceEvent::Sync { peer, plane, event: SyncEvent::EpochDoneSent { .. }, .. }
                if s.rank == Rank(0) && plane == Plane::Lock =>
            {
                Some((s.time, peer.idx()))
            }
            _ => None,
        })
        .collect();
    let at_close = unlocks[0].0;
    let idle: Vec<usize> = (0..16).filter(|t| *t != 5).collect();
    assert_eq!(unlocks[..15], idle.iter().map(|t| (at_close, *t)).collect::<Vec<_>>()[..]);
    assert_eq!(unlocks[15].1, 5);
    assert!(unlocks[15].0 > at_close, "{unlocks:?}");
    assert_eq!(unlocks.len(), 16);
    // 622 events: rank 0's `wait_all` over two requests is one call (623
    // when each request paid its own `CALL_ENTRY` sleep).
    assert_eq!(pin(&r), (29056, 622, 305, 375, [2, 19, 22, 0, 12, 32, 5]));
}

/// The deterministic cost proxy for collective completion: per-target
/// states the emit/completion passes examine. With counters and ready
/// lists it follows the announcements sent — O(ranks²) per collective
/// epoch, like the messages — where rescanning every target on every
/// notification made it O(ranks³): doubling the ranks must multiply it by
/// about 4, not 8, and it must stay below the message count.
#[test]
fn target_visits_grow_with_messages_not_ranks_times_messages() {
    for (name, kernel) in [("fence_halo", fence_halo as Kernel), ("lock_all_round", lock_all_round)] {
        let run = |n: usize| {
            let r = kernel(JobConfig::new(n), Series::Nonblocking);
            assert!(r.is_clean(), "{:?}", r.degradations);
            assert!(
                r.engine.target_visits <= r.net.msgs_sent,
                "{name} at {n} ranks: {} target visits for {} messages",
                r.engine.target_visits,
                r.net.msgs_sent
            );
            r.engine.target_visits
        };
        let (at32, at64) = (run(32), run(64));
        assert!(at32 > 0, "{name}: the emit passes visited nothing");
        assert!(
            at64 as f64 <= 4.5 * at32 as f64,
            "{name}: {at32} target visits at 32 ranks, {at64} at 64 — more than quadratic"
        );
    }
}

/// The sync plane is one protocol on two transports: the same program — an
/// exclusive-lock ring, a GATS ring and a `lock_all` round — run with every
/// sync packet on the intranode FIFOs and with every one on the network
/// must leave the same window contents and count the same protocol events.
#[test]
fn sync_plane_is_the_same_on_both_transports() {
    let run = |per_node: usize| {
        let mut cfg = JobConfig::new(4);
        cfg.cores_per_node = per_node;
        let r = run_job(cfg, |env| {
            let win = env.win_allocate_with(24, WinInfo::all_reorder()).unwrap();
            env.barrier().unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (left, right) = (Rank((me + n - 1) % n), Rank((me + 1) % n));
            let v = (me as u64 + 1).to_le_bytes();
            env.lock(win, right, LockKind::Exclusive).unwrap();
            env.put(win, right, 0, &v).unwrap();
            env.unlock(win, right).unwrap();
            env.post(win, Group::single(left)).unwrap();
            env.start(win, Group::single(right)).unwrap();
            env.put(win, right, 8, &v).unwrap();
            env.complete(win).unwrap();
            env.wait_epoch(win).unwrap();
            env.lock_all(win).unwrap();
            for t in 0..n {
                env.accumulate(win, Rank(t), 16, Datatype::U64, ReduceOp::Sum, &v)
                    .unwrap();
            }
            env.unlock_all(win).unwrap();
            env.barrier().unwrap();
            let mem = env.read_local(win, 0, 24).unwrap();
            env.win_free(win).unwrap();
            mem
        })
        .unwrap();
        assert!(r.is_clean(), "{:?}", r.degradations);
        let s = r.engine;
        let mems = r.results;
        let counts = (
            s.lock_grants,
            s.exposure_grants,
            s.gats_dones,
            s.unlocks_applied,
            s.epochs_completed,
        );
        (mems, counts, s.fifo_packets)
    };
    let (fifo_mems, fifo_counts, fifo_words) = run(4);
    let (net_mems, net_counts, net_words) = run(1);
    // One rank per node leaves only `lock_all`'s self-targeted request,
    // grant and unlock on a FIFO.
    assert_eq!((fifo_words, net_words), (68, 12));
    assert_eq!(fifo_mems, net_mems);
    assert_eq!(fifo_counts, net_counts);
    assert_eq!(fifo_counts, (20, 4, 4, 20, 16));
    assert_eq!(fifo_mems[0][16..], 10u64.to_le_bytes());
}
