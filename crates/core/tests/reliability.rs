//! End-to-end tests of the ack/retransmit reliability sublayer and the
//! epoch stall watchdog under seeded unreliable-interconnect fault plans.
//!
//! Clean-recovery tests assert the channel quiescence invariant from
//! DESIGN.md §11 — every frame pushed is eventually delivered exactly
//! once (`rel_delivered == rel_frames_sent`) — on top of data
//! correctness. Degraded-termination tests assert the job *ends* with
//! structured degradations instead of hanging.


use mpisim_core::engine::{MAX_RETRIES, RTO};
use mpisim_core::{run_job, Degradation, JobConfig, JobReport, LockKind, Rank, RankEnv};
use mpisim_net::{FaultPlan, Partition};
use mpisim_sim::{SimError, SimTime};

/// All-internode job with the given fault plan and the sublayer on.
fn faulty_cfg(n: usize, plan: FaultPlan) -> JobConfig {
    let mut cfg = JobConfig::all_internode(n);
    cfg.net.faults = Some(plan);
    cfg.with_reliability()
}

/// A workload crossing every message class the sublayer frames: barrier
/// bootstrap, passive-target locks with puts, and two fence phases, with
/// full data verification at the end. Each rank returns its final window
/// contents.
fn mixed_job(cfg: JobConfig) -> Result<JobReport<Vec<u8>>, SimError> {
    run_job(cfg, mixed_traffic)
}

/// One rank's part of [`mixed_job`]; returns its final window contents.
fn mixed_traffic(env: &mut RankEnv) -> Vec<u8> {
    let win = env.win_allocate(256).unwrap();
    env.barrier().unwrap();
    let me = env.rank().idx();
    let n = env.n_ranks();
    let next = Rank((me + 1) % n);
    // Passive target: everyone deposits a byte row at rank 0.
    env.lock(win, Rank(0), LockKind::Shared).unwrap();
    env.put(win, Rank(0), me * 8, &[me as u8; 8]).unwrap();
    env.unlock(win, Rank(0)).unwrap();
    // Active target: several fence phases of neighbour puts (enough
    // traffic that probabilistic fault plans actually strike).
    let rounds = 6usize;
    env.fence(win).unwrap();
    for round in 1..=rounds {
        env.put(win, next, 128 + me * 4, &[(me * 10 + round) as u8; 4]).unwrap();
        env.fence(win).unwrap();
    }
    let prev = (me + n - 1) % n;
    assert_eq!(
        env.read_local(win, 128 + prev * 4, 4).unwrap(),
        vec![(prev * 10 + rounds) as u8; 4],
        "fence deposit from the left neighbour must survive the faults"
    );
    env.barrier().unwrap();
    if me == 0 {
        for r in 0..n {
            assert_eq!(
                env.read_local(win, r * 8, 8).unwrap(),
                vec![r as u8; 8],
                "passive deposit from rank {r} must survive the faults"
            );
        }
    }
    let mem = env.read_local(win, 0, 256).unwrap();
    env.win_free(win).unwrap();
    mem
}

/// `pushed == acked + retransmit-pending` at quiescence; on a clean run
/// the pending term is zero, so every unique frame was delivered once.
fn assert_quiescent_channels<R>(report: &JobReport<R>) {
    let e = &report.engine;
    assert!(e.rel_frames_sent > 0, "job must actually use the framed path");
    assert_eq!(
        e.rel_delivered, e.rel_frames_sent,
        "every framed message must be delivered exactly once at quiescence"
    );
}

#[test]
fn lossless_fabric_never_retransmits() {
    // The sublayer armed on a fault-free all-internode fabric: every frame
    // is acked inside its first timeout, so framing is pure overhead.
    let report = mixed_job(JobConfig::all_internode(4).with_reliability()).unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.engine.rel_retransmits, 0, "spurious retransmits");
    assert_quiescent_channels(&report);
    assert_eq!(report.live_requests, 0);

    // A burst toward one peer: sixteen puts in one lock epoch reach rank 1
    // within one ack delay, so each cumulative ack covers several frames.
    let burst = run_job(JobConfig::all_internode(2).with_reliability(), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            for i in 0..16 {
                env.put(win, Rank(1), i * 4, &[i as u8; 4]).unwrap();
            }
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(burst.is_clean(), "{:?}", burst.degradations);
    assert_quiescent_channels(&burst);
    let e = &burst.engine;
    assert!(e.acks_coalesced >= 1, "no ack covered more than one frame: {e:?}");
    assert!(e.rel_acks_sent < e.rel_frames_sent, "one ack per frame: {e:?}");
}

#[test]
fn light_loss_recovers_every_message() {
    let report = mixed_job(faulty_cfg(4, FaultPlan::light_loss(11))).unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert!(report.net.fault_drops > 0, "the plan must actually drop something");
    assert!(
        report.engine.rel_retransmits > 0,
        "dropped frames can only be recovered by retransmission"
    );
    assert_quiescent_channels(&report);
    assert_eq!(report.live_requests, 0);
}

#[test]
fn lossy_run_repeats_exactly() {
    // Retransmits must leave in a defined order: with the per-peer
    // channels in a hash map the resend order, and with it every count
    // below, changed from one run to the next.
    let run = || mixed_job(faulty_cfg(6, FaultPlan::light_loss(11))).unwrap();
    let (a, b) = (run(), run());
    assert!(a.engine.rel_retransmits > 0, "the plan must force retransmits");
    assert_eq!(a.final_time, b.final_time);
    assert_eq!(a.engine, b.engine);
    assert_eq!(format!("{:?}", a.net), format!("{:?}", b.net));
    assert_eq!(a.sim, b.sim);
}

#[test]
fn heavy_dup_reorder_is_deduplicated_and_resequenced() {
    let report = mixed_job(faulty_cfg(4, FaultPlan::heavy_dup_reorder(23))).unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert!(report.net.fault_dups > 0 && report.net.fault_reorders > 0);
    let e = &report.engine;
    assert!(e.rel_dups_dropped > 0, "injected duplicates must be suppressed");
    assert!(
        e.rel_ooo_buffered > 0,
        "reordered frames must cross the dedup-window boundary into the ooo buffer"
    );
    assert_quiescent_channels(&report);
}

#[test]
fn transient_partition_heals_through_backoff() {
    // The partition heals at 2 ms; the default backoff schedule must keep
    // probing long enough to carry every frame across the heal.
    let report = mixed_job(faulty_cfg(4, FaultPlan::transient_partition(7))).unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert!(report.net.fault_partition_drops > 0, "the cut must hit live traffic");
    assert!(report.engine.rel_retransmits > 0);
    assert_quiescent_channels(&report);
}

#[test]
fn retransmit_racing_ack_is_deduplicated_and_acked() {
    // Nothing is lost: order-preserving delays of up to ten RTOs hold
    // frames (or their acks) past the retransmit timeout, so the copy the
    // timer resends lands behind the delivered original — a genuine
    // duplicate the receiver must drop but re-ack.
    let plan = FaultPlan { delay_p: 0.1, max_delay: RTO * 10, ..FaultPlan::none(3) };
    let report = mixed_job(faulty_cfg(2, plan)).unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    let e = &report.engine;
    assert!(e.rel_retransmits > 0, "a delay past the RTO must spuriously retransmit");
    assert!(
        e.rel_dups_dropped > 0,
        "the retransmitted duplicate must be dropped and re-acked, not re-delivered"
    );
    assert_quiescent_channels(&report);
    assert_eq!(report.live_requests, 0);
}

#[test]
fn unhealed_partition_exhausts_backoff_and_trips_watchdog() {
    // A partition that never heals: the frame toward rank 1 burns its
    // whole retry budget (backoff capped; ≈14.5 ms), is abandoned, and the
    // closed lock epoch is cancelled by the watchdog within
    // [budget, 2*budget].
    let mut plan = FaultPlan::none(5);
    plan.partitions.push(Partition {
        a: Rank(0),
        b: Rank(1),
        from: SimTime::from_micros(50),
        until: SimTime::from_secs(1_000),
    });
    let budget = SimTime::from_millis(20);
    let cfg = faulty_cfg(2, plan).with_watchdog(budget);
    let report = run_job(cfg, |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.compute(SimTime::from_micros(100)); // step past the cut
            let l = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[7; 4]).unwrap();
            let u = env.iunlock(win, Rank(1)).unwrap();
            env.wait(l).unwrap();
            env.wait(u).unwrap(); // returns only because the watchdog cancels
        }
        // No closing collective: rank 1 exits and the job ends degraded.
    })
    .unwrap();
    assert!(!report.is_clean());
    let exhausted: Vec<_> = report
        .degradations
        .iter()
        .filter_map(|d| match d {
            Degradation::RetriesExhausted { retries, dst, .. } => Some((*retries, *dst)),
            _ => None,
        })
        .collect();
    assert!(!exhausted.is_empty(), "{:?}", report.degradations);
    for (retries, dst) in &exhausted {
        assert_eq!(*retries, MAX_RETRIES, "frames must burn the exact retry budget");
        assert_eq!(*dst, Rank(1));
    }
    let stalls: Vec<_> = report
        .degradations
        .iter()
        .filter_map(|d| match d {
            Degradation::EpochStall(r) => Some(r),
            _ => None,
        })
        .collect();
    assert!(!stalls.is_empty(), "{:?}", report.degradations);
    for r in &stalls {
        assert_eq!(r.kind, "lock");
        assert_eq!(r.rank, Rank(0));
        let waited = r.cancelled_at.saturating_sub(r.closed_at);
        assert!(
            waited >= budget && waited <= budget + budget,
            "cancel must land within [budget, 2*budget] of the close, got {waited:?}"
        );
    }
    assert!(report.engine.epochs_cancelled >= 1);
    assert!(report.engine.retries_exhausted >= 1);
    assert!(report.engine.watchdog_ticks >= 1, "the cancel needs a watchdog tick");
}

#[test]
fn crashed_peer_during_lock_all_is_cancelled_not_hung() {
    // Rank 2's NIC dies while every rank holds a shared lock-all epoch:
    // rank 2 commits an epoch on a second window, its first commit, which
    // is where the plan crashes it. Frames toward it are abandoned as
    // peer-crash degradations and the stalled epochs are cancelled, so the
    // job terminates.
    let mut plan = FaultPlan::none(9);
    plan.crash_at_commit.push((Rank(2), 1));
    let cfg = faulty_cfg(3, plan).with_watchdog(SimTime::from_millis(1));
    let report = run_job(cfg, |env| {
        let win = env.win_allocate(128).unwrap();
        let own = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let la = env.ilock_all(win).unwrap();
        env.wait(la).unwrap();
        if me == 2 {
            env.lock(own, Rank(2), LockKind::Exclusive).unwrap();
            env.unlock(own, Rank(2)).unwrap();
        }
        env.compute(SimTime::from_micros(600)); // hold the lock across the crash
        let next = Rank((me + 1) % 3);
        env.put(win, next, me * 8, &[me as u8; 8]).unwrap();
        let u = env.iunlock_all(win).unwrap();
        env.wait(u).unwrap(); // stalled epochs return via cancellation
        // No post-crash collectives: the job ends degraded.
    })
    .unwrap();
    assert!(!report.is_clean());
    assert!(
        report.degradations.iter().any(|d| d.kind() == "peer-crash"),
        "abandonment toward a crashed NIC must be classified as peer-crash: {:?}",
        report.degradations
    );
    let stalled_lock_all = report.degradations.iter().any(|d| {
        matches!(d, Degradation::EpochStall(r) if r.kind == "lock-all")
    });
    assert!(stalled_lock_all, "{:?}", report.degradations);
    assert!(report.engine.epochs_cancelled >= 1);
    assert!(report.net.fault_crash_drops > 0);
}

#[test]
fn crash_at_commit_without_recovery_takes_the_nic_down() {
    // The planned crash fires at rank 2's first epoch commit even though
    // no recovery is armed (nothing restarts the rank): the second round's
    // frames to and from rank 2 are abandoned as peer-crash degradations
    // and the stalled epochs are cancelled.
    let mut plan = FaultPlan::none(4);
    plan.crash_at_commit.push((Rank(2), 1));
    let cfg = faulty_cfg(3, plan).with_watchdog(SimTime::from_millis(20));
    let report = run_job(cfg, |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        let next = Rank((env.rank().idx() + 1) % 3);
        for round in 0..2u8 {
            env.lock_all(win).unwrap();
            env.put(win, next, 8 * round as usize, &[round; 8]).unwrap();
            env.unlock_all(win).unwrap();
        }
    })
    .unwrap();
    assert!(!report.is_clean());
    assert!(
        report.degradations.iter().any(|d| d.kind() == "peer-crash"),
        "{:?}",
        report.degradations
    );
    assert!(report.net.fault_crash_drops > 0);
    assert_eq!(report.recoveries().count(), 0, "nothing is armed to restart the rank");
}

#[test]
fn corrupted_frames_fail_their_checksum_and_are_retransmitted() {
    // In-transit corruption end to end: a flipped frame fails its
    // checksum at the receiver, is dropped unacknowledged, and comes back
    // from the sender's clean copy on the retransmit timer.
    let clean = mixed_job(JobConfig::all_internode(4).with_reliability()).unwrap();
    assert!(clean.is_clean(), "{:?}", clean.degradations);
    let plan = FaultPlan { corrupt_p: 0.1, ..FaultPlan::none(17) };
    let report = mixed_job(faulty_cfg(4, plan)).unwrap();
    let e = &report.engine;
    assert!(e.rel_checksum_drops >= 1, "the plan must corrupt a frame");
    let checksum_fails =
        report.degradations.iter().filter(|d| matches!(d, Degradation::ChecksumFail { .. })).count();
    assert_eq!(checksum_fails, report.degradations.len(), "{:?}", report.degradations);
    assert_eq!(e.rel_checksum_drops, checksum_fails as u64);
    // Raw acks carry no checksum, so a corrupted ack is a fault with no drop.
    assert!(report.net.fault_corrupts >= e.rel_checksum_drops);
    assert!(e.rel_retransmits >= e.rel_checksum_drops);
    assert_eq!(report.results, clean.results, "corruption must not reach a window");
    assert_quiescent_channels(&report);
    assert_eq!(report.live_requests, 0);
}
