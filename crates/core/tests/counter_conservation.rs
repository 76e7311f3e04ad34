//! Engine-counter conservation laws over every (ranks, rounds) shape of a
//! mixed workload, fault-free and under seeded light loss.
//!
//! Note on the FIFO law: decode errors are counted *within* the drain
//! (`fifo_decode_errors <= fifo_drained`), so the conservation law at
//! clean termination is `fifo_packets == fifo_drained` — a corrupt word
//! is still a drained word, not a separate leg of the ledger.

use mpisim_core::{run_job, JobConfig, JobReport, LockKind, Rank};
use mpisim_net::FaultPlan;
use mpisim_sim::{seeded_rng, SimTime};

/// Mixed workload crossing all three synchronization planes: fence
/// phases of neighbour puts, a shared-lock deposit row, and an
/// exclusive lock/put/unlock cycle per rank.
fn mixed_job(cfg: JobConfig, rounds: usize) -> JobReport {
    run_job(cfg, move |env| {
        let win = env.win_allocate(512).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        let next = Rank((me + 1) % n);
        env.lock(win, Rank(0), LockKind::Shared).unwrap();
        env.put(win, Rank(0), me * 8, &[me as u8; 8]).unwrap();
        env.unlock(win, Rank(0)).unwrap();
        env.fence(win).unwrap();
        for r in 0..rounds {
            env.put(win, next, 256 + r * 8, &[(me + r) as u8; 8]).unwrap();
            env.fence(win).unwrap();
        }
        env.lock(win, next, LockKind::Exclusive).unwrap();
        env.put(win, next, 128, &[0xAB; 4]).unwrap();
        env.unlock(win, next).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap()
}

/// The conservation laws that must hold at job termination regardless
/// of workload shape.
fn assert_conserved(report: &JobReport) {
    let s = &report.engine;
    // Every FIFO word pushed was drained; decode errors are a subset of
    // the drain, not an extra term (see module doc).
    assert_eq!(s.fifo_packets, s.fifo_drained, "{s:?}");
    assert!(s.fifo_decode_errors <= s.fifo_drained, "{s:?}");
    // Every opened epoch is accounted for exactly once.
    assert_eq!(
        s.epochs_opened,
        s.epochs_completed + s.epochs_cancelled + s.dormant_retired,
        "{s:?}"
    );
    assert!(s.epochs_deferred <= s.epochs_opened, "{s:?}");
    // Step runs only happen inside sweeps, and a job that did any work
    // swept at least once per step it ran.
    if s.sweeps == 0 {
        assert_eq!(s.step_runs, [0; 7], "{s:?}");
    }
    for (i, &runs) in s.step_runs.iter().enumerate() {
        assert!(runs == 0 || s.sweeps > 0, "step {i} ran outside any sweep: {s:?}");
    }
    // Issue scans cover at least the ops they issued.
    assert!(s.ops_issued <= s.issue_scans.max(s.ops_issued), "{s:?}");
}

/// Fault-free, intranode: the notification-FIFO plane carries all sync
/// traffic, nothing is cancelled. Every n in 2..5 and rounds in 1..4.
#[test]
fn conservation_fault_free_intranode() {
    for n in 2usize..5 {
        for rounds in 1usize..4 {
            let report = mixed_job(JobConfig::new(n), rounds);
            assert!(report.is_clean(), "{:?}", report.degradations);
            let s = &report.engine;
            assert_conserved(&report);
            assert_eq!(s.epochs_cancelled, 0);
            // One shared-lock put, `rounds` fence puts and one
            // exclusive-lock put per rank all go through the engine's
            // issue step.
            assert!(s.ops_issued >= (n * (rounds + 2)) as u64, "{s:?}");
            assert!(s.fifo_packets > 0, "intranode sync must ride the FIFO: {s:?}");
            assert_eq!(s.fifo_decode_errors, 0);
        }
    }
}

/// Fault-free, internode: same laws with the sync plane on framed messages
/// instead of the FIFO. Every n in 2..5 and rounds in 1..4.
#[test]
fn conservation_fault_free_internode() {
    for n in 2usize..5 {
        for rounds in 1usize..4 {
            let report = mixed_job(JobConfig::all_internode(n), rounds);
            assert!(report.is_clean(), "{:?}", report.degradations);
            assert_conserved(&report);
            assert_eq!(report.engine.epochs_cancelled, 0);
        }
    }
}

/// Seeded light loss with the reliability sublayer and watchdog on:
/// conservation still holds, and recovery is clean — exactly-once delivery
/// (DESIGN.md §11) with no cancellations. Every n in 2..5 and rounds in
/// 1..3, each under a loss seed drawn from 0..64.
#[test]
fn conservation_under_light_loss() {
    for n in 2usize..5 {
        for rounds in 1usize..3 {
            let seed = seeded_rng(n as u64, rounds as u64).gen_range(0u64..64);
            let mut cfg = JobConfig::all_internode(n);
            cfg.net.faults = Some(FaultPlan::light_loss(seed));
            let cfg = cfg.with_reliability().with_watchdog(SimTime::from_millis(50));
            let report = mixed_job(cfg, rounds);
            let s = &report.engine;
            assert_conserved(&report);
            let at = format!("n {n}, rounds {rounds}, seed {seed}");
            assert_eq!(s.epochs_cancelled, 0, "light loss must recover, not cancel ({at}): {s:?}");
            assert_eq!(s.rel_delivered, s.rel_frames_sent, "channel quiescence ({at}): {s:?}");
        }
    }
}
