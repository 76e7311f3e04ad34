//! Age-stamping edge cases of the flush family (§VII.C).
//!
//! A nonblocking flush request is stamped with the age of the RMA call
//! that immediately precedes it and counts only the covered, not-yet
//! complete operations of the epochs it was created over. Two boundaries
//! matter and are easy to get wrong:
//!
//! * **mid-epoch**: a flush created between two operations covers only the
//!   older one — it must complete without waiting for the younger, and a
//!   flush created *after* both must not be satisfied by the older
//!   completion alone;
//! * **across lock/unlock on the same target**: a flush belongs to the
//!   epoch(s) open at creation time — completions from the *previous*
//!   epoch on the same target must not decrement it, and ops of the
//!   previous epoch must not keep it pending.

use nonblocking_rma::{run_job, JobConfig, LockKind, Rank};

const WIN: usize = 1 << 17; // room for the large payloads below

/// Small payload completes fast; large one is bandwidth-bound and slow.
const SMALL: usize = 8;
const LARGE: usize = 1 << 16;

#[test]
fn mid_epoch_flush_covers_only_older_ops() {
    // lock; put A (small); f1; put B (large); f2 — f1 must complete
    // without waiting for B, and f2 must wait for B even though A (an
    // older op) completed long before.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(WIN).unwrap();
        env.barrier().unwrap();
        // When f1 and f2 completed at the origin.
        let mut done = (0, 0);
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[0xAA; SMALL]).unwrap();
            let f1 = env.iflush(win, Rank(1)).unwrap();
            env.put(win, Rank(1), SMALL, &[0xBB; LARGE]).unwrap();
            let f2 = env.iflush(win, Rank(1)).unwrap();
            env.wait(f1).unwrap();
            done.0 = env.now().as_nanos();
            // A is done (f1 says so) but f2 — stamped after B — must not
            // have been completed by A's completion.
            assert!(!env.test(f2).unwrap(), "flush completed by an op older than its stamp");
            env.wait(f2).unwrap();
            done.1 = env.now().as_nanos();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 0, SMALL).unwrap(), vec![0xAA; SMALL]);
            assert_eq!(env.read_local(win, SMALL, LARGE).unwrap(), vec![0xBB; LARGE]);
        }
        env.win_free(win).unwrap();
        done
    })
    .unwrap();
    let (t1, t2) = report.results[0];
    assert!(
        t1 < t2,
        "f1 (covers only the small put) completed at {t1} ns, \
         f2 (covers the large put too) at {t2} ns"
    );
    assert_eq!(report.live_requests, 0);
}

#[test]
fn flush_in_new_epoch_ignores_previous_epoch_ops() {
    // Epoch 1 has a large put in flight when epoch 2 opens (deferred
    // behind the exclusive lock) on the SAME target. A flush created in
    // epoch 2 before any epoch-2 op covers nothing — it must be complete
    // at creation, not held hostage by (or satisfied by) epoch 1's ops.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(WIN).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[0x11; LARGE]).unwrap();
            let f1 = env.iflush(win, Rank(1)).unwrap();
            assert!(!env.test(f1).unwrap(), "large put cannot be complete yet");
            let u1 = env.iunlock(win, Rank(1)).unwrap();
            // Epoch 2 on the same target, deferred until epoch 1 releases.
            let l2 = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            let f2 = env.iflush(win, Rank(1)).unwrap();
            assert!(
                env.test(f2).unwrap(),
                "empty-epoch flush must complete at creation even while the previous \
                 epoch on this target still has ops in flight"
            );
            env.put(win, Rank(1), LARGE, &[0x22; SMALL]).unwrap();
            let u2 = env.iunlock(win, Rank(1)).unwrap();
            env.wait_all([u1, l2, u2]).unwrap();
            // f1 covered epoch 1's put; the epoch is closed and complete,
            // so f1 must be too.
            assert!(env.test(f1).unwrap(), "flush of a completed epoch still pending");
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 0, LARGE).unwrap(), vec![0x11; LARGE]);
            assert_eq!(env.read_local(win, LARGE, SMALL).unwrap(), vec![0x22; SMALL]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn blocking_flush_orders_data_before_epoch_close() {
    // flush(t) inside a held lock: after it returns, the target must
    // observe the data even though the epoch is still open.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        // What the target read mid-epoch; the origin returns 0.
        let seen = if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &7u64.to_le_bytes()).unwrap();
            env.flush(win, Rank(1)).unwrap();
            env.barrier().unwrap(); // epoch still open; data must be there
            env.barrier().unwrap(); // target read happens between these
            env.unlock(win, Rank(1)).unwrap();
            0
        } else {
            env.barrier().unwrap();
            let bytes = env.read_local(win, 0, 8).unwrap();
            env.barrier().unwrap();
            u64::from_le_bytes(bytes.try_into().unwrap())
        };
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        seen
    })
    .unwrap();
    assert_eq!(report.results[1], 7, "flushed put not visible mid-epoch");
}

#[test]
fn flush_without_passive_epoch_is_an_error() {
    run_job(JobConfig::new(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            assert!(env.iflush(win, Rank(1)).is_err(), "flush outside any passive epoch");
            // A fence (active-target) epoch does not make flush legal either.
            env.fence(win).unwrap();
            assert!(env.iflush(win, Rank(1)).is_err());
            env.fence(win).unwrap();
        } else {
            env.fence(win).unwrap();
            env.fence(win).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn flush_age_edge_cases_hold_under_perturbation() {
    // The f1-before-f2 age ordering must hold on perturbed schedules too.
    for seed in 0..4u64 {
        let mut cfg = JobConfig::all_internode(2).with_seed(11 + seed);
        cfg.tiebreak_seed = if seed == 0 { None } else { Some(seed) };
        cfg.net = nonblocking_rma::net::NetParams::perturbation_profile(seed);
        let report = run_job(cfg, |env| {
            let win = env.win_allocate(WIN).unwrap();
            env.barrier().unwrap();
            let mut ordered = false;
            if env.rank().idx() == 0 {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put(win, Rank(1), 0, &[1; SMALL]).unwrap();
                let f1 = env.iflush(win, Rank(1)).unwrap();
                env.put(win, Rank(1), SMALL, &[2; LARGE]).unwrap();
                let f2 = env.iflush(win, Rank(1)).unwrap();
                env.wait(f1).unwrap();
                let t1 = env.now();
                env.wait(f2).unwrap();
                let t2 = env.now();
                ordered = t1 < t2;
                env.unlock(win, Rank(1)).unwrap();
            }
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            ordered
        })
        .unwrap();
        let ok = report.results.iter().filter(|ordered| **ordered).count();
        assert_eq!(ok, 1, "age ordering broke under seed {seed}");
    }
}
