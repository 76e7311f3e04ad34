//! Tests for the `unsafe_fence_reorder` extension — the paper's §X future
//! work: enabling the progress-engine optimization flags for fence epochs.

use mpisim_core::{run_job, Group, JobConfig, Rank, WinInfo};
use mpisim_sim::SimTime;

const MB: usize = 1 << 20;

/// One rank delays its closing fence; another rank wants to run an
/// independent GATS epoch (disjoint memory) right after ifence. Returns
/// the punctual GATS target's epoch length, µs.
fn gats_after_fence(fence_reorder: bool) -> f64 {
    let info = WinInfo {
        access_after_access: true,
        access_after_exposure: true,
        exposure_after_exposure: true,
        exposure_after_access: true,
        unsafe_fence_reorder: fence_reorder,
    };
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        env.fence(win).unwrap(); // opening fence
        let t0 = env.now();
        // The GATS target's epoch length; the others return 0.
        let epoch = match env.rank().idx() {
            0 => {
                // Delays the fence barrier for everyone.
                env.compute(SimTime::from_micros(1000));
                env.fence(win).unwrap();
                // Participate in nothing else.
                0.0
            }
            1 => {
                // Closes the fence nonblockingly, then opens a GATS access
                // epoch toward rank 2 (disjoint region).
                let rf = env.ifence(win).unwrap();
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                let rc = env.icomplete(win).unwrap();
                env.wait(rc).unwrap();
                env.wait(rf).unwrap();
                0.0
            }
            _ => {
                let rf = env.ifence(win).unwrap();
                env.post(win, Group::single(Rank(1))).unwrap();
                env.wait_epoch(win).unwrap();
                let epoch = (env.now() - t0).as_micros_f64();
                env.wait(rf).unwrap();
                epoch
            }
        };
        // Drain the trailing fence phase collectively.
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
        epoch
    })
    .unwrap();
    report.results[2]
}

#[test]
fn fence_reorder_unblocks_subsequent_gats_epoch() {
    let off = gats_after_fence(false);
    let on = gats_after_fence(true);
    // Without the extension, the GATS epoch waits for the fence barrier
    // (rank 0 is 1000 µs late).
    assert!(
        off > 1200.0,
        "without unsafe_fence_reorder the GATS epoch should wait for the \
         fence barrier, got {off} µs"
    );
    // With it, the GATS epoch overlaps the barrier wait.
    assert!(
        on < 800.0,
        "with unsafe_fence_reorder the GATS epoch should complete during \
         the fence barrier, got {on} µs"
    );
}

#[test]
fn fence_barrier_itself_still_holds_under_extension() {
    // The extension must not weaken the fence's own completion: the
    // ifence request still completes only after every rank fences.
    let info = WinInfo {
        unsafe_fence_reorder: true,
        ..WinInfo::all_reorder()
    };
    let report = run_job(JobConfig::all_internode(2), move |env| {
        let win = env.win_allocate_with(64, info).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 0 {
            let r = env.ifence(win).unwrap();
            env.wait(r).unwrap();
        } else {
            env.compute(SimTime::from_micros(700));
            env.fence(win).unwrap();
        }
        let done_at = env.now().as_nanos();
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
        done_at
    })
    .unwrap();
    assert!(
        report.results[0] >= 700_000,
        "ifence completed before the late rank fenced"
    );
}

#[test]
fn lock_all_remains_excluded_even_with_everything_on() {
    // lock_all adjacency must stay serialized regardless of flags: a
    // lock_all epoch after a pending lock epoch to the same target waits.
    let info = WinInfo {
        unsafe_fence_reorder: true,
        ..WinInfo::all_reorder()
    };
    run_job(JobConfig::all_internode(2), move |env| {
        let win = env.win_allocate_with(64, info).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let _ = env
                .ilock(win, Rank(1), mpisim_core::LockKind::Exclusive)
                .unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            let r1 = env.iunlock(win, Rank(1)).unwrap();
            // lock_all epoch queued behind: it must not activate while the
            // exclusive lock epoch is still active (it would deadlock if
            // it could recursively request the same target's lock before
            // the unlock is processed — exactly the §VI.B hazard).
            env.lock_all(win).unwrap();
            env.put(win, Rank(1), 8, &[2u8; 8]).unwrap();
            env.unlock_all(win).unwrap();
            env.wait(r1).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![1u8; 8]);
            assert_eq!(env.read_local(win, 8, 8).unwrap(), vec![2u8; 8]);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}
