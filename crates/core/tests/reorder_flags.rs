//! Integration tests: the §VI.B info-object reorder flags and their effect
//! on out-of-order epoch progression (the shapes of Figs 7–11).

use mpisim_core::{run_job, Group, JobConfig, LockKind, Rank, WinInfo};
use mpisim_sim::SimTime;

const MB: usize = 1 << 20;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Fig 7 setting: one origin, two targets; T0 posts 1000 µs late. Returns
/// (T1 epoch length, origin cumulative) in µs.
fn aaar_gats(flag: bool) -> (f64, f64) {
    let info = if flag { WinInfo::aaar() } else { WinInfo::default() };
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        match env.rank().idx() {
            0 => {
                // Two access epochs back to back, nonblocking.
                env.start(win, Group::single(Rank(1))).unwrap();
                env.put_synthetic(win, Rank(1), 0, MB).unwrap();
                let r1 = env.icomplete(win).unwrap();
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                let r2 = env.icomplete(win).unwrap();
                env.wait(r1).unwrap();
                env.wait(r2).unwrap();
            }
            1 => {
                // Late target T0.
                env.compute(SimTime::from_micros(1000));
                env.post(win, Group::single(Rank(0))).unwrap();
                env.wait_epoch(win).unwrap();
            }
            _ => {
                // Punctual target T1.
                env.post(win, Group::single(Rank(0))).unwrap();
                env.wait_epoch(win).unwrap();
            }
        }
        // Each rank's time from the common start to the end of its part.
        let elapsed = (env.now() - t0).as_nanos();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        elapsed
    })
    .unwrap();
    let v = report.results;
    (us(v[2]), us(v[0]))
}

#[test]
fn aaar_gats_unblocks_second_target() {
    let (t1_off, cum_off) = aaar_gats(false);
    let (t1_on, cum_on) = aaar_gats(true);
    // Flag off: T0's delay propagates through the origin to T1.
    assert!(
        t1_off > 1200.0,
        "without A_A_A_R, T1 should absorb T0's 1000 µs delay, got {t1_off} µs"
    );
    // Flag on: T1 sees only its own transfer.
    assert!(
        t1_on < 800.0,
        "with A_A_A_R, T1 must not wait for T0, got {t1_on} µs"
    );
    // Origin cumulative shrinks to roughly the late epoch alone.
    assert!(
        cum_on < cum_off,
        "origin cumulative should improve: {cum_on} vs {cum_off} µs"
    );
}

/// Fig 8 setting: O0 holds T0's lock for 1000 µs; O1 locks T0 then T1.
/// Returns O1's cumulative latency for both epochs, µs.
fn aaar_lock(flag: bool) -> f64 {
    let info = if flag { WinInfo::aaar() } else { WinInfo::default() };
    let report = run_job(JobConfig::all_internode(4), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        // O1's cumulative time; the others return 0.
        let cum = match env.rank().idx() {
            0 => {
                // O0 grabs T0's lock first and works inside the epoch.
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.compute(SimTime::from_micros(1000));
                env.unlock(win, Rank(2)).unwrap();
                0
            }
            1 => {
                // O1 requests T0 right after, then a subsequent lock on T1.
                env.compute(SimTime::from_micros(50));
                let t0 = env.now();
                let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                let r1 = env.iunlock(win, Rank(2)).unwrap();
                let _ = env.ilock(win, Rank(3), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(3), 0, MB).unwrap();
                let r2 = env.iunlock(win, Rank(3)).unwrap();
                env.wait(r1).unwrap();
                env.wait(r2).unwrap();
                (env.now() - t0).as_nanos()
            }
            _ => 0,
        };
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        cum
    })
    .unwrap();
    us(report.results[1])
}

#[test]
fn aaar_lock_progresses_second_epoch_out_of_order() {
    let off = aaar_lock(false);
    let on = aaar_lock(true);
    // Off: both epochs serialize behind O0's 1000 µs hold.
    assert!(off > 1500.0, "without A_A_A_R expected serialization, got {off} µs");
    // On: the T1 epoch completes while the T0 epoch is still delayed; the
    // cumulative latency is about the first epoch alone (paper: ≈1340 µs).
    assert!(
        on < off - 200.0,
        "A_A_A_R should cut O1's cumulative latency: {on} vs {off} µs"
    );
}

/// Fig 9 setting: P0 (late origin) → P2 (target then origin) → P1 (target).
/// Returns (P1 epoch µs, P2 cumulative µs).
fn aaer(flag: bool) -> (f64, f64) {
    let info = if flag {
        WinInfo {
            access_after_exposure: true,
            ..WinInfo::default()
        }
    } else {
        WinInfo::default()
    };
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        match env.rank().idx() {
            0 => {
                // Late origin toward P2.
                env.compute(SimTime::from_micros(1000));
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.complete(win).unwrap();
            }
            1 => {
                // Final target.
                env.post(win, Group::single(Rank(2))).unwrap();
                env.wait_epoch(win).unwrap();
            }
            _ => {
                // P2: exposure for P0 first, then access toward P1.
                let _ = env.ipost(win, Group::single(Rank(0))).unwrap();
                let r1 = env.iwait(win).unwrap();
                env.start(win, Group::single(Rank(1))).unwrap();
                env.put_synthetic(win, Rank(1), 0, MB).unwrap();
                let r2 = env.icomplete(win).unwrap();
                env.wait(r1).unwrap();
                env.wait(r2).unwrap();
            }
        }
        // Each rank's time from the common start to the end of its part.
        let elapsed = (env.now() - t0).as_nanos();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        elapsed
    })
    .unwrap();
    let v = report.results;
    (us(v[1]), us(v[2]))
}

#[test]
fn aaer_detaches_access_from_stuck_exposure() {
    let (p1_off, _) = aaer(false);
    let (p1_on, p2_on) = aaer(true);
    assert!(
        p1_off > 1200.0,
        "without A_A_E_R, P0's delay should reach P1 transitively, got {p1_off} µs"
    );
    assert!(
        p1_on < 800.0,
        "with A_A_E_R, P1 must not absorb P0's delay, got {p1_on} µs"
    );
    assert!(p2_on > 1000.0, "P2 still waits for the late P0: {p2_on} µs");
}

/// Fig 10 setting: two origins, one target; O0 is late; the target's two
/// exposures serialize unless E_A_E_R. Returns (O1 epoch µs, target
/// cumulative µs).
fn eaer(flag: bool) -> (f64, f64) {
    let info = if flag {
        WinInfo {
            exposure_after_exposure: true,
            ..WinInfo::default()
        }
    } else {
        WinInfo::default()
    };
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        match env.rank().idx() {
            0 => {
                // Late origin O0.
                env.compute(SimTime::from_micros(1000));
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.complete(win).unwrap();
            }
            1 => {
                // Punctual origin O1 matched by the target's second
                // exposure.
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.complete(win).unwrap();
            }
            _ => {
                // Target: first exposure for O0, second for O1.
                let _ = env.ipost(win, Group::single(Rank(0))).unwrap();
                let r1 = env.iwait(win).unwrap();
                let _ = env.ipost(win, Group::single(Rank(1))).unwrap();
                let r2 = env.iwait(win).unwrap();
                env.wait(r1).unwrap();
                env.wait(r2).unwrap();
            }
        }
        // Each rank's time from the common start to the end of its part.
        let elapsed = (env.now() - t0).as_nanos();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        elapsed
    })
    .unwrap();
    let v = report.results;
    (us(v[1]), us(v[2]))
}

#[test]
fn eaer_detaches_second_exposure() {
    let (o1_off, _) = eaer(false);
    let (o1_on, tgt_on) = eaer(true);
    assert!(
        o1_off > 1200.0,
        "without E_A_E_R, O0's delay propagates to O1, got {o1_off} µs"
    );
    assert!(
        o1_on < 800.0,
        "with E_A_E_R, O1 completes independently, got {o1_on} µs"
    );
    assert!(tgt_on > 1000.0, "target still waits for late O0: {tgt_on} µs");
}

/// Fig 11 setting: P2 is origin toward late target P0, then target for P1.
/// Returns P1's epoch length, µs.
fn eaar(flag: bool) -> f64 {
    let info = if flag {
        WinInfo {
            exposure_after_access: true,
            ..WinInfo::default()
        }
    } else {
        WinInfo::default()
    };
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        match env.rank().idx() {
            0 => {
                // Late target for P2's access epoch.
                env.compute(SimTime::from_micros(1000));
                env.post(win, Group::single(Rank(2))).unwrap();
                env.wait_epoch(win).unwrap();
            }
            1 => {
                // Origin toward P2 (P2's exposure is its second epoch).
                env.start(win, Group::single(Rank(2))).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.complete(win).unwrap();
            }
            _ => {
                // P2: access toward P0 first, then exposure for P1.
                env.start(win, Group::single(Rank(0))).unwrap();
                env.put_synthetic(win, Rank(0), 0, MB).unwrap();
                let r1 = env.icomplete(win).unwrap();
                let _ = env.ipost(win, Group::single(Rank(1))).unwrap();
                let r2 = env.iwait(win).unwrap();
                env.wait(r1).unwrap();
                env.wait(r2).unwrap();
            }
        }
        // Each rank's time from the common start to the end of its part.
        let elapsed = (env.now() - t0).as_nanos();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        elapsed
    })
    .unwrap();
    us(report.results[1])
}

#[test]
fn eaar_detaches_exposure_from_stuck_access() {
    let off = eaar(false);
    let on = eaar(true);
    assert!(
        off > 1200.0,
        "without E_A_A_R, P0's delay reaches P1 transitively, got {off} µs"
    );
    assert!(on < 800.0, "with E_A_A_R, P1 is unaffected, got {on} µs");
}

#[test]
fn flags_never_apply_across_fence() {
    // §VI.B: reorder flags are ignored when either adjacent epoch is a
    // fence. A GATS access epoch opened after an incomplete fence epoch
    // must stay deferred even with every flag on.
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate_with(64, WinInfo::all_reorder()).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 0 {
            env.put(win, Rank(1), 0, &[3u8; 8]).unwrap();
        }
        // Close the fence epoch nonblockingly, then immediately try a GATS
        // epoch: it must wait for the fence's barrier semantics (so the
        // data below can never overtake the fence data).
        let rf = env.ifence(win).unwrap();
        if env.rank().idx() == 0 {
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put(win, Rank(1), 0, &[4u8; 8]).unwrap();
            let rc = env.icomplete(win).unwrap();
            env.wait(rf).unwrap();
            env.wait(rc).unwrap();
        } else {
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
            env.wait(rf).unwrap();
            assert_eq!(env.read_local(win, 0, 8).unwrap(), vec![4u8; 8]);
        }
        // Drain the trailing fence epoch.
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}
