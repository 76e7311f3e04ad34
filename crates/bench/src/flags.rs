//! Progress-engine optimization harnesses: Figs 7–11 (§VIII.A.2).
//!
//! All five scenarios run the nonblocking API only, with and without the
//! relevant reorder flag, exactly as in the paper ("the following tests
//! are all performed with nonblocking synchronizations only, but with and
//! without a flag enabled. All the epochs host a single 1 MB put").

use mpisim_core::{Group, JobConfig, LockKind, Rank, WinInfo};
use mpisim_sim::SimTime;

use crate::table::Table;

const MB: usize = 1 << 20;
const DELAY_US: u64 = 1000;

fn job(n: usize) -> JobConfig {
    JobConfig::all_internode(n)
}

fn cols(flag: &str) -> Vec<String> {
    vec![format!("{flag} off"), format!("{flag} on")]
}

/// Fig 7 — out-of-order GATS access epoch progression with `A_A_A_R`.
/// Rows: punctual target T1's epoch, origin cumulative.
pub fn fig07_aaar_gats() -> Table {
    let mut t = Table::new(
        "Fig 7 — out-of-order GATS access epochs (A_A_A_R)",
        "epoch",
        cols("A_A_A_R"),
        "µs",
    );
    let mut t1 = Vec::new();
    let mut cum = Vec::new();
    for flag in [false, true] {
        let info = if flag { WinInfo::aaar() } else { WinInfo::default() };
        let report = mpisim_core::run_job(job(3), move |env| {
            let win = env.win_allocate_with(MB, info).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            match env.rank().idx() {
                0 => {
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
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.post(win, Group::single(Rank(0))).unwrap();
                    env.wait_epoch(win).unwrap();
                }
                _ => {
                    env.post(win, Group::single(Rank(0))).unwrap();
                    env.wait_epoch(win).unwrap();
                }
            }
            // Each rank's time from the common start to the end of its part.
            let elapsed = (env.now() - t0).as_micros_f64();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            elapsed
        })
        .unwrap();
        t1.push(report.results[2]);
        cum.push(report.results[0]);
    }
    t.push("target T1", t1);
    t.push("origin cumulative", cum);
    t
}

/// Fig 8 — out-of-order lock epoch progression with `A_A_A_R`. One row:
/// O1's cumulative latency over its two lock epochs.
pub fn fig08_aaar_lock() -> Table {
    let mut t = Table::new(
        "Fig 8 — out-of-order lock epochs (A_A_A_R)",
        "metric",
        cols("A_A_A_R"),
        "µs",
    );
    let mut cum = Vec::new();
    for flag in [false, true] {
        let info = if flag { WinInfo::aaar() } else { WinInfo::default() };
        let report = mpisim_core::run_job(job(4), move |env| {
            let win = env.win_allocate_with(MB, info).unwrap();
            env.barrier().unwrap();
            // O1's cumulative time; the others return 0.
            let cum = match env.rank().idx() {
                0 => {
                    // O0 holds T0's lock and works 1000 µs inside the epoch.
                    env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.unlock(win, Rank(2)).unwrap();
                    0.0
                }
                1 => {
                    env.compute(SimTime::from_micros(50));
                    let t0 = env.now();
                    let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    let q1 = env.iunlock(win, Rank(2)).unwrap();
                    let _ = env.ilock(win, Rank(3), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(3), 0, MB).unwrap();
                    let q2 = env.iunlock(win, Rank(3)).unwrap();
                    env.wait(q1).unwrap();
                    env.wait(q2).unwrap();
                    (env.now() - t0).as_micros_f64()
                }
                _ => 0.0,
            };
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            cum
        })
        .unwrap();
        cum.push(report.results[1]);
    }
    t.push("cumulative O1 epochs (1MB)", cum);
    t
}

/// Fig 9 — `A_A_E_R`: P2 is a target for late P0, then an origin for P1.
pub fn fig09_aaer() -> Table {
    let mut t = Table::new(
        "Fig 9 — out-of-order GATS epochs (A_A_E_R)",
        "epoch",
        cols("A_A_E_R"),
        "µs",
    );
    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    for flag in [false, true] {
        let info = WinInfo {
            access_after_exposure: flag,
            ..WinInfo::default()
        };
        let report = mpisim_core::run_job(job(3), move |env| {
            let win = env.win_allocate_with(MB, info).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            match env.rank().idx() {
                0 => {
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.start(win, Group::single(Rank(2))).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.complete(win).unwrap();
                }
                1 => {
                    env.post(win, Group::single(Rank(2))).unwrap();
                    env.wait_epoch(win).unwrap();
                }
                _ => {
                    let _ = env.ipost(win, Group::single(Rank(0))).unwrap();
                    let q1 = env.iwait(win).unwrap();
                    env.start(win, Group::single(Rank(1))).unwrap();
                    env.put_synthetic(win, Rank(1), 0, MB).unwrap();
                    let q2 = env.icomplete(win).unwrap();
                    env.wait(q1).unwrap();
                    env.wait(q2).unwrap();
                }
            }
            // Each rank's time from the common start to the end of its part.
            let elapsed = (env.now() - t0).as_micros_f64();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            elapsed
        })
        .unwrap();
        p1.push(report.results[1]);
        p2.push(report.results[2]);
    }
    t.push("target P1", p1);
    t.push("P2 (target then origin)", p2);
    t
}

/// Fig 10 — `E_A_E_R`: one target exposes to late O0 then to O1.
pub fn fig10_eaer() -> Table {
    let mut t = Table::new(
        "Fig 10 — out-of-order exposure epochs (E_A_E_R)",
        "epoch",
        cols("E_A_E_R"),
        "µs",
    );
    let mut o1 = Vec::new();
    let mut tgt = Vec::new();
    for flag in [false, true] {
        let info = WinInfo {
            exposure_after_exposure: flag,
            ..WinInfo::default()
        };
        let report = mpisim_core::run_job(job(3), move |env| {
            let win = env.win_allocate_with(MB, info).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            match env.rank().idx() {
                0 => {
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.start(win, Group::single(Rank(2))).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.complete(win).unwrap();
                }
                1 => {
                    env.start(win, Group::single(Rank(2))).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.complete(win).unwrap();
                }
                _ => {
                    let _ = env.ipost(win, Group::single(Rank(0))).unwrap();
                    let q1 = env.iwait(win).unwrap();
                    let _ = env.ipost(win, Group::single(Rank(1))).unwrap();
                    let q2 = env.iwait(win).unwrap();
                    env.wait(q1).unwrap();
                    env.wait(q2).unwrap();
                }
            }
            // Each rank's time from the common start to the end of its part.
            let elapsed = (env.now() - t0).as_micros_f64();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            elapsed
        })
        .unwrap();
        o1.push(report.results[1]);
        tgt.push(report.results[2]);
    }
    t.push("origin O1", o1);
    t.push("target cumulative", tgt);
    t
}

/// Fig 11 — `E_A_A_R`: P2 is an origin toward late P0, then a target for
/// P1.
pub fn fig11_eaar() -> Table {
    let mut t = Table::new(
        "Fig 11 — out-of-order GATS epochs (E_A_A_R)",
        "epoch",
        cols("E_A_A_R"),
        "µs",
    );
    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    for flag in [false, true] {
        let info = WinInfo {
            exposure_after_access: flag,
            ..WinInfo::default()
        };
        let report = mpisim_core::run_job(job(3), move |env| {
            let win = env.win_allocate_with(MB, info).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            match env.rank().idx() {
                0 => {
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.post(win, Group::single(Rank(2))).unwrap();
                    env.wait_epoch(win).unwrap();
                }
                1 => {
                    env.start(win, Group::single(Rank(2))).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.complete(win).unwrap();
                }
                _ => {
                    env.start(win, Group::single(Rank(0))).unwrap();
                    env.put_synthetic(win, Rank(0), 0, MB).unwrap();
                    let q1 = env.icomplete(win).unwrap();
                    let _ = env.ipost(win, Group::single(Rank(1))).unwrap();
                    let q2 = env.iwait(win).unwrap();
                    env.wait(q1).unwrap();
                    env.wait(q2).unwrap();
                }
            }
            // Each rank's time from the common start to the end of its part.
            let elapsed = (env.now() - t0).as_micros_f64();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            elapsed
        })
        .unwrap();
        p1.push(report.results[1]);
        p2.push(report.results[2]);
    }
    t.push("origin P1", p1);
    t.push("P2 (origin then target)", p2);
    t
}
