//! Progress-engine optimization harnesses: Figs 7–11 (§VIII.A.2).
//!
//! All five scenarios run the nonblocking API only, with and without the
//! relevant reorder flag, exactly as in the paper ("the following tests
//! are all performed with nonblocking synchronizations only, but with and
//! without a flag enabled. All the epochs host a single 1 MB put").

use mpisim_core::{Group, JobConfig, LockKind, Rank, RankEnv, WinId, WinInfo};
use mpisim_sim::SimTime;

use crate::table::Table;
use crate::{elapsed, on_window, DELAY_US, MB};

/// One flag figure: `body` runs on `n` internode ranks with every flag
/// off (the default info), then with `on`; each `(label, rank)` of `rows`
/// is a table row holding that rank's value in both runs.
fn off_on(
    title: &str,
    row_key: &str,
    flag: &str,
    on: WinInfo,
    n: usize,
    rows: &[(&str, usize)],
    body: fn(&mut RankEnv, WinId) -> f64,
) -> Table {
    let runs =
        [WinInfo::default(), on].map(|info| on_window(JobConfig::all_internode(n), info, body));
    let mut t = Table::new(
        title,
        row_key,
        vec![format!("{flag} off"), format!("{flag} on")],
        "µs",
    );
    for &(label, rank) in rows {
        t.push(label, runs.iter().map(|r| r[rank]).collect());
    }
    t
}

/// Fig 7 — out-of-order GATS access epoch progression with `A_A_A_R`.
/// Rows: punctual target T1's epoch, origin cumulative.
pub fn fig07_aaar_gats() -> Table {
    off_on(
        "Fig 7 — out-of-order GATS access epochs (A_A_A_R)",
        "epoch",
        "A_A_A_R",
        WinInfo::aaar(),
        3,
        &[("target T1", 2), ("origin cumulative", 0)],
        // Each rank's time from the common start to the end of its part.
        |env, win| {
            elapsed(env, |env| match env.rank().idx() {
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
            })
        },
    )
}

/// Fig 8 — out-of-order lock epoch progression with `A_A_A_R`. One row:
/// O1's cumulative latency over its two lock epochs.
pub fn fig08_aaar_lock() -> Table {
    off_on(
        "Fig 8 — out-of-order lock epochs (A_A_A_R)",
        "metric",
        "A_A_A_R",
        WinInfo::aaar(),
        4,
        &[("cumulative O1 epochs (1MB)", 1)],
        // O1's cumulative time; the others return 0.
        |env, win| match env.rank().idx() {
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
                elapsed(env, |env| {
                    let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    let q1 = env.iunlock(win, Rank(2)).unwrap();
                    let _ = env.ilock(win, Rank(3), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(3), 0, MB).unwrap();
                    let q2 = env.iunlock(win, Rank(3)).unwrap();
                    env.wait(q1).unwrap();
                    env.wait(q2).unwrap();
                })
            }
            _ => 0.0,
        },
    )
}

/// Fig 9 — `A_A_E_R`: P2 is a target for late P0, then an origin for P1.
pub fn fig09_aaer() -> Table {
    off_on(
        "Fig 9 — out-of-order GATS epochs (A_A_E_R)",
        "epoch",
        "A_A_E_R",
        WinInfo {
            access_after_exposure: true,
            ..WinInfo::default()
        },
        3,
        &[("target P1", 1), ("P2 (target then origin)", 2)],
        |env, win| {
            elapsed(env, |env| match env.rank().idx() {
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
            })
        },
    )
}

/// Fig 10 — `E_A_E_R`: one target exposes to late O0 then to O1.
pub fn fig10_eaer() -> Table {
    off_on(
        "Fig 10 — out-of-order exposure epochs (E_A_E_R)",
        "epoch",
        "E_A_E_R",
        WinInfo {
            exposure_after_exposure: true,
            ..WinInfo::default()
        },
        3,
        &[("origin O1", 1), ("target cumulative", 2)],
        |env, win| {
            elapsed(env, |env| match env.rank().idx() {
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
            })
        },
    )
}

/// Fig 11 — `E_A_A_R`: P2 is an origin toward late P0, then a target for
/// P1.
pub fn fig11_eaar() -> Table {
    off_on(
        "Fig 11 — out-of-order GATS epochs (E_A_A_R)",
        "epoch",
        "E_A_A_R",
        WinInfo {
            exposure_after_access: true,
            ..WinInfo::default()
        },
        3,
        &[("origin P1", 1), ("P2 (origin then target)", 2)],
        |env, win| {
            elapsed(env, |env| match env.rank().idx() {
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
            })
        },
    )
}
