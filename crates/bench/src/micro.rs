//! Microbenchmark harnesses: the §VIII.A baseline observations (we call
//! them "Fig 0"), the five inefficiency-pattern figures (Figs 2–6), and
//! the eager-issue ablation behind §VIII.B's explanation.

use mpisim_core::{Group, LockKind, Rank, RankEnv, WinId, WinInfo};
use mpisim_sim::SimTime;

use crate::series::Series;
use crate::table::Table;
use crate::{elapsed, on_window, DELAY_US, MB};

/// Message sizes used by the size-sweep figures (4 B … 1 MB, ×4 steps —
/// the paper's x-axis).
pub fn size_sweep() -> Vec<usize> {
    (0..=9).map(|i| 4usize << (2 * i)).collect() // 4B, 16B, …, 256KB, 1MB
}

/// Labels like "4B", "64KB", "1MB".
pub fn size_label(bytes: usize) -> String {
    if bytes >= MB {
        format!("{}MB", bytes / MB)
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Run `body` on `n` ranks once per series, in plotting order; each
/// run's per-rank values.
fn per_series<R: 'static>(
    n: usize,
    body: impl Fn(&mut RankEnv, WinId, Series) -> R + Copy + 'static,
) -> Vec<Vec<R>> {
    Series::ALL
        .iter()
        .map(|&s| {
            on_window(s.job(n), WinInfo::default(), move |env, win| {
                body(env, win, s)
            })
        })
        .collect()
}

/// One table row: `rank`'s value of `body` under each series.
fn series_row(
    n: usize,
    rank: usize,
    body: impl Fn(&mut RankEnv, WinId, Series) -> f64 + Copy + 'static,
) -> Vec<f64> {
    per_series(n, body).iter().map(|r| r[rank]).collect()
}

// ---------------------------------------------------------------------
// Fig 0 — §VIII.A prose: latency parity and overlap observations
// ---------------------------------------------------------------------

/// Epoch latency of a single put inside a lock epoch, per series.
pub fn fig00_lock_put_latency() -> Table {
    let mut t = Table::new(
        "§VIII.A baseline: lock-epoch put latency (no delays, no late peers)",
        "size",
        Series::labels(),
        "µs",
    );
    for size in size_sweep() {
        let row = series_row(2, 0, move |env, win, _| {
            if env.rank().idx() != 0 {
                return 0.0;
            }
            elapsed(env, |env| {
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(1), 0, size).unwrap();
                env.unlock(win, Rank(1)).unwrap();
            })
        });
        t.push(size_label(size), row);
    }
    t
}

/// Communication/computation overlap inside a lock epoch: epoch length
/// with 300 µs of in-epoch work for a 1 MB put. Full overlap ⇒ ≈ the
/// transfer time; no overlap (lazy baseline) ⇒ work + transfer.
pub fn fig00_lock_overlap() -> Table {
    let mut t = Table::new(
        "§VIII.A baseline: lock-epoch overlap (1 MB put + 300 µs in-epoch work)",
        "metric",
        Series::labels(),
        "µs",
    );
    let row = series_row(2, 0, |env, win, _| {
        if env.rank().idx() != 0 {
            return 0.0;
        }
        elapsed(env, |env| {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_synthetic(win, Rank(1), 0, MB).unwrap();
            env.compute(SimTime::from_micros(300));
            env.unlock(win, Rank(1)).unwrap();
        })
    });
    t.push("epoch length", row);
    t
}

// ---------------------------------------------------------------------
// Fig 2 — Late Post
// ---------------------------------------------------------------------

/// Fig 2: delay propagation in an origin process whose target posts
/// 1000 µs late, followed by a two-sided transfer. Rows are completion
/// times (from the common start) of the access epoch, the two-sided
/// activity, and the cumulative.
pub fn fig02_late_post() -> Table {
    let mut t = Table::new(
        "Fig 2 — Late Post: delay propagation in the origin",
        "activity",
        Series::labels(),
        "µs (completion time from epoch start)",
    );
    let send = |env: &mut RankEnv| {
        let r = env.isend_synthetic(Rank(1), 7, MB).unwrap();
        env.wait(r).unwrap();
    };
    let runs = per_series(3, move |env, win, series| {
        let t0 = env.now();
        let since_start = |env: &RankEnv| (env.now() - t0).as_micros_f64();
        // The origin's [access epoch, two-sided, cumulative] times.
        let mut times = [0.0; 3];
        match env.rank().idx() {
            0 => {
                // Late target.
                env.compute(SimTime::from_micros(DELAY_US));
                env.post(win, Group::single(Rank(2))).unwrap();
                env.wait_epoch(win).unwrap();
            }
            1 => {
                // Two-sided peer.
                let _ = env.recv(Rank(2), 7).unwrap();
            }
            _ => {
                env.start(win, Group::single(Rank(0))).unwrap();
                env.put_synthetic(win, Rank(0), 0, MB).unwrap();
                if series.nonblocking() {
                    let r = env.icomplete(win).unwrap();
                    times[1] = elapsed(env, send);
                    env.wait(r).unwrap();
                    times[0] = since_start(env);
                } else {
                    env.complete(win).unwrap();
                    times[0] = since_start(env);
                    times[1] = elapsed(env, send);
                }
                times[2] = since_start(env);
            }
        }
        times
    });
    for (i, label) in ["access epoch", "two-sided", "cumulative"]
        .into_iter()
        .enumerate()
    {
        t.push(label, runs.iter().map(|r| r[2][i]).collect());
    }
    t
}

// ---------------------------------------------------------------------
// Fig 3 — Late Complete
// ---------------------------------------------------------------------

/// Fig 3: the origin overlaps 1000 µs of work before closing its access
/// epoch; the table shows the *target-side* epoch length per message size.
pub fn fig03_late_complete() -> Table {
    let mut t = Table::new(
        "Fig 3 — Late Complete: delay propagation to the target",
        "size",
        Series::labels(),
        "µs (target epoch length)",
    );
    for size in size_sweep() {
        let row = series_row(2, 1, move |env, win, series| {
            elapsed(env, |env| {
                if env.rank().idx() == 0 {
                    env.start(win, Group::single(Rank(1))).unwrap();
                    env.put_synthetic(win, Rank(1), 0, size).unwrap();
                    if series.nonblocking() {
                        // Fig 1b: close early, overlap the work after.
                        let r = env.icomplete(win).unwrap();
                        env.compute(SimTime::from_micros(DELAY_US));
                        env.wait(r).unwrap();
                    } else {
                        // Fig 1a scenario 3: overlap inside the epoch.
                        env.compute(SimTime::from_micros(DELAY_US));
                        env.complete(win).unwrap();
                    }
                } else {
                    env.post(win, Group::single(Rank(0))).unwrap();
                    env.wait_epoch(win).unwrap();
                }
            })
        });
        t.push(size_label(size), row);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 4 — Early Fence
// ---------------------------------------------------------------------

/// Fig 4: cumulative latency, at the target, of a closing fence plus
/// 1000 µs of post-epoch work, for 256 KB and 1 MB puts.
pub fn fig04_early_fence() -> Table {
    let mut t = Table::new(
        "Fig 4 — Early Fence: communication latency propagation to the target",
        "size",
        Series::labels(),
        "µs (epoch + subsequent work, cumulative)",
    );
    for size in [256 * 1024, MB] {
        let row = series_row(2, 1, move |env, win, series| {
            env.fence(win).unwrap(); // opening fence
            elapsed(env, |env| {
                if env.rank().idx() == 0 {
                    env.put_synthetic(win, Rank(1), 0, size).unwrap();
                    env.fence(win).unwrap();
                } else if series.nonblocking() {
                    let r = env.ifence(win).unwrap();
                    env.compute(SimTime::from_micros(DELAY_US));
                    env.wait(r).unwrap();
                } else {
                    env.fence(win).unwrap();
                    env.compute(SimTime::from_micros(DELAY_US));
                }
            })
        });
        t.push(size_label(size), row);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 5 — Wait at Fence
// ---------------------------------------------------------------------

/// Fig 5: the origin delays its closing fence by 1000 µs of work; the
/// table shows the target's epoch length per message size.
pub fn fig05_wait_at_fence() -> Table {
    let mut t = Table::new(
        "Fig 5 — Wait at Fence: delay propagation to the target",
        "size",
        Series::labels(),
        "µs (target epoch length)",
    );
    for size in size_sweep() {
        let row = series_row(2, 1, move |env, win, series| {
            env.fence(win).unwrap();
            elapsed(env, |env| {
                if env.rank().idx() == 0 {
                    env.put_synthetic(win, Rank(1), 0, size).unwrap();
                    if series.nonblocking() {
                        let r = env.ifence(win).unwrap();
                        env.compute(SimTime::from_micros(DELAY_US));
                        env.wait(r).unwrap();
                    } else {
                        env.compute(SimTime::from_micros(DELAY_US));
                        env.fence(win).unwrap();
                    }
                } else {
                    env.fence(win).unwrap();
                }
            })
        });
        t.push(size_label(size), row);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 6 — Late Unlock
// ---------------------------------------------------------------------

/// Fig 6: two origins lock the same target exclusively; the first works
/// 1000 µs before unlocking. Rows: first lock epoch (O0), second (O1).
pub fn fig06_late_unlock() -> Table {
    let mut t = Table::new(
        "Fig 6 — Late Unlock: delay propagation to a subsequent lock requester",
        "epoch",
        Series::labels(),
        "µs (epoch length)",
    );
    // Each origin's lock-epoch length; the target returns 0.
    let runs = per_series(3, |env, win, series| match env.rank().idx() {
        0 => elapsed(env, |env| {
            if series.nonblocking() {
                let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                let r = env.iunlock(win, Rank(2)).unwrap();
                env.compute(SimTime::from_micros(DELAY_US));
                env.wait(r).unwrap();
            } else {
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.compute(SimTime::from_micros(DELAY_US));
                env.unlock(win, Rank(2)).unwrap();
            }
        }),
        1 => {
            // Ensure O0 issues its lock first.
            env.compute(SimTime::from_micros(50));
            elapsed(env, |env| {
                if series.nonblocking() {
                    let _ = env.ilock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    let r = env.iunlock(win, Rank(2)).unwrap();
                    env.wait(r).unwrap();
                } else {
                    env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                    env.unlock(win, Rank(2)).unwrap();
                }
            })
        }
        _ => 0.0,
    });
    for (rank, label) in ["first lock (O0)", "second lock (O1)"]
        .into_iter()
        .enumerate()
    {
        t.push(label, runs.iter().map(|r| r[rank]).collect());
    }
    t
}

// ---------------------------------------------------------------------
// Ablation — eager per-target issue
// ---------------------------------------------------------------------

/// Ablation: eager per-target issue vs MVAPICH's wait-for-all-targets.
///
/// §VIII.B explains why "New" (blocking) beats vanilla MVAPICH: "we issue
/// right away the RMA transfers of any target that becomes available. In
/// comparison, \[MVAPICH\] waits for all internode targets to be ready
/// before issuing communication to any internode target." This isolates
/// exactly that design choice: one origin, several targets, the last of
/// them 1000 µs late — how long until the first punctual target (rank 1)
/// holds its data?
pub fn ablation_eager_issue() -> Table {
    let mut t = Table::new(
        "Ablation — eager per-target issue vs wait-for-all-targets (one target 1000 µs late)",
        "targets",
        vec![
            "wait-for-all (MVAPICH)".into(),
            "eager per-target (New)".into(),
        ],
        "µs until the first punctual target completes",
    );
    for n_targets in [2usize, 4, 8] {
        let row = [Series::Mvapich, Series::New].map(|series| {
            on_window(series.job(n_targets + 1), WinInfo::default(), |env, win| {
                let n = env.n_ranks();
                elapsed(env, |env| {
                    if env.rank().idx() == 0 {
                        env.start(win, Group::new(1..n)).unwrap();
                        for r in 1..n {
                            env.put_synthetic(win, Rank(r), 0, MB).unwrap();
                        }
                        env.complete(win).unwrap();
                    } else {
                        if env.rank().idx() == n - 1 {
                            env.compute(SimTime::from_micros(DELAY_US)); // the late one
                        }
                        env.post(win, Group::single(Rank(0))).unwrap();
                        env.wait_epoch(win).unwrap();
                    }
                })
            })[1]
        });
        t.push(format!("{n_targets}"), row.into());
    }
    t
}
