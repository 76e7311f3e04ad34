//! Microbenchmark harnesses: the §VIII.A baseline observations (we call
//! them "Fig 0") and the five inefficiency-pattern figures (Figs 2–6).

use mpisim_core::{Group, LockKind, Rank};
use mpisim_sim::SimTime;

use crate::series::Series;
use crate::table::Table;

const MB: usize = 1 << 20;
const DELAY_US: u64 = 1000;

fn us(t: SimTime) -> f64 {
    t.as_micros_f64()
}

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

// ---------------------------------------------------------------------
// Fig 0 — §VIII.A prose: latency parity and overlap observations
// ---------------------------------------------------------------------

/// Epoch latency of a single put inside a lock epoch, per series.
pub fn fig00_lock_put_latency() -> Table {
    let sizes = size_sweep();
    let mut t = Table::new(
        "§VIII.A baseline: lock-epoch put latency (no delays, no late peers)",
        "size",
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs",
    );
    for size in sizes {
        let mut row = Vec::new();
        for series in Series::ALL {
            let report = mpisim_core::run_job(series.job(2), move |env| {
                let win = env.win_allocate(MB).unwrap();
                env.barrier().unwrap();
                let mut lat = 0.0;
                if env.rank().idx() == 0 {
                    let t0 = env.now();
                    env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                    env.put_synthetic(win, Rank(1), 0, size).unwrap();
                    env.unlock(win, Rank(1)).unwrap();
                    lat = us(env.now() - t0);
                }
                env.barrier().unwrap();
                env.win_free(win).unwrap();
                lat
            })
            .unwrap();
            row.push(report.results[0]);
        }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs",
    );
    let mut row = Vec::new();
    for series in Series::ALL {
        let report = mpisim_core::run_job(series.job(2), move |env| {
            let win = env.win_allocate(MB).unwrap();
            env.barrier().unwrap();
            let mut lat = 0.0;
            if env.rank().idx() == 0 {
                let t0 = env.now();
                env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(1), 0, MB).unwrap();
                env.compute(SimTime::from_micros(300));
                env.unlock(win, Rank(1)).unwrap();
                lat = us(env.now() - t0);
            }
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            lat
        })
        .unwrap();
        row.push(report.results[0]);
    }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs (completion time from epoch start)",
    );
    let mut epoch = Vec::new();
    let mut two_sided = Vec::new();
    let mut cumulative = Vec::new();
    for series in Series::ALL {
        let report = mpisim_core::run_job(series.job(3), move |env| {
            let win = env.win_allocate(MB).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
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
                    if series.nonblocking() {
                        env.start(win, Group::single(Rank(0))).unwrap();
                        env.put_synthetic(win, Rank(0), 0, MB).unwrap();
                        let r = env.icomplete(win).unwrap();
                        let ts = env.now();
                        env.isend_synthetic(Rank(1), 7, MB).unwrap_and_wait(env);
                        times[1] = us(env.now() - ts);
                        env.wait(r).unwrap();
                        times[0] = us(env.now() - t0);
                        times[2] = us(env.now() - t0);
                    } else {
                        env.start(win, Group::single(Rank(0))).unwrap();
                        env.put_synthetic(win, Rank(0), 0, MB).unwrap();
                        env.complete(win).unwrap();
                        times[0] = us(env.now() - t0);
                        let ts = env.now();
                        env.isend_synthetic(Rank(1), 7, MB).unwrap_and_wait(env);
                        times[1] = us(env.now() - ts);
                        times[2] = us(env.now() - t0);
                    }
                }
            }
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            times
        })
        .unwrap();
        let [e, ts, cum] = report.results[2];
        epoch.push(e);
        two_sided.push(ts);
        cumulative.push(cum);
    }
    t.push("access epoch", epoch);
    t.push("two-sided", two_sided);
    t.push("cumulative", cumulative);
    t
}

trait WaitHelper {
    fn unwrap_and_wait(self, env: &mpisim_core::RankEnv);
}

impl WaitHelper for Result<mpisim_core::Req, mpisim_core::RmaError> {
    fn unwrap_and_wait(self, env: &mpisim_core::RankEnv) {
        let r = self.unwrap();
        env.wait(r).unwrap();
    }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs (target epoch length)",
    );
    for size in size_sweep() {
        let mut row = Vec::new();
        for series in Series::ALL {
            let report = mpisim_core::run_job(series.job(2), move |env| {
                let win = env.win_allocate(MB).unwrap();
                env.barrier().unwrap();
                let t0 = env.now();
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
                let epoch = us(env.now() - t0);
                env.barrier().unwrap();
                env.win_free(win).unwrap();
                epoch
            })
            .unwrap();
            row.push(report.results[1]);
        }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs (epoch + subsequent work, cumulative)",
    );
    for size in [256 * 1024, MB] {
        let mut row = Vec::new();
        for series in Series::ALL {
            let report = mpisim_core::run_job(series.job(2), move |env| {
                let win = env.win_allocate(MB).unwrap();
                env.barrier().unwrap();
                env.fence(win).unwrap(); // opening fence
                let t0 = env.now();
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
                let cum = us(env.now() - t0);
                env.barrier().unwrap();
                env.win_free(win).unwrap();
                cum
            })
            .unwrap();
            row.push(report.results[1]);
        }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs (target epoch length)",
    );
    for size in size_sweep() {
        let mut row = Vec::new();
        for series in Series::ALL {
            let report = mpisim_core::run_job(series.job(2), move |env| {
                let win = env.win_allocate(MB).unwrap();
                env.barrier().unwrap();
                env.fence(win).unwrap();
                let t0 = env.now();
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
                let epoch = us(env.now() - t0);
                env.barrier().unwrap();
                env.win_free(win).unwrap();
                epoch
            })
            .unwrap();
            row.push(report.results[1]);
        }
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
        Series::ALL.iter().map(|s| s.label().to_string()).collect(),
        "µs (epoch length)",
    );
    let mut first = Vec::new();
    let mut second = Vec::new();
    for series in Series::ALL {
        let report = mpisim_core::run_job(series.job(3), move |env| {
            let win = env.win_allocate(MB).unwrap();
            env.barrier().unwrap();
            // Each origin's lock-epoch length; the target returns 0.
            let epoch = match env.rank().idx() {
                0 => {
                    let t0 = env.now();
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
                    us(env.now() - t0)
                }
                1 => {
                    // Ensure O0 issues its lock first.
                    env.compute(SimTime::from_micros(50));
                    let t0 = env.now();
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
                    us(env.now() - t0)
                }
                _ => 0.0,
            };
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            epoch
        })
        .unwrap();
        first.push(report.results[0]);
        second.push(report.results[1]);
    }
    t.push("first lock (O0)", first);
    t.push("second lock (O1)", second);
    t
}
