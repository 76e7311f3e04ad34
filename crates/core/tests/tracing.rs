//! Tests for epoch lifecycle tracing: the trace must make the paper's
//! deferral and close-vs-complete distinctions directly observable.

use mpisim_core::epoch::Slot;
use mpisim_core::trace::{render_timeline, summarize, EpochEvent};
use mpisim_core::{run_job, JobConfig, LockKind, Rank};
use mpisim_sim::SimTime;

fn traced(n: usize) -> JobConfig {
    let mut c = JobConfig::all_internode(n);
    c.trace = true;
    c
}

#[test]
fn trace_captures_all_four_transitions() {
    let report = run_job(traced(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put(win, Rank(1), 0, &[1u8; 8]).unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    let lock_epochs: Vec<_> = summarize(&report.trace)
        .into_iter()
        .filter(|s| s.kind == Slot::Lock(Rank(1)))
        .collect();
    assert_eq!(lock_epochs.len(), 1);
    let e = &lock_epochs[0];
    assert!(e.opened.is_some() && e.activated.is_some());
    assert!(e.closed.is_some() && e.completed.is_some());
    assert!(e.opened <= e.activated);
    assert!(e.closed <= e.completed);
    // Blocking unlock: the app-level close and internal completion are a
    // few control-packet round trips apart at most (the call waited).
    assert!(e.close_to_complete().unwrap() < SimTime::from_micros(20));
}

#[test]
fn trace_shows_deferral_of_back_to_back_epochs() {
    let report = run_job(traced(2), |env| {
        let win = env.win_allocate(1 << 20).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            let r1 = env.iunlock(win, Rank(1)).unwrap();
            let _ = env.ilock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_synthetic(win, Rank(1), 0, 1 << 20).unwrap();
            let r2 = env.iunlock(win, Rank(1)).unwrap();
            env.wait(r1).unwrap();
            env.wait(r2).unwrap();
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    let locks: Vec<_> = summarize(&report.trace)
        .into_iter()
        .filter(|s| s.kind == Slot::Lock(Rank(1)) && s.rank == 0)
        .collect();
    assert_eq!(locks.len(), 2);
    // First epoch activates immediately; second defers until the first
    // completes (~340 µs of transfer + acks).
    assert!(locks[0].deferral().unwrap() < SimTime::from_micros(5));
    assert!(
        locks[1].deferral().unwrap() > SimTime::from_micros(200),
        "second epoch should defer ≈ one transfer: {:?}",
        locks[1].deferral()
    );
    // Nonblocking close: closed long before completed for epoch 1.
    assert!(locks[0].close_to_complete().unwrap() > SimTime::from_micros(200));
}

#[test]
fn trace_disabled_by_default() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(8).unwrap();
        env.fence(win).unwrap();
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(report.trace.is_empty());
}

#[test]
fn timeline_renders_every_epoch_row() {
    let report = run_job(traced(3), |env| {
        let win = env.win_allocate(64).unwrap();
        env.fence(win).unwrap();
        env.put(win, Rank((env.rank().idx() + 1) % 3), 0, &[1u8; 8]).unwrap();
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    let txt = render_timeline(&report.trace);
    assert!(txt.contains("fence"));
    assert!(txt.contains("r0"));
    assert!(txt.contains("r2"));
    // Rows = number of distinct epochs.
    let epochs = summarize(&report.trace).len();
    assert_eq!(txt.lines().count(), epochs + 1); // + header
}

#[test]
fn events_are_time_ordered_per_epoch() {
    let report = run_job(traced(2), |env| {
        let win = env.win_allocate(32).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            for _ in 0..3 {
                env.lock(win, Rank(1), LockKind::Shared).unwrap();
                env.put(win, Rank(1), 0, &[3u8; 4]).unwrap();
                env.unlock(win, Rank(1)).unwrap();
            }
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    for s in summarize(&report.trace) {
        let times = [s.opened, s.activated, s.closed, s.completed];
        let present: Vec<_> = times.iter().flatten().collect();
        assert!(present.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
    }
    // The whole record stream (epoch, sync and request records) is
    // globally time-ordered too.
    assert!(report
        .trace
        .windows(2)
        .all(|w| w[0].time <= w[1].time));
    let _ = EpochEvent::Opened; // silence unused import in cfg permutations
}
