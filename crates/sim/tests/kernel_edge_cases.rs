//! Edge-case integration tests for the simulation kernel.

use std::sync::{Arc, Mutex};

use mpisim_sim::{seeded_rng, ExecMode, Sim, SimError, SimTime, Signal};
use rand::Rng;

#[test]
fn schedule_at_in_the_past_is_clamped_to_now() {
    let sim = Sim::new(0);
    let h = sim.handle();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (h2, l2) = (h.clone(), log.clone());
    h.schedule(SimTime::from_micros(10), move || {
        // Now is 10 µs; ask for 3 µs — must fire at 10 µs, not travel back.
        let l3 = l2.clone();
        let h3 = h2.clone();
        h2.schedule_at(SimTime::from_micros(3), move || {
            l3.lock().unwrap().push(h3.now().as_nanos());
        });
    });
    sim.run().unwrap();
    assert_eq!(*log.lock().unwrap(), vec![10_000]);
}

#[test]
fn events_executed_counter_is_visible_during_run() {
    let sim = Sim::new(0);
    let h = sim.handle();
    let h2 = h.clone();
    let seen = Arc::new(Mutex::new(0u64));
    let s2 = seen.clone();
    h.schedule(SimTime::from_micros(1), || {});
    h.schedule(SimTime::from_micros(2), move || {
        *s2.lock().unwrap() = h2.events_executed();
    });
    let stats = sim.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), 2); // includes the running event
    assert_eq!(stats.events_executed, 2);
}

#[test]
fn process_spawned_order_runs_first_at_time_zero() {
    let mut sim = Sim::new(0);
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..5 {
        let o = order.clone();
        sim.spawn(format!("p{i}"), move |_| o.lock().unwrap().push(i));
    }
    sim.run().unwrap();
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn signal_fired_by_one_process_wakes_another_same_instant() {
    let mut sim = Sim::new(0);
    let sig = Signal::new();
    let s2 = sig.clone();
    let woke_at = Arc::new(Mutex::new(SimTime::MAX));
    let w2 = woke_at.clone();
    sim.spawn("waiter", move |ctx| {
        ctx.wait(&s2);
        *w2.lock().unwrap() = ctx.now();
    });
    sim.spawn("firer", move |_| {
        sig.fire(); // at virtual time zero, no advance
    });
    sim.run().unwrap();
    assert_eq!(*woke_at.lock().unwrap(), SimTime::ZERO);
}

#[test]
fn deadlock_error_lists_only_unfinished_processes() {
    let mut sim = Sim::new(0);
    sim.spawn("finishes", |ctx| ctx.advance(SimTime::from_micros(1)));
    sim.spawn("hangs", |ctx| {
        let s = Signal::new();
        ctx.wait(&s);
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked, now }) => {
            assert_eq!(blocked, vec!["hangs".to_string()]);
            assert_eq!(now, SimTime::from_micros(1));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn heavy_fanout_of_processes_and_events_is_deterministic() {
    fn run(seed: u64) -> (u64, u64) {
        let mut sim = Sim::new(seed);
        for p in 0..64 {
            sim.spawn(format!("p{p}"), move |ctx| {
                let mut rng = seeded_rng(ctx.handle().seed(), p);
                for _ in 0..50 {
                    ctx.advance(SimTime::from_nanos(rng.gen_range(1..1000)));
                }
            });
        }
        let stats = sim.run().unwrap();
        (stats.final_time.as_nanos(), stats.context_switches)
    }
    assert_eq!(run(3), run(3));
    assert_ne!(run(3).0, run(4).0);
}

#[test]
fn stack_size_override_supports_many_processes() {
    let mut sim = Sim::new(0);
    sim.set_stack_size(128 * 1024);
    let count = Arc::new(Mutex::new(0usize));
    for i in 0..512 {
        let c = count.clone();
        sim.spawn(format!("tiny{i}"), move |ctx| {
            ctx.advance(SimTime::from_nanos(i as u64 % 7 + 1));
            *c.lock().unwrap() += 1;
        });
    }
    sim.run().unwrap();
    assert_eq!(*count.lock().unwrap(), 512);
}

#[test]
fn wait_any_mixes_fired_and_pending() {
    let mut sim = Sim::new(0);
    let sigs: Vec<Signal> = (0..4).map(|_| Signal::new()).collect();
    sigs[2].fire(); // already fired before anyone waits
    let sv = sigs.clone();
    sim.spawn("w", move |ctx| {
        assert_eq!(ctx.wait_any(&sv), 2);
    });
    sim.run().unwrap();
}

// ---------------------------------------------------------------------------
// Pooled-execution edge cases at scale.
// ---------------------------------------------------------------------------

/// Counts drops so tests can assert that aborted continuations were
/// actually unwound (destructors on fiber/thread stacks ran).
struct DropProbe(Arc<Mutex<usize>>);

impl Drop for DropProbe {
    fn drop(&mut self) {
        *self.0.lock().unwrap() += 1;
    }
}

fn modes_under_test() -> Vec<ExecMode> {
    // ThreadPerRank everywhere; the pooled variants only where supported
    // (set_exec_mode would silently downgrade them to ThreadPerRank, which
    // would just re-test the baseline).
    let mut m = vec![ExecMode::ThreadPerRank];
    if ExecMode::default() != ExecMode::ThreadPerRank {
        m.push(ExecMode::Pooled { workers: 0 });
        m.push(ExecMode::Pooled { workers: 3 });
    }
    m
}

#[test]
fn worker_pool_shuts_down_with_parked_continuations() {
    // A deadlocked run leaves continuations suspended mid-wait and pool
    // workers parked. `run` must still return (no hung worker threads), the
    // deadlock must name every stuck process, and the suspended
    // continuations must be unwound (their stack-held values dropped).
    for mode in modes_under_test() {
        let drops = Arc::new(Mutex::new(0usize));
        let mut sim = Sim::new(0);
        sim.set_exec_mode(mode);
        for i in 0..16 {
            let probe = DropProbe(drops.clone());
            sim.spawn(format!("stuck{i}"), move |ctx| {
                let _held = probe; // lives on this continuation's stack
                let s = Signal::new();
                ctx.wait(&s); // never fired
            });
        }
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 16, "mode {mode:?}")
            }
            other => panic!("expected deadlock in {mode:?}, got {other:?}"),
        }
        assert_eq!(*drops.lock().unwrap(), 16, "mode {mode:?}: continuations not unwound");
    }
}

#[test]
fn abort_unwinds_a_pooled_rank_mid_epoch() {
    // One rank panics mid-run; another is suspended deep in a wait with
    // live stack state (modeling an open epoch). The panic must propagate
    // and the suspended rank's stack must be unwound, not leaked.
    for mode in modes_under_test() {
        let drops = Arc::new(Mutex::new(0usize));
        let probe = DropProbe(drops.clone());
        let mut sim = Sim::new(0);
        sim.set_exec_mode(mode);
        sim.spawn("mid-epoch", move |ctx| {
            let _epoch_state = probe; // held across the blocking call
            ctx.advance(SimTime::from_micros(1));
            let s = Signal::new();
            ctx.wait(&s); // suspended here when the abort lands
        });
        sim.spawn("bomb", |ctx| {
            ctx.advance(SimTime::from_micros(2));
            panic!("mid-run-boom");
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("mid-run-boom"), "mode {mode:?}");
        assert_eq!(*drops.lock().unwrap(), 1, "mode {mode:?}: epoch state not dropped");
    }
}

#[test]
fn zero_runnable_rank_steps_advance_on_events_alone() {
    // Ranks finish at t=0; from then on every step has zero runnable ranks
    // and the wheel advances on events alone. The scheduler must not touch
    // (or count switches for) the finished ranks again.
    for mode in modes_under_test() {
        let mut sim = Sim::new(0);
        sim.set_exec_mode(mode);
        for i in 0..8 {
            sim.spawn(format!("instant{i}"), |_| {});
        }
        let h = sim.handle();
        let ticks = Arc::new(Mutex::new(0u64));
        fn tick(h: mpisim_sim::SimHandle, ticks: Arc<Mutex<u64>>, left: u32) {
            if left == 0 {
                return;
            }
            let h2 = h.clone();
            h.schedule(SimTime::from_micros(1), move || {
                *ticks.lock().unwrap() += 1;
                tick(h2, ticks, left - 1);
            });
        }
        tick(h, ticks.clone(), 100);
        let stats = sim.run().unwrap();
        assert_eq!(*ticks.lock().unwrap(), 100, "mode {mode:?}");
        assert_eq!(stats.events_executed, 100, "mode {mode:?}");
        // Exactly one switch per rank (its only slice); idle steps add none.
        assert_eq!(stats.context_switches, 8, "mode {mode:?}");
        assert_eq!(stats.final_time, SimTime::from_micros(100), "mode {mode:?}");
    }
}

#[test]
fn four_thousand_ranks_run_pooled() {
    // The headline scale point: 4096 ranks in one process. Thread-per-rank
    // is deliberately excluded — that mode would need 4096 OS threads,
    // which is exactly what pooled execution exists to avoid.
    if ExecMode::default() == ExecMode::ThreadPerRank {
        return; // fibers unsupported on this target
    }
    let mut sim = Sim::new(9);
    sim.set_exec_mode(ExecMode::Pooled { workers: 0 });
    sim.set_stack_size(64 * 1024);
    let done = Arc::new(Mutex::new(0usize));
    let gate = Signal::new();
    for i in 0..4096usize {
        let d = done.clone();
        let g = gate.clone();
        sim.spawn(format!("r{i}"), move |ctx| {
            ctx.advance(SimTime::from_nanos(i as u64 % 97 + 1));
            if i == 0 {
                // Rank 0 makes every other rank block once, then releases.
                ctx.advance(SimTime::from_micros(10));
                g.fire();
            } else {
                ctx.wait(&g);
            }
            *d.lock().unwrap() += 1;
        });
    }
    let stats = sim.run().unwrap();
    assert_eq!(*done.lock().unwrap(), 4096);
    assert!(stats.context_switches >= 2 * 4096, "every rank needs at least two slices");
}

#[test]
fn cross_mode_stats_identity_with_blocking_traffic() {
    // Byte-identical SimStats across execution modes on a workload that
    // mixes signals, events, and re-blocking — the kernel-level half of the
    // determinism cross-check in crates/check.
    fn run_in(mode: ExecMode) -> (u64, u64, u64) {
        let mut sim = Sim::new(5);
        sim.set_exec_mode(mode);
        let sigs: Vec<Signal> = (0..32).map(|_| Signal::new()).collect();
        for i in 0..32usize {
            let mine = sigs[i].clone();
            let next = sigs[(i + 1) % 32].clone();
            sim.spawn(format!("ring{i}"), move |ctx| {
                if i == 0 {
                    ctx.advance(SimTime::from_nanos(3));
                    next.fire();
                } else {
                    ctx.wait(&mine);
                    ctx.advance(SimTime::from_nanos((i as u64 * 5) % 17 + 1));
                    next.fire();
                }
            });
        }
        let stats = sim.run().unwrap();
        (stats.events_executed, stats.context_switches, stats.final_time.as_nanos())
    }
    let base = run_in(ExecMode::ThreadPerRank);
    for mode in modes_under_test() {
        assert_eq!(run_in(mode), base, "SimStats diverged in {mode:?}");
    }
}

// ---------------------------------------------------------------------------
// `advance`'s wake-up is an event like any other: same instant, same
// sequence number, same tie-break as a scheduled callback.
// ---------------------------------------------------------------------------

#[test]
fn stale_wake_during_advance_goes_back_to_sleep() {
    // The sleeper registered with both signals in `wait_any`; `a` released
    // it, so its registration with `b` is stale. `b` fires in the middle of
    // the sleeper's `advance`: one spurious slice, then back to sleep until
    // exactly the deadline.
    let mut sim = Sim::new(0);
    let (a, b) = (Signal::new(), Signal::new());
    let (fire_a, fire_b) = (a.clone(), b.clone());
    sim.spawn("firer", move |ctx| {
        ctx.advance(SimTime::from_nanos(1));
        fire_a.fire();
        ctx.advance(SimTime::from_nanos(4));
        fire_b.fire(); // t = 5, the sleeper is at t = 1 + 10
    });
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    sim.spawn("sleeper", move |ctx| {
        assert_eq!(ctx.wait_any(&[a, b]), 0);
        s.lock().unwrap().push(ctx.now().as_nanos());
        ctx.advance(SimTime::from_nanos(10));
        s.lock().unwrap().push(ctx.now().as_nanos());
    });
    let stats = sim.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![1, 11]);
    // Three slices of the firer, four of the sleeper (start, released by
    // `a`, the stale wake, the deadline) — what `wait`'s re-check loop gave
    // when `advance` slept on a signal of its own.
    assert_eq!(stats.context_switches, 7);
    assert_eq!(stats.events_executed, 3);
    assert_eq!(stats.final_time, SimTime::from_nanos(11));
}

/// Four processes; each schedules a callback and then sleeps until the same
/// instant, twice. Returns who ran in what order as `<time><c|w><process>`
/// (a woken process runs right after the event that woke it, so this is the
/// event order).
fn wakes_and_callbacks(seed: Option<u64>) -> String {
    let mut sim = Sim::new(0);
    sim.set_tiebreak_seed(seed);
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4usize {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            let h = ctx.handle();
            for d in [10u64, 5] {
                let (l, h2) = (log.clone(), h.clone());
                h.schedule(SimTime::from_nanos(d), move || {
                    l.lock().unwrap().push(format!("{}c{i}", h2.now().as_nanos()));
                });
                ctx.advance(SimTime::from_nanos(d));
                log.lock().unwrap().push(format!("{}w{i}", ctx.now().as_nanos()));
            }
        });
    }
    sim.run().unwrap();
    let v = log.lock().unwrap().join(" ");
    v
}

#[test]
fn advance_wakes_and_callbacks_tie_in_schedule_order_fifo_and_seeded() {
    // FIFO is the schedule order. The two seeded interleavings were recorded
    // when `advance` slept on a `Signal` fired by a scheduled closure; the
    // wake-up keeps that closure's sequence number, so no seed may order
    // the ties differently.
    let pins = [
        (None, "10c0 10w0 10c1 10w1 10c2 10w2 10c3 10w3 15c0 15w0 15c1 15w1 15c2 15w2 15c3 15w3"),
        (Some(7), "10w3 10w0 10w2 10c2 10c0 10c1 10c3 10w1 15w2 15c2 15w1 15c3 15c0 15w3 15c1 15w0"),
        (Some(29), "10c0 10w2 10c3 10w0 10c2 10w1 10c1 10w3 15w2 15w0 15c2 15c3 15w1 15c0 15c1 15w3"),
    ];
    for (seed, want) in pins {
        assert_eq!(wakes_and_callbacks(seed), want, "tie-break seed {seed:?}");
    }
}

#[test]
fn exec_modes_agree_on_wakes_callbacks_and_stale_wakes() {
    // 20 processes mixing everything that touches the wake path: sleeps,
    // callbacks due at the same instants, signal hand-offs, and (for every
    // even process) a stale `wait_any` registration fired mid-sleep.
    fn run_in(mode: ExecMode) -> (mpisim_sim::SimStats, Vec<(u64, usize, &'static str)>) {
        let mut sim = Sim::new(13);
        sim.set_exec_mode(mode);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sigs: Vec<Signal> = (0..20).map(|_| Signal::new()).collect();
        for i in 0..20usize {
            let log = log.clone();
            let (mine, other) = (sigs[i].clone(), sigs[i ^ 1].clone());
            sim.spawn(format!("p{i}"), move |ctx| {
                let h = ctx.handle();
                for step in 0..4u64 {
                    let d = SimTime::from_nanos((i as u64 * 3 + step * 5) % 7 + 1);
                    let (l, h2) = (log.clone(), h.clone());
                    h.schedule(d, move || l.lock().unwrap().push((h2.now().as_nanos(), i, "call")));
                    ctx.advance(d);
                    log.lock().unwrap().push((ctx.now().as_nanos(), i, "wake"));
                }
                if i % 2 == 0 {
                    let fired = ctx.wait_any(&[other, mine]);
                    log.lock().unwrap().push((ctx.now().as_nanos(), i, "released"));
                    assert_eq!(fired, 0);
                    ctx.advance(SimTime::from_nanos(9));
                    log.lock().unwrap().push((ctx.now().as_nanos(), i, "slept"));
                } else {
                    ctx.advance(SimTime::from_nanos(i as u64 % 5 + 1));
                    mine.fire(); // releases the even neighbour…
                    ctx.advance(SimTime::from_nanos(4));
                    other.fire(); // …and pokes it in the middle of its sleep
                }
            });
        }
        let stats = sim.run().unwrap();
        let v = log.lock().unwrap().clone();
        (stats, v)
    }
    let base = run_in(ExecMode::ThreadPerRank);
    assert_eq!(base.1.len(), 20 * 8 + 10 * 2);
    for mode in modes_under_test() {
        assert_eq!(run_in(mode), base, "mode {mode:?}");
    }
}
