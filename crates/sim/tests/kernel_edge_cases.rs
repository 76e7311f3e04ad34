//! Edge-case integration tests for the simulation kernel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mpisim_sim::{seeded_rng, ProcCtx, ProcId, Sim, SimError, SimStats, SimTime, TieBreak};

/// What the kernel leaves to its callers: the condition a parked process
/// waits for. Set it, then `wake` whoever parks on it.
#[derive(Clone, Default)]
struct Flag(Arc<AtomicBool>);

impl Flag {
    fn set(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    fn park_until_set(&self, ctx: &ProcCtx) {
        while !self.0.load(Ordering::Relaxed) {
            ctx.park();
        }
    }
}

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
fn wake_by_one_process_readies_another_same_instant() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let flag = Flag::default();
    let f2 = flag.clone();
    let woke_at = Arc::new(Mutex::new(SimTime::MAX));
    let w2 = woke_at.clone();
    let waiter = sim.spawn("waiter", move |ctx| {
        f2.park_until_set(ctx);
        *w2.lock().unwrap() = ctx.now();
    });
    sim.spawn("waker", move |_| {
        flag.set(); // at virtual time zero, no advance
        h.wake(waiter);
    });
    sim.run().unwrap();
    assert_eq!(*woke_at.lock().unwrap(), SimTime::ZERO);
}

#[test]
fn deadlock_error_lists_only_unfinished_processes() {
    // A deadlocked run leaves continuations suspended mid-park. `run` must
    // still return, the deadlock must name every stuck process and no
    // finished one, and the suspended continuations must be unwound (their
    // stack-held values dropped).
    let drops = Arc::new(Mutex::new(0usize));
    let mut sim = Sim::new(0);
    sim.spawn("finishes", |ctx| ctx.advance(SimTime::from_micros(1)));
    for i in 0..16 {
        let probe = DropProbe(drops.clone());
        sim.spawn(format!("stuck{i}"), move |ctx| {
            let _held = probe; // lives on this continuation's stack
            ctx.park(); // never woken
        });
    }
    match sim.run() {
        Err(SimError::Deadlock { blocked, now }) => {
            assert_eq!(blocked, (0..16).map(|i| format!("stuck{i}")).collect::<Vec<_>>());
            assert_eq!(now, SimTime::from_micros(1));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(*drops.lock().unwrap(), 16, "continuations not unwound");
}

/// 32 processes in a ring of hand-offs: each waits for its flag, sleeps,
/// sets the next one's and wakes it. Returns (events, switches, final ns).
/// What every vehicle the kernel ever had agreed on for the ring.
const RING_STATS: (u64, u64, u64) = (32, 95, 287);

fn ring_of_handoffs() -> (u64, u64, u64) {
    let mut sim = Sim::new(5);
    let flags: Vec<Flag> = (0..32).map(|_| Flag::default()).collect();
    for i in 0..32usize {
        let mine = flags[i].clone();
        let next = flags[(i + 1) % 32].clone();
        sim.spawn(format!("ring{i}"), move |ctx| {
            if i == 0 {
                ctx.advance(SimTime::from_nanos(3));
            } else {
                mine.park_until_set(ctx);
                ctx.advance(SimTime::from_nanos((i as u64 * 5) % 17 + 1));
            }
            next.set();
            ctx.handle().wake(ProcId((i + 1) % 32));
        });
    }
    let stats = sim.run().unwrap();
    (stats.events_executed, stats.context_switches, stats.final_time.as_nanos())
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
    // Hand-offs, events and re-blocking: the same SimStats on every rerun
    // in one process, and the ones the schedule implies.
    assert_eq!(ring_of_handoffs(), RING_STATS);
    assert_eq!(ring_of_handoffs(), RING_STATS);
}

// ---------------------------------------------------------------------------
// Fiber edge cases at scale.
// ---------------------------------------------------------------------------

/// Counts drops so tests can assert that aborted continuations were
/// actually unwound (destructors on fiber/thread stacks ran).
struct DropProbe(Arc<Mutex<usize>>);

impl Drop for DropProbe {
    fn drop(&mut self) {
        *self.0.lock().unwrap() += 1;
    }
}

#[test]
fn abort_unwinds_a_pooled_rank_mid_epoch() {
    // One rank panics mid-run; another is suspended deep in a park with
    // live stack state (modeling an open epoch). The panic must propagate
    // and the suspended rank's stack must be unwound, not leaked.
    let drops = Arc::new(Mutex::new(0usize));
    let probe = DropProbe(drops.clone());
    let mut sim = Sim::new(0);
    sim.spawn("mid-epoch", move |ctx| {
        let _epoch_state = probe; // held across the blocking call
        ctx.advance(SimTime::from_micros(1));
        ctx.park(); // suspended here when the abort lands
    });
    sim.spawn("bomb", |ctx| {
        ctx.advance(SimTime::from_micros(2));
        panic!("mid-run-boom");
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("panic must propagate");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
    assert!(msg.contains("mid-run-boom"));
    assert_eq!(*drops.lock().unwrap(), 1, "epoch state not dropped");
}

#[test]
fn zero_runnable_rank_steps_advance_on_events_alone() {
    // Ranks finish at t=0; from then on every step has zero runnable ranks
    // and the wheel advances on events alone. The scheduler must not touch
    // (or count switches for) the finished ranks again.
    let mut sim = Sim::new(0);
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
    assert_eq!(*ticks.lock().unwrap(), 100);
    assert_eq!(stats.events_executed, 100);
    // Exactly one switch per rank (its only slice); idle steps add none.
    assert_eq!(stats.context_switches, 8);
    assert_eq!(stats.final_time, SimTime::from_micros(100));
}

#[test]
fn four_thousand_ranks_run_pooled() {
    // The headline scale point: 4096 ranks in one process, each a fiber on
    // the driver thread.
    let mut sim = Sim::new(9);
    let done = Arc::new(Mutex::new(0usize));
    let gate = Flag::default();
    for i in 0..4096usize {
        let d = done.clone();
        let g = gate.clone();
        sim.spawn(format!("r{i}"), move |ctx| {
            ctx.advance(SimTime::from_nanos(i as u64 % 97 + 1));
            if i == 0 {
                // Rank 0 makes every other rank block once, then releases
                // them all: a broadcast is a loop over ids.
                ctx.advance(SimTime::from_micros(10));
                g.set();
                (1..4096).for_each(|p| ctx.handle().wake(ProcId(p)));
            } else {
                g.park_until_set(ctx);
            }
            *d.lock().unwrap() += 1;
        });
    }
    let stats = sim.run().unwrap();
    assert_eq!(*done.lock().unwrap(), 4096);
    assert!(stats.context_switches >= 2 * 4096, "every rank needs at least two slices");
}

// ---------------------------------------------------------------------------
// `advance`'s wake-up is an event like any other: same instant, same
// sequence number, same tie-break as a scheduled callback.
// ---------------------------------------------------------------------------

/// 20 processes mixing everything that touches the wake path: sleeps,
/// callbacks due at the same instants, hand-offs, and (for every even
/// process) a stale wake in the middle of a sleep.
/// (events, switches, final ns) of the mix, as every vehicle the kernel
/// ever had agreed on.
const MIX_STATS: (u64, u64, u64) = (190, 150, 31);

fn wakes_callbacks_and_stale_wakes() -> (SimStats, Vec<(u64, usize, &'static str)>) {
    let mut sim = Sim::new(13);
    let log = Arc::new(Mutex::new(Vec::new()));
    let flags: Vec<Flag> = (0..20).map(|_| Flag::default()).collect();
    for i in 0..20usize {
        let log = log.clone();
        let released = flags[i & !1].clone();
        let neighbour = ProcId(i ^ 1);
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
                released.park_until_set(ctx);
                log.lock().unwrap().push((ctx.now().as_nanos(), i, "released"));
                ctx.advance(SimTime::from_nanos(9));
                log.lock().unwrap().push((ctx.now().as_nanos(), i, "slept"));
            } else {
                ctx.advance(SimTime::from_nanos(i as u64 % 5 + 1));
                released.set(); // releases the even neighbour…
                h.wake(neighbour);
                ctx.advance(SimTime::from_nanos(4));
                h.wake(neighbour); // …and pokes it in the middle of its sleep
            }
        });
    }
    let stats = sim.run().unwrap();
    let v = log.lock().unwrap().clone();
    (stats, v)
}

#[test]
fn stale_wake_during_advance_goes_back_to_sleep() {
    // The waker readies the sleeper twice: at t = 1, ending its park, and at
    // t = 5, in the middle of the sleeper's `advance` — one spurious slice,
    // then back to sleep until exactly the deadline.
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let go = Flag::default();
    let g = go.clone();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    let sleeper = sim.spawn("sleeper", move |ctx| {
        g.park_until_set(ctx);
        s.lock().unwrap().push(ctx.now().as_nanos());
        ctx.advance(SimTime::from_nanos(10));
        s.lock().unwrap().push(ctx.now().as_nanos());
    });
    sim.spawn("waker", move |ctx| {
        ctx.advance(SimTime::from_nanos(1));
        go.set();
        h.wake(sleeper);
        ctx.advance(SimTime::from_nanos(4));
        h.wake(sleeper); // t = 5, the sleeper is at t = 1 + 10
    });
    let stats = sim.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![1, 11]);
    // Three slices of the waker, four of the sleeper (start, released,
    // the stale wake, the deadline) — what a stale `Signal` registration
    // firing mid-sleep cost when the kernel still had signals.
    assert_eq!(stats.context_switches, 7);
    assert_eq!(stats.events_executed, 3);
    assert_eq!(stats.final_time, SimTime::from_nanos(11));

    // The same at 20 processes, mixed with same-instant callbacks: every
    // step logged, and a rerun in the same process identical in SimStats
    // and in the order of every wake and callback.
    let base = wakes_callbacks_and_stale_wakes();
    assert_eq!(base.1.len(), 20 * 8 + 10 * 2);
    assert_eq!(
        (base.0.events_executed, base.0.context_switches, base.0.final_time.as_nanos()),
        MIX_STATS
    );
    assert_eq!(wakes_callbacks_and_stale_wakes(), base);
}

#[test]
fn woken_processes_run_in_wake_order() {
    // A broadcast is a loop over ids, and the ready queue is FIFO: the
    // parked processes run in the order they were woken, not in id order.
    let mut sim = Sim::new(0);
    let gate = Flag::default();
    let ran = Arc::new(Mutex::new(Vec::new()));
    for i in 0..5usize {
        let (g, r) = (gate.clone(), ran.clone());
        sim.spawn(format!("w{i}"), move |ctx| {
            g.park_until_set(ctx);
            r.lock().unwrap().push((ctx.now().as_nanos(), i));
        });
    }
    let h = sim.handle();
    sim.spawn("waker", move |ctx| {
        ctx.advance(SimTime::from_nanos(9));
        gate.set();
        [3, 0, 4, 1, 2].into_iter().for_each(|p| h.wake(ProcId(p)));
    });
    let stats = sim.run().unwrap();
    assert_eq!(*ran.lock().unwrap(), [(9, 3), (9, 0), (9, 4), (9, 1), (9, 2)]);
    // Two slices each: nobody was woken twice or ran without cause.
    assert_eq!(stats.context_switches, 12);
}

#[test]
fn wake_of_a_process_that_is_not_parked_is_a_noop() {
    // Only `Blocked` → ready is a transition. Waking a process that is
    // running (itself), ready (not started yet) or finished changes nothing
    // and costs no slice.
    fn run(wakes: bool) -> SimStats {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (early, late) = (ProcId(0), ProcId(1));
        sim.spawn("early", move |ctx| {
            if wakes {
                h.wake(ctx.pid()); // Running
                h.wake(late); // Ready: spawned, its first slice still to come
            }
        });
        let h = sim.handle();
        sim.spawn("late", move |ctx| {
            ctx.advance(SimTime::from_nanos(1));
            if wakes {
                h.wake(early); // Finished
            }
            ctx.advance(SimTime::from_nanos(1));
        });
        sim.run().unwrap()
    }
    let stats = run(true);
    assert_eq!(stats, run(false));
    // One slice of `early`, three of `late`.
    assert_eq!(stats.context_switches, 4);
}

/// Four processes; each schedules a callback and then sleeps until the same
/// instant, twice. Returns who ran in what order as `<time><c|w><process>`
/// (a woken process runs right after the event that woke it, so this is the
/// event order).
fn wakes_and_callbacks(seed: Option<u64>) -> String {
    let mut sim = Sim::new(0);
    sim.set_tiebreak(seed.map_or(TieBreak::Fifo, TieBreak::Seeded));
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
    // when `advance`'s wake-up was a scheduled closure; the `Wake` record
    // keeps that closure's sequence number, so no seed may order the ties
    // differently.
    let pins = [
        (None, "10c0 10w0 10c1 10w1 10c2 10w2 10c3 10w3 15c0 15w0 15c1 15w1 15c2 15w2 15c3 15w3"),
        (Some(7), "10w3 10w0 10w2 10c2 10c0 10c1 10c3 10w1 15w2 15c2 15w1 15c3 15c0 15w3 15c1 15w0"),
        (Some(29), "10c0 10w2 10c3 10w0 10c2 10w1 10c1 10w3 15w2 15w0 15c2 15c3 15w1 15c0 15c1 15w3"),
    ];
    for (seed, want) in pins {
        assert_eq!(wakes_and_callbacks(seed), want, "tie-break seed {seed:?}");
    }
}
