//! `ProcCtx::advance` is the call every simulated MPI call and every
//! `compute` goes through, `ProcCtx::park` / `SimHandle::wake` the pair
//! every blocked wait goes through; once the event queue (its slot arena
//! and its map of pending instants) and the ready queue have grown to their
//! working size none of them may touch the allocator, and neither may the
//! hop of an `on_driver_stack` call, the way every engine call of a rank
//! runs. The counting allocator (`tests/support/alloc.rs`) counts the
//! thread that runs the simulation: its processes are fibers on that
//! thread.

use std::sync::atomic::{AtomicU64, Ordering};

use mpisim_sim::{on_driver_stack, ProcId, Sim, SimTime};

#[path = "../../../tests/support/alloc.rs"]
mod alloc;

use alloc::{ALLOCS, COUNTING};

/// One `#[test]`, two scenarios run back to back on the counting thread.
#[test]
fn advance_and_park_wake_allocate_nothing_in_steady_state() {
    COUNTING.with(|c| c.set(true));
    advance_rounds();
    park_wake_ping_pong();
    COUNTING.with(|c| c.set(false));
}

fn advance_rounds() {
    const PROCS: u64 = 8;
    const CALLS: u64 = 1000;
    static AFTER_FIRST_ROUND: AtomicU64 = AtomicU64::new(0);
    static AT_END: AtomicU64 = AtomicU64::new(0);

    let mut sim = Sim::new(0);
    for i in 0..PROCS {
        sim.spawn(format!("p{i}"), move |ctx| {
            // Every process sleeps to the same instants, so all eight
            // wake-ups are pending at once: the first round sizes the event
            // queue and the ready queue for the whole run.
            ctx.advance(SimTime::from_nanos(5));
            if i == 0 {
                AFTER_FIRST_ROUND.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            for call in 1..CALLS {
                ctx.advance(SimTime::from_nanos(5));
                let now = on_driver_stack(|| ctx.now());
                assert_eq!(now, SimTime::from_nanos(5 * (call + 1)));
            }
            AT_END.fetch_max(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        });
    }
    let stats = sim.run().unwrap();
    assert_eq!(stats.events_executed, PROCS * CALLS);
    assert_eq!(stats.final_time, SimTime::from_nanos(5 * CALLS));
    let steady = AT_END.load(Ordering::Relaxed) - AFTER_FIRST_ROUND.load(Ordering::Relaxed);
    assert_eq!(
        steady,
        0,
        "{steady} allocations in {} advance and driver-stack calls",
        PROCS * (CALLS - 1)
    );
}

fn park_wake_ping_pong() {
    const ROUNDS: u64 = 1000;
    // Whose turn it is; the other process is parked.
    static TURN: AtomicU64 = AtomicU64::new(0);
    static AFTER_FIRST_ROUND: AtomicU64 = AtomicU64::new(0);
    static AT_END: AtomicU64 = AtomicU64::new(0);

    let mut sim = Sim::new(0);
    for me in 0..2u64 {
        let h = sim.handle();
        sim.spawn(format!("p{me}"), move |ctx| {
            for round in 0..ROUNDS {
                while TURN.load(Ordering::Relaxed) != me {
                    ctx.park();
                }
                if (me, round) == (0, 1) {
                    AFTER_FIRST_ROUND.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                TURN.store(1 - me, Ordering::Relaxed);
                h.wake(ProcId(1 - me as usize));
            }
            AT_END.fetch_max(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        });
    }
    let stats = sim.run().unwrap();
    // No event at all: a hand-off is a wake and a slice, 2 per round.
    assert_eq!(stats.events_executed, 0);
    assert!(stats.context_switches >= 2 * ROUNDS);
    let steady = AT_END.load(Ordering::Relaxed) - AFTER_FIRST_ROUND.load(Ordering::Relaxed);
    assert_eq!(
        steady,
        0,
        "{steady} allocations in {} park/wake rounds",
        ROUNDS - 1
    );
}
