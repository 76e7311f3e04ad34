//! The hold model for the kernel's event queue (DESIGN §15.2): keep `n`
//! events pending, and time pops of which each schedules one replacement,
//! so every timed operation is one pop plus one push at a steady queue size.
//! Delays are uniform over 2⁴⁰ ns (every pending instant distinct) or over
//! 16 offsets (at most 16 distinct instants, as with this simulator's
//! constant latencies). Only `SimHandle::schedule` is used, and the callback
//! captures nothing, so its box allocates nothing and a row is the queue's
//! cost plus one kernel lock and one dispatch. A measurement, not a check:
//!
//! ```sh
//! cargo test --release --offline -p mpisim-sim --test event_queue_hold -- --ignored --nocapture
//! ```

use std::cell::RefCell;
use std::time::{Duration, Instant};

use mpisim_sim::{seeded_rng, Sim, SimHandle, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Timed pop+push operations per run.
const OPS: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
enum Spread {
    Distinct,
    Offsets16,
}

impl Spread {
    fn delay(self, rng: &mut SmallRng) -> SimTime {
        SimTime::from_nanos(match self {
            Spread::Distinct => rng.gen_range(1..1u64 << 40),
            Spread::Offsets16 => 100 * rng.gen_range(1..=16),
        })
    }
}

struct Hold {
    h: SimHandle,
    rng: SmallRng,
    spread: Spread,
    left: u64,
    started: Option<Instant>,
    elapsed: Duration,
}

thread_local! {
    static HOLD: RefCell<Option<Hold>> = const { RefCell::new(None) };
}

/// One event: schedule the replacement while operations are left.
fn step() {
    HOLD.with_borrow_mut(|hold| {
        let s = hold.as_mut().unwrap();
        let started = *s.started.get_or_insert_with(Instant::now);
        if s.left == 0 {
            return;
        }
        s.left -= 1;
        let d = s.spread.delay(&mut s.rng);
        s.h.schedule(d, step);
        if s.left == 0 {
            s.elapsed = started.elapsed();
        }
    });
}

/// ns per pop+push with `pending` events held.
fn hold_ns(pending: usize, spread: Spread, seed: u64) -> f64 {
    let sim = Sim::new(seed);
    let h = sim.handle();
    let mut rng = seeded_rng(seed, pending as u64);
    for _ in 0..pending {
        h.schedule(spread.delay(&mut rng), step);
    }
    HOLD.set(Some(Hold {
        h,
        rng,
        spread,
        left: OPS,
        started: None,
        elapsed: Duration::ZERO,
    }));
    sim.run().unwrap();
    let hold = HOLD.take().unwrap();
    assert_eq!(hold.left, 0);
    hold.elapsed.as_nanos() as f64 / OPS as f64
}

#[test]
#[ignore = "a measurement; run it in release with --nocapture"]
fn pop_push_cost_at_steady_queue_size() {
    println!("{:>9}  {:<9}  ns per pop+push (median of 3)", "pending", "spread");
    for pending in [1_000, 10_000, 1_000_000] {
        for spread in [Spread::Distinct, Spread::Offsets16] {
            let mut ns: Vec<f64> = (0..3).map(|r| hold_ns(pending, spread, r)).collect();
            ns.sort_by(f64::total_cmp);
            println!("{pending:>9}  {:<9}  {:.0}", format!("{spread:?}"), ns[1]);
        }
    }
}
