//! The event queue pops in exactly `(time, tie-break, seq)` order, where
//! `seq` counts scheduling calls and the tie-break is `seq` itself (FIFO) or
//! `mix64(seed, seq)` under a tie-break seed. Each test grows a tree of
//! `schedule` / `schedule_at` callbacks through the public API and replays
//! the same tree on a model: an ordered set of `(time, tie-break, seq)`
//! popped from the front. The two logs of `(now, id)` must be equal.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpisim_sim::{mix64, seeded_rng, Sim, SimHandle, SimTime, TieBreak};
use rand::Rng;

/// One scheduling call, in ns: `schedule(d)` or `schedule_at(t)`.
#[derive(Clone, Copy)]
enum Call {
    After(u64),
    At(u64),
}

/// The calls event `id` makes when it runs at `now`.
type Plan = fn(id: u64, now: u64) -> Vec<Call>;

/// An event's id is its `seq`: nothing but these calls pushes an event.
struct Run {
    next_id: AtomicU64,
    log: Mutex<Vec<(u64, u64)>>,
}

fn schedule_call(h: &SimHandle, run: &Arc<Run>, plan: Plan, call: Call) {
    let id = run.next_id.fetch_add(1, Ordering::Relaxed);
    let (h2, run2) = (h.clone(), run.clone());
    let f = move || {
        let now = h2.now().as_nanos();
        run2.log.lock().unwrap().push((now, id));
        for c in plan(id, now) {
            schedule_call(&h2, &run2, plan, c);
        }
    };
    match call {
        Call::After(d) => h.schedule(SimTime::from_nanos(d), f),
        Call::At(t) => h.schedule_at(SimTime::from_nanos(t), f),
    }
}

fn simulate(seed: Option<u64>, roots: &[Call], plan: Plan) -> Vec<(u64, u64)> {
    let mut sim = Sim::new(0);
    sim.set_tiebreak(seed.map_or(TieBreak::Fifo, TieBreak::Seeded));
    let h = sim.handle();
    let run = Arc::new(Run {
        next_id: AtomicU64::new(0),
        log: Mutex::new(Vec::new()),
    });
    for &c in roots {
        schedule_call(&h, &run, plan, c);
    }
    let stats = sim.run().unwrap();
    let log = std::mem::take(&mut *run.log.lock().unwrap());
    assert_eq!(stats.events_executed, log.len() as u64);
    log
}

fn model(seed: Option<u64>, roots: &[Call], plan: Plan) -> Vec<(u64, u64)> {
    let mut pending = BTreeSet::new();
    let mut next_seq = 0;
    let mut push = |pending: &mut BTreeSet<(u64, u64, u64)>, now: u64, call: Call| {
        let at = match call {
            Call::After(d) => now + d,
            Call::At(t) => t.max(now),
        };
        let seq = next_seq;
        next_seq += 1;
        pending.insert((at, seed.map_or(seq, |s| mix64(s, seq)), seq));
    };
    for &c in roots {
        push(&mut pending, 0, c);
    }
    let mut log = Vec::new();
    while let Some((now, _, id)) = pending.pop_first() {
        log.push((now, id));
        for c in plan(id, now) {
            push(&mut pending, now, c);
        }
    }
    log
}

fn same_order(seed: Option<u64>, roots: &[Call], plan: Plan) -> usize {
    let want = model(seed, roots, plan);
    let got = simulate(seed, roots, plan);
    if let Some(k) = (0..want.len()).find(|&k| got.get(k) != Some(&want[k])) {
        panic!(
            "seed {seed:?}: pop {k} of {} is {:?}, the model pops {:?}",
            want.len(),
            got.get(k),
            want[k]
        );
    }
    assert_eq!(got.len(), want.len(), "seed {seed:?}");
    want.len()
}

/// Events with an id below this have children; the tree stops growing past it.
const PARENTS: u64 = 12_000;

/// Zero to three children each, a delay from a small set that includes 0 (a
/// push into the instant being drained); a quarter `schedule_at` in the
/// future, a quarter `schedule_at` up to 80 ns in the past (clamped to now).
fn random_tree(id: u64, now: u64) -> Vec<Call> {
    const DELAYS: [u64; 6] = [0, 0, 1, 2, 5, 40];
    if id >= PARENTS {
        return Vec::new();
    }
    let mut rng = seeded_rng(0x0E7E_4700, id);
    let children = [0, 1, 1, 1, 2, 2, 2, 3][rng.gen_range(0..8)];
    (0..children)
        .map(|_| {
            let d = DELAYS[rng.gen_range(0..DELAYS.len())];
            match rng.gen_range(0..4) {
                0 => Call::At(now + d),
                1 => Call::At(now.saturating_sub(d * 2)),
                _ => Call::After(d),
            }
        })
        .collect()
}

fn random_roots() -> Vec<Call> {
    (0..64).map(|i| Call::After(i % 7)).collect()
}

#[test]
fn fifo_pops_in_schedule_order_within_an_instant() {
    let events = same_order(None, &random_roots(), random_tree);
    assert!(events >= 10_000, "{events} events");
}

#[test]
fn seeded_pops_in_tiebreak_order_within_an_instant() {
    for seed in [1, 7, 29, 0xDEAD_BEEF] {
        let events = same_order(Some(seed), &random_roots(), random_tree);
        assert!(events >= 10_000, "seed {seed}: {events} events");
    }
}

/// The first 500 events, due together, each push one more event into the
/// instant being drained: one 1 000-event instant, half of it built while it
/// is popped.
fn one_wide_instant(id: u64, _now: u64) -> Vec<Call> {
    if id < 500 {
        vec![Call::After(0)]
    } else {
        Vec::new()
    }
}

#[test]
fn a_thousand_event_instant_under_a_seed() {
    let roots = vec![Call::After(10); 500];
    for seed in [None, Some(3)] {
        assert_eq!(same_order(seed, &roots, one_wide_instant), 1000);
    }
}
