//! The event queue pops in exactly `(time, tie-break, seq)` order, where
//! `seq` counts scheduling calls and reservations and the tie-break is
//! `seq` itself (FIFO) or `mix64(seed, seq)` under a tie-break seed. Each
//! test grows a tree of `schedule` / `schedule_at` callbacks and
//! reservations through the public API and replays the same tree on a
//! model: an ordered set of `(time, tie-break, seq)` popped from the front,
//! in which a reservation is pushed at once whether or not its event is
//! ever scheduled. The two logs must be equal: each event's `(now, id)`,
//! and which of the reservations it asks about (those not yet reported
//! whose id is its own modulo 3) the kernel reports as `passed`, which
//! must be those the model has popped.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpisim_sim::{mix64, seeded_rng, Sim, SimHandle, SimTime, Stamp, TieBreak};

/// One scheduling call, in ns: `schedule(d)` or `schedule_at(t)`; a
/// reservation `d > 0` ahead whose event is never scheduled; or one whose
/// event a carrier, scheduled `c < d` ahead, schedules when it runs.
#[derive(Clone, Copy)]
enum Call {
    After(u64),
    At(u64),
    Reserve(u64),
    Stamped { d: u64, c: u64 },
}

/// The calls event `id` makes when it runs at `now`.
type Plan = fn(id: u64, now: u64) -> Vec<Call>;

/// One popped event: `(now, id, reservations it found passed)`.
type Entry = (u64, u64, Vec<u64>);

/// Event `id` asks whether the reservations of class `id % CLASSES` have
/// passed, reservation `sid` being of class `sid % CLASSES`. Not every
/// event asks about every reservation, so a reservation can first be
/// asked about after an event that popped before it in the instant.
const CLASSES: usize = 3;

fn class(id: u64) -> usize {
    id as usize % CLASSES
}

/// An event's id is its `seq`: nothing but these calls takes a sequence
/// number.
struct Run {
    next_id: AtomicU64,
    log: Mutex<Vec<Entry>>,
    /// Reservations not yet reported passed, by class, with their ids.
    live: Mutex<[Vec<(u64, Stamp)>; CLASSES]>,
}

/// The body of event `id`: log it with the reservations it finds passed,
/// then make its calls.
fn event(h: &SimHandle, run: &Arc<Run>, plan: Plan, id: u64) -> impl FnOnce() + 'static {
    let (h, run) = (h.clone(), run.clone());
    move || {
        let now = h.now().as_nanos();
        let mut passed = Vec::new();
        run.live.lock().unwrap()[class(id)].retain(|&(sid, stamp)| {
            let gone = h.passed(stamp);
            if gone {
                passed.push(sid);
            }
            !gone
        });
        run.log.lock().unwrap().push((now, id, passed));
        for c in plan(id, now) {
            schedule_call(&h, &run, plan, c);
        }
    }
}

fn schedule_call(h: &SimHandle, run: &Arc<Run>, plan: Plan, call: Call) {
    let id = run.next_id.fetch_add(1, Ordering::Relaxed);
    let now = h.now();
    match call {
        Call::After(d) => h.schedule(SimTime::from_nanos(d), event(h, run, plan, id)),
        Call::At(t) => h.schedule_at(SimTime::from_nanos(t), event(h, run, plan, id)),
        Call::Reserve(d) => {
            let stamp = h.reserve(now + SimTime::from_nanos(d));
            run.live.lock().unwrap()[class(id)].push((id, stamp));
        }
        Call::Stamped { d, c } => {
            let stamp = h.reserve(now + SimTime::from_nanos(d));
            run.live.lock().unwrap()[class(id)].push((id, stamp));
            let carrier = run.next_id.fetch_add(1, Ordering::Relaxed);
            let body = event(h, run, plan, carrier);
            let (h2, stamped) = (h.clone(), event(h, run, plan, id));
            h.schedule(SimTime::from_nanos(c), move || {
                assert!(!h2.passed(stamp), "event {id}'s place passed before its carrier ran");
                h2.schedule_stamped(stamp, stamped);
                body();
            });
        }
    }
}

/// The log and the horizon: `SimStats::final_time` in ns.
fn simulate(seed: Option<u64>, roots: &[Call], plan: Plan) -> (Vec<Entry>, u64) {
    let mut sim = Sim::new(0);
    sim.set_tiebreak(seed.map_or(TieBreak::Fifo, TieBreak::Seeded));
    let h = sim.handle();
    let run = Arc::new(Run {
        next_id: AtomicU64::new(0),
        log: Mutex::new(Vec::new()),
        live: Mutex::new(Default::default()),
    });
    for &c in roots {
        schedule_call(&h, &run, plan, c);
    }
    let stats = sim.run().unwrap();
    let log = std::mem::take(&mut *run.log.lock().unwrap());
    assert_eq!(stats.events_executed, log.len() as u64);
    (log, stats.final_time.as_nanos())
}

/// What the model pops: an event that runs, or a reservation's place,
/// whose event runs only if a carrier scheduled it.
#[derive(Clone, Copy, PartialEq)]
enum Place {
    Event,
    Reserved { runs: bool },
}

/// The ordered set of pending `(time, tie-break, seq)` with what each is.
struct Model {
    seed: Option<u64>,
    pending: BTreeSet<(u64, u64, u64)>,
    places: BTreeMap<u64, Place>,
    next_seq: u64,
    horizon: u64,
    /// Reservations not yet reported passed, by class, and whether each
    /// has popped.
    live: [BTreeMap<u64, bool>; CLASSES],
}

impl Model {
    fn push(&mut self, at: u64, place: Place) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.horizon = self.horizon.max(at);
        let key = self.seed.map_or(seq, |s| mix64(s, seq));
        self.pending.insert((at, key, seq));
        self.places.insert(seq, place);
        if place != Place::Event {
            self.live[class(seq)].insert(seq, false);
        }
    }

    fn call(&mut self, now: u64, call: Call) {
        match call {
            Call::After(d) => self.push(now + d, Place::Event),
            Call::At(t) => self.push(t.max(now), Place::Event),
            Call::Reserve(d) => self.push(now + d, Place::Reserved { runs: false }),
            Call::Stamped { d, c } => {
                self.push(now + d, Place::Reserved { runs: true });
                self.push(now + c, Place::Event);
            }
        }
    }
}

fn model(seed: Option<u64>, roots: &[Call], plan: Plan) -> (Vec<Entry>, u64) {
    let mut m = Model {
        seed,
        pending: BTreeSet::new(),
        places: BTreeMap::new(),
        next_seq: 0,
        horizon: 0,
        live: Default::default(),
    };
    for &c in roots {
        m.call(0, c);
    }
    let mut log = Vec::new();
    while let Some((now, _, id)) = m.pending.pop_first() {
        let place = m.places[&id];
        if let Some(popped) = m.live[class(id)].get_mut(&id) {
            *popped = true;
        }
        if place == (Place::Reserved { runs: false }) {
            continue;
        }
        let live = &mut m.live[class(id)];
        let passed: Vec<u64> =
            live.iter().filter(|(_, &popped)| popped).map(|(&sid, _)| sid).collect();
        for sid in &passed {
            live.remove(sid);
        }
        log.push((now, id, passed));
        for c in plan(id, now) {
            m.call(now, c);
        }
    }
    (log, m.horizon)
}

fn same_order(seed: Option<u64>, roots: &[Call], plan: Plan) -> usize {
    let (want, want_horizon) = model(seed, roots, plan);
    let (got, horizon) = simulate(seed, roots, plan);
    if let Some(k) = (0..want.len()).find(|&k| got.get(k) != Some(&want[k])) {
        panic!(
            "seed {seed:?}: pop {k} of {} is {:?}, the model pops {:?}",
            want.len(),
            got.get(k),
            want[k]
        );
    }
    assert_eq!(got.len(), want.len(), "seed {seed:?}");
    assert_eq!(horizon, want_horizon, "seed {seed:?}: final time");
    want.len()
}

/// Events with an id below this have children; the tree stops growing past it.
const PARENTS: u64 = 12_000;

/// Zero to three children each, a delay from a small set that includes 0 (a
/// push into the instant being drained); an eighth `schedule_at` in the
/// future, an eighth `schedule_at` up to 80 ns in the past (clamped to
/// now), an eighth a reservation never scheduled and an eighth one
/// scheduled later by its carrier, each reserved after now.
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
            match rng.gen_range(0..8) {
                0 => Call::At(now + d),
                1 => Call::At(now.saturating_sub(d * 2)),
                2 => Call::Reserve(d + 1),
                3 => Call::Stamped { d: d + 1, c: rng.gen_range(0..=d) },
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

/// Reservations into one wide instant, made before it: every 4th of 400
/// roots reserves a place at 10 ns that is never scheduled, every 4th one
/// that a carrier at 5 ns schedules, and the first 900 ids each push one
/// more event into their instant while it drains, so under a seed a push
/// pops before places already passed.
fn reserved_wide_instant(id: u64, _now: u64) -> Vec<Call> {
    if id < 900 {
        vec![Call::After(0)]
    } else {
        Vec::new()
    }
}

#[test]
fn reservations_in_a_wide_instant_pass_where_their_events_would_pop() {
    let roots: Vec<Call> = (0..400)
        .map(|i| match i % 4 {
            0 => Call::Reserve(10),
            1 => Call::Stamped { d: 10, c: 5 },
            _ => Call::After(10),
        })
        .collect();
    for seed in [None, Some(3), Some(17)] {
        assert!(same_order(seed, &roots, reserved_wide_instant) > 600);
    }
}

/// A reservation past every event still sets the final time.
#[test]
fn final_time_is_the_latest_instant_pushed_or_reserved() {
    let sim = Sim::new(0);
    let h = sim.handle();
    let h2 = h.clone();
    h.schedule(SimTime::from_nanos(5), move || {
        let late = h2.reserve(SimTime::from_nanos(50));
        assert!(!h2.passed(late));
    });
    h.schedule(SimTime::from_nanos(20), || {});
    let stats = sim.run().unwrap();
    assert_eq!((stats.events_executed, stats.final_time), (2, SimTime::from_nanos(50)));
}
