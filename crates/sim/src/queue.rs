//! The kernel's event queue: pending events grouped by instant.
//!
//! This simulator's latencies are a handful of constants, so the events
//! pending at any moment fall on few distinct instants. How many pushes
//! open a new instant depends on the workload (DESIGN §15.2, measured):
//! 0.4 % on `pairwise_2048`, 12 % on `collective_128` (while every credit
//! return was an event), but ~85 % on `paper_apps` and `conformance`,
//! where each event pays a map insert and remove (ROADMAP item 3(ii)).
//! The queue keeps one ordered-map entry per distinct pending instant and,
//! under it, that instant's events as a list through a slot arena, in
//! tie-break order. A push looks its instant up once and links the event in;
//! a pop unlinks the head of the earliest instant. There is no bucket width
//! to tune: a bucket is one exact instant.
//!
//! Pop order is exactly `(time, tie-break)`: the kernel's tie-break is a
//! bijection of its sequence number, so no two events share one, and the
//! sequence number is not stored. Within an instant the list is sorted by
//! tie-break, and a push goes after every event whose tie-break is not
//! greater than its own.
//!
//! - Under `TieBreak::Fifo` the tie-break *is* the sequence number, so every
//!   push into an existing instant is a tail append.
//! - Under `TieBreak::Seeded(seed)` it is `mix64(seed, seq)`, which for a fixed seed
//!   is a bijection of `seq` (rotate, xor, add and xorshift-multiply are each
//!   invertible), and a push walks the list from its head.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::mem;

use crate::kernel::{Action, ProcId};
use crate::time::SimTime;

/// End of a list: an instant's, or the free list. Slot indices are `u32`,
/// which keeps a slot at 32 B and a map entry at 16 B.
const NIL: u32 = u32::MAX;

/// What a free slot holds in place of an action: a wake-up of no process.
const VACANT: Action = Action::Wake(ProcId(usize::MAX));

/// One pending event, or one free slot. The slot owns its action, so running
/// an event is one pop and there is no side table from event to action.
struct Slot {
    /// The event's place within its instant (the module docs say why this
    /// is the whole within-instant key).
    tiebreak: u64,
    /// The next event of the same instant, or the next free slot.
    next: u32,
    action: Action,
}

/// The first and last slot of one instant's list.
struct List {
    head: u32,
    tail: u32,
}

/// Pending events by instant; see the module docs.
pub(crate) struct EventQueue {
    instants: BTreeMap<SimTime, List>,
    slots: Vec<Slot>,
    /// Head of the free list through `Slot::next`.
    free: u32,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            instants: BTreeMap::new(),
            slots: Vec::new(),
            free: NIL,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    /// Queue `action` at `at`, after every event pending at `at` whose
    /// tie-break is not greater than `tiebreak`.
    pub(crate) fn push(&mut self, at: SimTime, tiebreak: u64, action: Action) {
        let slot = Slot {
            tiebreak,
            next: NIL,
            action,
        };
        let i = if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "2³² − 1 events pending");
            self.slots.push(slot);
            self.slots.len() as u32 - 1
        } else {
            let i = self.free;
            self.free = mem::replace(&mut self.slots[i as usize], slot).next;
            i
        };
        match self.instants.entry(at) {
            Entry::Vacant(e) => {
                e.insert(List { head: i, tail: i });
            }
            Entry::Occupied(mut e) => link(&mut self.slots, e.get_mut(), i),
        }
    }

    /// Take the first event of the earliest pending instant, with its
    /// tie-break.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Action)> {
        let mut first = self.instants.first_entry()?;
        let at = *first.key();
        let i = first.get().head;
        let slot = &mut self.slots[i as usize];
        if slot.next == NIL {
            first.remove();
        } else {
            first.get_mut().head = slot.next;
        }
        slot.next = self.free;
        self.free = i;
        Some((at, slot.tiebreak, mem::replace(&mut slot.action, VACANT)))
    }
}

/// Link slot `i` into `list` after the last event whose tie-break is not
/// greater than its own: at the tail when it is not below the tail's (every
/// push in FIFO mode), else found by a walk from the head.
fn link(slots: &mut [Slot], list: &mut List, i: u32) {
    let key = slots[i as usize].tiebreak;
    if slots[list.tail as usize].tiebreak <= key {
        slots[list.tail as usize].next = i;
        list.tail = i;
    } else if key < slots[list.head as usize].tiebreak {
        slots[i as usize].next = list.head;
        list.head = i;
    } else {
        // head <= key < tail: the walk stops before the tail at the latest.
        let mut prev = list.head as usize;
        while slots[slots[prev].next as usize].tiebreak <= key {
            prev = slots[prev].next as usize;
        }
        slots[i as usize].next = slots[prev].next;
        slots[prev].next = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_is_at_most_32_bytes() {
        // Tie-break, link and action; the sequence number is not stored.
        assert!(mem::size_of::<Slot>() <= 32, "{} B", mem::size_of::<Slot>());
    }

    fn order(pushes: &[(u64, u64)]) -> Vec<(u64, usize)> {
        let mut q = EventQueue::new();
        for (n, &(at, key)) in pushes.iter().enumerate() {
            q.push(SimTime::from_nanos(at), key, Action::Wake(ProcId(n)));
        }
        let mut out = Vec::new();
        while let Some((at, _, action)) = q.pop() {
            let Action::Wake(ProcId(n)) = action else { unreachable!() };
            out.push((at.as_nanos(), n));
        }
        out
    }

    #[test]
    fn pops_by_instant_then_tiebreak_then_push_order() {
        // Instant 5: keys 9, 3, 9, 1, 5, 3 — head, tail and middle inserts,
        // and two equal keys that keep their push order.
        let pushes = [(5, 9), (2, 0), (5, 3), (5, 9), (5, 1), (9, 0), (5, 5), (5, 3)];
        assert_eq!(
            order(&pushes),
            [(2, 1), (5, 4), (5, 2), (5, 7), (5, 6), (5, 0), (5, 3), (9, 5)]
        );
    }
}
