//! The deduplicated work list every sweep step is driven by (DESIGN.md
//! §10.1).
//!
//! A step never scans windows, peers or epochs looking for work: whatever
//! creates work [`mark`](WorkList::mark)s it, and the step drains exactly
//! what was marked. Draining is [`take`](WorkList::take) → process →
//! [`recycle`](WorkList::recycle): entries marked *while* a batch is being
//! processed land on the next batch, never on the one in hand, so
//!
//! * nothing marked is ever lost (no lost wakeups) — the list is non-empty
//!   again and the sweep loop runs another pass;
//! * a handler that keeps re-marking its own entry cannot hold the current
//!   drain open (no starvation) — every other step gets its turn first.
//!
//! The two buffers swap roles on every drain and keep their capacity, so a
//! steady-state mark/drain cycle allocates nothing.

/// A deduplicated, insertion-ordered work list with a spare buffer.
#[derive(Debug)]
pub(crate) struct WorkList<T> {
    /// Entries marked since the last `take`, in marking order.
    marked: Vec<T>,
    /// The previous batch's buffer, empty, waiting to become `marked`.
    spare: Vec<T>,
}

impl<T> Default for WorkList<T> {
    fn default() -> Self {
        WorkList {
            marked: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<T: PartialEq> WorkList<T> {
    /// Enter `item` unless it is already waiting.
    pub fn mark(&mut self, item: T) {
        if !self.marked.contains(&item) {
            self.marked.push(item);
        }
    }

    /// Keep only the waiting entries `keep` accepts.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.marked.retain(keep);
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.marked.is_empty()
    }

    /// Hand out the current batch, in marking order. Until the batch comes
    /// back through [`WorkList::recycle`], marks collect in the spare buffer.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::replace(&mut self.marked, std::mem::take(&mut self.spare))
    }

    /// Return a processed batch: its buffer becomes the next spare.
    pub fn recycle(&mut self, mut batch: Vec<T>) {
        batch.clear();
        self.spare = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_dedups_and_keeps_marking_order() {
        let mut l = WorkList::default();
        assert!(l.is_empty());
        for x in [3, 1, 3, 2, 1] {
            l.mark(x);
        }
        assert!(!l.is_empty());
        assert_eq!(l.take(), [3, 1, 2]);
        assert!(l.is_empty());
    }

    #[test]
    fn a_mark_made_during_a_drain_waits_for_the_next_one() {
        let mut l = WorkList::default();
        l.mark('a');
        l.mark('b');
        let batch = l.take();
        // 'a' is in hand, not waiting: marking it again is new work.
        l.mark('a');
        l.mark('c');
        assert_eq!(batch, ['a', 'b'], "the batch in hand does not grow");
        l.recycle(batch);
        assert_eq!(l.take(), ['a', 'c']);
    }

    #[test]
    fn a_steady_mark_drain_cycle_keeps_its_capacity() {
        let mut l = WorkList::default();
        let cycle = |l: &mut WorkList<u32>| {
            (0..8).for_each(|x| l.mark(x));
            let batch = l.take();
            l.mark(99);
            l.recycle(batch);
        };
        let buffers = |l: &WorkList<u32>| [&l.marked, &l.spare].map(|b| (b.as_ptr(), b.capacity()));
        // A few cycles grow both buffers to the batch size; from then on
        // they only swap roles (back in place after an even count).
        (0..4).for_each(|_| cycle(&mut l));
        let warm = buffers(&l);
        (0..4).for_each(|_| cycle(&mut l));
        assert_eq!(buffers(&l), warm);
    }
}
