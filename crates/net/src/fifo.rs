//! The intranode notification channel of the paper's design (§VII.D):
//! "There is one two-way shared-memory wait-free FIFO between any two RMA
//! windows. That notification channel deals only with 64-bit packets that
//! are used to encode and send intranode lock/unlock requests as well as
//! epoch completion packets."
//!
//! [`U64Fifo`] is that bounded single-producer/single-consumer ring of
//! 64-bit packets. In the cooperative simulation the producer and consumer
//! never run concurrently, so plain indices suffice; the capacity
//! semantics and overflow behaviour match the shared-memory ring the paper
//! describes. The bound is protocol, the storage is not: the ring starts
//! unallocated and doubles (4, 8, … slots, up to the power of two at or
//! above the bound) only when a push finds it full below the bound, so a
//! channel costs memory for the packets it has held at once, not for the
//! packets it could hold.

/// A bounded FIFO of 64-bit packets.
#[derive(Debug)]
pub struct U64Fifo {
    /// The ring: empty, or a power of two slots, so `& (len − 1)` wraps.
    buf: Box<[u64]>,
    capacity: usize,
    head: usize,
    len: usize,
}

impl U64Fifo {
    /// Create a FIFO holding up to `capacity` packets. Allocates nothing:
    /// the ring is sized by the first push.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        U64Fifo {
            buf: Box::default(),
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// Number of packets currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the FIFO is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the FIFO is full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Capacity in packets.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue a packet. Returns `false` (leaving the FIFO unchanged) if
    /// full — the producer must retry later, exactly like a full
    /// shared-memory ring. Allocates only when the occupancy sets a new
    /// high (at most ⌈log₂ capacity⌉ − 1 times over the FIFO's life), never
    /// in steady state: this sits on the progress engine's per-packet hot
    /// path.
    #[inline]
    pub fn push(&mut self, packet: u64) -> bool {
        if self.is_full() {
            return false;
        }
        if self.len == self.buf.len() {
            self.buf = doubled(&self.buf, self.head);
            self.head = 0;
        }
        let mask = self.buf.len() - 1;
        self.buf[(self.head + self.len) & mask] = packet;
        self.len += 1;
        true
    }

    /// Dequeue the oldest packet, if any. Never allocates (hot path of
    /// sweep step 5).
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(v)
    }
}

/// The full ring `buf` (oldest packet at `head`) in twice the slots, at
/// least 4, unwrapped so the oldest packet lands in slot 0. A free function
/// rather than a `&mut self` method: an out-of-line call that borrows the
/// whole FIFO would make the caller keep its fields in memory across the
/// hot path of every push.
#[cold]
fn doubled(buf: &[u64], head: usize) -> Box<[u64]> {
    let slots = (2 * buf.len()).max(4);
    let mut grown = Vec::with_capacity(slots);
    grown.extend_from_slice(&buf[head..]);
    grown.extend_from_slice(&buf[..head]);
    grown.resize(slots, 0);
    grown.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = U64Fifo::new(4);
        assert!(f.push(1) && f.push(2) && f.push(3));
        assert_eq!(f.pop(), Some(1));
        assert!(f.push(4) && f.push(5));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), Some(5));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn full_push_rejected_without_loss() {
        let mut f = U64Fifo::new(2);
        assert!(f.push(10));
        assert!(f.push(11));
        assert!(f.is_full());
        assert!(!f.push(12));
        assert_eq!(f.pop(), Some(10));
        assert!(f.push(12));
        assert_eq!(f.pop(), Some(11));
        assert_eq!(f.pop(), Some(12));
    }

    #[test]
    fn wraparound_many_times() {
        let mut f = U64Fifo::new(3);
        for round in 0..100u64 {
            assert!(f.push(round * 2));
            assert!(f.push(round * 2 + 1));
            assert_eq!(f.pop(), Some(round * 2));
            assert_eq!(f.pop(), Some(round * 2 + 1));
        }
        assert!(f.is_empty());
    }

    #[test]
    fn growth_across_a_wrapped_head_keeps_packet_order() {
        let mut f = U64Fifo::new(16);
        // Fill the first 4-slot ring, then move the head to slot 3 so the
        // ring is wrapped (packets in slots 3, 0, 1, 2) when it fills.
        (0..4).for_each(|v| assert!(f.push(v)));
        (0..3).for_each(|v| assert_eq!(f.pop(), Some(v)));
        (4..7).for_each(|v| assert!(f.push(v)));
        assert_eq!((f.head, f.buf.len()), (3, 4));
        (7..16).for_each(|v| assert!(f.push(v)));
        assert_eq!(f.buf.len(), 16);
        (3..16).for_each(|v| assert_eq!(f.pop(), Some(v)));
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = U64Fifo::new(0);
    }

    /// The FIFO behaves exactly like a bounded VecDeque oracle for any
    /// interleaving of pushes and pops, at bounds that are and are not
    /// powers of two; runs of pushes grow the ring while it is wrapped.
    /// 64 seeded cases: a bound from 1..=16, 1000, 1024 or 17..=1100, and
    /// up to 39 runs of 1..300 pops or pushes.
    #[test]
    fn matches_vecdeque_oracle() {
        use rand::Rng;
        for case in 0..64 {
            let mut rng = mpisim_sim::seeded_rng(case, 0);
            let cap = match rng.gen_range(0..4) {
                0 => rng.gen_range(1usize..=16),
                1 => 1000,
                2 => 1024,
                _ => rng.gen_range(17usize..=1100),
            };
            let n_ops = rng.gen_range(0..40);
            let mut fifo = U64Fifo::new(cap);
            let mut oracle = std::collections::VecDeque::new();
            for _ in 0..n_ops {
                let (kind, run, v): (u8, u64, u64) =
                    (rng.gen_range(0..3), rng.gen_range(1..300), rng.gen());
                for i in 0..run {
                    if kind > 0 {
                        let ok = fifo.push(v ^ i);
                        assert_eq!(ok, oracle.len() < cap, "case {case}");
                        if ok {
                            oracle.push_back(v ^ i);
                        }
                    } else {
                        assert_eq!(fifo.pop(), oracle.pop_front(), "case {case}");
                    }
                    assert_eq!(fifo.len(), oracle.len(), "case {case}");
                    assert_eq!(fifo.is_full(), oracle.len() == cap, "case {case}");
                }
            }
        }
    }
}
