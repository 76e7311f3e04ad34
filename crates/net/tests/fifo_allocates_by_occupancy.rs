//! An intranode notification FIFO's storage follows its occupancy, not its
//! bound: a created, never-pushed FIFO owns no heap; push and pop at or
//! below the occupancy high-water mark allocate nothing; and a ring filled
//! to its bound has allocated at most ⌈log₂ bound⌉ − 1 times, as the
//! counting allocator (`tests/support/alloc.rs`) counts them.

use std::hint::black_box;
use std::sync::atomic::Ordering;

use mpisim_net::U64Fifo;

#[path = "../../../tests/support/alloc.rs"]
mod alloc;

use alloc::{ALLOCS, COUNTING};

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn a_fifo_allocates_only_when_its_occupancy_sets_a_new_high() {
    COUNTING.with(|c| c.set(true));
    let before = allocs();
    let mut idle = black_box(U64Fifo::new(1024));
    assert_eq!(idle.pop(), None);
    assert_eq!(allocs() - before, 0, "a never-pushed FIFO allocated");

    for bound in [4usize, 5, 1000, 1024] {
        let mut f = black_box(U64Fifo::new(bound));
        let (mut pushed, mut popped) = (0u64, 0u64);
        let start = allocs();
        // Climb to the bound three pushes forward, one pop back, so every
        // growth finds the head away from slot 0.
        loop {
            for _ in 0..3 {
                if !f.is_full() {
                    assert!(f.push(pushed));
                    pushed += 1;
                }
            }
            if f.is_full() {
                break;
            }
            assert_eq!(f.pop(), Some(popped));
            popped += 1;
        }
        let grown = allocs() - start;
        let log2 = u64::from(bound.next_power_of_two().trailing_zeros());
        assert!(
            (1..log2).contains(&grown),
            "bound {bound}: {grown} allocations"
        );
        assert!(
            !f.push(u64::MAX),
            "bound {bound}: a push past the bound was taken"
        );

        // Steady state at the high-water mark, then drained and refilled.
        let steady = allocs();
        for _ in 0..10 * bound {
            assert_eq!(f.pop(), Some(popped));
            popped += 1;
            assert!(f.push(pushed));
            pushed += 1;
        }
        while let Some(v) = f.pop() {
            assert_eq!(v, popped);
            popped += 1;
        }
        for _ in 0..bound {
            assert!(f.push(pushed));
            pushed += 1;
        }
        assert_eq!(
            allocs() - steady,
            0,
            "bound {bound}: allocated below its high-water mark"
        );
    }
    COUNTING.with(|c| c.set(false));
}
