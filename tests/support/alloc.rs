//! The counting allocator of the `*_allocates_*` tests: the process's
//! global allocator, forwarding every call to [`System`] and counting the
//! allocations and reallocations of the threads that switch [`COUNTING`]
//! on (a simulation's fibers run on the thread that starts it), so nothing
//! another thread of the test process does lands in [`ALLOCS`]. A test
//! includes this file with `#[path]`, as it includes `pin.rs`, and is a
//! binary of its own because it installs the allocator; `mpisim-net`'s
//! unit-test binary includes it from `vecmap.rs`. It is the one
//! `GlobalAlloc` of the workspace (a structure rule, DESIGN §10.2).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations counted so far.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    pub static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
