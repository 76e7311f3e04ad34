//! The instrument's own view of the host: a counting allocator, the process's
//! peak resident set, and the calibration loop that tells a machine speed
//! phase from a code change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Counts allocations while switched on (traced repetitions only); otherwise
/// it costs one relaxed load per call. The counters are statistics, not
/// synchronisation, hence `Relaxed` throughout.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters beside the call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note_alloc(layout.size() as u64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note_alloc(layout.size() as u64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            // Memory allocated before counting began may be freed now;
            // saturate rather than wrap.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(layout.size() as u64))
            });
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(layout.size() as u64))
            });
            note_alloc(new_size as u64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

/// What the allocator saw between [`alloc_counting_begin`] and
/// [`alloc_counting_end`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocStats {
    pub count: u64,
    pub bytes: u64,
    /// Peak of bytes allocated-and-not-yet-freed since counting began.
    pub peak_live: u64,
}

pub fn alloc_counting_begin() {
    for c in [&ALLOCS, &BYTES, &LIVE, &PEAK_LIVE] {
        c.store(0, Ordering::Relaxed);
    }
    COUNTING.store(true, Ordering::Relaxed);
}

pub fn alloc_counting_end() -> AllocStats {
    COUNTING.store(false, Ordering::Relaxed);
    AllocStats {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live: PEAK_LIVE.load(Ordering::Relaxed),
    }
}

/// Wall-clock now in µs since the Unix epoch: the common time line the trace
/// events of separate worker processes are placed on.
pub fn unix_us() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`) in KiB. The benchmark runs on
/// Linux only; a missing field is a broken environment, not a zero.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm(&status).expect("VmHWM in /proc/self/status")
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One calibration unit: a toy discrete-event loop — binary heap of timed
/// events, boxed closures, a hash map of per-actor state — that shares no
/// code with the repo but has the simulator's instruction mix (pointer
/// chasing, small allocations, unpredictable branches). It does a fixed
/// amount of work, so its wall time measures the machine, and a repetition's
/// wall time divided by the calibration beside it is comparable across the
/// host's speed phases. Only the orchestrator runs it, while every worker is
/// parked: its heap, caches and resident set stay the same whatever the
/// workload allocates, so the divisor cannot move with the code under test.
/// Returns the wall time in seconds.
pub fn calibrate() -> f64 {
    const EVENTS: u64 = 150_000;
    const ACTORS: u64 = 64;
    type Action = Box<dyn FnOnce(&mut HashMap<u64, u64>) -> u64>;
    struct Ev {
        at: u64,
        seq: u64,
        run: Action,
    }
    impl PartialEq for Ev {
        fn eq(&self, o: &Self) -> bool {
            (self.at, self.seq) == (o.at, o.seq)
        }
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Min-heap on (time, sequence).
            (o.at, o.seq).cmp(&(self.at, self.seq))
        }
    }

    let t0 = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut state: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut seq = 0u64;
    let next = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    for _ in 0..ACTORS {
        let actor = next(&mut x) % ACTORS;
        heap.push(Ev {
            at: next(&mut x) % 1000,
            seq,
            run: Box::new(move |s| *s.entry(actor).or_insert(0)),
        });
        seq += 1;
    }
    let mut done = 0u64;
    let mut acc = 0u64;
    while let Some(ev) = heap.pop() {
        acc = acc.wrapping_add((ev.run)(&mut state));
        done += 1;
        if seq < EVENTS {
            let actor = next(&mut x) % ACTORS;
            let delta = next(&mut x) % 1000;
            heap.push(Ev {
                at: ev.at + delta,
                seq,
                run: Box::new(move |s| {
                    let v = s.entry(actor).or_insert(0);
                    *v = v.wrapping_add(delta);
                    *v
                }),
            });
            seq += 1;
        }
    }
    assert_eq!(done, EVENTS);
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The calibration loop's wall time on the host the reference numbers in the
/// README were taken on, in its fast phase. Host timings are reported as
/// `measured × CALIB_REF_S ÷ calibration beside the measurement`: seconds at
/// the reference speed.
pub const CALIB_REF_S: f64 = 0.0080;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses() {
        assert_eq!(
            parse_vm_hwm("Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t1 kB\n"),
            Some(123456)
        );
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(peak_rss_kb() > 0);
    }

    #[test]
    fn calibration_does_fixed_work_and_takes_time() {
        let a = calibrate();
        assert!(a > 0.0 && a < 5.0, "{a}");
    }
}
