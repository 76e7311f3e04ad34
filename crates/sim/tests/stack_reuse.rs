//! Fiber stacks outlive their simulation on the thread that ran it, and
//! the next simulation there spawns its processes on them (DESIGN §15.1,
//! "Fibers"). The tests hold the free list to its rules through where each
//! process's frames live — the `/proc/self/maps` line that holds an address
//! on its stack: a rerun maps nothing, a smaller simulation gives the
//! surplus back, a deadlocked or panicking simulation leaves stacks the next
//! one runs on, a free stack keeps its guard page (and overflowing it is a
//! SIGSEGV), and a thread's exit unmaps its list. Which stacks the next
//! simulation gets rather than how many lines the file has: a test thread
//! libtest starts meanwhile adds lines of its own. A binary of its own
//! because the mappings are process-wide: its tests take turns, each on a
//! thread that has exited, its list unmapped, before the next one looks.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::os::unix::process::ExitStatusExt;
use std::panic::{self, AssertUnwindSafe};
use std::process::Command;
use std::rc::Rc;
use std::sync::Mutex;

use mpisim_sim::{ProcCtx, Sim, SimError, SimTime};

const PAGE: usize = 4096;

/// Run `f` on a fresh thread while no other test of this binary runs: the
/// thread starts with an empty free list and, joined, has unmapped it.
fn alone(f: impl FnOnce() + Send + 'static) {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the `()` it guards cannot be broken.
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Err(payload) = std::thread::spawn(f).join() {
        panic::resume_unwind(payload);
    }
}

/// One line of `/proc/self/maps`: `[start, end)` and the permissions.
struct Mapping {
    start: usize,
    end: usize,
    perms: String,
}

fn mappings() -> Vec<Mapping> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    maps.lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let range = fields.next().expect("address range");
            let (start, end) = range.split_once('-').expect("start-end");
            Mapping {
                start: usize::from_str_radix(start, 16).expect("hex start"),
                end: usize::from_str_radix(end, 16).expect("hex end"),
                perms: fields.next().expect("permissions").to_string(),
            }
        })
        .collect()
}

/// Index of the mapping that holds `addr`, if any.
fn holding(maps: &[Mapping], addr: usize) -> Option<usize> {
    maps.iter().position(|m| (m.start..m.end).contains(&addr))
}

/// The start of the mapping each address lies in: one per stack.
fn stacks_of(addrs: &[usize]) -> BTreeSet<usize> {
    let maps = mappings();
    addrs
        .iter()
        .map(|&a| maps[holding(&maps, a).expect("a recorded stack is unmapped")].start)
        .collect()
}

/// Which of `starts` still begin a usable stack range: a mapping given back
/// to the OS may be reused, but not as a read-write range at the same start.
fn still_mapped(starts: &BTreeSet<usize>) -> BTreeSet<usize> {
    let maps = mappings();
    let live = maps.iter().filter(|m| m.perms == "rw-p").map(|m| m.start);
    live.filter(|start| starts.contains(start)).collect()
}

/// An address on the calling frame's stack.
fn here() -> usize {
    let marker = 0u8;
    std::hint::black_box(&marker) as *const u8 as usize
}

/// A simulation of `n` processes. Process `i` notes an address on its own
/// stack in `seen[i]`, then runs `body(ctx, i)`.
fn sim_of(n: usize, body: fn(&ProcCtx, usize)) -> (Sim, Rc<RefCell<Vec<usize>>>) {
    let seen = Rc::new(RefCell::new(vec![0; n]));
    let mut sim = Sim::new(0);
    for i in 0..n {
        let seen = seen.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            seen.borrow_mut()[i] = here();
            body(ctx, i);
        });
    }
    (sim, seen)
}

fn advance(ctx: &ProcCtx, i: usize) {
    ctx.advance(SimTime::from_nanos(i as u64 % 7 + 1));
}

/// Run `n` processes that each advance and finish; returns where each ran.
fn run(n: usize) -> Vec<usize> {
    let (sim, seen) = sim_of(n, advance);
    sim.run().expect("a clean simulation");
    seen.take()
}

#[test]
fn a_rerun_maps_no_new_stack() {
    alone(|| {
        let first = stacks_of(&run(64));
        assert_eq!(first.len(), 64, "two processes shared a stack");
        assert_eq!(stacks_of(&run(64)), first, "the rerun mapped a stack");
    });
}

#[test]
fn a_smaller_simulation_gives_the_surplus_back() {
    alone(|| {
        let big = stacks_of(&run(64));
        let small = stacks_of(&run(8));
        assert!(small.is_subset(&big), "8 processes after 64 mapped a stack");
        // The other 56 stacks, 112 mappings, went back to the OS.
        assert_eq!(
            still_mapped(&big),
            small,
            "the free list kept more than 8 stacks"
        );
        assert_eq!(stacks_of(&run(8)), small);
    });
}

#[test]
fn a_deadlocked_4096_process_simulation_leaves_stacks_the_next_one_finishes_on() {
    alone(|| {
        const N: usize = 4096;
        // Every process sleeps, the odd ones then park for good: the
        // deadlock is found mid-run and unwinds 2048 parked fibers.
        let (sim, seen) = sim_of(N, |ctx, i| {
            advance(ctx, i);
            if i % 2 == 1 {
                ctx.park();
            }
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => assert_eq!(blocked.len(), N / 2),
            other => panic!("expected a deadlock, got {other:?}"),
        }
        let deadlocked = stacks_of(&seen.take());
        assert_eq!(deadlocked.len(), N, "two processes shared a stack");
        assert_eq!(
            stacks_of(&run(N)),
            deadlocked,
            "the run after the deadlock mapped a stack"
        );
    });
}

#[test]
fn a_panicking_process_leaves_stacks_the_next_simulation_runs_on() {
    alone(|| {
        let (sim, seen) = sim_of(8, |ctx, i| {
            advance(ctx, i);
            assert_ne!(i, 3, "process 3 panics on purpose");
        });
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(
            outcome.is_err(),
            "the process panic did not reach the driver"
        );
        let panicked = stacks_of(&seen.take());
        assert_eq!(
            stacks_of(&run(8)),
            panicked,
            "the run after the panic mapped a stack"
        );
    });
}

#[test]
fn a_free_stack_keeps_its_guard_page() {
    alone(|| {
        let seen = run(16);
        let maps = mappings();
        for addr in seen {
            let i = holding(&maps, addr).expect("a free stack was unmapped");
            let (guard, usable) = (&maps[i - 1], &maps[i]);
            assert_eq!(usable.perms, "rw-p", "usable range at {:#x}", usable.start);
            assert_eq!(
                guard.end, usable.start,
                "no mapping right below {:#x}",
                usable.start
            );
            assert_eq!(
                (guard.perms.as_str(), guard.end - guard.start),
                ("---p", PAGE),
                "guard below the stack at {:#x}",
                usable.start
            );
        }
    });
}

#[test]
fn a_threads_exit_unmaps_its_free_list() {
    alone(|| {
        let stacks = std::thread::spawn(|| stacks_of(&run(32)))
            .join()
            .expect("the simulation's thread");
        assert_eq!(stacks.len(), 32);
        assert!(
            still_mapped(&stacks).is_empty(),
            "a stack outlived its thread"
        );
    });
}

/// Set in the child that [`overflowing_a_recycled_stack_hits_its_guard_page`]
/// re-executes this binary as.
const OVERFLOW_CHILD: &str = "MPISIM_STACK_REUSE_OVERFLOW_CHILD";

#[test]
fn overflowing_a_recycled_stack_hits_its_guard_page() {
    if std::env::var_os(OVERFLOW_CHILD).is_some() {
        overflow_a_recycled_stack();
    }
    alone(|| {
        let exe = std::env::current_exe().expect("this test binary");
        let out = Command::new(exe)
            .args([
                "--exact",
                "overflowing_a_recycled_stack_hits_its_guard_page",
            ])
            .args(["--nocapture", "--test-threads=1"])
            .env(OVERFLOW_CHILD, "1")
            .output()
            .expect("re-execute this test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("recursing on a recycled stack"), "{stderr}");
        assert_eq!(out.status.signal(), Some(11), "{:?}: {stderr}", out.status);
    });
}

/// The child: one simulation, then a second whose process finds itself on
/// the first one's stack and recurses until it runs into the guard page.
fn overflow_a_recycled_stack() -> ! {
    no_core_dump();
    let first = stacks_of(&run(1));
    let mut sim = Sim::new(0);
    sim.spawn("deep", move |_| {
        if stacks_of(&[here()]) != first {
            eprintln!("the second simulation mapped a new stack");
            std::process::exit(3);
        }
        eprintln!("recursing on a recycled stack");
        std::hint::black_box(recurse(0));
    });
    let _ = sim.run();
    eprintln!("the recursion returned");
    std::process::exit(4);
}

/// Recurse without bound: each frame holds a buffer the optimiser cannot
/// drop, and the sum keeps the call out of tail position.
fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth; 32]);
    if depth == std::hint::black_box(u64::MAX) {
        return 0;
    }
    recurse(depth + 1) + frame[(depth % 32) as usize]
}

/// Keep the child's SIGSEGV from writing a core file into the crate.
fn no_core_dump() {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    unsafe extern "C" {
        fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
    }
    const RLIMIT_CORE: i32 = 4;
    // SAFETY: `setrlimit` reads one `struct rlimit` (two u64 on x86_64
    // Linux) through a pointer to a live local.
    unsafe {
        setrlimit(RLIMIT_CORE, &Rlimit { cur: 0, max: 0 });
    }
}
