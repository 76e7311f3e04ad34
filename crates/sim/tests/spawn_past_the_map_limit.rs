//! A simulation spawned past the host's mapping limit is an error, not a
//! panic. Every fiber stack is two mappings (guard page + stack), so a
//! process meets `vm.max_map_count` at about half that many ranks (32 765
//! at the usual 65 530). The test reads the limit, takes all but a few
//! dozen mappings with untouched pages, and spawns past what is left:
//! `Sim::run` must return `SimError::SpawnFailed` naming the refused
//! process, and no refused or finished stack may stay mapped. A binary of
//! its own because it exhausts a process-wide limit.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::ffi::c_void;

use mpisim_sim::{Sim, SimError};

unsafe extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
}

const PAGE: usize = 4096;
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const MAP_PRIVATE_ANONYMOUS_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
const ENOMEM: i32 = 12;

fn maps_in_use() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps")
        .lines()
        .count()
}

/// `n` mappings made of `n` untouched pages that alternate read-only and
/// no-access: neighbours with equal protection would merge into one.
struct Filler {
    base: *mut c_void,
    len: usize,
}

impl Filler {
    fn new(n: usize) -> Filler {
        let len = n * PAGE;
        // SAFETY: a fresh private anonymous mapping, only ever re-protected
        // page by page inside its own bounds, unmapped once on drop.
        unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE_ANONYMOUS_NORESERVE,
                -1,
                0,
            );
            assert_ne!(base as usize, usize::MAX, "filler mmap");
            for page in (1..n).step_by(2) {
                let at = base.cast::<u8>().add(page * PAGE).cast();
                assert_eq!(mprotect(at, PAGE, PROT_NONE), 0, "filler mprotect");
            }
            Filler { base, len }
        }
    }
}

impl Drop for Filler {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `new`, unmapped exactly once.
        unsafe {
            munmap(self.base, self.len);
        }
    }
}

#[test]
fn spawning_past_max_map_count_is_an_error_not_a_panic() {
    let limit: usize = std::fs::read_to_string("/proc/sys/vm/max_map_count")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    if !(1024..=1 << 20).contains(&limit) {
        eprintln!("skipped: vm.max_map_count = {limit}");
        return;
    }
    const SPARE: usize = 64;
    let filler = Filler::new(limit - maps_in_use() - SPARE);
    let before = maps_in_use();
    // SPARE / 2 stacks fit in what is left; spawn twice as many.
    let n = SPARE;
    let mut sim = Sim::new(0);
    for i in 0..n {
        sim.spawn(format!("p{i}"), |_| {});
    }
    let err = sim.run().expect_err("spawned past the mapping limit");
    let msg = err.to_string();
    let SimError::SpawnFailed {
        process,
        processes,
        error,
    } = err
    else {
        panic!("expected SpawnFailed past {limit} mappings, got {msg}");
    };
    assert!(
        (2..n).contains(&processes),
        "refused at process {processes} of {n}"
    );
    assert_eq!(process, format!("p{}", processes - 1));
    assert_eq!(error.raw_os_error(), Some(ENOMEM), "{error}");
    assert!(
        msg.contains(&process) && msg.contains(&processes.to_string()),
        "{msg}"
    );
    assert!(
        maps_in_use() <= before,
        "a fiber stack outlived its simulation"
    );
    drop(filler);

    // The limit was the only obstacle: the same simulation runs now.
    let mut sim = Sim::new(0);
    for i in 0..n {
        sim.spawn(format!("p{i}"), |_| {});
    }
    assert!(sim.run().is_ok());
}
