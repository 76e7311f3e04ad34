//! A one-permit baton used to hand execution between the scheduler thread
//! and process threads (and pool workers).
//!
//! Exactly one entity (the scheduler or one process) runs at any moment.
//! Handing the baton to a thread is `unpark`; giving it up is `park`. Each
//! entity has its own `Parker`, so a switch costs one `notify_one` plus one
//! condvar wait — O(1) regardless of how many processes exist.
//!
//! Because the receiving side is woken again almost immediately in a tight
//! handoff loop, `park` first spins for a bounded number of iterations
//! polling the permit before committing to the condvar wait. On a
//! multi-core host this skips the futex round-trip that dominates
//! small-rank wall-clock time; on a single-core host spinning only steals
//! cycles from the thread that would grant the permit, so the spin is zero
//! there.

use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

/// Spin bound: a short bounded spin on multi-core machines, none
/// when there is no parallelism to spin against.
fn default_spin() -> u32 {
    static DEFAULT: OnceLock<u32> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores > 1 {
            64
        } else {
            0
        }
    })
}

/// A single-permit synchronization cell.
pub(crate) struct Parker {
    permit: Mutex<bool>,
    cv: Condvar,
    spin: u32,
}

impl Default for Parker {
    fn default() -> Self {
        Parker::new()
    }
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker::with_spin(default_spin())
    }

    /// A parker that spins `spin` iterations before parking on the condvar
    /// (0 disables spinning).
    fn with_spin(spin: u32) -> Self {
        Parker { permit: Mutex::new(false), cv: Condvar::new(), spin }
    }

    /// Grant the permit, waking the owner if it is parked.
    pub(crate) fn unpark(&self) {
        let mut p = self.permit.lock();
        *p = true;
        self.cv.notify_one();
    }

    /// Block until the permit is granted, then consume it.
    pub(crate) fn park(&self) {
        // Bounded spin: poll the permit without waiting on the condvar.
        // Consuming under the lock keeps the permit a strict baton — a
        // spin-consume and a condvar-consume can never race into running
        // two entities at once.
        for _ in 0..self.spin {
            {
                let mut p = self.permit.lock();
                if *p {
                    *p = false;
                    return;
                }
            }
            std::hint::spin_loop();
        }
        let mut p = self.permit.lock();
        while !*p {
            self.cv.wait(&mut p);
        }
        *p = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn permit_granted_before_park_is_consumed() {
        let p = Parker::new();
        p.unpark();
        p.park(); // must not block
    }

    #[test]
    fn cross_thread_handoff() {
        let a = Arc::new(Parker::new());
        let b = a.clone();
        let t = std::thread::spawn(move || {
            b.park();
            42
        });
        a.unpark();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn repeated_handoffs() {
        let ping = Arc::new(Parker::new());
        let pong = Arc::new(Parker::new());
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                ping2.park();
                pong2.unpark();
            }
        });
        for _ in 0..100 {
            ping.unpark();
            pong.park();
        }
        t.join().unwrap();
    }

    #[test]
    fn contended_handoff_with_and_without_spin() {
        // The baton must stay a strict one-permit handoff at every spin
        // setting: 2000 ping-pongs per configuration, each side observing
        // strictly alternating turns. Exercises the spin-consume path
        // (large bound), the pure condvar path (0), and a bound small
        // enough that the spin usually expires mid-handoff (1).
        for spin in [0u32, 1, 4096] {
            let ping = Arc::new(Parker::with_spin(spin));
            let pong = Arc::new(Parker::with_spin(spin));
            let counter = Arc::new(Mutex::new(0u64));
            let (ping2, pong2, c2) = (ping.clone(), pong.clone(), counter.clone());
            let t = std::thread::spawn(move || {
                for i in 0..2000u64 {
                    ping2.park();
                    {
                        let mut c = c2.lock();
                        assert_eq!(*c, 2 * i, "spin={spin}: peer ran out of turn");
                        *c += 1;
                    }
                    pong2.unpark();
                }
            });
            for i in 0..2000u64 {
                ping.unpark();
                pong.park();
                let mut c = counter.lock();
                assert_eq!(*c, 2 * i + 1, "spin={spin}: main ran out of turn");
                *c += 1;
            }
            t.join().unwrap();
        }
    }

    #[test]
    fn spin_zero_never_consumes_spuriously() {
        let p = Parker::with_spin(0);
        p.unpark();
        p.park();
        // Second park must block until a fresh permit arrives.
        let a = Arc::new(Parker::with_spin(0));
        let b = a.clone();
        let t = std::thread::spawn(move || b.park());
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.unpark();
        t.join().unwrap();
    }
}
