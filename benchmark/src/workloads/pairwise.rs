//! `pairwise_2048` — one 2048-rank job in which every rank talks to its ring
//! neighbours only.
//!
//! Why: job launch, fiber spawn, `WinRank::new`'s `n_ranks`-long vectors and
//! first-touch page faults dominate while per-rank RMA work is constant, so
//! sparse-ω and kernel-scaling work shows here and nowhere else — in wall
//! time and in peak RSS.

use mpisim_sim::SimTime;

use super::kernels::{self, Common};
use super::{RepOut, Setup, Workload};

pub struct Pairwise {
    common: Common,
}

impl Pairwise {
    pub fn new(s: Setup) -> Self {
        Pairwise {
            common: Common {
                n_ranks: 2048,
                job_seed: s.draw(1, u64::MAX),
                think: SimTime::from_nanos(120 + s.draw(2, 16)),
                salt: s.draw(3, u64::MAX),
                break_check: s.break_check,
                reliable_internode: false,
            },
        }
    }
}

impl Workload for Pairwise {
    fn rep(&mut self) -> RepOut {
        let mut out = RepOut::default();
        kernels::pairwise(&mut out, self.common, 2);
        out
    }
}
