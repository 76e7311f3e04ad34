//! `collective_128` — 128 ranks on eight nodes: a fence halo of two
//! iterations, then one `ilock_all` / 8 accumulates / `iunlock_all` round.
//!
//! Why: collective epochs make every rank hear from every rank, which is the
//! ~n^2.7 host-cost wall (5 µs/op at 8 ranks, ~590 µs/op at 128). Pairwise
//! and memory optimisations should not move this workload.

use mpisim_sim::SimTime;

use super::kernels::{self, Common, Series};
use super::{RepOut, Setup, Workload};

pub struct Collective {
    common: Common,
}

impl Collective {
    pub fn new(s: Setup) -> Self {
        Collective {
            common: Common {
                n_ranks: 128,
                job_seed: s.draw(1, u64::MAX),
                think: SimTime::from_nanos(200 + s.draw(2, 16)),
                salt: s.draw(3, u64::MAX),
                break_check: s.break_check,
                reliable_internode: false,
            },
        }
    }
}

impl Workload for Collective {
    fn rep(&mut self) -> RepOut {
        let mut out = RepOut::default();
        kernels::halo_fence(&mut out, self.common, Series::RedesignedNonblocking, 2);
        kernels::lock_all_storm(
            &mut out,
            self.common,
            Series::RedesignedNonblocking,
            1,
            8,
            false,
        );
        out
    }
}
