//! `epoch_mix_8` — 8 ranks on one node, four kernels, each run once in the
//! baseline+blocking series and once in the redesigned+nonblocking series.
//!
//! Why: the steady-state `core` sweep, the API shell and `sim` context
//! switches do nearly all the work, while ω state, job launch and the
//! internode `net` path do almost none. Running both series, and reads beside
//! writes, makes a gain for the redesigned path that costs the baseline path
//! show up here.

use mpisim_sim::SimTime;

use super::kernels::{self, Common, Series};
use super::{RepOut, Setup, Workload};

pub struct EpochMix {
    common: Common,
    halo_iters: usize,
    gats_epochs: usize,
    lock_rounds: usize,
    storm_rounds: usize,
}

impl EpochMix {
    pub fn new(s: Setup) -> Self {
        EpochMix {
            common: Common {
                n_ranks: 8,
                job_seed: s.draw(1, u64::MAX),
                think: SimTime::from_nanos(2_000 + s.draw(2, 16)),
                salt: s.draw(3, u64::MAX),
                break_check: s.break_check,
                reliable_internode: false,
            },
            halo_iters: s.scale(256, 16),
            gats_epochs: s.scale(256, 16),
            lock_rounds: s.scale(256, 16),
            storm_rounds: s.scale(24, 4),
        }
    }
}

impl Workload for EpochMix {
    fn rep(&mut self) -> RepOut {
        let mut out = RepOut::default();
        let c = self.common;
        let pair = |out: &mut RepOut, run: &dyn Fn(&mut RepOut, Series) -> u64| {
            let base = run(out, Series::BaselineBlocking);
            let nb = run(out, Series::RedesignedNonblocking);
            out.nb_pairs.push((base, nb));
        };
        pair(&mut out, &|o, s| {
            kernels::halo_fence(o, c, s, self.halo_iters)
        });
        pair(&mut out, &|o, s| {
            kernels::gats_ring(o, c, s, self.gats_epochs)
        });
        pair(&mut out, &|o, s| {
            kernels::lock_ring(o, c, s, self.lock_rounds)
        });
        pair(&mut out, &|o, s| {
            kernels::lock_all_storm(o, c, s, self.storm_rounds, 8, true)
        });
        out
    }
}
