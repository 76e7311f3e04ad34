//! The RMA kernels behind `epoch_mix_8`, `collective_128` and
//! `pairwise_2048`. Each runs one job, and every rank compares its final
//! window contents with a closed form before freeing the window.
//!
//! A kernel is driven in one of the paper's two end-point series:
//! `LazyBaseline` + blocking calls ("MVAPICH"), or `Redesigned` + the
//! `i`-routines ("New nonblocking"). Both move the same data, so both have
//! the same closed form.

use mpisim_core::{
    Datatype, Group, JobConfig, LockKind, Rank, RankEnv, ReduceOp, SyncStrategy, WinInfo,
};
use mpisim_sim::SimTime;

use super::{job, run_job, BadRanks, RepOut};

/// One of the two series a kernel is driven in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    BaselineBlocking,
    RedesignedNonblocking,
}

impl Series {
    fn strategy(self) -> SyncStrategy {
        match self {
            Series::BaselineBlocking => SyncStrategy::LazyBaseline,
            Series::RedesignedNonblocking => SyncStrategy::Redesigned,
        }
    }

    fn nonblocking(self) -> bool {
        self == Series::RedesignedNonblocking
    }

    fn label(self) -> &'static str {
        match self {
            Series::BaselineBlocking => "baseline+blocking",
            Series::RedesignedNonblocking => "redesigned+nonblocking",
        }
    }
}

/// What every kernel needs besides its own iteration counts. Every kernel
/// starts with one `think` of computation on every rank, so that the seed
/// reaches the job's virtual time even where the later computation is
/// overlapped.
#[derive(Clone, Copy, Debug)]
pub struct Common {
    pub n_ranks: usize,
    pub job_seed: u64,
    /// Modelled computation per iteration, the work a nonblocking close can
    /// overlap. Drawn from the seed.
    pub think: SimTime,
    /// Mixed into every value written, so window contents depend on the seed.
    pub salt: u64,
    /// Test-only: rank 0 expects a value one too large.
    pub break_check: bool,
    /// Put every rank on its own node with the ack/retransmit sublayer armed,
    /// so every message is framed, sequenced and acknowledged. The fabric
    /// itself stays lossless: with a fault plan the same seed no longer gives
    /// the same run (README, findings), and a workload's counts must repeat.
    pub reliable_internode: bool,
}

impl Common {
    fn cfg(&self, series: Series) -> JobConfig {
        let mut cfg = job(self.n_ranks, self.job_seed, series.strategy());
        if self.reliable_internode {
            cfg = cfg.with_reliability();
            cfg.cores_per_node = 1;
        }
        cfg
    }

    fn off(&self, me: usize) -> u64 {
        u64::from(self.break_check && me == 0)
    }
}

/// The value rank `origin` writes in iteration `i`.
fn tag(origin: usize, i: usize, salt: u64) -> u64 {
    salt ^ ((origin as u64) << 32) ^ i as u64
}

fn le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

fn word(bytes: &[u8], slot: usize) -> u64 {
    u64::from_le_bytes(
        bytes[slot * 8..slot * 8 + 8]
            .try_into()
            .expect("8-byte slot"),
    )
}

/// Run a kernel body, account for the job, add the per-rank window checks and
/// return the job's virtual time (0 if it did not finish).
fn account<F>(
    out: &mut RepOut,
    what: &str,
    c: &Common,
    series: Series,
    body: impl FnOnce(BadRanks) -> F,
) -> u64
where
    F: Fn(&mut RankEnv) + Send + Sync + 'static,
{
    let bad = BadRanks::default();
    let what = format!("{what} {}", series.label());
    match run_job(c.cfg(series), body(bad.clone())) {
        Ok(r) => {
            out.job(&what, &r);
            out.windows(&what, c.n_ranks, bad.get());
            r.final_time.as_nanos()
        }
        Err(e) => {
            out.job_error(&what, &e);
            0
        }
    }
}

/// Fence-synchronised 1-D halo exchange on a ring: every iteration each rank
/// puts one cell to both neighbours and closes the epoch with a fence
/// (nonblocking: `ifence`, compute, wait). Final window = the neighbours'
/// last-iteration values.
pub fn halo_fence(out: &mut RepOut, c: Common, series: Series, iters: usize) -> u64 {
    account(out, "halo_fence", &c, series, |bad| {
        move |env: &mut RankEnv| {
            let win = env.win_allocate(16).unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (left, right) = ((me + n - 1) % n, (me + 1) % n);
            env.compute(c.think);
            env.fence(win).unwrap();
            for i in 0..iters {
                let v = le(tag(me, i, c.salt));
                env.put(win, Rank(left), 8, &v).unwrap();
                env.put(win, Rank(right), 0, &v).unwrap();
                if series.nonblocking() {
                    let closed = env.ifence(win).unwrap();
                    env.compute(c.think);
                    env.wait(closed).unwrap();
                } else {
                    env.fence(win).unwrap();
                    env.compute(c.think);
                }
            }
            let got = env.read_local(win, 0, 16).unwrap();
            let last = iters - 1;
            bad.note(
                word(&got, 0) == tag(left, last, c.salt) + c.off(me)
                    && word(&got, 1) == tag(right, last, c.salt),
            );
            env.win_free(win).unwrap();
        }
    })
}

/// General active-target (post/start/complete/wait) ring: every epoch each
/// rank exposes its window to its left neighbour and puts one word to its
/// right neighbour. The nonblocking series never waits inside the loop, so
/// the engine carries a deep deferred-epoch queue. The reorder flags let a
/// rank's access and exposure epochs on the one window progress together;
/// without them the ring deadlocks on the exposure-before-access rule.
pub fn gats_ring(out: &mut RepOut, c: Common, series: Series, epochs: usize) -> u64 {
    account(out, "gats_ring", &c, series, |bad| {
        move |env: &mut RankEnv| {
            let win = env.win_allocate_with(8, WinInfo::all_reorder()).unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (prev, next) = ((me + n - 1) % n, (me + 1) % n);
            let mut pending = Vec::new();
            for e in 0..epochs {
                let v = le(tag(me, e, c.salt));
                if series.nonblocking() {
                    pending.push(env.ipost(win, Group::single(Rank(prev))).unwrap());
                    pending.push(env.istart(win, Group::single(Rank(next))).unwrap());
                    env.put(win, Rank(next), 0, &v).unwrap();
                    pending.push(env.icomplete(win).unwrap());
                    pending.push(env.iwait(win).unwrap());
                } else {
                    env.post(win, Group::single(Rank(prev))).unwrap();
                    env.start(win, Group::single(Rank(next))).unwrap();
                    env.put(win, Rank(next), 0, &v).unwrap();
                    env.complete(win).unwrap();
                    env.wait_epoch(win).unwrap();
                }
                env.compute(c.think);
            }
            env.wait_all(pending).unwrap();
            env.barrier().unwrap();
            let got = env.read_local(win, 0, 8).unwrap();
            bad.note(word(&got, 0) == tag(prev, epochs - 1, c.salt) + c.off(me));
            env.win_free(win).unwrap();
        }
    })
}

/// Exclusive-lock ring: every round each rank locks its right neighbour's
/// window, puts one word into slot `round % 8`, and unlocks. Final slot `k` =
/// the left neighbour's value from the last round congruent to `k`.
pub fn lock_ring(out: &mut RepOut, c: Common, series: Series, rounds: usize) -> u64 {
    account(out, "lock_ring", &c, series, |bad| {
        move |env: &mut RankEnv| {
            let win = env.win_allocate(64).unwrap();
            env.barrier().unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (left, right) = ((me + n - 1) % n, Rank((me + 1) % n));
            let mut pending = Vec::new();
            for r in 0..rounds {
                let v = le(tag(me, r, c.salt));
                if series.nonblocking() {
                    pending.push(env.ilock(win, right, LockKind::Exclusive).unwrap());
                    env.put(win, right, 8 * (r % 8), &v).unwrap();
                    pending.push(env.iunlock(win, right).unwrap());
                } else {
                    env.lock(win, right, LockKind::Exclusive).unwrap();
                    env.put(win, right, 8 * (r % 8), &v).unwrap();
                    env.unlock(win, right).unwrap();
                }
                env.compute(c.think);
            }
            env.wait_all(pending).unwrap();
            env.barrier().unwrap();
            let got = env.read_local(win, 0, 64).unwrap();
            bad.note(lock_ring_expected(left, rounds, c.salt, c.off(me)) == slots(&got));
            env.win_free(win).unwrap();
        }
    })
}

fn lock_ring_expected(left: usize, rounds: usize, salt: u64, off: u64) -> Vec<u64> {
    let mut want = vec![0u64; 8];
    for r in 0..rounds {
        want[r % 8] = tag(left, r, salt);
    }
    want[0] += off;
    want
}

fn slots(bytes: &[u8]) -> Vec<u64> {
    (0..bytes.len() / 8).map(|k| word(bytes, k)).collect()
}

const STORM_SLOTS: usize = 32;
/// Byte offset of the `fetch_and_op` counter, past the accumulate slots.
const STORM_COUNTER: usize = STORM_SLOTS * 8;

/// `lock_all` storm: every round each rank opens a shared-all epoch and
/// Sum-accumulates 1 into `accs` slots spread over the following ranks. With
/// `reads`, each round also gets one of those slots back, bumps a counter at
/// its right neighbour with `fetch_and_op`, and flushes that neighbour —
/// reads beside writes inside one passive-target epoch.
pub fn lock_all_storm(
    out: &mut RepOut,
    c: Common,
    series: Series,
    rounds: usize,
    accs: usize,
    reads: bool,
) -> u64 {
    account(out, "lock_all_storm", &c, series, |bad| {
        move |env: &mut RankEnv| {
            let win = env.win_allocate(STORM_COUNTER + 8).unwrap();
            env.compute(c.think);
            env.barrier().unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let right = Rank((me + 1) % n);
            let one = le(1);
            let mut pending = Vec::new();
            for r in 0..rounds {
                if series.nonblocking() {
                    pending.push(env.ilock_all(win).unwrap());
                } else {
                    env.lock_all(win).unwrap();
                }
                for a in 0..accs {
                    let (target, slot) = storm_cell(me, a, r, n);
                    env.accumulate(
                        win,
                        Rank(target),
                        slot * 8,
                        Datatype::U64,
                        ReduceOp::Sum,
                        &one,
                    )
                    .unwrap();
                }
                if reads {
                    // The round's first accumulate went to `right`; read that slot.
                    let slot = storm_cell(me, 0, r, n).1;
                    let got = env.get(win, right, slot * 8, 8).unwrap();
                    let bumped = env
                        .fetch_and_op(
                            win,
                            right,
                            STORM_COUNTER,
                            Datatype::U64,
                            ReduceOp::Sum,
                            &one,
                        )
                        .unwrap();
                    if series.nonblocking() {
                        pending.extend([got, bumped, env.iflush(win, right).unwrap()]);
                    } else {
                        // Flush first: under the lazy baseline nothing is
                        // issued before a flush or the close, so waiting on
                        // the results first would never return.
                        env.flush(win, right).unwrap();
                        env.wait_all([got, bumped]).unwrap();
                    }
                }
                if series.nonblocking() {
                    pending.push(env.iunlock_all(win).unwrap());
                } else {
                    env.unlock_all(win).unwrap();
                }
                env.compute(c.think);
            }
            env.wait_all(pending).unwrap();
            env.barrier().unwrap();
            let got = env.read_local(win, 0, STORM_COUNTER + 8).unwrap();
            let mut want = storm_expected(me, n, rounds, accs);
            want.push(if reads { rounds as u64 } else { 0 });
            want[0] += c.off(me);
            bad.note(want == slots(&got));
            env.win_free(win).unwrap();
        }
    })
}

/// Where origin `me`'s `a`-th accumulate of round `r` lands.
fn storm_cell(me: usize, a: usize, r: usize, n: usize) -> (usize, usize) {
    ((me + a + 1) % n, (me + a + r) % STORM_SLOTS)
}

/// Final accumulate slots of rank `me`: a replay of every origin's schedule.
fn storm_expected(me: usize, n: usize, rounds: usize, accs: usize) -> Vec<u64> {
    let mut want = vec![0u64; STORM_SLOTS];
    for origin in 0..n {
        for r in 0..rounds {
            for a in 0..accs {
                let (target, slot) = storm_cell(origin, a, r, n);
                if target == me {
                    want[slot] += 1;
                }
            }
        }
    }
    want
}

/// The scale kernel: per-rank work is constant, so wall time and memory
/// follow the rank count. `rounds` nonblocking exclusive-lock epochs at the
/// right neighbour, then one nonblocking GATS epoch toward it, all collected
/// by a single `wait_all`.
pub fn pairwise(out: &mut RepOut, c: Common, rounds: usize) -> u64 {
    account(out, "pairwise", &c, Series::RedesignedNonblocking, |bad| {
        move |env: &mut RankEnv| {
            let win = env.win_allocate_with(64, WinInfo::all_reorder()).unwrap();
            env.compute(c.think);
            env.barrier().unwrap();
            let (me, n) = (env.rank().idx(), env.n_ranks());
            let (left, right) = ((me + n - 1) % n, Rank((me + 1) % n));
            let mut pending = Vec::new();
            for r in 0..rounds {
                pending.push(env.ilock(win, right, LockKind::Exclusive).unwrap());
                env.put(win, right, 8 * r, &le(tag(me, r, c.salt))).unwrap();
                pending.push(env.iunlock(win, right).unwrap());
                env.compute(c.think);
            }
            env.wait_all(pending.drain(..)).unwrap();
            pending.push(env.ipost(win, Group::single(Rank(left))).unwrap());
            pending.push(env.istart(win, Group::single(right)).unwrap());
            env.put(win, right, 56, &le(tag(me, rounds, c.salt)))
                .unwrap();
            pending.push(env.icomplete(win).unwrap());
            pending.push(env.iwait(win).unwrap());
            env.wait_all(pending).unwrap();
            env.barrier().unwrap();
            let got = slots(&env.read_local(win, 0, 64).unwrap());
            let mut want: Vec<u64> = (0..8)
                .map(|r| if r < rounds { tag(left, r, c.salt) } else { 0 })
                .collect();
            want[7] = tag(left, rounds, c.salt);
            want[0] += c.off(me);
            bad.note(want == got);
            env.win_free(win).unwrap();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn common(n: usize, break_check: bool) -> Common {
        Common {
            n_ranks: n,
            job_seed: 5,
            think: SimTime::from_nanos(210),
            salt: 0xABCD,
            break_check,
            reliable_internode: false,
        }
    }

    #[test]
    fn every_kernel_matches_its_closed_form_in_both_series() {
        for series in [Series::BaselineBlocking, Series::RedesignedNonblocking] {
            let mut out = RepOut::default();
            let c = common(4, false);
            assert!(halo_fence(&mut out, c, series, 5) > 0);
            assert!(gats_ring(&mut out, c, series, 5) > 0);
            assert!(lock_ring(&mut out, c, series, 11) > 0);
            assert!(lock_all_storm(&mut out, c, series, 3, 4, true) > 0);
            assert!(lock_all_storm(&mut out, c, series, 2, 4, false) > 0);
            assert_eq!(out.failed, 0, "{series:?}: {:?}", out.failures);
            // 5 jobs x (3 job checks + 4 window checks).
            assert_eq!(out.attempted, 5 * 7);
            assert_eq!(out.counts.get("core.jobs"), 5);
        }
        let mut out = RepOut::default();
        assert!(pairwise(&mut out, common(16, false), 2) > 0);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
    }

    #[test]
    fn a_broken_expectation_fails_exactly_one_rank_per_kernel() {
        let mut out = RepOut::default();
        let c = common(4, true);
        halo_fence(&mut out, c, Series::RedesignedNonblocking, 3);
        gats_ring(&mut out, c, Series::BaselineBlocking, 3);
        lock_ring(&mut out, c, Series::RedesignedNonblocking, 9);
        lock_all_storm(&mut out, c, Series::BaselineBlocking, 2, 4, true);
        pairwise(&mut out, c, 2);
        assert_eq!(out.failed, 5, "{:?}", out.failures);
    }

    #[test]
    fn storm_expectation_conserves_the_accumulate_count() {
        let (n, rounds, accs) = (8, 6, 8);
        let total: u64 = (0..n)
            .flat_map(|me| storm_expected(me, n, rounds, accs))
            .sum();
        assert_eq!(total, (n * rounds * accs) as u64);
    }
}
