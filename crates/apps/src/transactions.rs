//! The "dynamic unstructured massive transactions" pattern of §IV.B /
//! Fig 12: at any time, a set of peers updates another set of peers at
//! unpredictable offsets; each update is atomic and lives in its own
//! exclusive-lock epoch.
//!
//! With blocking synchronization every update waits for the previous one;
//! with nonblocking epochs several updates are in flight, and with
//! `A_A_A_R` they may progress and complete out of order, turning epoch
//! serialization into transaction pipelining.

use mpisim_core::{
    run_job, Datatype, JobConfig, LockKind, Rank, ReduceOp, RmaResult, WinInfo,
};
use mpisim_sim::{seeded_rng, SimTime};
use rand::Rng;

/// How each rank drives its transactions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxMode {
    /// `lock; accumulate; unlock` — one epoch at a time.
    Blocking,
    /// `ilock; accumulate; iunlock` with up to `max_inflight` epochs
    /// pending.
    Nonblocking {
        /// Sliding-window depth of outstanding epochs.
        max_inflight: usize,
    },
}

/// How transaction targets are chosen — §IV.B's updating sets are "not
/// necessarily disjoint", so contention is a workload parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TargetDist {
    /// Every rank equally likely.
    Uniform,
    /// `percent`% of transactions hit rank 0 (a hot spot); the rest are
    /// uniform over all ranks.
    Hotspot {
        /// Percentage of transactions directed at rank 0.
        percent: u8,
    },
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TxConfig {
    /// Transactions each rank performs.
    pub txs_per_rank: usize,
    /// Bytes per atomic update (multiple of 8).
    pub payload: usize,
    /// Number of 8-byte slots per target window.
    pub slots: usize,
    /// Epoch driving mode.
    pub mode: TxMode,
    /// Enable the `A_A_A_R` reorder flag on the window.
    pub aaar: bool,
    /// Optional modeled computation between transactions.
    pub think_time: SimTime,
    /// Target selection distribution.
    pub dist: TargetDist,
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig {
            txs_per_rank: 200,
            payload: 64,
            slots: 256,
            mode: TxMode::Blocking,
            aaar: false,
            think_time: SimTime::ZERO,
            dist: TargetDist::Uniform,
        }
    }
}

/// Result of a transaction run.
#[derive(Debug, Clone, Copy)]
pub struct TxResult {
    /// Total committed transactions.
    pub total_txs: u64,
    /// Virtual time from the starting barrier to the last commit.
    pub elapsed: SimTime,
    /// Transactions per second of virtual time.
    pub tx_per_sec: f64,
    /// Sum over all window slots of all ranks (for validation: each
    /// transaction adds its payload words, each of value 1).
    pub checksum: u64,
}

/// Run the transaction workload on `job` (the job's strategy decides
/// baseline vs redesigned engine).
pub fn run_transactions(job: JobConfig, cfg: TxConfig) -> Result<TxResult, mpisim_sim::SimError> {
    let n = job.n_ranks;
    let cfg2 = cfg.clone();

    let report = run_job(job, move |env| {
        let cfg = &cfg2;
        let words = cfg.payload / 8;
        let info = if cfg.aaar { WinInfo::aaar() } else { WinInfo::default() };
        let win = env.win_allocate_with(cfg.slots * 8, info).unwrap();
        env.barrier().unwrap();
        let t_start = env.now();

        let mut rng = seeded_rng(0x7AC5, env.rank().idx() as u64);
        let ones = vec![1u64; words]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>();

        let pick_target = move |rng: &mut rand::rngs::SmallRng| -> Rank {
            match cfg.dist {
                TargetDist::Uniform => Rank(rng.gen_range(0..n)),
                TargetDist::Hotspot { percent } => {
                    if rng.gen_range(0..100u8) < percent {
                        Rank(0)
                    } else {
                        Rank(rng.gen_range(0..n))
                    }
                }
            }
        };
        let one_tx = |env: &mpisim_core::RankEnv, rng: &mut rand::rngs::SmallRng| -> RmaResult<mpisim_core::Req> {
            let target = pick_target(rng);
            let slot = rng.gen_range(0..cfg.slots - words + 1);
            let _ = env.ilock(win, target, LockKind::Exclusive)?;
            env.accumulate(win, target, slot * 8, Datatype::U64, ReduceOp::Sum, &ones)?;
            env.iunlock(win, target)
        };

        match cfg.mode {
            TxMode::Blocking => {
                for _ in 0..cfg.txs_per_rank {
                    let target = pick_target(&mut rng);
                    let slot = rng.gen_range(0..cfg.slots - words + 1);
                    env.lock(win, target, LockKind::Exclusive).unwrap();
                    env.accumulate(win, target, slot * 8, Datatype::U64, ReduceOp::Sum, &ones)
                        .unwrap();
                    env.unlock(win, target).unwrap();
                    if !cfg.think_time.is_zero() {
                        env.compute(cfg.think_time);
                    }
                }
            }
            TxMode::Nonblocking { max_inflight } => {
                let mut inflight: std::collections::VecDeque<mpisim_core::Req> =
                    std::collections::VecDeque::new();
                for _ in 0..cfg.txs_per_rank {
                    let req = one_tx(env, &mut rng).unwrap();
                    inflight.push_back(req);
                    if inflight.len() >= max_inflight {
                        let oldest = inflight.pop_front().unwrap();
                        env.wait(oldest).unwrap();
                    }
                    if !cfg.think_time.is_zero() {
                        env.compute(cfg.think_time);
                    }
                }
                for r in inflight {
                    env.wait(r).unwrap();
                }
            }
        }

        let t_end = env.now();
        env.barrier().unwrap();
        // Validation: sum every slot of my window.
        let bytes = env.read_local(win, 0, cfg.slots * 8).unwrap();
        let sum: u64 = mpisim_core::datatype::bytes_to_u64s(&bytes).iter().sum();
        env.win_free(win).unwrap();
        (t_start, t_end, sum)
    })?;

    let total_txs = (n * cfg.txs_per_rank) as u64;
    let t_start = report.results.iter().map(|r| r.0).max().unwrap_or(SimTime::ZERO);
    let t_end = report.results.iter().map(|r| r.1).max().unwrap_or(SimTime::ZERO);
    let elapsed = t_end - t_start;
    Ok(TxResult {
        total_txs,
        elapsed,
        tx_per_sec: total_txs as f64 / elapsed.as_secs_f64(),
        checksum: report.results.iter().map(|r| r.2).sum(),
    })
}

/// The checksum a correct run must produce.
pub fn expected_checksum(n_ranks: usize, cfg: &TxConfig) -> u64 {
    (n_ranks * cfg.txs_per_rank * (cfg.payload / 8)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim_core::SyncStrategy;

    fn small(mode: TxMode, aaar: bool) -> (TxResult, TxConfig) {
        let cfg = TxConfig {
            txs_per_rank: 25,
            payload: 16,
            slots: 32,
            mode,
            aaar,
            think_time: SimTime::ZERO,
            dist: TargetDist::Uniform,
        };
        let r = run_transactions(JobConfig::all_internode(4), cfg.clone()).unwrap();
        (r, cfg)
    }

    #[test]
    fn blocking_txs_are_atomic_and_complete() {
        let (r, cfg) = small(TxMode::Blocking, false);
        assert_eq!(r.total_txs, 100);
        assert_eq!(r.checksum, expected_checksum(4, &cfg));
        assert!(r.tx_per_sec > 0.0);
    }

    #[test]
    fn nonblocking_txs_no_updates_lost() {
        let (r, cfg) = small(TxMode::Nonblocking { max_inflight: 8 }, false);
        assert_eq!(r.checksum, expected_checksum(4, &cfg));
    }

    #[test]
    fn aaar_txs_no_updates_lost_and_faster() {
        let (nb, cfg) = small(TxMode::Nonblocking { max_inflight: 8 }, false);
        let (re, _) = small(TxMode::Nonblocking { max_inflight: 8 }, true);
        assert_eq!(re.checksum, expected_checksum(4, &cfg));
        assert!(
            re.elapsed <= nb.elapsed,
            "A_A_A_R should not slow transactions: {} vs {}",
            re.elapsed,
            nb.elapsed
        );
    }

    #[test]
    fn hotspot_contention_slows_but_never_loses_updates() {
        let mk = |dist| TxConfig {
            txs_per_rank: 40,
            payload: 8,
            slots: 32,
            mode: TxMode::Nonblocking { max_inflight: 8 },
            aaar: true,
            think_time: SimTime::ZERO,
            dist,
        };
        let uni = run_transactions(JobConfig::all_internode(8), mk(TargetDist::Uniform)).unwrap();
        let hot =
            run_transactions(JobConfig::all_internode(8), mk(TargetDist::Hotspot { percent: 90 }))
                .unwrap();
        assert_eq!(uni.checksum, expected_checksum(8, &mk(TargetDist::Uniform)));
        assert_eq!(hot.checksum, expected_checksum(8, &mk(TargetDist::Uniform)));
        // 90% of exclusive locks on one rank serialize the job.
        assert!(
            hot.elapsed.as_secs_f64() > 1.5 * uni.elapsed.as_secs_f64(),
            "hotspot should serialize: {} vs {}",
            hot.elapsed,
            uni.elapsed
        );
    }

    #[test]
    fn baseline_strategy_also_correct() {
        let cfg = TxConfig {
            txs_per_rank: 20,
            payload: 8,
            slots: 16,
            mode: TxMode::Blocking,
            aaar: false,
            think_time: SimTime::ZERO,
            dist: TargetDist::Uniform,
        };
        let r = run_transactions(
            JobConfig::all_internode(3).with_strategy(SyncStrategy::LazyBaseline),
            cfg.clone(),
        )
        .unwrap();
        assert_eq!(r.checksum, expected_checksum(3, &cfg));
    }
}
