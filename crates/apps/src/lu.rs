//! 1-D row-cyclic LU decomposition over GATS epochs (§VIII.B, Fig 13).
//!
//! For an `m×m` matrix on `n` ranks, rank `k % n` owns row `k`. At step
//! `k` the owner one-sidedly broadcasts the updated cells of row `k` to
//! the other `n−1` peers, then every rank eliminates its own rows below
//! `k`. The program overlaps communication with computation *inside* the
//! epoch (all series) — which, with blocking synchronization, inflicts
//! Late Complete on the targets; the nonblocking series closes the epoch
//! with `icomplete` before the trailing-matrix update, adding the second
//! kind of overlap without any latency transfer.
//!
//! Two fidelity modes:
//!
//! * [`LuMode::Real`] — actual `f64` elimination with data validation
//!   against a sequential oracle (bitwise identical operation order);
//! * [`LuMode::Modeled`] — synthetic payloads and a flop-cost model, for
//!   paper-scale matrices.

use mpisim_core::{run_job, Group, JobConfig, Rank, WinId};
use mpisim_sim::{seeded_rng, SimError, SimTime};

/// Whether to move and verify real matrix data.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LuMode {
    /// Real `f64` data, verified.
    Real,
    /// Synthetic payloads + flop-time model (paper scale).
    Modeled,
}

/// Blocking vs nonblocking epoch driving.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LuSync {
    /// `complete`/`wait` after in-epoch overlap (Late Complete risk).
    Blocking,
    /// `icomplete` before the update; completion detected later.
    Nonblocking,
}

/// LU kernel parameters.
#[derive(Clone, Debug)]
pub struct LuConfig {
    /// Matrix dimension.
    pub m: usize,
    /// Fidelity mode.
    pub mode: LuMode,
    /// Synchronization style.
    pub sync: LuSync,
    /// Cost of one floating-point update operation (multiply-subtract
    /// counts as two flops) in nanoseconds; calibrated in EXPERIMENTS.md.
    pub t_flop_ns: f64,
}

impl LuConfig {
    /// A small real-data configuration for tests.
    pub fn small(m: usize, sync: LuSync) -> Self {
        LuConfig {
            m,
            mode: LuMode::Real,
            sync,
            t_flop_ns: 30.0,
        }
    }

    /// Paper-scale modeled configuration.
    pub fn modeled(m: usize, sync: LuSync) -> Self {
        LuConfig {
            m,
            mode: LuMode::Modeled,
            sync,
            t_flop_ns: 30.0,
        }
    }
}

/// Result of an LU run.
#[derive(Debug, Clone)]
pub struct LuResult {
    /// Virtual wall time of the whole factorization.
    pub total_time: SimTime,
    /// Mean fraction of rank time spent in MPI calls (Fig 13 b/d).
    pub comm_fraction: f64,
    /// Maximum absolute difference against the sequential oracle
    /// (`Real` mode only; exact 0.0 expected because the operation order
    /// matches the oracle's).
    pub max_error: Option<f64>,
}

/// Deterministic matrix entry (diagonally dominant so no pivoting is
/// needed).
fn entry(seed: u64, m: usize, i: usize, j: usize) -> f64 {
    let mut rng = seeded_rng(seed, (i * m + j) as u64);
    let v: f64 = rng.gen_range(0.1..1.0);
    if i == j {
        v + 2.0 * m as f64
    } else {
        v
    }
}

/// Sequential oracle: same elimination, same operation order per element.
#[allow(clippy::needless_range_loop)]
pub fn sequential_lu(seed: u64, m: usize) -> Vec<Vec<f64>> {
    let mut a: Vec<Vec<f64>> = (0..m)
        .map(|i| (0..m).map(|j| entry(seed, m, i, j)).collect())
        .collect();
    for k in 0..m - 1 {
        for i in k + 1..m {
            let factor = a[i][k] / a[k][k];
            a[i][k] = factor;
            for j in k + 1..m {
                a[i][j] -= factor * a[k][j];
            }
        }
    }
    a
}

struct RankLu<'e, 'a> {
    env: &'e mpisim_core::RankEnv<'a>,
    cfg: LuConfig,
    n: usize,
    win: WinId,
    /// Locally owned rows, by global row index.
    rows: std::collections::BTreeMap<usize, Vec<f64>>,
}

impl<'e, 'a> RankLu<'e, 'a> {
    fn update_cost(&self, my_rows_below: usize, k: usize) -> SimTime {
        let width = self.cfg.m - k - 1;
        let flops = 2.0 * my_rows_below as f64 * (width as f64 + 1.0);
        SimTime::from_nanos((flops * self.cfg.t_flop_ns) as u64)
    }

    /// Eliminate all my rows below `k` using `row_k` (cols k..m).
    fn eliminate(&mut self, k: usize, row_k: &[f64]) {
        let m = self.cfg.m;
        let my_below = self.rows.range(k + 1..).count();
        if self.cfg.mode == LuMode::Real {
            let rows: Vec<usize> = self.rows.range(k + 1..).map(|(i, _)| *i).collect();
            for i in rows {
                let r = self.rows.get_mut(&i).unwrap();
                let factor = r[k] / row_k[0];
                r[k] = factor;
                for j in k + 1..m {
                    r[j] -= factor * row_k[j - k];
                }
            }
        }
        self.env.compute(self.update_cost(my_below, k));
    }

    fn broadcast_row(&mut self, k: usize) -> Option<mpisim_core::Req> {
        let m = self.cfg.m;
        let others = Group::new((0..self.n).filter(|r| *r != self.env.rank().idx()));
        self.env.start(self.win, others.clone()).unwrap();
        let len = (m - k) * 8;
        match self.cfg.mode {
            LuMode::Real => {
                let row = &self.rows[&k];
                let bytes = mpisim_core::datatype::f64s_to_bytes(&row[k..]);
                for t in others.ranks() {
                    self.env.put(self.win, *t, 0, &bytes).unwrap();
                }
            }
            LuMode::Modeled => {
                for t in others.ranks() {
                    self.env.put_synthetic(self.win, *t, 0, len).unwrap();
                }
            }
        }
        match self.cfg.sync {
            LuSync::Blocking => {
                // Overlap the trailing update *inside* the epoch, then
                // close: the classic Late Complete shape (Fig 1a, sc. 3).
                let row_k: Vec<f64> = if self.cfg.mode == LuMode::Real {
                    self.rows[&k][k..].to_vec()
                } else {
                    Vec::new()
                };
                self.eliminate(k, &row_k);
                self.env.complete(self.win).unwrap();
                None
            }
            LuSync::Nonblocking => {
                // Close first (Fig 1b), then update; completion is
                // detected before the next epoch on this window.
                let req = self.env.icomplete(self.win).unwrap();
                let row_k: Vec<f64> = if self.cfg.mode == LuMode::Real {
                    self.rows[&k][k..].to_vec()
                } else {
                    Vec::new()
                };
                self.eliminate(k, &row_k);
                Some(req)
            }
        }
    }

    fn receive_row(&mut self, k: usize, owner: usize) {
        let m = self.cfg.m;
        self.env.post(self.win, Group::single(Rank(owner))).unwrap();
        self.env.wait_epoch(self.win).unwrap();
        let row_k: Vec<f64> = if self.cfg.mode == LuMode::Real {
            let bytes = self.env.read_local(self.win, 0, (m - k) * 8).unwrap();
            mpisim_core::datatype::bytes_to_f64s(&bytes)
        } else {
            Vec::new()
        };
        self.eliminate(k, &row_k);
    }
}

/// Run the distributed LU factorization.
pub fn run_lu(job: JobConfig, cfg: LuConfig) -> Result<LuResult, SimError> {
    let m = cfg.m;
    let n = job.n_ranks;
    assert!(m >= n, "need at least one row per rank");
    let seed = job.seed;
    let cfg2 = cfg.clone();

    let report = run_job(job, move |env| {
        let cfg = cfg2.clone();
        let n = env.n_ranks();
        let me = env.rank().idx();
        // Window: one broadcast-row buffer.
        let win = env.win_allocate(m * 8).unwrap();
        let rows: std::collections::BTreeMap<usize, Vec<f64>> = (0..m)
            .filter(|i| i % n == me)
            .map(|i| {
                let row = if cfg.mode == LuMode::Real {
                    (0..m).map(|j| entry(seed, m, i, j)).collect()
                } else {
                    Vec::new()
                };
                (i, row)
            })
            .collect();
        env.barrier().unwrap();

        let mut lu = RankLu { env, cfg: cfg.clone(), n, win, rows };
        let mut pending: Option<mpisim_core::Req> = None;
        for k in 0..m - 1 {
            let owner = k % n;
            if owner == me {
                if let Some(req) = lu.broadcast_row(k) {
                    if let Some(p) = pending.replace(req) {
                        lu.env.wait(p).unwrap();
                    }
                }
            } else {
                lu.receive_row(k, owner);
            }
        }
        if let Some(p) = pending {
            env.wait(p).unwrap();
        }
        env.barrier().unwrap();

        // Validation against the sequential oracle.
        let mut err: f64 = 0.0;
        if cfg.mode == LuMode::Real {
            let oracle = sequential_lu(seed, m);
            for (i, row) in &lu.rows {
                for j in 0..m {
                    err = err.max((row[j] - oracle[*i][j]).abs());
                }
            }
        }
        env.win_free(win).unwrap();
        err
    })?;

    let max_error =
        (cfg.mode == LuMode::Real).then(|| report.results.iter().fold(0.0, |a: f64, &e| a.max(e)));
    Ok(LuResult {
        total_time: report.final_time,
        comm_fraction: report.mean_comm_fraction(),
        max_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim_core::SyncStrategy;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sequential_oracle_factorizes() {
        let m = 12;
        let a = sequential_lu(1, m);
        // Reconstruct A = L·U and compare with the original entries.
        for i in 0..m {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { a[i][k] };
                    let u = if k <= j { a[k][j] } else { 0.0 };
                    if k < i && k > j {
                        continue;
                    }
                    s += l * u;
                }
                let orig = entry(1, m, i, j);
                assert!(
                    (s - orig).abs() < 1e-9 * (1.0 + orig.abs()),
                    "LU reconstruction off at ({i},{j}): {s} vs {orig}"
                );
            }
        }
    }

    #[test]
    fn distributed_blocking_matches_oracle_exactly() {
        let r = run_lu(
            JobConfig::all_internode(4),
            LuConfig::small(16, LuSync::Blocking),
        )
        .unwrap();
        assert_eq!(r.max_error, Some(0.0), "same op order ⇒ bitwise equality");
    }

    #[test]
    fn distributed_nonblocking_matches_oracle_exactly() {
        let r = run_lu(
            JobConfig::all_internode(4),
            LuConfig::small(16, LuSync::Nonblocking),
        )
        .unwrap();
        assert_eq!(r.max_error, Some(0.0));
    }

    #[test]
    fn baseline_strategy_matches_oracle() {
        let r = run_lu(
            JobConfig::all_internode(3).with_strategy(SyncStrategy::LazyBaseline),
            LuConfig::small(12, LuSync::Blocking),
        )
        .unwrap();
        assert_eq!(r.max_error, Some(0.0));
    }

    #[test]
    fn nonblocking_is_faster_with_heavy_compute() {
        // With substantial per-step compute, blocking Late Complete
        // roughly doubles the critical path (owner + targets serialize).
        let mk = |sync| LuConfig {
            m: 64,
            mode: LuMode::Modeled,
            sync,
            t_flop_ns: 2000.0, // exaggerate compute to expose the effect
        };
        let b = run_lu(JobConfig::all_internode(4), mk(LuSync::Blocking)).unwrap();
        let nb = run_lu(JobConfig::all_internode(4), mk(LuSync::Nonblocking)).unwrap();
        assert!(
            nb.total_time.as_secs_f64() < b.total_time.as_secs_f64() * 0.75,
            "nonblocking {:?} should beat blocking {:?} by ≥25%",
            nb.total_time,
            b.total_time
        );
        assert!(b.comm_fraction > nb.comm_fraction);
    }
}
