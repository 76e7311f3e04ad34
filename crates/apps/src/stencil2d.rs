//! 2-D five-point stencil with RMA ghost exchange.
//!
//! The process grid is `pr × pc`; each rank owns an `h × w` block of a
//! periodic global grid, stored *inside its window* with a one-cell halo.
//! Every iteration each rank writes its edge rows/columns directly into
//! its neighbours' halo cells: rows are contiguous puts, columns are
//! **strided** puts (`put_strided` with stride = the padded row width) —
//! the vector-datatype case the paper's overlap-reasoning discussion
//! (§VI.C) calls out. Like the 1-D halo, every rank is origin and target
//! at once, so the GATS epochs rely on the `A_A_E_R`/`E_A_A_R` reorder
//! flags.
//!
//! Correctness is checked against a sequential oracle on the full global
//! grid — bitwise, since the operation order per cell is identical.

use std::collections::BTreeSet;

use mpisim_core::datatype::{bytes_to_f64s, f64s_to_bytes};
use mpisim_core::{run_job, Group, JobConfig, Rank, WinId, WinInfo};
use mpisim_sim::SimError;

/// Stencil parameters.
#[derive(Clone, Debug)]
pub struct Stencil2dConfig {
    /// Global grid height (must divide by the process-grid rows).
    pub rows: usize,
    /// Global grid width (must divide by the process-grid cols).
    pub cols: usize,
    /// Iterations.
    pub iters: usize,
    /// Drive the exchange with nonblocking epoch closes.
    pub nonblocking: bool,
}

/// Result of a stencil run.
#[derive(Debug, Clone)]
pub struct Stencil2dResult {
    /// Total virtual time.
    pub total_time: mpisim_sim::SimTime,
    /// Sum of the final global grid.
    pub checksum: f64,
    /// Max |difference| against the sequential oracle.
    pub max_error: f64,
}

/// Choose a near-square process grid for `n` ranks.
pub fn process_grid(n: usize) -> (usize, usize) {
    let mut pr = (n as f64).sqrt() as usize;
    while pr > 1 && !n.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), n / pr.max(1))
}

fn initial(_rows: usize, cols: usize, i: usize, j: usize) -> f64 {
    (i * cols + j) as f64 % 97.0
}

/// Sequential oracle: the same 5-point averaging on the global periodic
/// grid, same operation order per cell.
pub fn sequential_stencil(rows: usize, cols: usize, iters: usize) -> Vec<f64> {
    let mut g: Vec<f64> = (0..rows * cols)
        .map(|k| initial(rows, cols, k / cols, k % cols))
        .collect();
    for _ in 0..iters {
        let old = g.clone();
        for i in 0..rows {
            for j in 0..cols {
                let up = old[((i + rows - 1) % rows) * cols + j];
                let down = old[((i + 1) % rows) * cols + j];
                let left = old[i * cols + (j + cols - 1) % cols];
                let right = old[i * cols + (j + 1) % cols];
                g[i * cols + j] = (old[i * cols + j] + up + down + left + right) / 5.0;
            }
        }
    }
    g
}

struct Block {
    h: usize,
    w: usize,
    /// Padded width (w + 2).
    pw: usize,
}

impl Block {
    fn idx(&self, i: usize, j: usize) -> usize {
        // (i, j) in padded coordinates (halo at 0 and h+1 / w+1).
        i * self.pw + j
    }
    fn disp(&self, i: usize, j: usize) -> usize {
        self.idx(i, j) * 8
    }
}

/// Run the distributed stencil and validate against the oracle.
pub fn run_stencil2d(job: JobConfig, cfg: Stencil2dConfig) -> Result<Stencil2dResult, SimError> {
    let n = job.n_ranks;
    let (pr, pc) = process_grid(n);
    assert!(cfg.rows.is_multiple_of(pr) && cfg.cols.is_multiple_of(pc), "grid must tile the process grid");
    let cfg2 = cfg.clone();

    let report = run_job(job, move |env| {
        let cfg = &cfg2;
        let me = env.rank().idx();
        let (mi, mj) = (me / pc, me % pc);
        let b = Block {
            h: cfg.rows / pr,
            w: cfg.cols / pc,
            pw: cfg.cols / pc + 2,
        };
        let ph = b.h + 2;
        // Neighbours (periodic).
        let up = Rank(((mi + pr - 1) % pr) * pc + mj);
        let down = Rank(((mi + 1) % pr) * pc + mj);
        let left = Rank(mi * pc + (mj + pc - 1) % pc);
        let right = Rank(mi * pc + (mj + 1) % pc);
        let nbrs: BTreeSet<usize> = [up.0, down.0, left.0, right.0].into_iter().collect();
        let group = Group::new(nbrs.iter().copied());

        // Origin and target at once ⇒ cross-side reorder flags (§VI.C).
        let info = WinInfo {
            access_after_exposure: true,
            exposure_after_access: true,
            ..WinInfo::default()
        };
        let win = env.win_allocate_with(ph * b.pw * 8, info).unwrap();

        // Fill the interior from the global initial condition.
        let (gi0, gj0) = (mi * b.h, mj * b.w);
        for i in 0..b.h {
            let row: Vec<f64> = (0..b.w)
                .map(|j| initial(cfg.rows, cfg.cols, gi0 + i, gj0 + j))
                .collect();
            env.write_local(win, b.disp(i + 1, 1), &f64s_to_bytes(&row)).unwrap();
        }
        env.barrier().unwrap();

        let read_row = |env: &mpisim_core::RankEnv, win: WinId, i: usize| -> Vec<u8> {
            env.read_local(win, b.disp(i, 1), b.w * 8).unwrap()
        };
        let read_col = |env: &mpisim_core::RankEnv, win: WinId, j: usize| -> Vec<u8> {
            let mut packed = Vec::with_capacity(b.h * 8);
            for i in 1..=b.h {
                packed.extend_from_slice(&env.read_local(win, b.disp(i, j), 8).unwrap());
            }
            packed
        };

        for _ in 0..cfg.iters {
            // Exchange: my edges into the neighbours' halos.
            env.post(win, group.clone()).unwrap();
            env.start(win, group.clone()).unwrap();
            // Top edge → up neighbour's bottom halo row (contiguous).
            env.put(win, up, b.disp(b.h + 1, 1), &read_row(env, win, 1)).unwrap();
            // Bottom edge → down neighbour's top halo row.
            env.put(win, down, b.disp(0, 1), &read_row(env, win, b.h)).unwrap();
            // Left edge column → left neighbour's right halo column
            // (strided at the target: stride = padded row width).
            env.put_strided(win, left, b.disp(1, b.w + 1), b.h, 8, b.pw * 8, &read_col(env, win, 1))
                .unwrap();
            // Right edge column → right neighbour's left halo column.
            env.put_strided(win, right, b.disp(1, 0), b.h, 8, b.pw * 8, &read_col(env, win, b.w))
                .unwrap();
            if cfg.nonblocking {
                let rc = env.icomplete(win).unwrap();
                let rw = env.iwait(win).unwrap();
                env.wait(rc).unwrap();
                env.wait(rw).unwrap();
            } else {
                env.complete(win).unwrap();
                env.wait_epoch(win).unwrap();
            }

            // 5-point update on the interior (reads padded grid incl. halo).
            let old = bytes_to_f64s(&env.read_local(win, 0, ph * b.pw * 8).unwrap());
            let mut new_rows: Vec<Vec<f64>> = Vec::with_capacity(b.h);
            for i in 1..=b.h {
                let mut row = Vec::with_capacity(b.w);
                for j in 1..=b.w {
                    let c = old[b.idx(i, j)];
                    let upv = old[b.idx(i - 1, j)];
                    let dv = old[b.idx(i + 1, j)];
                    let lv = old[b.idx(i, j - 1)];
                    let rv = old[b.idx(i, j + 1)];
                    row.push((c + upv + dv + lv + rv) / 5.0);
                }
                new_rows.push(row);
            }
            for (i, row) in new_rows.iter().enumerate() {
                env.write_local(win, b.disp(i + 1, 1), &f64s_to_bytes(row)).unwrap();
            }
            env.barrier().unwrap();
        }

        // Validate against the oracle and accumulate the checksum.
        let oracle = sequential_stencil(cfg.rows, cfg.cols, cfg.iters);
        let mut err: f64 = 0.0;
        let mut local_sum = 0.0;
        for i in 0..b.h {
            let row = bytes_to_f64s(&env.read_local(win, b.disp(i + 1, 1), b.w * 8).unwrap());
            for (j, v) in row.iter().enumerate() {
                let o = oracle[(gi0 + i) * cfg.cols + (gj0 + j)];
                err = err.max((v - o).abs());
                local_sum += v;
            }
        }
        let total = env
            .allreduce(
                mpisim_core::Datatype::F64,
                mpisim_core::ReduceOp::Sum,
                &local_sum.to_le_bytes(),
            )
            .unwrap();
        env.win_free(win).unwrap();
        (f64::from_le_bytes(total.try_into().unwrap()), err)
    })?;

    Ok(Stencil2dResult {
        total_time: report.final_time,
        checksum: report.results[0].0,
        max_error: report.results.iter().fold(0.0, |a, r| a.max(r.1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_grid_is_near_square() {
        assert_eq!(process_grid(1), (1, 1));
        assert_eq!(process_grid(4), (2, 2));
        assert_eq!(process_grid(6), (2, 3));
        assert_eq!(process_grid(8), (2, 4));
        assert_eq!(process_grid(12), (3, 4));
        assert_eq!(process_grid(7), (1, 7));
    }

    #[test]
    fn matches_oracle_on_2x2_grid() {
        let r = run_stencil2d(
            JobConfig::all_internode(4),
            Stencil2dConfig {
                rows: 8,
                cols: 8,
                iters: 5,
                nonblocking: false,
            },
        )
        .unwrap();
        assert_eq!(r.max_error, 0.0, "bitwise equality with the oracle");
    }

    #[test]
    fn matches_oracle_nonblocking_and_rectangular() {
        let r = run_stencil2d(
            JobConfig::all_internode(6),
            Stencil2dConfig {
                rows: 6,
                cols: 12,
                iters: 4,
                nonblocking: true,
            },
        )
        .unwrap();
        assert_eq!(r.max_error, 0.0);
    }

    #[test]
    fn single_rank_degenerates_to_self_exchange() {
        let r = run_stencil2d(
            JobConfig::all_internode(1),
            Stencil2dConfig {
                rows: 4,
                cols: 4,
                iters: 3,
                nonblocking: false,
            },
        )
        .unwrap();
        assert_eq!(r.max_error, 0.0);
    }

    #[test]
    fn blocking_and_nonblocking_agree_bitwise() {
        let mk = |nb| Stencil2dConfig {
            rows: 8,
            cols: 8,
            iters: 6,
            nonblocking: nb,
        };
        let a = run_stencil2d(JobConfig::all_internode(4), mk(false)).unwrap();
        let b = run_stencil2d(JobConfig::all_internode(4), mk(true)).unwrap();
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    }
}
