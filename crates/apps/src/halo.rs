//! 1-D halo (ghost-cell) exchange over RMA epochs — a classic stencil
//! communication pattern used as an example workload and as an extra
//! stress test for repeated GATS/fence epochs.
//!
//! Each rank owns a block of a 1-D domain and iterates a 3-point average;
//! boundary cells are exchanged with the left/right neighbours through
//! puts into a window that exposes the two ghost slots.

use mpisim_core::{run_job, Group, JobConfig, Rank};
use mpisim_sim::{SimError, SimTime};

/// Which synchronization drives the exchange.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HaloSync {
    /// One fence epoch per iteration.
    Fence,
    /// GATS epochs toward the two neighbours.
    Gats,
    /// GATS with nonblocking closes overlapping the interior update.
    GatsNonblocking,
}

/// Halo exchange parameters.
#[derive(Clone, Debug)]
pub struct HaloConfig {
    /// Cells per rank.
    pub cells_per_rank: usize,
    /// Stencil iterations.
    pub iters: usize,
    /// Synchronization flavour.
    pub sync: HaloSync,
}

/// Result of a halo run.
#[derive(Debug, Clone)]
pub struct HaloResult {
    /// Total virtual time.
    pub total_time: SimTime,
    /// Final checksum (sum of all cells), identical across sync flavours.
    pub checksum: f64,
}

/// Window layout: [ghost_left (8B) | ghost_right (8B)].
const GHOST_L: usize = 0;
const GHOST_R: usize = 8;

/// Run the stencil. The domain is periodic (rank 0's left neighbour is
/// rank n−1).
pub fn run_halo(job: JobConfig, cfg: HaloConfig) -> Result<HaloResult, SimError> {
    let cfg2 = cfg.clone();

    let report = run_job(job, move |env| {
        let cfg = &cfg2;
        let n = env.n_ranks();
        let me = env.rank().idx();
        let c = cfg.cells_per_rank;
        let left = Rank((me + n - 1) % n);
        let right = Rank((me + 1) % n);
        // Every rank is simultaneously an origin (writing neighbours'
        // ghosts) and a target (exposing its own ghosts): the access and
        // exposure epochs of one iteration must progress concurrently.
        // The touched regions are trivially disjoint (§VI.C), so the
        // A_A_E_R and E_A_A_R reorder flags make this safe — and without
        // them rule 4's strict serialization would deadlock the ring.
        let info = mpisim_core::WinInfo {
            access_after_exposure: true,
            exposure_after_access: true,
            ..mpisim_core::WinInfo::default()
        };
        let win = env.win_allocate_with(16, info).unwrap();

        // Initial field: cell value = global index.
        let mut cells: Vec<f64> = (0..c).map(|i| (me * c + i) as f64).collect();
        env.barrier().unwrap();
        if cfg.sync == HaloSync::Fence {
            // Opening fence: subsequent puts land inside a fence epoch.
            env.fence(win).unwrap();
        }

        for _ in 0..cfg.iters {
            let first = cells[0].to_le_bytes();
            let last = cells[c - 1].to_le_bytes();
            // Exchange: my first cell goes to the left neighbour's right
            // ghost; my last cell to the right neighbour's left ghost.
            let close_req = match cfg.sync {
                HaloSync::Fence => {
                    env.put(win, left, GHOST_R, &first).unwrap();
                    env.put(win, right, GHOST_L, &last).unwrap();
                    env.fence(win).unwrap();
                    None
                }
                HaloSync::Gats | HaloSync::GatsNonblocking => {
                    let nbrs = if n == 2 {
                        // left == right when n == 2.
                        Group::single(left)
                    } else {
                        Group::new(if left < right {
                            vec![left.idx(), right.idx()]
                        } else {
                            vec![right.idx(), left.idx()]
                        })
                    };
                    env.post(win, nbrs.clone()).unwrap();
                    env.start(win, nbrs).unwrap();
                    env.put(win, left, GHOST_R, &first).unwrap();
                    env.put(win, right, GHOST_L, &last).unwrap();
                    if cfg.sync == HaloSync::GatsNonblocking {
                        let rc = env.icomplete(win).unwrap();
                        let rw = env.iwait(win).unwrap();
                        Some((rc, rw))
                    } else {
                        env.complete(win).unwrap();
                        env.wait_epoch(win).unwrap();
                        None
                    }
                }
            };

            // Interior update overlaps the nonblocking epoch tail.
            let old = cells.clone();
            for i in 1..c - 1 {
                cells[i] = (old[i - 1] + old[i] + old[i + 1]) / 3.0;
            }
            if let Some((rc, rw)) = close_req {
                env.wait(rc).unwrap();
                env.wait(rw).unwrap();
            }

            // Boundary update with ghosts (valid after synchronization).
            let gl = f64::from_le_bytes(
                env.read_local(win, GHOST_L, 8).unwrap().try_into().unwrap(),
            );
            let gr = f64::from_le_bytes(
                env.read_local(win, GHOST_R, 8).unwrap().try_into().unwrap(),
            );
            cells[0] = (gl + old[0] + old[1]) / 3.0;
            cells[c - 1] = (old[c - 2] + old[c - 1] + gr) / 3.0;
        }

        // The trailing (empty, open) fence epoch is retired by win_free.
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        cells.iter().sum::<f64>()
    })?;

    Ok(HaloResult {
        total_time: report.final_time,
        // Rank-order sum, so the bits do not depend on finish order.
        checksum: report.results.iter().fold(0.0, |a, s| a + s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sync: HaloSync, n: usize) -> HaloResult {
        run_halo(
            JobConfig::all_internode(n),
            HaloConfig {
                cells_per_rank: 16,
                iters: 8,
                sync,
            },
        )
        .unwrap()
    }

    #[test]
    fn all_flavours_agree_on_the_field() {
        let f = run(HaloSync::Fence, 4);
        let g = run(HaloSync::Gats, 4);
        let ng = run(HaloSync::GatsNonblocking, 4);
        assert_eq!(f.checksum.to_bits(), g.checksum.to_bits());
        assert_eq!(f.checksum.to_bits(), ng.checksum.to_bits());
    }

    #[test]
    fn two_rank_ring_works() {
        let g = run(HaloSync::Gats, 2);
        let f = run(HaloSync::Fence, 2);
        assert_eq!(g.checksum.to_bits(), f.checksum.to_bits());
    }

    #[test]
    fn smoothing_converges_toward_mean() {
        // After many iterations of averaging on a periodic ring the field
        // approaches its mean: variance decreases.
        let few = run_halo(
            JobConfig::all_internode(3),
            HaloConfig {
                cells_per_rank: 8,
                iters: 1,
                sync: HaloSync::Gats,
            },
        )
        .unwrap();
        let many = run_halo(
            JobConfig::all_internode(3),
            HaloConfig {
                cells_per_rank: 8,
                iters: 30,
                sync: HaloSync::Gats,
            },
        )
        .unwrap();
        // The sum (mean × count) is conserved by periodic averaging up to
        // FP noise; checksums stay close.
        assert!((few.checksum - many.checksum).abs() < 1e-6 * few.checksum.abs());
    }
}
