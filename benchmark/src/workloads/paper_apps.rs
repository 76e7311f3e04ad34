//! `paper_apps` — the paper's own figures at reduced scale: the Fig 12
//! transactions kernel (64 ranks, 16 per node, four series), the Fig 13 LU
//! kernel (modelled at 32 ranks in the two end-point series, and with real
//! data at 4 ranks against the sequential oracle), an all-internode halo
//! exchange with the reliability sublayer armed, and the
//! fig00–fig11 microbenchmark tables compared cell by cell with the committed
//! `results/*.csv`.
//!
//! Why: the internode `net` path (credits, rendezvous, many peers per rank,
//! framing and acks) and `apps` carry the work here, and `nb_speedup` guards the
//! effect the repo exists to reproduce. It stands in for `run_all`'s 60 s.

use mpisim_apps::{
    expected_checksum, run_lu, run_transactions, LuConfig, LuMode, LuSync, TargetDist, TxConfig,
    TxMode,
};
use mpisim_bench::{flags, micro, Table};
use mpisim_core::SyncStrategy;
use mpisim_sim::SimTime;

use super::kernels::{self, Common, Series};
use super::{job, RepOut, Setup, Workload};
use crate::span;

pub struct PaperApps {
    s: Setup,
    job_seed: u64,
    tx: TxConfig,
    lu_m: usize,
    halo: Common,
    halo_iters: usize,
}

impl PaperApps {
    pub fn new(s: Setup) -> Self {
        PaperApps {
            s,
            job_seed: s.draw(1, u64::MAX),
            tx: TxConfig {
                txs_per_rank: s.scale(40, 8),
                payload: 64,
                slots: 256,
                mode: TxMode::Blocking,
                aaar: false,
                think_time: SimTime::from_nanos(s.draw(2, 8)),
                dist: TargetDist::Uniform,
            },
            lu_m: s.scale(256, 64),
            halo: Common {
                n_ranks: 8,
                job_seed: s.draw(3, u64::MAX),
                think: SimTime::from_nanos(200 + s.draw(4, 16)),
                salt: s.draw(5, u64::MAX),
                break_check: false,
                reliable_internode: true,
            },
            halo_iters: s.scale(24, 8),
        }
    }

    /// One Fig 12 series; returns its elapsed virtual ns (0 on failure).
    fn transactions(
        &self,
        out: &mut RepOut,
        strategy: SyncStrategy,
        mode: TxMode,
        aaar: bool,
    ) -> (u64, f64) {
        let cfg = TxConfig {
            mode,
            aaar,
            ..self.tx.clone()
        };
        let res = span::within("apps.run_transactions", || {
            run_transactions(job(64, self.job_seed, strategy), cfg.clone())
        });
        match res {
            Ok(r) => {
                let want = expected_checksum(64, &cfg) + u64::from(self.s.break_check);
                out.check(r.checksum == want, || {
                    format!(
                        "transactions {strategy:?} {mode:?} aaar={aaar}: checksum {} != {want}",
                        r.checksum
                    )
                });
                out.virt_ns += r.elapsed.as_nanos();
                (r.elapsed.as_nanos(), r.tx_per_sec / 1e3)
            }
            Err(e) => {
                out.job_error("transactions", &e);
                (0, 0.0)
            }
        }
    }

    /// One Fig 13 run; returns its virtual ns and communication share.
    fn lu(&self, out: &mut RepOut, n: usize, strategy: SyncStrategy, cfg: LuConfig) -> (u64, f64) {
        let real = cfg.mode == LuMode::Real;
        match span::within("apps.run_lu", || {
            run_lu(job(n, self.job_seed, strategy), cfg)
        }) {
            Ok(r) => {
                if real {
                    // Same operation order as the sequential oracle, so the
                    // factors must agree to the last bit.
                    out.check(r.max_error == Some(0.0), || {
                        format!("LU real: max error {:?}", r.max_error)
                    });
                }
                out.virt_ns += r.total_time.as_nanos();
                (r.total_time.as_nanos(), r.comm_fraction * 100.0)
            }
            Err(e) => {
                out.job_error("lu", &e);
                (0, 0.0)
            }
        }
    }
}

/// A figure: its slug, its generator, and the committed CSV embedded at build
/// time.
type Fig = (&'static str, fn() -> Table, &'static str);

const FIGS: [Fig; 12] = [
    (
        "fig00_latency",
        micro::fig00_lock_put_latency,
        include_str!("../../../results/fig00_latency.csv"),
    ),
    (
        "fig00_overlap",
        micro::fig00_lock_overlap,
        include_str!("../../../results/fig00_overlap.csv"),
    ),
    (
        "fig02",
        micro::fig02_late_post,
        include_str!("../../../results/fig02.csv"),
    ),
    (
        "fig03",
        micro::fig03_late_complete,
        include_str!("../../../results/fig03.csv"),
    ),
    (
        "fig04",
        micro::fig04_early_fence,
        include_str!("../../../results/fig04.csv"),
    ),
    (
        "fig05",
        micro::fig05_wait_at_fence,
        include_str!("../../../results/fig05.csv"),
    ),
    (
        "fig06",
        micro::fig06_late_unlock,
        include_str!("../../../results/fig06.csv"),
    ),
    (
        "fig07",
        flags::fig07_aaar_gats,
        include_str!("../../../results/fig07.csv"),
    ),
    (
        "fig08",
        flags::fig08_aaar_lock,
        include_str!("../../../results/fig08.csv"),
    ),
    (
        "fig09",
        flags::fig09_aaer,
        include_str!("../../../results/fig09.csv"),
    ),
    (
        "fig10",
        flags::fig10_eaer,
        include_str!("../../../results/fig10.csv"),
    ),
    (
        "fig11",
        flags::fig11_eaar,
        include_str!("../../../results/fig11.csv"),
    ),
];

/// Compare a regenerated table with its committed CSV, cell by cell. Returns
/// (cells compared, cells that differ); a missing or extra row counts each of
/// its cells as differing.
fn diff_csv(got: &str, want: &str) -> (u64, u64) {
    let (mut cells, mut bad) = (0, 0);
    let (mut g, mut w) = (got.lines(), want.lines());
    loop {
        match (g.next(), w.next()) {
            (None, None) => return (cells, bad),
            (Some(a), Some(b)) => {
                let (mut ca, mut cb) = (a.split(','), b.split(','));
                loop {
                    match (ca.next(), cb.next()) {
                        (None, None) => break,
                        (x, y) => {
                            cells += 1;
                            bad += u64::from(x != y);
                        }
                    }
                }
            }
            (Some(l), None) | (None, Some(l)) => {
                let n = l.split(',').count() as u64;
                cells += n;
                bad += n;
            }
        }
    }
}

impl Workload for PaperApps {
    fn rep(&mut self) -> RepOut {
        use SyncStrategy::{LazyBaseline, Redesigned};
        let mut out = RepOut::default();

        // Fig 12: MVAPICH, New, New nonblocking, New nonblocking + A_A_A_R.
        let nb = TxMode::Nonblocking { max_inflight: 16 };
        let (tx_base, _) = self.transactions(&mut out, LazyBaseline, TxMode::Blocking, false);
        self.transactions(&mut out, Redesigned, TxMode::Blocking, false);
        let (tx_nb, kps) = self.transactions(&mut out, Redesigned, nb, false);
        self.transactions(&mut out, Redesigned, nb, true);
        out.nb_pairs.push((tx_base, tx_nb));
        out.tx_kps_virt = kps;

        // Fig 13: the two end-point series modelled, then real data.
        let m = self.lu_m;
        let (lu_base, _) = self.lu(
            &mut out,
            32,
            LazyBaseline,
            LuConfig::modeled(m, LuSync::Blocking),
        );
        let (lu_nb, comm) = self.lu(
            &mut out,
            32,
            Redesigned,
            LuConfig::modeled(m, LuSync::Nonblocking),
        );
        out.nb_pairs.push((lu_base, lu_nb));
        out.lu_comm_pct = comm;
        self.lu(
            &mut out,
            4,
            Redesigned,
            LuConfig::small(64, LuSync::Nonblocking),
        );

        // All-internode halo under the reliability sublayer.
        kernels::halo_fence(
            &mut out,
            self.halo,
            Series::RedesignedNonblocking,
            self.halo_iters,
        );

        // fig00–fig11 against results/*.csv.
        let _figs = span::enter("bench.micro_figs");
        for (slug, make, want) in FIGS {
            let table = span::within("bench.fig", make);
            let (cells, bad) = diff_csv(&table.to_csv(), want);
            out.counts.add_fig_cells(cells);
            out.attempted += cells;
            if bad > 0 {
                out.failed += bad;
                out.failures.push(format!(
                    "{slug}: {bad}/{cells} cells differ from results/{slug}.csv"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_diff_counts_cells_rows_and_widths() {
        assert_eq!(diff_csv("a,b\n1,2\n", "a,b\n1,2\n"), (4, 0));
        assert_eq!(diff_csv("a,b\n1,3\n", "a,b\n1,2\n"), (4, 1));
        assert_eq!(diff_csv("a,b\n", "a,b\n1,2\n"), (4, 2));
        assert_eq!(diff_csv("a,b,c\n", "a,b\n"), (3, 1));
    }

    #[test]
    fn smoke_repetition_is_clean_and_reproduces_the_effect() {
        let s = Setup {
            seed: 11,
            break_check: false,
            smoke: true,
        };
        let out = PaperApps::new(s).rep();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.nb_pairs.len(), 2);
        for (base, nb) in &out.nb_pairs {
            assert!(base > nb, "nonblocking series not faster: {base} vs {nb}");
        }
        assert!(out.counts.get("bench.fig_cells_checked") > 100);
        assert!(out.counts.get("core.rel_frames_sent") > 0);
        assert!(out.tx_kps_virt > 0.0 && out.lu_comm_pct > 0.0);
    }
}
