//! # mpisim-bench — figure-regeneration harnesses
//!
//! One module (and one binary under `src/bin/`) per table/figure of the
//! paper's evaluation (§VIII):
//!
//! | paper | module / binary |
//! |---|---|
//! | §VIII.A prose (latency/overlap parity) | [`micro::fig00_lock_put_latency`], `fig00_baseline` |
//! | Fig 2 — Late Post | [`micro::fig02_late_post`], `fig02_late_post` |
//! | Fig 3 — Late Complete | [`micro::fig03_late_complete`], `fig03_late_complete` |
//! | Fig 4 — Early Fence | [`micro::fig04_early_fence`], `fig04_early_fence` |
//! | Fig 5 — Wait at Fence | [`micro::fig05_wait_at_fence`], `fig05_wait_at_fence` |
//! | Fig 6 — Late Unlock | [`micro::fig06_late_unlock`], `fig06_late_unlock` |
//! | Fig 7 — A_A_A_R (GATS) | [`flags::fig07_aaar_gats`], `fig07_aaar_gats` |
//! | Fig 8 — A_A_A_R (lock) | [`flags::fig08_aaar_lock`], `fig08_aaar_lock` |
//! | Fig 9 — A_A_E_R | [`flags::fig09_aaer`], `fig09_aaer` |
//! | Fig 10 — E_A_E_R | [`flags::fig10_eaer`], `fig10_eaer` |
//! | Fig 11 — E_A_A_R | [`flags::fig11_eaar`], `fig11_eaar` |
//! | Fig 12 — massive transactions | [`fig12`], `fig12_transactions` |
//! | Fig 13 — LU decomposition | [`fig13`], `fig13_lu` |
//!
//! `run_all` regenerates everything in sequence. All numbers are virtual
//! time on the calibrated cluster model; EXPERIMENTS.md records
//! paper-vs-measured for each figure. [`rewrite_apps`] is the one figure
//! of this repo's own: the slack rewriter's payoff on the application IR
//! twins.
//!
//! Host cost (wall time, peak RSS, per-layer counts) is not measured
//! here: the repo's one perf instrument is `benchmark/` (see its README).

#![warn(missing_docs)]

pub mod fig12;
pub mod fig13;
pub mod flags;
pub mod micro;
pub mod rewrite_apps;
pub mod series;
pub mod table;

pub use series::Series;
pub use table::Table;

/// Emit a table to stdout and, if `csv_dir` is set (env `MPISIM_CSV_DIR`),
/// also write `<dir>/<slug>.csv`.
pub fn emit(t: &Table, slug: &str) {
    println!("{t}");
    if let Ok(dir) = std::env::var("MPISIM_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{slug}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, t.to_csv()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}
