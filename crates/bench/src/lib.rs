//! # mpisim-bench — figure-regeneration harnesses
//!
//! One harness function per table/figure of the paper's evaluation
//! (§VIII). The ones that take no options are listed once, in
//! [`FIGURES`], under the slug of their `results/` CSV; Figs 12 and 13
//! take options and have a binary each under `src/bin/`. Every series a
//! figure plots is a [`Series`].
//!
//! | paper | harness | slug / binary |
//! |---|---|---|
//! | §VIII.A prose (latency/overlap parity) | [`micro::fig00_lock_put_latency`], [`micro::fig00_lock_overlap`] | `fig00_latency`, `fig00_overlap` |
//! | Fig 2 — Late Post | [`micro::fig02_late_post`] | `fig02` |
//! | Fig 3 — Late Complete | [`micro::fig03_late_complete`] | `fig03` |
//! | Fig 4 — Early Fence | [`micro::fig04_early_fence`] | `fig04` |
//! | Fig 5 — Wait at Fence | [`micro::fig05_wait_at_fence`] | `fig05` |
//! | Fig 6 — Late Unlock | [`micro::fig06_late_unlock`] | `fig06` |
//! | Fig 7 — A_A_A_R (GATS) | [`flags::fig07_aaar_gats`] | `fig07` |
//! | Fig 8 — A_A_A_R (lock) | [`flags::fig08_aaar_lock`] | `fig08` |
//! | Fig 9 — A_A_E_R | [`flags::fig09_aaer`] | `fig09` |
//! | Fig 10 — E_A_E_R | [`flags::fig10_eaer`] | `fig10` |
//! | Fig 11 — E_A_A_R | [`flags::fig11_eaar`] | `fig11` |
//! | §VIII.B — eager per-target issue (ablation) | [`micro::ablation_eager_issue`] | `ablation_eager_issue` |
//! | slack rewriter over the application twins (this repo's own) | [`rewrite_apps::run`] | `rewrite_apps` |
//! | Fig 12 — massive transactions | [`fig12`] | binary `fig12_transactions` |
//! | §VIII.B — flow-control ceiling (ablation) | [`fig12::ablation_flow_control`] | `ablation_flow_control` |
//! | Fig 13 — LU decomposition | [`fig13`] | binary `fig13_lu` |
//!
//! `run_all` regenerates everything in sequence: [`FIGURES`], then
//! `fig12`, `ablation_flow_control` and `fig13_0`..`fig13_3` — every CSV
//! under `results/`. All numbers are virtual time on the calibrated
//! cluster model; EXPERIMENTS.md records paper-vs-measured for each
//! figure.
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

use mpisim_core::{JobConfig, RankEnv, WinId, WinInfo};

pub use series::Series;
pub use table::Table;

/// Window size of every microbenchmark scenario: room for one 1 MB put.
const MB: usize = 1 << 20;
/// The paper's injected delay: one peer 1000 µs late.
const DELAY_US: u64 = 1000;

/// A figure that takes no options: the slug of its committed
/// `results/<slug>.csv`, and its harness.
pub type Figure = (&'static str, fn() -> Table);

/// Every figure that takes no options, in the order `run_all` emits them.
pub const FIGURES: [Figure; 14] = [
    ("fig00_latency", micro::fig00_lock_put_latency),
    ("fig00_overlap", micro::fig00_lock_overlap),
    ("fig02", micro::fig02_late_post),
    ("fig03", micro::fig03_late_complete),
    ("fig04", micro::fig04_early_fence),
    ("fig05", micro::fig05_wait_at_fence),
    ("fig06", micro::fig06_late_unlock),
    ("fig07", flags::fig07_aaar_gats),
    ("fig08", flags::fig08_aaar_lock),
    ("fig09", flags::fig09_aaer),
    ("fig10", flags::fig10_eaer),
    ("fig11", flags::fig11_eaar),
    ("ablation_eager_issue", micro::ablation_eager_issue),
    ("rewrite_apps", rewrite_apps::run),
];

/// The scenario runner of the microbenchmarks: every rank allocates one
/// 1 MB window with `info` and meets at a barrier, runs `body(env, win)`,
/// meets again and frees the window. Returns each rank's value of `body`,
/// in rank order.
pub fn on_window<R, F>(job: JobConfig, info: WinInfo, body: F) -> Vec<R>
where
    F: Fn(&mut RankEnv, WinId) -> R + 'static,
    R: 'static,
{
    mpisim_core::run_job(job, move |env| {
        let win = env.win_allocate_with(MB, info).unwrap();
        env.barrier().unwrap();
        let value = body(env, win);
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        value
    })
    .unwrap()
    .results
}

/// Microseconds of virtual time this rank spends in `part`.
fn elapsed(env: &mut RankEnv, part: impl FnOnce(&mut RankEnv)) -> f64 {
    let t0 = env.now();
    part(env);
    (env.now() - t0).as_micros_f64()
}

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
