//! Ablation: eager per-target issue vs MVAPICH's wait-for-all-targets.
//!
//! §VIII.B explains why "New" (blocking) beats vanilla MVAPICH: "we issue
//! right away the RMA transfers of any target that becomes available. In
//! comparison, \[MVAPICH\] waits for all internode targets to be ready
//! before issuing communication to any internode target." This ablation
//! isolates exactly that design choice: one origin, several targets, one
//! of them late — how long until each punctual target holds its data?

use mpisim_bench::table::Table;
use mpisim_core::{run_job, Group, JobConfig, Rank, SyncStrategy};
use mpisim_sim::SimTime;

const MB: usize = 1 << 20;

fn punctual_target_time(strategy: SyncStrategy, n_targets: usize) -> f64 {
    let report = run_job(
        JobConfig::all_internode(n_targets + 1).with_strategy(strategy),
        move |env| {
            let n = env.n_ranks();
            let win = env.win_allocate(MB).unwrap();
            env.barrier().unwrap();
            let t0 = env.now();
            if env.rank().idx() == 0 {
                env.start(win, Group::new(1..n)).unwrap();
                for r in 1..n {
                    env.put_synthetic(win, Rank(r), 0, MB).unwrap();
                }
                env.complete(win).unwrap();
            } else {
                if env.rank().idx() == n - 1 {
                    env.compute(SimTime::from_micros(1000)); // the late one
                }
                env.post(win, Group::single(Rank(0))).unwrap();
                env.wait_epoch(win).unwrap();
            }
            let elapsed = (env.now() - t0).as_micros_f64();
            env.barrier().unwrap();
            env.win_free(win).unwrap();
            elapsed
        },
    )
    .unwrap();
    // Rank 1 is the first punctual target.
    report.results[1]
}

fn main() {
    let mut t = Table::new(
        "Ablation — eager per-target issue vs wait-for-all-targets (one target 1000 µs late)",
        "targets",
        vec!["wait-for-all (MVAPICH)".into(), "eager per-target (New)".into()],
        "µs until the first punctual target completes",
    );
    for n_targets in [2usize, 4, 8] {
        let lazy = punctual_target_time(SyncStrategy::LazyBaseline, n_targets);
        let eager = punctual_target_time(SyncStrategy::Redesigned, n_targets);
        t.push(format!("{n_targets}"), vec![lazy, eager]);
    }
    mpisim_bench::emit(&t, "ablation_eager_issue");
}
