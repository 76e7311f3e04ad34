//! `run_job`'s result contract: each rank closure's return value comes
//! back in `JobReport::results`, in rank order whatever order the ranks
//! finished in, and a job that fails returns no results at all.

use mpisim_core::{run_job, JobConfig, Rank};
use mpisim_sim::SimTime;

/// Rank `r` of `n` computes `(n - r) × 10 µs`, so the ranks finish in
/// reverse rank order; each returns its rank and its finish time.
fn reverse_finishers(n: usize) -> Vec<(usize, SimTime)> {
    run_job(JobConfig::all_internode(n), move |env| {
        let me = env.rank().idx();
        env.compute(SimTime::from_micros(10 * (n - me) as u64));
        (me, env.now())
    })
    .unwrap()
    .results
}

#[test]
fn results_come_back_in_rank_order_not_finish_order() {
    let results = reverse_finishers(5);
    let ranks: Vec<usize> = results.iter().map(|r| r.0).collect();
    assert_eq!(ranks, [0, 1, 2, 3, 4]);
    assert!(
        results.windows(2).all(|w| w[0].1 > w[1].1),
        "the ranks must have finished in reverse order: {results:?}"
    );
}

#[test]
fn a_unit_closure_gives_one_result_per_rank() {
    let report = run_job(JobConfig::new(7), |env| env.barrier().unwrap()).unwrap();
    assert_eq!(report.results.len(), 7);
}

#[test]
fn a_deadlocked_job_is_an_error() {
    let res = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            // A receive nobody sends to.
            let _ = env.recv(Rank(1), 999);
        }
        env.rank().idx()
    });
    assert!(res.is_err(), "a deadlock returned results: {:?}", res.map(|r| r.results));
}

#[test]
fn a_rerun_returns_identical_results() {
    assert_eq!(reverse_finishers(6), reverse_finishers(6));
}
