//! Job driver: spawn one simulated process per rank, run the SPMD closure
//! on each, and collect the report.

use std::rc::Rc;

use mpisim_net::NetStats;
use mpisim_sim::{Sim, SimError, SimStats, SimTime};

use crate::api::RankEnv;
use crate::config::JobConfig;
use crate::engine::{Engine, RankStats};
use crate::types::Rank;

/// Everything a finished job reports.
#[derive(Debug)]
pub struct JobReport {
    /// Virtual time when the last rank finished.
    pub final_time: SimTime,
    /// Kernel statistics.
    pub sim: SimStats,
    /// Network statistics.
    pub net: NetStats,
    /// Per-rank timing.
    pub ranks: Vec<RankStats>,
    /// Epoch lifecycle trace (empty unless `JobConfig::trace`).
    pub trace: Vec<crate::trace::TraceRecord>,
    /// Synchronization-plane trace (empty unless `JobConfig::trace`).
    pub sync_trace: Vec<crate::trace::SyncRecord>,
    /// Request lifecycle log (empty unless `JobConfig::trace`).
    pub req_events: Vec<(crate::types::Req, crate::request::ReqEvent)>,
    /// Requests still unconsumed when the job finished (should be 0).
    pub live_requests: usize,
    /// Engine-level counters (epochs opened/activated/completed, grants…).
    pub engine: crate::engine::EngineStats,
    /// Degraded-mode events the engine recorded — protocol violations,
    /// checksum drops, retry exhaustion, peer crashes, and cancelled
    /// (stalled) epochs — each with rank/window provenance. Empty on a
    /// healthy run; see [`JobReport::is_clean`].
    pub degradations: Vec<crate::engine::Degradation>,
    /// Completed rank-restart episodes (crash-recovery provenance). Every
    /// entry here also appears as a [`crate::engine::Degradation::Recovered`]
    /// record in `degradations`.
    pub recoveries: Vec<crate::engine::RecoveryReport>,
}

impl JobReport {
    /// `true` when the run recorded no degraded-mode events: no corrupt
    /// sync packets, checksum failures, exhausted retries, peer crashes,
    /// or watchdog-cancelled epochs.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty()
    }

    /// Mean fraction of rank time spent in MPI calls (Fig 13 b/d).
    pub fn mean_comm_fraction(&self) -> f64 {
        if self.ranks.is_empty() || self.final_time.is_zero() {
            return 0.0;
        }
        let total: f64 = self
            .ranks
            .iter()
            .map(|r| r.mpi_time.as_secs_f64())
            .sum::<f64>();
        total / (self.ranks.len() as f64 * self.final_time.as_secs_f64())
    }
}

/// Run an SPMD program: `f` is executed once per rank against its
/// [`RankEnv`]. Returns when every rank's closure returns.
///
/// ```
/// use mpisim_core::{run_job, JobConfig};
///
/// let report = run_job(JobConfig::new(4), |env| {
///     let win = env.win_allocate(1024).unwrap();
///     env.fence(win).unwrap();
///     if env.rank().idx() == 0 {
///         env.put(win, mpisim_core::Rank(1), 0, &[42]).unwrap();
///     }
///     env.fence(win).unwrap();
///     if env.rank().idx() == 1 {
///         assert_eq!(env.read_local(win, 0, 1).unwrap(), vec![42]);
///     }
///     env.win_free(win).unwrap();
/// })
/// .unwrap();
/// assert!(report.final_time > mpisim_sim::SimTime::ZERO);
/// ```
pub fn run_job<F>(cfg: JobConfig, f: F) -> Result<JobReport, SimError>
where
    F: Fn(&mut RankEnv) + 'static,
{
    let mut sim = Sim::new(cfg.seed);
    sim.set_tiebreak_seed(cfg.tiebreak_seed);
    sim.set_nondet_tiebreak(cfg.nondet_tiebreak);
    let eng = Engine::new(sim.handle(), cfg.clone());
    let f = Rc::new(f);
    for r in 0..cfg.n_ranks {
        let eng = eng.clone();
        let f = f.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut env = RankEnv::new(ctx, eng, Rank(r));
            f(&mut env);
        });
    }
    let stats = sim.run()?;
    let ranks = (0..cfg.n_ranks).map(|r| eng.rank_stats(Rank(r))).collect();
    Ok(JobReport {
        final_time: stats.final_time,
        sim: stats,
        net: eng.network().stats(),
        ranks,
        trace: eng.take_trace(),
        sync_trace: eng.take_sync_trace(),
        req_events: eng.take_req_log(),
        live_requests: eng.live_requests(),
        engine: eng.engine_stats(),
        degradations: eng.take_degradations(),
        recoveries: eng.take_recoveries(),
    })
}
