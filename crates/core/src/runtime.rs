//! Job driver: spawn one simulated process per rank, run the SPMD closure
//! on each, and collect the report with each rank's return value.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use mpisim_net::NetStats;
use mpisim_sim::{Sim, SimError, SimStats, SimTime, TieBreak};

use crate::api::RankEnv;
use crate::config::JobConfig;
use crate::engine::{Degradation, Engine, Fault, RankStats, RecoveryReport};
use crate::types::Rank;

/// Everything a finished job reports; `R` is what each rank's closure
/// returned.
#[derive(Debug)]
pub struct JobReport<R = ()> {
    /// Each rank's closure return value, in rank order.
    pub results: Vec<R>,
    /// The kernel's horizon, [`SimStats::final_time`]: the latest instant
    /// an event was scheduled or a place reserved at, which can lie after
    /// the last rank finished (a credit return still travelling back).
    pub final_time: SimTime,
    /// Kernel statistics.
    pub sim: SimStats,
    /// Network statistics.
    pub net: NetStats,
    /// Per-rank timing.
    pub ranks: Vec<RankStats>,
    /// The trace: epoch, sync-plane and request records in emission
    /// order (empty unless `JobConfig::trace`; see [`crate::trace`]).
    pub trace: Vec<crate::trace::TraceRecord>,
    /// Requests still unconsumed when the job finished (should be 0).
    pub live_requests: usize,
    /// Engine-level counters (epochs opened/activated/completed, grants…).
    pub engine: crate::engine::EngineStats,
    /// Degraded-mode events the engine recorded — protocol violations,
    /// checksum drops, retry exhaustion, peer crashes, and cancelled
    /// (stalled) epochs — each with rank/window provenance. Empty on a
    /// healthy run; see [`JobReport::is_clean`].
    pub degradations: Vec<crate::engine::Degradation>,
}

impl<R> JobReport<R> {
    /// Take the rank results out, leaving the report a unit-returning job
    /// would have given.
    pub fn split_results(self) -> (Vec<R>, JobReport) {
        let JobReport {
            results, final_time, sim, net, ranks, trace, live_requests, engine, degradations,
        } = self;
        let unit = JobReport {
            results: vec![(); results.len()],
            final_time, sim, net, ranks, trace, live_requests, engine, degradations,
        };
        (results, unit)
    }

    /// `true` when the run recorded no degraded-mode events: no corrupt
    /// sync packets, checksum failures, exhausted retries, peer crashes,
    /// or watchdog-cancelled epochs.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty()
    }

    /// Completed rank-restart episodes (crash-recovery provenance): the
    /// [`Degradation::Recovered`] entries of `degradations`, in recording
    /// order.
    pub fn recoveries(&self) -> impl Iterator<Item = &RecoveryReport> {
        self.degradations.iter().filter_map(|d| match d {
            Degradation::Recovered(r) => Some(r),
            _ => None,
        })
    }

    /// Mean fraction of rank time spent in MPI calls (Fig 13 b/d).
    pub fn mean_comm_fraction(&self) -> f64 {
        if self.ranks.is_empty() || self.final_time.is_zero() {
            return 0.0;
        }
        let total: f64 = self
            .ranks
            .iter()
            .map(|r| r.mpi_time().as_secs_f64())
            .sum::<f64>();
        total / (self.ranks.len() as f64 * self.final_time.as_secs_f64())
    }
}

/// The [`Fault::NondetTiebreak`] plant's seed source: every planted job
/// takes the next tie-break seed, so two runs of the very same job in one
/// process schedule differently. The one state `run_job` keeps across jobs.
static NONDET_RUNS: AtomicU64 = AtomicU64::new(0);

/// Run an SPMD program: `f` is executed once per rank against its
/// [`RankEnv`]. Returns when every rank's closure returns; the report's
/// `results` holds what each returned, in rank order (not finish order).
/// A job that deadlocks or hits the event cap is `Err` and returns no
/// results at all.
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
///     let got = env.read_local(win, 0, 1).unwrap()[0];
///     env.win_free(win).unwrap();
///     got
/// })
/// .unwrap();
/// assert_eq!(report.results, vec![0, 42, 0, 0]);
/// assert!(report.final_time > mpisim_sim::SimTime::ZERO);
/// ```
pub fn run_job<F, R>(cfg: JobConfig, f: F) -> Result<JobReport<R>, SimError>
where
    F: Fn(&mut RankEnv) -> R + 'static,
    R: 'static,
{
    let mut sim = Sim::new(cfg.seed);
    sim.set_tiebreak(match (cfg.injected(), cfg.tiebreak_seed) {
        (Some(Fault::NondetTiebreak), _) => {
            TieBreak::Seeded(NONDET_RUNS.fetch_add(1, Ordering::Relaxed))
        }
        (_, Some(seed)) => TieBreak::Seeded(seed),
        (_, None) => TieBreak::Fifo,
    });
    let eng = Engine::new(sim.handle(), cfg.clone());
    let f = Rc::new(f);
    let slots: Rc<[Cell<Option<R>>]> = (0..cfg.n_ranks).map(|_| Cell::new(None)).collect();
    for r in 0..cfg.n_ranks {
        let eng = eng.clone();
        let f = f.clone();
        let slots = slots.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut env = RankEnv::new(ctx, eng, Rank(r));
            slots[r].set(Some(f(&mut env)));
            let s = env.stats();
            debug_assert_eq!(s.compute_time + s.mpi_time(), env.now(), "rank {r}'s time ledger");
        });
    }
    let stats = sim.run()?;
    let results = slots.iter().map(|s| s.take().expect("every rank returned")).collect();
    let ranks = (0..cfg.n_ranks).map(|r| eng.rank_stats(Rank(r))).collect();
    Ok(JobReport {
        results,
        final_time: stats.final_time,
        sim: stats,
        net: eng.network().stats(),
        ranks,
        trace: eng.take_trace(),
        live_requests: eng.live_requests(),
        engine: eng.engine_stats(),
        degradations: eng.take_degradations(),
    })
}
