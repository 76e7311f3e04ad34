//! The six workloads and what they share: the exact counters read from
//! `JobReport`, the check ledger behind `failed`/`attempted`, and the job
//! configuration every simulated job starts from.
//!
//! A workload generates its inputs once from the seed (`new`) and then runs
//! the same fixed work every repetition (`rep`). The library only ever sees
//! the generated inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpisim_core::{ExecMode, JobConfig, JobReport, RankEnv, SyncStrategy};
use mpisim_sim::SimError;

use crate::span;

mod collective;
mod conformance;
mod epoch_mix;
mod kernels;
mod pairwise;
mod paper_apps;
mod static_sweep;

/// Names of the exact counters, in the order of [`Counts::vals`]. A later
/// change may claim on any of them as a count: they are identical in every
/// repetition of a run and across runs with the same seed.
pub const EXACT: [&str; 30] = [
    "sim.events",
    "sim.ctx_switches",
    "net.msgs",
    "net.bytes",
    "net.credit_stalls",
    "net.max_backlog",
    "net.faults_injected",
    "core.sweeps",
    "core.step_runs.1",
    "core.step_runs.2",
    "core.step_runs.3",
    "core.step_runs.4",
    "core.step_runs.5",
    "core.step_runs.6",
    "core.step_runs.7",
    "core.ops_issued",
    "core.notices_drained",
    "core.fifo_packets",
    "core.notices_batched",
    "core.epochs_opened",
    "core.epochs_deferred",
    "core.sync_blocked_steps",
    "core.rel_frames_sent",
    "core.rel_retransmits",
    "core.ckpt_bytes",
    "core.jobs",
    "check.verify_runs",
    "analyze.programs",
    "analyze.stmts",
    "bench.fig_cells_checked",
];

const CORE_JOBS: usize = 25;
const VERIFY_RUNS: usize = 26;
const PROGRAMS: usize = 27;
const STMTS: usize = 28;
const FIG_CELLS: usize = 29;

/// Exact counters of one repetition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub vals: [u64; EXACT.len()],
}

impl Counts {
    /// Add one finished job's counters. `net.max_backlog` is a maximum, the
    /// rest are sums.
    fn absorb(&mut self, r: &JobReport) {
        let e = &r.engine;
        let v = &mut self.vals;
        v[0] += r.sim.events_executed;
        v[1] += r.sim.context_switches;
        v[2] += r.net.msgs_sent;
        v[3] += r.net.bytes_sent;
        v[4] += r.net.credit_stalls;
        v[5] = v[5].max(r.net.max_backlog as u64);
        v[6] += r.net.faults_injected;
        v[7] += e.sweeps;
        for (k, s) in e.step_runs.iter().enumerate() {
            v[8 + k] += s;
        }
        v[15] += e.ops_issued;
        v[16] += e.notices_drained;
        v[17] += e.fifo_packets;
        v[18] += e.notices_batched;
        v[19] += e.epochs_opened;
        v[20] += e.epochs_deferred;
        v[21] += e.sync_blocked_steps;
        v[22] += e.rel_frames_sent;
        v[23] += e.rel_retransmits;
        v[24] += e.ckpt_bytes;
        v[CORE_JOBS] += 1;
    }

    pub fn add_verify_run(&mut self) {
        self.vals[VERIFY_RUNS] += 1;
    }

    pub fn add_program(&mut self, stmts: usize) {
        self.vals[PROGRAMS] += 1;
        self.vals[STMTS] += stmts as u64;
    }

    pub fn add_fig_cells(&mut self, cells: u64) {
        self.vals[FIG_CELLS] += cells;
    }

    pub fn get(&self, name: &str) -> u64 {
        let i = EXACT
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no exact counter {name}"));
        self.vals[i]
    }
}

/// Everything one repetition reports besides its wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepOut {
    /// Checks attempted and failed (see [`RepOut::check`]).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the person reading the run.
    pub failures: Vec<String>,
    pub counts: Counts,
    /// Sum of `final_time` (or the app's own elapsed virtual time) over the
    /// repetition's simulated jobs, nanoseconds.
    pub virt_ns: u64,
    /// Per kernel: virtual ns of the `LazyBaseline`+blocking series and of
    /// the `Redesigned`+nonblocking series.
    pub nb_pairs: Vec<(u64, u64)>,
    /// Model outputs of the apps layer (virtual-time quantities).
    pub tx_kps_virt: f64,
    pub lu_comm_pct: f64,
}

impl RepOut {
    /// Record one check. Everything that can be wrong with a repetition goes
    /// through here, so `failed ÷ attempted` is the workload's failed share.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Account for one finished job: its counters, its virtual time, and the
    /// three checks every job gets — no degradations, no leaked requests,
    /// every intranode FIFO packet drained.
    pub fn job(&mut self, what: &str, r: &JobReport) {
        self.counts.absorb(r);
        self.virt_ns += r.final_time.as_nanos();
        self.check(r.is_clean(), || {
            format!("{what}: degradations {:?}", r.degradations)
        });
        self.check(r.live_requests == 0, || {
            format!("{what}: {} leaked requests", r.live_requests)
        });
        self.check(r.engine.fifo_packets == r.engine.fifo_drained, || {
            format!(
                "{what}: fifo pushed {} != drained {}",
                r.engine.fifo_packets, r.engine.fifo_drained
            )
        });
    }

    /// Account for a job that was supposed to succeed but did not run to the
    /// end (deadlock or event cap).
    pub fn job_error(&mut self, what: &str, e: &SimError) {
        self.check(false, || format!("{what}: {e}"));
    }

    /// Add per-rank results of a job's closed-form window check: `bad` ranks
    /// out of `n` found contents other than the formula's.
    pub fn windows(&mut self, what: &str, n: usize, bad: u64) {
        self.attempted += n as u64;
        if bad > 0 {
            self.failed += bad;
            if self.failures.len() < 8 {
                self.failures.push(format!(
                    "{what}: {bad}/{n} ranks hold wrong window contents"
                ));
            }
        }
    }
}

/// Harness-side settings a workload is built with.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    pub seed: u64,
    /// Test-only: make one expectation of every workload wrong by one, to
    /// show that a broken output raises `failed`.
    pub break_check: bool,
    /// Smoke scale: same shapes, a fraction of the iterations.
    pub smoke: bool,
}

impl Setup {
    /// Pick the full-scale or the smoke-scale iteration count.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A seed-derived value in `0..modulus` for input `stream`.
    pub fn draw(&self, stream: u64, modulus: u64) -> u64 {
        mix(self.seed, stream) % modulus
    }
}

/// One of the six workloads.
pub trait Workload {
    fn rep(&mut self) -> RepOut;
}

/// Rank count the `core` probes run at for a workload: the size of the jobs
/// that dominate it.
pub fn probe_ranks(name: &str) -> usize {
    match name {
        "collective_128" => 128,
        "pairwise_2048" => 2048,
        "paper_apps" => 64,
        "epoch_mix_8" => 8,
        _ => 4,
    }
}

/// The workloads by name, in the order they run and print.
pub const NAMES: [&str; 6] = [
    "epoch_mix_8",
    "collective_128",
    "pairwise_2048",
    "paper_apps",
    "conformance",
    "static_sweep",
];

/// Generate a workload's inputs from the seed.
pub fn build(name: &str, s: Setup) -> Option<Box<dyn Workload>> {
    Some(match name {
        "epoch_mix_8" => Box::new(epoch_mix::EpochMix::new(s)),
        "collective_128" => Box::new(collective::Collective::new(s)),
        "pairwise_2048" => Box::new(pairwise::Pairwise::new(s)),
        "paper_apps" => Box::new(paper_apps::PaperApps::new(s)),
        "conformance" => Box::new(conformance::Conformance::new(s)),
        "static_sweep" => Box::new(static_sweep::StaticSweep::new(s)),
        _ => return None,
    })
}

/// The configuration every job the benchmark builds itself starts from: one
/// host thread pinned explicitly (inline pooled fibers), and fault injection
/// switched off in a way the `MPISIM_CHECK_INJECT` environment fallback
/// cannot override.
pub fn job(n_ranks: usize, seed: u64, strategy: SyncStrategy) -> JobConfig {
    let mut cfg = JobConfig::new(n_ranks)
        .with_seed(seed)
        .with_strategy(strategy)
        .with_exec(ExecMode::Pooled { workers: 0 });
    cfg.fault = Some(String::new());
    cfg
}

/// `run_job` under a `core.run_job` span.
pub fn run_job<F>(cfg: JobConfig, body: F) -> Result<JobReport, SimError>
where
    F: Fn(&mut RankEnv) + Send + Sync + 'static,
{
    span::within("core.run_job", || mpisim_core::run_job(cfg, body))
}

/// Counter a job body bumps for every rank whose final window contents differ
/// from the closed form.
#[derive(Clone, Default)]
pub struct BadRanks(Arc<AtomicU64>);

impl BadRanks {
    pub fn note(&self, ok: bool) {
        if !ok {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// SplitMix64 step: the benchmark's only source of pseudo-randomness, so the
/// seed is the only source of variation.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_are_unique_and_indexed() {
        for (i, n) in EXACT.iter().enumerate() {
            assert_eq!(EXACT.iter().position(|m| m == n), Some(i), "{n} repeated");
        }
        assert_eq!(EXACT[CORE_JOBS], "core.jobs");
        assert_eq!(EXACT[VERIFY_RUNS], "check.verify_runs");
        assert_eq!(EXACT[PROGRAMS], "analyze.programs");
        assert_eq!(EXACT[STMTS], "analyze.stmts");
        assert_eq!(EXACT[FIG_CELLS], "bench.fig_cells_checked");
        assert_eq!(EXACT[8], "core.step_runs.1");
        assert_eq!(EXACT[24], "core.ckpt_bytes");
    }

    #[test]
    fn check_ledger_counts_and_keeps_first_messages() {
        let mut r = RepOut::default();
        r.check(true, || unreachable!());
        for i in 0..10 {
            r.check(false, || format!("bad {i}"));
        }
        r.windows("k", 8, 2);
        assert_eq!((r.attempted, r.failed), (19, 12));
        assert_eq!(r.failures.len(), 8);
        assert_eq!(r.failures[0], "bad 0");
    }

    #[test]
    fn a_small_job_is_absorbed_and_checked() {
        let rep = run_job(job(4, 1, SyncStrategy::Redesigned), |env| {
            let w = env.win_allocate(16).unwrap();
            env.fence(w).unwrap();
            env.put(w, mpisim_core::Rank((env.rank().idx() + 1) % 4), 0, &[7])
                .unwrap();
            env.fence(w).unwrap();
            env.win_free(w).unwrap();
        })
        .unwrap();
        let mut out = RepOut::default();
        out.job("t", &rep);
        assert_eq!((out.attempted, out.failed), (3, 0));
        assert_eq!(out.counts.get("core.jobs"), 1);
        assert_eq!(out.counts.get("core.ops_issued"), 4);
        assert!(out.counts.get("sim.events") > 0);
        assert!(out.virt_ns > 0);
    }

    #[test]
    fn mix_depends_on_seed_and_stream() {
        assert_ne!(mix(11, 0), mix(12, 0));
        assert_ne!(mix(11, 0), mix(11, 1));
        assert_eq!(mix(11, 3), mix(11, 3));
    }

    #[test]
    fn every_name_builds() {
        let s = Setup {
            seed: 11,
            break_check: false,
            smoke: true,
        };
        for n in NAMES {
            assert!(build(n, s).is_some(), "{n}");
        }
        assert!(build("nope", s).is_none());
    }
}
