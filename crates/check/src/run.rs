//! Drive one generated program through the real runtime under one point of
//! the exploration matrix: strategy × API flavour × network perturbation ×
//! tie-break seed. A [`RunSpec`] becomes a `JobConfig`, the program is
//! lowered for the spec's close mode, and [`mpisim_analyze::exec`] — the
//! one interpreter — runs the result.

use mpisim_analyze::{interpret, IrProgram, Run};
pub use mpisim_analyze::{exec_ir_with, RunFailure};
use mpisim_core::{JobConfig, JobReport, SyncStrategy};
use mpisim_net::NetParams;
use mpisim_sim::SimTime;

use crate::lower::lower;
use crate::program::Program;

/// One point of the exploration matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Engine strategy.
    pub strategy: SyncStrategy,
    /// Close every epoch with the `i`-routines and wait at the end.
    pub nonblocking: bool,
    /// Index into [`NetParams::perturbation_profile`] (latency jitter ×
    /// credit starvation grid).
    pub net_profile: u64,
    /// Kernel tie-break perturbation (`None` = FIFO).
    pub tiebreak_seed: Option<u64>,
    /// Simulation seed.
    pub sim_seed: u64,
    /// Injected runtime bug, a `mpisim_core::Fault` name (`None` = none).
    pub fault: Option<String>,
    /// Named network fault plan ([`mpisim_net::FaultPlan::by_name`],
    /// seeded from `sim_seed`). When set, every rank is placed on its own
    /// node so the plan's internode faults actually strike the traffic.
    pub fault_plan: Option<String>,
    /// Run with the ack/retransmit reliability sublayer and the epoch
    /// stall watchdog on. Required for clean runs under any lossy
    /// `fault_plan`; left off in storm self-tests to prove the harness
    /// detects unprotected fault damage.
    pub reliable: bool,
    /// Crash one rank at one epoch-commit point: `(rank, commit)` crashes
    /// the rank's NIC the moment it completes its `commit`-th epoch commit
    /// (1-based, rank-wide ordinal). Setting this arms the full recovery
    /// stack: checkpointing, the reliability sublayer, the watchdog, and
    /// one-rank-per-node placement (a crash must cut real internode
    /// traffic).
    pub crash_at: Option<(usize, u64)>,
}

impl RunSpec {
    /// The unperturbed baseline point.
    pub fn baseline(strategy: SyncStrategy, nonblocking: bool) -> Self {
        RunSpec {
            strategy,
            nonblocking,
            net_profile: 0,
            tiebreak_seed: None,
            sim_seed: 7,
            fault: None,
            fault_plan: None,
            reliable: false,
            crash_at: None,
        }
    }

    /// Render as a Rust expression (for generated reproducer tests).
    pub fn to_rust(&self) -> String {
        let strategy = match self.strategy {
            SyncStrategy::LazyBaseline => "SyncStrategy::LazyBaseline",
            SyncStrategy::Redesigned => "SyncStrategy::Redesigned",
        };
        let fault = match &self.fault {
            Some(f) => format!("Some({f:?}.to_string())"),
            None => "None".into(),
        };
        let fault_plan = match &self.fault_plan {
            Some(p) => format!("Some({p:?}.to_string())"),
            None => "None".into(),
        };
        format!(
            "RunSpec {{\n        strategy: {strategy},\n        nonblocking: {},\n        \
             net_profile: {},\n        tiebreak_seed: {:?},\n        sim_seed: {},\n        \
             fault: {fault},\n        fault_plan: {fault_plan},\n        reliable: {},\n        \
             crash_at: {:?},\n    }}",
            self.nonblocking,
            self.net_profile,
            self.tiebreak_seed,
            self.sim_seed,
            self.reliable,
            self.crash_at
        )
    }
}

/// What a successful run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final window bytes per rank.
    pub mems: Vec<Vec<u8>>,
    /// Get results, rank by rank, in program order.
    pub gets: Vec<Vec<u8>>,
    /// The full job report (traces, stats) for auditing.
    pub report: JobReport,
}

fn job_config(n_ranks: usize, spec: &RunSpec, trace: bool) -> JobConfig {
    let mut cfg = JobConfig::new(n_ranks).with_seed(spec.sim_seed).with_strategy(spec.strategy);
    cfg.net = NetParams::perturbation_profile(spec.net_profile);
    cfg.tiebreak_seed = spec.tiebreak_seed;
    cfg.trace = trace;
    cfg.fault = spec.fault.clone();
    if let Some(plan) = &spec.fault_plan {
        // One rank per node: the default 16-cores-per-node placement would
        // keep every channel intranode, where the fault model (and the
        // sublayer's framing) never applies.
        cfg.cores_per_node = 1;
        cfg.net.faults = Some(
            mpisim_net::FaultPlan::by_name(plan, spec.sim_seed)
                .unwrap_or_else(|| panic!("unknown fault plan {plan:?}")),
        );
    }
    if spec.reliable {
        cfg = cfg.with_reliability().with_watchdog(SimTime::from_millis(20));
    }
    if let Some((rank, commit)) = spec.crash_at {
        // A crash must sever real internode traffic, so placement follows
        // the fault-plan rule: one rank per node.
        cfg.cores_per_node = 1;
        // The recovery stack rides on the reliability sublayer (the
        // outage is bridged by retransmission) and needs a watchdog
        // budget comfortably above the restart outage.
        cfg = cfg.with_reliability().with_watchdog(SimTime::from_millis(50));
        cfg.recovery = true;
        cfg.net
            .faults
            .get_or_insert_with(|| mpisim_net::FaultPlan::none(spec.sim_seed))
            .crash_at_commit
            .push((mpisim_net::Rank(rank), commit));
    }
    cfg
}

/// Execute `program` under `spec` with the trace recorder attached.
pub fn execute(program: &Program, spec: &RunSpec) -> Result<RunOutcome, RunFailure> {
    execute_exec(program, spec, true)
}

/// Execute `program` under `spec`, choosing whether the trace recorder is
/// attached.
///
/// `trace: false` is the lean production-shaped path: the engine's tracing
/// hooks must stay behind their branch-free guard and the run must be
/// observably identical (verdict, memories, counters) to the full-trace
/// run — see `tests/lean_trace.rs`.
pub fn execute_exec(
    program: &Program,
    spec: &RunSpec,
    trace: bool,
) -> Result<RunOutcome, RunFailure> {
    execute_lowered(&lower(program, spec.nonblocking), spec, trace)
}

/// Execute `program` already lowered for `spec`'s close mode: what
/// [`crate::verify_with`] runs after analysing the same IR.
pub(crate) fn execute_lowered(
    ir: &IrProgram,
    spec: &RunSpec,
    trace: bool,
) -> Result<RunOutcome, RunFailure> {
    outcome(interpret(job_config(ir.n_ranks, spec, trace), ir)?)
}

/// A conformance program misuses nothing, so any API error fails the run.
fn outcome(run: Run) -> Result<RunOutcome, RunFailure> {
    match run.errors.first() {
        Some(e) => Err(RunFailure::Panic(e.to_string())),
        None => Ok(RunOutcome { mems: run.mems, gets: run.gets.concat(), report: run.report }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, oracle, Family};

    #[test]
    fn baseline_run_matches_oracle() {
        let p = generate(Family::MixedSerial, 0);
        let exp = oracle(&p);
        let out = execute(&p, &RunSpec::baseline(SyncStrategy::Redesigned, false)).unwrap();
        assert_eq!(out.mems[1..], exp.mems[1..]);
        assert_eq!(out.gets, exp.gets);
        assert!(!out.report.trace.is_empty(), "tracing must be on");
        assert!(out.report.live_requests == 0);
    }

    #[test]
    fn lock_all_storm_matches_oracle() {
        let p = generate(Family::LockAllStorm, 0);
        let exp = oracle(&p);
        for nb in [false, true] {
            let out = execute(&p, &RunSpec::baseline(SyncStrategy::Redesigned, nb)).unwrap();
            assert_eq!(out.mems, exp.mems, "nb={nb}");
            assert_eq!(out.report.live_requests, 0);
        }
    }

    /// An operation outside any epoch is an API error, not a panic: the
    /// interpreter reports it, `execute`'s verdict is failure, and the
    /// lenient `exec_ir_with` (the deadlock cross-validation's entry)
    /// finishes.
    #[test]
    fn api_errors_are_data_that_execute_fails_on() {
        use mpisim_analyze::{IrProgram, Stmt};
        let mut ir = IrProgram::new(2, 64);
        ir.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 4 });
        let run = interpret(JobConfig::new(2), &ir).unwrap();
        assert_eq!(run.errors.len(), 1);
        assert_eq!((run.errors[0].rank, run.errors[0].step), (0, 0));
        let Err(RunFailure::Panic(msg)) = outcome(run) else { panic!("errors must fail the run") };
        assert!(msg.starts_with("rank 0 stmt 0:"), "{msg}");
        exec_ir_with(&ir, false, 7, SyncStrategy::Redesigned)
            .expect("exec_ir_with tolerates API errors");
    }

    #[test]
    fn spec_to_rust_mentions_every_field() {
        let s = RunSpec {
            strategy: SyncStrategy::LazyBaseline,
            nonblocking: true,
            net_profile: 5,
            tiebreak_seed: Some(3),
            sim_seed: 11,
            fault: Some("skip-grant".into()),
            fault_plan: Some("light-loss".into()),
            reliable: true,
            crash_at: Some((2, 4)),
        };
        let src = s.to_rust();
        for needle in [
            "LazyBaseline",
            "nonblocking: true",
            "net_profile: 5",
            "Some(3)",
            "skip-grant",
            "light-loss",
            "reliable: true",
            "crash_at: Some((2, 4))",
        ] {
            assert!(src.contains(needle), "missing {needle} in {src}");
        }
    }
}
