//! Drive one generated program through the real runtime under one point of
//! the exploration matrix: strategy × API flavour × network perturbation ×
//! tie-break seed, with tracing always on so every run can be audited.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use mpisim_core::{
    run_job, Datatype, ExecMode, Group, JobConfig, JobReport, LockKind, Rank, RecoveryCfg,
    ReduceOp, RmaResult, SyncStrategy, WinInfo,
};
use mpisim_net::NetParams;
use mpisim_sim::SimTime;

use crate::program::{Epoch, Op, Program, StormRounds, MULTI_WIN_BYTES, WIN_BYTES};

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
    /// Injected engine fault (`None` = none). Always passed explicitly to
    /// the job so the `MPISIM_CHECK_INJECT` env fallback never interferes
    /// with harness runs.
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
    /// Validation backdoor for the `--inject bad-recovery` self-test:
    /// checkpoint only at window allocation and restore the crashed rank
    /// *without* redo-log replay, so the restored window is deliberately
    /// stale and the differential check must observe the divergence.
    pub bad_recovery: bool,
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
            bad_recovery: false,
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
             crash_at: {:?},\n        bad_recovery: {},\n    }}",
            self.nonblocking,
            self.net_profile,
            self.tiebreak_seed,
            self.sim_seed,
            self.reliable,
            self.crash_at,
            self.bad_recovery
        )
    }
}

/// What a successful run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final window bytes per rank.
    pub mems: Vec<Vec<u8>>,
    /// Get results in program order (single-origin programs).
    pub gets: Vec<Vec<u8>>,
    /// The full job report (traces, stats) for auditing.
    pub report: JobReport,
}

/// How a run failed before producing a result.
#[derive(Clone, Debug)]
pub enum RunFailure {
    /// The simulation deadlocked (or hit the event cap).
    Deadlock(String),
    /// A rank panicked (failed assertion, engine invariant, …).
    Panic(String),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Deadlock(m) => write!(f, "deadlock: {m}"),
            RunFailure::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

/// Kernel execution-mode overrides for the determinism cross-check.
/// Orthogonal to [`RunSpec`]: every matrix point can be replayed under any
/// exec mode, and the results must be indistinguishable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// How rank processes execute (thread-per-rank vs pooled fibers).
    pub exec: ExecMode,
    /// Plant the kernel's deliberately nondeterministic tie-break
    /// (validation backdoor) — the cross-check must then *fail*.
    pub nondet_tiebreak: bool,
}

fn job_config(n_ranks: usize, spec: &RunSpec, trace: bool, eo: ExecOpts) -> JobConfig {
    let mut cfg = JobConfig::new(n_ranks).with_seed(spec.sim_seed).with_strategy(spec.strategy);
    cfg.net = NetParams::perturbation_profile(spec.net_profile);
    cfg.tiebreak_seed = spec.tiebreak_seed;
    cfg.trace = trace;
    cfg.exec = eo.exec;
    cfg.nondet_tiebreak = eo.nondet_tiebreak;
    // `Some("")` disables the env-var fallback: harness runs are hermetic.
    cfg.fault = Some(spec.fault.clone().unwrap_or_default());
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
        cfg.recovery = Some(RecoveryCfg {
            // Healthy mode checkpoints at every commit. The bad-recovery
            // self-test keeps only the win_allocate baseline, so the redo
            // log at crash time is maximal and skipping its replay
            // guarantees a stale window.
            ckpt_every: if spec.bad_recovery { u64::MAX } else { 1 },
            plant_stale: spec.bad_recovery,
            ..RecoveryCfg::default()
        });
        cfg.net
            .faults
            .get_or_insert_with(|| mpisim_net::FaultPlan::none(spec.sim_seed))
            .crash_at_commit
            .push((mpisim_net::Rank(rank), commit));
    }
    cfg
}

fn issue(
    env: &mpisim_core::RankEnv,
    win: mpisim_core::WinId,
    ops: &[Op],
    gets: &mut Vec<mpisim_core::Req>,
) -> RmaResult<()> {
    for op in ops {
        match op {
            Op::Put { target, disp, val, len } => {
                env.put(win, Rank(*target), *disp, &vec![*val; *len])?;
            }
            Op::AccSum { target, slot, operand } => {
                env.accumulate(
                    win,
                    Rank(*target),
                    slot * 8,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &operand.to_le_bytes(),
                )?;
            }
            Op::Get { target, disp, len } => {
                gets.push(env.get(win, Rank(*target), *disp, *len)?);
            }
        }
    }
    Ok(())
}

fn execute_multi_origin(
    n_ranks: usize,
    plan: Arc<Vec<Vec<(usize, usize, u64)>>>,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
) -> Result<RunOutcome, RunFailure> {
    let nonblocking = spec.nonblocking;
    let mems = Arc::new(Mutex::new(vec![Vec::new(); n_ranks]));
    let m2 = mems.clone();

    let report = run_guarded(job_config(n_ranks, spec, trace, eo), move |env| {
        let me = env.rank().idx();
        let win = env.win_allocate_with(MULTI_WIN_BYTES, WinInfo::aaar()).unwrap();
        env.barrier().unwrap();
        let mut pend = Vec::new();
        for (target, slot, v) in &plan[me] {
            if nonblocking {
                // The dummy epoch-open request completes at creation but
                // must still be consumed via test/wait (§VII.C).
                pend.push(env.ilock(win, Rank(*target), LockKind::Exclusive).unwrap());
            } else {
                env.lock(win, Rank(*target), LockKind::Exclusive).unwrap();
            }
            env.accumulate(
                win,
                Rank(*target),
                slot * 8,
                Datatype::U64,
                ReduceOp::Sum,
                &v.to_le_bytes(),
            )
            .unwrap();
            if nonblocking {
                pend.push(env.iunlock(win, Rank(*target)).unwrap());
            } else {
                env.unlock(win, Rank(*target)).unwrap();
            }
            env.compute(SimTime::from_nanos(((me as u64) * 97 + 13) % 500));
        }
        env.wait_all(pend).unwrap();
        env.barrier().unwrap();
        m2.lock().unwrap()[me] = env.read_local(win, 0, MULTI_WIN_BYTES).unwrap();
        env.win_free(win).unwrap();
    })?;
    let mems = mems.lock().unwrap().clone();
    Ok(RunOutcome { mems, gets: Vec::new(), report })
}

fn execute_lock_all_storm(
    n_ranks: usize,
    rounds: Arc<StormRounds>,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
) -> Result<RunOutcome, RunFailure> {
    let nonblocking = spec.nonblocking;
    let mems = Arc::new(Mutex::new(vec![Vec::new(); n_ranks]));
    let m2 = mems.clone();

    let report = run_guarded(job_config(n_ranks, spec, trace, eo), move |env| {
        let me = env.rank().idx();
        let win = env.win_allocate_with(MULTI_WIN_BYTES, WinInfo::default()).unwrap();
        env.barrier().unwrap();
        let mut pend = Vec::new();
        for accs in &rounds[me] {
            if nonblocking {
                pend.push(env.ilock_all(win).unwrap());
            } else {
                env.lock_all(win).unwrap();
            }
            for (target, slot, v) in accs {
                env.accumulate(
                    win,
                    Rank(*target),
                    slot * 8,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &v.to_le_bytes(),
                )
                .unwrap();
            }
            if nonblocking {
                pend.push(env.iunlock_all(win).unwrap());
            } else {
                env.unlock_all(win).unwrap();
            }
            env.compute(SimTime::from_nanos(((me as u64) * 131 + 29) % 400));
        }
        env.wait_all(pend).unwrap();
        env.barrier().unwrap();
        m2.lock().unwrap()[me] = env.read_local(win, 0, MULTI_WIN_BYTES).unwrap();
        env.win_free(win).unwrap();
    })?;
    let mems = mems.lock().unwrap().clone();
    Ok(RunOutcome { mems, gets: Vec::new(), report })
}

/// Rank 0 drives every `(window, epoch)` pair while the other ranks join
/// each fence phase and expose for each GATS epoch — the executor
/// [`crate::lower`]'s `lower_driver`/`lower_target` mirror. `flush_locks`
/// forces remote completion before every lock epoch's close (the
/// multi-window family's distinguishing feature).
#[allow(clippy::too_many_arguments)]
fn execute_driver(
    n_ranks: usize,
    n_wins: usize,
    flush_locks: bool,
    info: WinInfo,
    epochs: Arc<Vec<(usize, Epoch)>>,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
) -> Result<RunOutcome, RunFailure> {
    let nonblocking = spec.nonblocking;
    let mems = Arc::new(Mutex::new(vec![Vec::new(); n_ranks]));
    let gets = Arc::new(Mutex::new(Vec::new()));
    let (m2, g2) = (mems.clone(), gets.clone());

    let report = run_guarded(job_config(n_ranks, spec, trace, eo), move |env| {
        let me = env.rank().idx();
        // `win_allocate_with` is collective, so sequential allocation
        // yields the same window ids on every rank.
        let wins: Vec<_> = (0..n_wins)
            .map(|_| env.win_allocate_with(WIN_BYTES, info).unwrap())
            .collect();
        env.barrier().unwrap();
        if me == 0 {
            let mut pending = Vec::new();
            let mut get_reqs = Vec::new();
            for (w, e) in epochs.iter() {
                let win = wins[*w];
                match e {
                    Epoch::Fence(ops) => {
                        env.fence(win).unwrap();
                        issue(env, win, ops, &mut get_reqs).unwrap();
                        if nonblocking {
                            pending.push(env.ifence(win).unwrap());
                        } else {
                            env.fence(win).unwrap();
                        }
                    }
                    Epoch::Gats(ops) => {
                        env.start(win, Group::new(1..n_ranks)).unwrap();
                        issue(env, win, ops, &mut get_reqs).unwrap();
                        if nonblocking {
                            pending.push(env.icomplete(win).unwrap());
                        } else {
                            env.complete(win).unwrap();
                        }
                    }
                    Epoch::Lock { target, ops } => {
                        env.lock(win, Rank(*target), LockKind::Exclusive).unwrap();
                        issue(env, win, ops, &mut get_reqs).unwrap();
                        if flush_locks {
                            env.flush(win, Rank(*target)).unwrap();
                        }
                        if nonblocking {
                            pending.push(env.iunlock(win, Rank(*target)).unwrap());
                        } else {
                            env.unlock(win, Rank(*target)).unwrap();
                        }
                    }
                    Epoch::LockAll(ops) => {
                        env.lock_all(win).unwrap();
                        issue(env, win, ops, &mut get_reqs).unwrap();
                        if nonblocking {
                            pending.push(env.iunlock_all(win).unwrap());
                        } else {
                            env.unlock_all(win).unwrap();
                        }
                    }
                }
            }
            env.wait_all(pending).unwrap();
            let mut out = Vec::new();
            for r in get_reqs {
                out.push(env.wait_data(r).unwrap().to_vec());
            }
            *g2.lock().unwrap() = out;
        } else {
            for (w, e) in epochs.iter() {
                let win = wins[*w];
                match e {
                    Epoch::Fence(_) => {
                        env.fence(win).unwrap();
                        env.fence(win).unwrap();
                    }
                    Epoch::Gats(_) => {
                        env.post(win, Group::single(Rank(0))).unwrap();
                        env.wait_epoch(win).unwrap();
                    }
                    _ => {}
                }
            }
        }
        env.barrier().unwrap();
        let mut all = Vec::new();
        for w in &wins {
            all.extend(env.read_local(*w, 0, WIN_BYTES).unwrap());
        }
        m2.lock().unwrap()[me] = all;
        for w in wins {
            env.win_free(w).unwrap();
        }
    })?;
    let mems = mems.lock().unwrap().clone();
    let gets = gets.lock().unwrap().clone();
    Ok(RunOutcome { mems, gets, report })
}

/// `run_job` with both failure modes mapped into [`RunFailure`]: a
/// simulated deadlock surfaces as `Err(SimError)`, an engine/rank panic
/// unwinds through `sim.run()`.
fn run_guarded<F>(cfg: JobConfig, f: F) -> Result<JobReport, RunFailure>
where
    F: Fn(&mut mpisim_core::RankEnv) + Send + Sync + 'static,
{
    match catch_unwind(AssertUnwindSafe(|| run_job(cfg, f))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(RunFailure::Deadlock(e.to_string())),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(RunFailure::Panic(msg))
        }
    }
}

/// Execute `program` under `spec` with the trace recorder attached.
pub fn execute(program: &Program, spec: &RunSpec) -> Result<RunOutcome, RunFailure> {
    execute_with_trace(program, spec, true)
}

/// Execute `program` under `spec`, choosing whether the trace recorder
/// is attached. `trace: false` is the lean production-shaped path: the
/// engine's tracing hooks must stay behind their branch-free guard and
/// the run must be observably identical (verdict, memories, counters)
/// to the full-trace run — see `tests/lean_trace.rs`.
pub fn execute_with_trace(
    program: &Program,
    spec: &RunSpec,
    trace: bool,
) -> Result<RunOutcome, RunFailure> {
    execute_exec(program, spec, trace, ExecOpts::default())
}

/// Execute `program` under `spec` with an explicit kernel execution mode.
/// The determinism cross-check replays the same (program, spec) point
/// under thread-per-rank and both pooled variants and requires the runs
/// to be byte-identical in everything observable.
pub fn execute_exec(
    program: &Program,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
) -> Result<RunOutcome, RunFailure> {
    match program {
        Program::SingleOrigin { n_ranks, reorder, epochs } => {
            let info = if *reorder { WinInfo::all_reorder() } else { WinInfo::default() };
            let epochs = epochs.iter().map(|e| (0, e.clone())).collect();
            execute_driver(*n_ranks, 1, false, info, Arc::new(epochs), spec, trace, eo)
        }
        Program::MultiOrigin { n_ranks, plan } => {
            execute_multi_origin(*n_ranks, Arc::new(plan.clone()), spec, trace, eo)
        }
        Program::LockAllStorm { n_ranks, rounds } => {
            execute_lock_all_storm(*n_ranks, Arc::new(rounds.clone()), spec, trace, eo)
        }
        Program::MultiWindow { n_ranks, n_wins, epochs } => {
            let epochs = Arc::new(epochs.clone());
            execute_driver(*n_ranks, *n_wins, true, WinInfo::default(), epochs, spec, trace, eo)
        }
    }
}

/// Execute an analyzer [`IrProgram`] directly against the runtime: every
/// rank walks its statement list, allocating the program's windows up
/// front and collecting nonblocking-close requests until the next
/// `WaitAll`. With `watchdog` set the stall watchdog is armed, so even a
/// deadlocking program terminates — degraded, with one
/// [`mpisim_core::StallReport`] per cancelled epoch — which is exactly
/// the property the deadlock cross-validation measures. Call results are
/// deliberately not unwrapped: statements after a cancelled epoch may
/// return protocol errors, and the interpreter's job is to keep walking.
pub fn exec_ir(
    p: &mpisim_analyze::IrProgram,
    watchdog: bool,
    sim_seed: u64,
) -> Result<mpisim_core::JobReport, RunFailure> {
    exec_ir_inner(p, watchdog, sim_seed, None, None)
}

/// [`exec_ir`] for the rewrite-equivalence validator: runs under an
/// explicit engine `strategy` and additionally captures every rank's
/// final window bytes (via a trailing barrier + local read, so all
/// in-flight operations have landed). The memory capture is what makes
/// the original-vs-rewritten differential comparison possible for IR
/// programs.
pub fn exec_ir_with(
    p: &mpisim_analyze::IrProgram,
    watchdog: bool,
    sim_seed: u64,
    strategy: SyncStrategy,
) -> Result<(Vec<Vec<u8>>, mpisim_core::JobReport), RunFailure> {
    let mems = Arc::new(Mutex::new(vec![Vec::new(); p.n_ranks]));
    let report = exec_ir_inner(p, watchdog, sim_seed, Some(strategy), Some(mems.clone()))?;
    let mems = mems.lock().unwrap().clone();
    Ok((mems, report))
}

fn exec_ir_inner(
    p: &mpisim_analyze::IrProgram,
    watchdog: bool,
    sim_seed: u64,
    strategy: Option<SyncStrategy>,
    capture: Option<Arc<Mutex<Vec<Vec<u8>>>>>,
) -> Result<mpisim_core::JobReport, RunFailure> {
    let n_ranks = p.n_ranks;
    let mut cfg = JobConfig::new(n_ranks).with_seed(sim_seed);
    cfg.trace = true;
    cfg.fault = Some(String::new());
    if let Some(s) = strategy {
        cfg = cfg.with_strategy(s);
    }
    if watchdog {
        cfg = cfg.with_watchdog(SimTime::from_millis(20));
    }
    let prog = Arc::new(p.clone());
    run_guarded(cfg, move |env| {
        use mpisim_analyze::{Close, Stmt};
        /// Issue one value-producing read and block for its 8-byte result.
        fn fetch_value(
            env: &mpisim_core::RankEnv,
            w: mpisim_core::WinId,
            target: usize,
            disp: usize,
            kind: mpisim_analyze::FetchKind,
        ) -> Option<u64> {
            use mpisim_analyze::FetchKind as F;
            let req = match kind {
                F::Get => env.get(w, Rank(target), disp, 8),
                F::GetAcc(op) => {
                    env.get_accumulate(w, Rank(target), disp, Datatype::U64, op, &1u64.to_le_bytes())
                }
                F::FetchOp(op) => {
                    env.fetch_and_op(w, Rank(target), disp, Datatype::U64, op, &1u64.to_le_bytes())
                }
            }
            .ok()?;
            let bytes = env.wait_data(req).ok()?;
            let mut buf = [0u8; 8];
            let n = bytes.len().min(8);
            buf[..n].copy_from_slice(&bytes[..n]);
            Some(u64::from_le_bytes(buf))
        }
        let me = env.rank().idx();
        let info = if prog.reorder { WinInfo::all_reorder() } else { WinInfo::default() };
        let wins: Vec<_> = prog
            .windows
            .iter()
            .map(|bytes| env.win_allocate_with(*bytes, info).unwrap())
            .collect();
        let mut pending: Vec<mpisim_core::Req> = Vec::new();
        // Value locals: binding provenance (win, target, disp, kind) plus
        // the last value fetched into the local.
        let mut locals: std::collections::BTreeMap<
            usize,
            (usize, usize, usize, mpisim_analyze::FetchKind, u64),
        > = std::collections::BTreeMap::new();
        let nb = |res: RmaResult<mpisim_core::Req>, pending: &mut Vec<mpisim_core::Req>| {
            if let Ok(r) = res {
                pending.push(r);
            }
        };
        for stmt in &prog.ranks[me] {
            match stmt {
                Stmt::Fence { win, close } => match close {
                    Close::Blocking => {
                        let _ = env.fence(wins[*win]);
                    }
                    Close::Nonblocking => nb(env.ifence(wins[*win]), &mut pending),
                },
                Stmt::Start { win, group } => {
                    let _ = env.start(wins[*win], Group::new(group.iter().copied()));
                }
                Stmt::Complete { win, close } => match close {
                    Close::Blocking => {
                        let _ = env.complete(wins[*win]);
                    }
                    Close::Nonblocking => nb(env.icomplete(wins[*win]), &mut pending),
                },
                Stmt::Post { win, group } => {
                    let _ = env.post(wins[*win], Group::new(group.iter().copied()));
                }
                Stmt::WaitEpoch { win, close } => match close {
                    Close::Blocking => {
                        let _ = env.wait_epoch(wins[*win]);
                    }
                    Close::Nonblocking => nb(env.iwait(wins[*win]), &mut pending),
                },
                Stmt::Lock { win, target, exclusive, nonblocking } => {
                    let kind = if *exclusive { LockKind::Exclusive } else { LockKind::Shared };
                    if *nonblocking {
                        nb(env.ilock(wins[*win], Rank(*target), kind), &mut pending);
                    } else {
                        let _ = env.lock(wins[*win], Rank(*target), kind);
                    }
                }
                Stmt::Unlock { win, target, close } => match close {
                    Close::Blocking => {
                        let _ = env.unlock(wins[*win], Rank(*target));
                    }
                    Close::Nonblocking => nb(env.iunlock(wins[*win], Rank(*target)), &mut pending),
                },
                Stmt::LockAll { win } => {
                    let _ = env.lock_all(wins[*win]);
                }
                Stmt::UnlockAll { win, close } => match close {
                    Close::Blocking => {
                        let _ = env.unlock_all(wins[*win]);
                    }
                    Close::Nonblocking => nb(env.iunlock_all(wins[*win]), &mut pending),
                },
                Stmt::Flush { win, target, local_only, close } => {
                    let w = wins[*win];
                    match (close, target, local_only) {
                        (Close::Blocking, Some(t), false) => {
                            let _ = env.flush(w, Rank(*t));
                        }
                        (Close::Blocking, Some(t), true) => {
                            let _ = env.flush_local(w, Rank(*t));
                        }
                        (Close::Blocking, None, false) => {
                            let _ = env.flush_all(w);
                        }
                        (Close::Blocking, None, true) => {
                            let _ = env.flush_local_all(w);
                        }
                        (Close::Nonblocking, Some(t), false) => {
                            nb(env.iflush(w, Rank(*t)), &mut pending);
                        }
                        (Close::Nonblocking, Some(t), true) => {
                            nb(env.iflush_local(w, Rank(*t)), &mut pending);
                        }
                        (Close::Nonblocking, None, false) => {
                            nb(env.iflush_all(w), &mut pending);
                        }
                        (Close::Nonblocking, None, true) => {
                            nb(env.iflush_local_all(w), &mut pending);
                        }
                    }
                }
                Stmt::Put { win, target, disp, len } => {
                    let _ = env.put(wins[*win], Rank(*target), *disp, &vec![0xabu8; *len]);
                }
                Stmt::Get { win, target, disp, len } => {
                    // The data request is intentionally dropped: the IR
                    // interpreter checks liveness, not values.
                    let _ = env.get(wins[*win], Rank(*target), *disp, *len);
                }
                Stmt::Acc { win, target, disp, len: _, op } => {
                    let _ = env.accumulate(
                        wins[*win],
                        Rank(*target),
                        *disp,
                        Datatype::U64,
                        *op,
                        &1u64.to_le_bytes(),
                    );
                }
                Stmt::ReadValue { win, target, disp, kind, local } => {
                    let v = fetch_value(env, wins[*win], *target, *disp, *kind).unwrap_or(0);
                    locals.insert(*local, (*win, *target, *disp, *kind, v));
                }
                Stmt::AccVal { win, target, disp, op, val } => {
                    let _ = env.accumulate(
                        wins[*win],
                        Rank(*target),
                        *disp,
                        Datatype::U64,
                        *op,
                        &val.to_le_bytes(),
                    );
                }
                Stmt::SpinUntil { local, expect } => {
                    // Bounded spin: re-fetch the bound slot until the
                    // expected value appears or the budget runs out. The
                    // budget (800 × 100µs = 80ms virtual) sits comfortably
                    // past twice the 20ms watchdog window, so a doomed
                    // spin stalls its peers hard enough for the watchdog
                    // to act while the run itself still terminates.
                    if let Some((win, target, disp, kind, mut v)) = locals.get(local).copied() {
                        let mut spins = 0u32;
                        while v != *expect && spins < 800 {
                            env.compute(SimTime::from_micros(100));
                            v = fetch_value(env, wins[win], target, disp, kind).unwrap_or(v);
                            spins += 1;
                        }
                        if let Some(slot) = locals.get_mut(local) {
                            slot.4 = v;
                        }
                    }
                }
                Stmt::WaitAll => {
                    let _ = env.wait_all(pending.drain(..));
                }
                Stmt::Barrier => {
                    let _ = env.barrier();
                }
            }
        }
        let _ = env.wait_all(pending.drain(..));
        if let Some(mems) = &capture {
            let _ = env.barrier();
            let mut all = Vec::new();
            for (i, w) in wins.iter().enumerate() {
                all.extend(env.read_local(*w, 0, prog.windows[i]).unwrap_or_default());
            }
            mems.lock().unwrap()[me] = all;
        }
    })
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
            bad_recovery: true,
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
            "bad_recovery: true",
        ] {
            assert!(src.contains(needle), "missing {needle} in {src}");
        }
    }
}
