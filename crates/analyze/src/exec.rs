//! The one interpreter: run an [`IrProgram`] against the simulator.
//!
//! Every rank walks its statement list and makes one API call per
//! statement, so the call sequence the runtime sees is the statement
//! list the analyzer saw. Windows are allocated up front in index
//! order; requests of nonblocking opens, closes and flushes are
//! collected until the next [`Stmt::WaitAll`] (and drained after the last
//! statement); the data of every [`Stmt::Get`] is collected, in program
//! order, at the first such wait after the epoch covering it has closed.
//!
//! API errors never stop the walk: statements after a watchdog-cancelled
//! epoch may return protocol errors, and the deadlock cross-validation
//! needs the run to finish regardless. They are returned as data
//! ([`Run::errors`]) and the caller decides — `mpisim-check`'s `execute`
//! fails on any, the cross-validation ignores them.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpisim_core::{
    run_job, Datatype, Group, JobConfig, JobReport, LockKind, Rank, RankEnv, Req, RmaError,
    RmaResult, SyncStrategy, WinId,
};
use mpisim_sim::SimTime;

use crate::ir::{FetchKind, IrProgram, Stmt};

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

/// An API call the interpreter made that returned an error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// The calling rank.
    pub rank: usize,
    /// Index of the statement in that rank's list (the list's length for
    /// the read-back after the last statement).
    pub step: usize,
    /// What the call returned.
    pub error: RmaError,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} stmt {}: {}", self.rank, self.step, self.error)
    }
}

/// What one interpreted job produced.
#[derive(Debug)]
pub struct Run {
    /// The job report (stats; traces if the config asked for them).
    pub report: JobReport,
    /// Per rank: its windows, read back after its last statement and
    /// concatenated in window order.
    pub mems: Vec<Vec<u8>>,
    /// Per rank: the data of every `Get`, in program order.
    pub gets: Vec<Vec<Vec<u8>>>,
    /// Every API error, by rank, then statement.
    pub errors: Vec<ApiError>,
}

/// How a job frames the statement walk.
#[derive(Copy, Clone)]
enum Frame {
    /// [`interpret`]: the program is the whole job. A barrier separates
    /// window allocation from the first statement; the windows are read
    /// back right after the last (a program that wants them quiescent
    /// ends in its own barrier) and freed.
    WholeJob,
    /// [`exec_ir_with`]: the program is a bare statement list. The
    /// interpreter supplies the barrier before the read-back and leaves
    /// the windows allocated.
    Bare,
}

/// Run `p` as a whole job under `cfg` (the caller's choice of strategy,
/// network, tracing, faults, watchdog, …).
pub fn interpret(cfg: JobConfig, p: &IrProgram) -> Result<Run, RunFailure> {
    run(cfg, p, Frame::WholeJob)
}

/// Run `p` under `sim_seed` and engine `strategy`, returning every rank's
/// final window bytes (read after a trailing barrier, so all in-flight
/// operations have landed) — what the original-vs-rewritten differential
/// comparison needs. With `watchdog` set the stall watchdog is armed, so
/// even a deadlocking program terminates — degraded, with one
/// [`mpisim_core::StallReport`] per cancelled epoch — which is exactly the
/// property the deadlock cross-validation measures.
pub fn exec_ir_with(
    p: &IrProgram,
    watchdog: bool,
    sim_seed: u64,
    strategy: SyncStrategy,
) -> Result<(Vec<Vec<u8>>, JobReport), RunFailure> {
    let mut cfg = JobConfig::new(p.n_ranks).with_seed(sim_seed).with_strategy(strategy);
    if watchdog {
        cfg = cfg.with_watchdog(SimTime::from_millis(20));
    }
    run(cfg, p, Frame::Bare).map(|r| (r.mems, r.report))
}

/// `run_job` with both failure modes mapped into [`RunFailure`]: a
/// simulated deadlock surfaces as `Err(SimError)`, an engine/rank panic
/// unwinds through `sim.run()`.
fn run_guarded<F, R>(cfg: JobConfig, f: F) -> Result<JobReport<R>, RunFailure>
where
    F: Fn(&mut RankEnv) -> R + 'static,
    R: 'static,
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

fn run(cfg: JobConfig, p: &IrProgram, frame: Frame) -> Result<Run, RunFailure> {
    let prog = p.clone();
    let (outs, report) =
        run_guarded(cfg, move |env| Walker::new(env, &prog).run(&prog, frame))?.split_results();
    let mut run = Run { report, mems: Vec::new(), gets: Vec::new(), errors: Vec::new() };
    for out in outs {
        run.mems.push(out.mem);
        run.gets.push(out.gets);
        run.errors.extend(out.errors);
    }
    Ok(run)
}

/// What one rank hands back.
#[derive(Default)]
struct RankOut {
    mem: Vec<u8>,
    gets: Vec<Vec<u8>>,
    errors: Vec<ApiError>,
}

/// A `Get` whose data has not been collected yet.
struct OpenGet {
    /// Position in `RankOut::gets`.
    idx: usize,
    win: usize,
    target: usize,
    req: Req,
    /// The epoch covering it has been closed (blocking or not).
    closed: bool,
}

/// One rank's interpreter state.
struct Walker<'a, 'e> {
    env: &'a RankEnv<'e>,
    wins: Vec<WinId>,
    /// Index of the statement being executed.
    step: usize,
    /// Requests of nonblocking opens, closes and flushes since the last
    /// `WaitAll`.
    pending: Vec<Req>,
    open_gets: Vec<OpenGet>,
    /// Value locals: binding provenance (win, target, disp, kind) plus
    /// the last value fetched into the local.
    locals: BTreeMap<usize, (usize, usize, usize, FetchKind, u64)>,
    out: RankOut,
}

impl<'a, 'e> Walker<'a, 'e> {
    fn new(env: &'a RankEnv<'e>, p: &IrProgram) -> Self {
        let info = p.info();
        // `win_allocate_with` is collective, so sequential allocation
        // yields the same window ids on every rank.
        let wins = p
            .windows
            .iter()
            .map(|bytes| env.win_allocate_with(*bytes, info).expect("window allocation"))
            .collect();
        Walker {
            env,
            wins,
            step: 0,
            pending: Vec::new(),
            open_gets: Vec::new(),
            locals: BTreeMap::new(),
            out: RankOut::default(),
        }
    }

    /// Record the error of a failed call and keep walking.
    fn ok<T>(&mut self, res: RmaResult<T>) -> Option<T> {
        res.map_err(|error| {
            self.out.errors.push(ApiError { rank: self.env.rank().idx(), step: self.step, error })
        })
        .ok()
    }

    /// A call with a blocking and a nonblocking form; the latter's
    /// request waits for the next `WaitAll`.
    fn sync(
        &mut self,
        nonblocking: bool,
        blocking_form: impl FnOnce() -> RmaResult<()>,
        nonblocking_form: impl FnOnce() -> RmaResult<Req>,
    ) {
        if nonblocking {
            if let Some(req) = self.ok(nonblocking_form()) {
                self.pending.push(req);
            }
        } else {
            self.ok(blocking_form());
        }
    }

    /// An epoch on `win` (toward `target`, or every target) was closed:
    /// its gets hold their data once the close has completed.
    fn close_gets(&mut self, win: usize, target: Option<usize>) {
        for g in &mut self.open_gets {
            if g.win == win && target.is_none_or(|t| t == g.target) {
                g.closed = true;
            }
        }
    }

    /// Consume every pending request, then collect the data of the gets
    /// whose epochs are closed — and, with every close request consumed,
    /// complete. A get in a still-open epoch is left for a later wait:
    /// the lazy engine issues it only at the close.
    fn wait_all(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.ok(self.env.wait_all(pending));
        let (closed, open) =
            std::mem::take(&mut self.open_gets).into_iter().partition(|g| g.closed);
        self.open_gets = open;
        for g in closed {
            if let Some(data) = self.ok(self.env.wait_data(g.req)) {
                self.out.gets[g.idx] = data.to_vec();
            }
        }
    }

    /// Issue one value-producing read and block for its 8-byte result.
    fn fetch_value(
        &mut self,
        win: usize,
        target: usize,
        disp: usize,
        kind: FetchKind,
    ) -> Option<u64> {
        let (env, w, one) = (self.env, self.wins[win], 1u64.to_le_bytes());
        let req = match kind {
            FetchKind::Get => env.get(w, Rank(target), disp, 8),
            FetchKind::GetAcc(op) => {
                env.get_accumulate(w, Rank(target), disp, Datatype::U64, op, &one)
            }
            FetchKind::FetchOp(op) => {
                env.fetch_and_op(w, Rank(target), disp, Datatype::U64, op, &one)
            }
        };
        let req = self.ok(req)?;
        let bytes = self.ok(env.wait_data(req))?;
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        Some(u64::from_le_bytes(buf))
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let env = self.env;
        // A window the program does not declare is the analyzer's E010;
        // here it is the call's error, and the walk goes on.
        if let Some(win) = stmt.win().filter(|&w| w >= self.wins.len()) {
            self.ok::<()>(Err(RmaError::InvalidWindow(WinId(win as u32))));
            return;
        }
        match stmt {
            Stmt::Fence { win, close } => {
                let w = self.wins[*win];
                self.sync(!close.is_blocking(), || env.fence(w), || env.ifence(w));
                self.close_gets(*win, None);
            }
            Stmt::Start { win, group } => {
                self.ok(env.start(self.wins[*win], Group::new(group.iter().copied())));
            }
            Stmt::Complete { win, close } => {
                let w = self.wins[*win];
                self.sync(!close.is_blocking(), || env.complete(w), || env.icomplete(w));
                self.close_gets(*win, None);
            }
            Stmt::Post { win, group } => {
                self.ok(env.post(self.wins[*win], Group::new(group.iter().copied())));
            }
            Stmt::WaitEpoch { win, close } => {
                let w = self.wins[*win];
                self.sync(!close.is_blocking(), || env.wait_epoch(w), || env.iwait(w));
            }
            Stmt::Lock { win, target, exclusive, nonblocking } => {
                let (w, t) = (self.wins[*win], Rank(*target));
                let kind = if *exclusive { LockKind::Exclusive } else { LockKind::Shared };
                self.sync(*nonblocking, || env.lock(w, t, kind), || env.ilock(w, t, kind));
            }
            Stmt::Unlock { win, target, close } => {
                let (w, t) = (self.wins[*win], Rank(*target));
                self.sync(!close.is_blocking(), || env.unlock(w, t), || env.iunlock(w, t));
                self.close_gets(*win, Some(*target));
            }
            Stmt::LockAll { win, nonblocking } => {
                let w = self.wins[*win];
                self.sync(*nonblocking, || env.lock_all(w), || env.ilock_all(w));
            }
            Stmt::UnlockAll { win, close } => {
                let w = self.wins[*win];
                self.sync(!close.is_blocking(), || env.unlock_all(w), || env.iunlock_all(w));
                self.close_gets(*win, None);
            }
            Stmt::Flush { win, target, local_only, close } => {
                let (w, nb) = (self.wins[*win], !close.is_blocking());
                match (target.map(Rank), local_only) {
                    (Some(t), false) => self.sync(nb, || env.flush(w, t), || env.iflush(w, t)),
                    (Some(t), true) => {
                        self.sync(nb, || env.flush_local(w, t), || env.iflush_local(w, t))
                    }
                    (None, false) => self.sync(nb, || env.flush_all(w), || env.iflush_all(w)),
                    (None, true) => {
                        self.sync(nb, || env.flush_local_all(w), || env.iflush_local_all(w))
                    }
                }
            }
            Stmt::Put { win, target, disp, len } => {
                self.ok(env.put(self.wins[*win], Rank(*target), *disp, &vec![0xab; *len]));
            }
            Stmt::PutVal { win, target, disp, len, val } => {
                self.ok(env.put(self.wins[*win], Rank(*target), *disp, &vec![*val; *len]));
            }
            Stmt::Get { win, target, disp, len } => {
                if let Some(req) = self.ok(env.get(self.wins[*win], Rank(*target), *disp, *len)) {
                    let idx = self.out.gets.len();
                    self.out.gets.push(Vec::new());
                    self.open_gets.push(OpenGet {
                        idx,
                        win: *win,
                        target: *target,
                        req,
                        closed: false,
                    });
                }
            }
            Stmt::Acc { win, target, disp, len: _, op } => {
                let (w, t, one) = (self.wins[*win], Rank(*target), 1u64.to_le_bytes());
                self.ok(env.accumulate(w, t, *disp, Datatype::U64, *op, &one));
            }
            Stmt::AccVal { win, target, disp, op, val } => {
                let (w, t) = (self.wins[*win], Rank(*target));
                self.ok(env.accumulate(w, t, *disp, Datatype::U64, *op, &val.to_le_bytes()));
            }
            Stmt::ReadValue { win, target, disp, kind, local } => {
                let v = self.fetch_value(*win, *target, *disp, *kind).unwrap_or(0);
                self.locals.insert(*local, (*win, *target, *disp, *kind, v));
            }
            Stmt::SpinUntil { local, expect } => {
                // Bounded spin: re-fetch the bound slot until the
                // expected value appears or the budget runs out. The
                // budget (800 × 100µs = 80ms virtual) sits comfortably
                // past twice the 20ms watchdog window, so a doomed
                // spin stalls its peers hard enough for the watchdog
                // to act while the run itself still terminates.
                if let Some((win, target, disp, kind, mut v)) = self.locals.get(local).copied() {
                    let mut spins = 0u32;
                    while v != *expect && spins < 800 {
                        env.compute(SimTime::from_micros(100));
                        v = self.fetch_value(win, target, disp, kind).unwrap_or(v);
                        spins += 1;
                    }
                    self.locals.insert(*local, (win, target, disp, kind, v));
                }
            }
            Stmt::Compute { ns } => env.compute(SimTime::from_nanos(*ns)),
            Stmt::WaitAll => self.wait_all(),
            Stmt::Barrier => {
                self.ok(env.barrier());
            }
        }
    }

    fn run(mut self, p: &IrProgram, frame: Frame) -> RankOut {
        let (env, stmts) = (self.env, &p.ranks[self.env.rank().idx()]);
        if let Frame::WholeJob = frame {
            self.ok(env.barrier());
        }
        for (step, stmt) in stmts.iter().enumerate() {
            self.step = step;
            self.stmt(stmt);
        }
        self.step = stmts.len();
        self.wait_all();
        if let Frame::Bare = frame {
            self.ok(env.barrier());
        }
        for (i, bytes) in p.windows.iter().enumerate() {
            let mem = self.ok(env.read_local(self.wins[i], 0, *bytes));
            self.out.mem.extend(mem.unwrap_or_default());
        }
        if let Frame::WholeJob = frame {
            for i in 0..self.wins.len() {
                self.ok(env.win_free(self.wins[i]));
            }
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Close;

    /// Gets come back in program order whatever order their epochs close
    /// in, each collected once its epoch has closed — the second `WaitAll`
    /// sits inside a still-open lock epoch, whose get the lazy engine has
    /// not even issued yet — and none of their requests is leaked.
    #[test]
    fn gets_return_in_program_order_and_are_consumed() {
        let mut p = IrProgram::new(2, 32);
        p.add_window(32);
        let lock = |win| Stmt::Lock { win, target: 1, exclusive: true, nonblocking: false };
        let unlock = |win, close| Stmt::Unlock { win, target: 1, close };
        p.ranks[0] = vec![
            lock(0),
            Stmt::PutVal { win: 0, target: 1, disp: 0, len: 4, val: 7 },
            unlock(0, Close::Blocking),
            lock(1),
            Stmt::Get { win: 1, target: 1, disp: 0, len: 2 },
            lock(0),
            Stmt::Get { win: 0, target: 1, disp: 2, len: 4 },
            unlock(0, Close::Nonblocking),
            Stmt::WaitAll,
            Stmt::PutVal { win: 1, target: 1, disp: 8, len: 1, val: 9 },
            unlock(1, Close::Nonblocking),
            Stmt::WaitAll,
            Stmt::Barrier,
        ];
        p.ranks[1] = vec![Stmt::Barrier];
        for strategy in [SyncStrategy::Redesigned, SyncStrategy::LazyBaseline] {
            let run = interpret(JobConfig::new(2).with_strategy(strategy), &p).unwrap();
            assert_eq!(run.errors, vec![], "{strategy:?}");
            assert_eq!(run.gets[0], vec![vec![0, 0], vec![7, 7, 0, 0]], "{strategy:?}");
            assert!(run.gets[1].is_empty());
            assert_eq!(run.mems[1][..4], [7; 4]);
            assert_eq!(run.mems[1][32 + 8], 9);
            assert_eq!(run.report.live_requests, 0, "{strategy:?}");
            assert!(run.report.trace.is_empty(), "tracing is the caller's choice");
        }
    }

    /// A statement on a window the program does not declare is an API
    /// error at that statement, not a panic in the rank: the analyzer
    /// reports the same program as E010.
    #[test]
    fn undeclared_window_is_an_error_not_a_panic() {
        let mut p = IrProgram::new(2, 16);
        for r in 0..2 {
            p.ranks[r] = vec![
                Stmt::Fence { win: 1, close: Close::Blocking },
                Stmt::Put { win: 1, target: 1 - r, disp: 0, len: 8 },
                Stmt::Barrier,
            ];
        }
        let run = interpret(JobConfig::new(2), &p).expect("the walk finishes");
        let invalid = RmaError::InvalidWindow(WinId(1));
        let want: Vec<ApiError> = (0..2)
            .flat_map(|rank| (0..2).map(move |step| (rank, step)))
            .map(|(rank, step)| ApiError { rank, step, error: invalid.clone() })
            .collect();
        assert_eq!(run.errors, want);
        assert_eq!(run.mems, vec![vec![0; 16]; 2]);
        assert!(crate::has_code(&crate::analyze(&p), crate::Code::E010));
    }
}
