//! Structure rules: the design decisions that keep each protocol concern
//! in one place, as rows of one table (DESIGN.md §8.4).
//!
//! A row names the DESIGN section it guards, the files it reads, one rule
//! and a plant: a one-line edit that breaks the rule. Every rule is
//! applied twice, to the tree, where it must hold, and to the tree plus
//! its own plant, where it must fail, so no rule passes by checking
//! nothing. Needles are literal text, optionally a whole word (`grep -w`)
//! or first on its line. A scope is a glob (`*` within one path
//! component, `**` across any number of them) or a function body,
//! `file:fn name`, from the line that declares it to the closing brace at
//! its indentation. A scope that covers nothing fails its rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use Plant::{Add, Insert};
use Rule::{Absent, Exactly, Holds, InTreeDeps, NoPath, OnlyIn};

/// Literal text to look for on one line.
struct Needle {
    text: &'static str,
    /// Neither preceded nor followed by an identifier character.
    word: bool,
    /// The first thing on the line after its indentation.
    first: bool,
}

const fn lit(text: &'static str) -> Needle {
    Needle {
        text,
        word: false,
        first: false,
    }
}

const fn word(text: &'static str) -> Needle {
    Needle {
        text,
        word: true,
        first: false,
    }
}

/// A whole word that opens its line: a declaration or a table header.
const fn decl(text: &'static str) -> Needle {
    Needle {
        text,
        word: true,
        first: true,
    }
}

impl Needle {
    fn on(&self, line: &str) -> bool {
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        let hay = if self.first { line.trim_start() } else { line };
        hay.match_indices(self.text).any(|(at, _)| {
            let (before, after) = (&hay[..at], &hay[at + self.text.len()..]);
            (!self.first || at == 0)
                && !(self.word
                    && (ident(before.chars().next_back()) || ident(after.chars().next())))
        })
    }
}

enum Rule {
    /// No line of the files holds any of the needles.
    Absent(&'static [Needle]),
    /// Each needle is on exactly this many lines of the files together.
    Exactly(usize, &'static [Needle]),
    /// Every line of the files holding a needle lies in one of these scopes.
    OnlyIn(&'static [Needle], &'static [&'static str]),
    /// None of the files exists, as a file or as a directory.
    NoPath,
    /// The one directory the row names holds exactly these entries.
    Holds(&'static [&'static str]),
    /// Every entry of the manifests' dependency tables is inherited from
    /// the workspace or a `path` to a package of the tree under `crates/`.
    InTreeDeps,
}

enum Plant {
    /// `(file, anchor, line)`: insert `line` after the first line of
    /// `file` that contains `anchor`.
    Insert(&'static str, &'static str, &'static str),
    /// Create an empty file at this path.
    Add(&'static str),
}

struct Row {
    name: &'static str,
    /// The DESIGN.md section that states the decision.
    section: &'static str,
    why: &'static str,
    files: &'static [&'static str],
    rule: Rule,
    plant: Plant,
}

const CORE: &str = "crates/core/src/**";
const ENGINE: &str = "crates/core/src/engine/**";
const API: &str = "crates/core/src/api.rs";
const NETWORK: &str = "crates/net/src/network.rs";
const SIM: &str = "crates/sim/src/**";
const ALL_CRATES: &str = "crates/**";
const RUNTIME: &[&str] = &["crates/sim/src/**", "crates/net/src/**", CORE];

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { name: "No MPISIM_CHECK_INJECT fallback", section: "§8",
        why: "a fault is armed by its name in `JobConfig::fault` only, never by the environment",
        files: &[ALL_CRATES, "src/**", "tests/**"], rule: Absent(&[lit("MPISIM_CHECK_INJECT")]),
        plant: Insert("crates/core/src/config.rs", "use crate::engine::Fault;",
            r#"const INJECT_VAR: &str = "MPISIM_CHECK_INJECT";"#) },
    Row { name: "No free lifecycle flags on EpochObj", section: "§4.5",
        why: "an epoch's lifecycle state is private to `core::epoch`, moved by its transitions only",
        files: &["crates/core/src/epoch.rs"],
        rule: Absent(&[lit("pub activated"), lit("pub closed"), lit("pub complete"), lit("lazy_hold"),
            lit("flush_forced")]),
        plant: Insert("crates/core/src/epoch.rs", "pub struct EpochObj {", "    pub activated: bool,") },
    Row { name: "One emission site per epoch lifecycle event", section: "§4.5",
        why: "each transition is emitted once, inside the open / activate / close / finish routine",
        files: &[ENGINE],
        rule: Exactly(1, &[word("EpochEvent::Opened"), word("EpochEvent::Activated"),
            word("EpochEvent::Closed"), word("EpochEvent::Completed")]),
        plant: Insert("crates/core/src/engine/rel.rs", "ch.ack_due.mark(src);",
            "                let closed = EpochEvent::Closed;") },
    Row { name: "Four epoch trace records are built", section: "§4.5",
        why: "the four lifecycle transitions build the only `TraceEvent::Epoch` records",
        files: &[ENGINE], rule: Exactly(4, &[word("TraceEvent::Epoch")]),
        plant: Insert("crates/core/src/engine/epochs.rs", "let event = EpochEvent::Closed;",
            "        self.trace(st, rank, TraceEvent::Epoch { win, epoch: id.0, kind: slot, event });") },
    Row { name: "One trace stream", section: "§8",
        why: "epoch, sync and request records share `JobReport::trace`; the three-log spellings stay gone",
        files: &[ALL_CRATES, "src/**", "tests/**", "examples/**"],
        rule: Absent(&[lit("sync_trace"), lit("req_events"), lit("take_req_log"), lit("SyncRecord")]),
        plant: Insert("crates/core/src/trace.rs", "use crate::types::{Rank, Req, WinId};",
            "pub type SyncRecord = (SimTime, Rank, SyncEvent);") },
    Row { name: "No hashed map in any crate", section: "§13",
        why: "every table is keyed by a small integer the code handed out, or ordered, so none is hashed",
        files: &["crates/*/src/**"], rule: Absent(&[lit("HashMap"), lit("HashSet")]),
        plant: Insert("crates/core/src/window.rs", "use std::collections::VecDeque;",
            "use std::collections::HashMap;") },
    Row { name: "The auditor and the race detector match no apply", section: "§9.7",
        why: "`core::trace::SyncFold` pairs every send with its apply; its readers match none themselves",
        files: &["crates/check/src/**", "crates/analyze/src/**"],
        rule: Absent(&[lit("SyncEvent::GrantApplied"), lit("SyncEvent::EpochDoneApplied"),
            lit("SyncEvent::FenceDoneApplied")]),
        plant: Insert("crates/analyze/src/race.rs", "use mpisim_core::JobReport;",
            "const APPLIED: SyncEvent = SyncEvent::GrantApplied;") },
    Row { name: "No private send-apply matcher", section: "§9.7",
        why: "the one matcher is `SyncFold`; no crate keys sends by edge of its own",
        files: &[ALL_CRATES], rule: Absent(&[lit("EdgeKey")]),
        plant: Insert("crates/check/src/audit.rs", "use mpisim_core::JobReport;",
            "type EdgeKey = (usize, usize, u64);") },
    Row { name: "One epoch container per window side", section: "§4.5",
        why: "a window side's epochs are one sorted `EpochQueue`",
        files: &["crates/core/src/window.rs"], rule: Absent(&[lit("pub order")]),
        plant: Insert("crates/core/src/window.rs", "pub struct WinRank {",
            "    pub order: VecDeque<EpochId>,") },
    Row { name: "Window sides are reached through the accessors", section: "§4.5",
        why: "a window side is reached through `EngState`'s accessors only",
        files: &[CORE],
        rule: OnlyIn(&[lit("per_rank[")], &["crates/core/src/engine/mod.rs:fn try_win",
            "crates/core/src/engine/mod.rs:fn win_mut", "crates/core/src/engine/mod.rs:fn win_allocate",
            "crates/core/src/engine/mod.rs:fn win_free"]),
        plant: Insert("crates/core/src/engine/mod.rs", "if self.net.topology().same_node(src, dst) {",
            "            let held = st.wins[win.0 as usize].per_rank[src.idx()].is_some();") },
    Row { name: "A freed side is known in one module", section: "§4.5",
        why: "a freed side is refused at the call (`api_win`) and dropped at delivery (`dispatch_body`), nowhere else",
        files: &[CORE],
        rule: OnlyIn(&[word("try_win"), word("try_win_mut"), word("api_win_toward")],
            &["crates/core/src/engine/mod.rs:impl EngState", "crates/core/src/engine/mod.rs:fn api_win",
            "crates/core/src/engine/mod.rs:fn dispatch_body"]),
        plant: Insert("crates/core/src/engine/locks.rs", "fn pump_lock_backlog(",
            "        if st.try_win(win, rank).is_none() { return; }") },
    Row { name: "No Body twin of a sync or op kind", section: "§4.6",
        why: "a sync kind is a `SyncPacket`, an op kind an `OpKind`; neither has a `Body` variant",
        files: &[ALL_CRATES],
        rule: Absent(&[word("Body::LockReq"), word("Body::Grant"), word("Body::GatsDone"), word("Body::Unlock"),
            word("Body::PutData"), word("Body::AccData"), word("Body::GetReq"), word("Body::FetchReq"),
            word("Body::GetResp"), word("Body::FetchResp")]),
        plant: Insert("crates/core/src/engine/mod.rs", "Body::OpResp { token, payload } =>",
            "            Body::Grant { win } => self.handle_grant(st, dst, win),") },
    Row { name: "One sync dispatch", section: "§4.6",
        why: "both sync transports, FIFO word and framed packet, end in one dispatch",
        files: &[ENGINE], rule: Exactly(1, &[lit("fn dispatch_sync")]),
        plant: Insert("crates/core/src/engine/rel.rs", "use crate::msg::Body;",
            "fn dispatch_sync_framed(eng: &Engine, st: &mut EngState, sp: SyncPacket) {}") },
    Row { name: "send_sync picks the transport without looking at the kind", section: "§4.6",
        why: "placement alone picks the transport; no sync kind has a path of its own",
        files: &["crates/core/src/engine/mod.rs:fn send_sync"], rule: Absent(&[lit("match")]),
        plant: Insert("crates/core/src/engine/mod.rs", "if self.net.topology().same_node(src, dst) {",
            "            match kind { SyncKind::GrantLock => return, _ => {} }") },
    Row { name: "No action map in the kernel", section: "§15.2",
        why: "an event's queue slot owns its action; no side table maps event to action",
        files: &["crates/sim/src/kernel.rs", "crates/sim/src/queue.rs"], rule: Absent(&[lit("actions")]),
        plant: Insert("crates/sim/src/queue.rs", "struct Slot {", "    actions: Vec<Action>,") },
    Row { name: "One event queue, no binary heap", section: "§15.2",
        why: "the queue is one map of pending instants over a slot arena, and there is no second one",
        files: &[SIM], rule: Absent(&[lit("BinaryHeap")]),
        plant: Insert("crates/sim/src/queue.rs", "use std::mem;", "use std::collections::BinaryHeap;") },
    Row { name: "No Signal in any crate", section: "§15.1",
        why: "a rank blocks on its request; the kernel has no signal object",
        files: &["crates/*/src/**"], rule: Absent(&[lit("Signal")]),
        plant: Insert("crates/sim/src/process.rs", "use std::rc::Rc;", "pub struct Signal(Rc<Cell<bool>>);") },
    Row { name: "No mid-run spawn", section: "§15.1",
        why: "every process is spawned before the run starts",
        files: &[ALL_CRATES], rule: Absent(&[lit("pending_spawns"), lit("admit_pending")]),
        plant: Insert("crates/sim/src/kernel.rs", "pub struct Sim {", "    pending_spawns: Vec<ProcId>,") },
    Row { name: "The yield to the scheduler has one caller", section: "§15.1",
        why: "`park` (its body, `park_under`) is the only way a process gives up the CPU unasked",
        files: &[SIM], rule: Exactly(1, &[lit("yield_to_scheduler()")]),
        plant: Insert("crates/sim/src/process.rs", "pub fn advance(&self, d: SimTime) {",
            "        self.yield_to_scheduler();") },
    Row { name: "park_under is the caller", section: "§15.1",
        why: "the one yield is `park_under`'s, which marks the process blocked first",
        files: &["crates/sim/src/process.rs:fn park_under"], rule: Exactly(1, &[lit("yield_to_scheduler()")]),
        plant: Insert("crates/sim/src/process.rs", "fn park_under(", "        self.yield_to_scheduler();") },
    Row { name: "core parks in one place", section: "§15.1",
        why: "`core` parks a rank in one place, woken by `ReqTable::complete`",
        files: &[CORE], rule: Exactly(1, &[lit("ctx.park(")]),
        plant: Insert(API, "pub fn wait_all(", "        self.ctx.park();") },
    Row { name: "blocked_park is that place", section: "§15.1",
        why: "the one park is `blocked_park`'s, which also records the parked span",
        files: &["crates/core/src/api.rs:fn blocked_park"], rule: Exactly(1, &[lit("ctx.park(")]),
        plant: Insert(API, "fn blocked_park(&self) {", "        self.ctx.park();") },
    Row { name: "One clock writer", section: "§4",
        why: "a rank's clock moves in `compute`, `timed` and `rma` (and `blocked_park`'s park) only",
        files: &[CORE], rule: Exactly(3, &[lit("ctx.advance(")]),
        plant: Insert(API, "pub fn wait_all(", "        self.ctx.advance(CALL_ENTRY);") },
    Row { name: "compute advances the clock once", section: "§4",
        why: "`compute` records its move in the rank's `RankStats` beside it",
        files: &["crates/core/src/api.rs:fn compute"], rule: Exactly(1, &[lit("ctx.advance(")]),
        plant: Insert(API, "pub fn compute(&self, d: SimTime) {", "        self.ctx.advance(d);") },
    Row { name: "timed advances the clock once", section: "§4",
        why: "one MPI call is one ε, recorded as one call",
        files: &["crates/core/src/api.rs:fn timed"], rule: Exactly(1, &[lit("ctx.advance(")]),
        plant: Insert(API, "fn timed<T>(", "        self.ctx.advance(CALL_ENTRY);") },
    Row { name: "rma advances the clock once", section: "§4",
        why: "one RMA op is one `PER_OP`, recorded as one op",
        files: &["crates/core/src/api.rs:fn rma"], rule: Exactly(1, &[lit("ctx.advance(")]),
        plant: Insert(API, "self.ledger().ops += 1;", "            self.ctx.advance(PER_OP);") },
    Row { name: "No time counter beside the ledger", section: "§4",
        why: "`mpi_time` and the engine's `sync_blocked_*` are views of the ledger, never counters",
        files: &[ALL_CRATES],
        rule: Absent(&[lit("add_mpi_time"), lit("add_compute_time"), lit("mpi_time +="),
            lit("sync_blocked_steps +="), lit("sync_blocked_ns +=")]),
        plant: Insert("crates/core/src/engine/mod.rs", "pub fn engine_stats(&self) -> EngineStats {",
            "        self.stats.borrow_mut().sync_blocked_ns += 1;") },
    Row { name: "One owner", section: "§15.1",
        why: "the driver thread runs every rank and event, so sim, net and core hold no lock, condvar or thread",
        files: RUNTIME,
        rule: Absent(&[lit("Mutex"), lit("Condvar"), lit("thread::spawn")]),
        plant: Insert(NETWORK, "use std::sync::Arc;", "use std::sync::Mutex;") },
    Row { name: "The kernel keeps no counter across runs", section: "§15.2",
        why: "a tie-break is `Fifo` or `Seeded`; the `nondet-exec` plant's run counter lives in `core::runtime`",
        files: &[SIM], rule: Absent(&[lit("Atomic")]),
        plant: Insert("crates/sim/src/kernel.rs", "fn tiebreak_key(&self, seq: u64) -> u64 {",
            "        static CLOCK: AtomicU64 = AtomicU64::new(0);") },
    Row { name: "No thread vehicle", section: "§15.1",
        why: "thread-per-rank, the worker pool and its parker stay gone",
        files: &[ALL_CRATES], rule: Absent(&[lit("ThreadPerRank"), lit("Parker")]),
        plant: Insert("crates/sim/src/kernel.rs", "pub struct Sim {", "    parker: Option<Parker>,") },
    Row { name: "No parker or fiber fallback module", section: "§15.1",
        why: "one vehicle, x86_64 fibers: the parker and the non-x86_64 fallback stay gone",
        files: &["crates/sim/src/parker.rs", "crates/sim/src/fiber_fallback.rs"], rule: NoPath,
        plant: Add("crates/sim/src/fiber_fallback.rs") },
    Row { name: "One place maps a stack", section: "§15.1",
        why: "fiber stacks are recycled from a free list, so one call site maps them",
        files: &[SIM], rule: Exactly(1, &[lit("sys::mmap(")]),
        plant: Insert("crates/sim/src/fiber.rs", "pub(crate) fn retire(",
            "    let spare = unsafe { sys::mmap(std::ptr::null_mut(), Stack::LEN, 0, 0, -1, 0) };") },
    Row { name: "Stack::new maps a stack", section: "§15.1",
        why: "`Stack::new` maps only once this thread's free list is empty",
        files: &["crates/sim/src/fiber.rs:fn new() -> io::Result<Stack>"],
        rule: Exactly(1, &[lit("sys::mmap(")]),
        plant: Insert("crates/sim/src/fiber.rs", "fn new() -> io::Result<Stack> {",
            "        let spare = unsafe { sys::mmap(std::ptr::null_mut(), Stack::LEN, 0, 0, -1, 0) };") },
    Row { name: "Nothing in sim, net or core reads the environment", section: "§15.1",
        why: "no variable sizes, caps or bypasses the stack list, or tunes anything else",
        files: RUNTIME, rule: Absent(&[lit("std::env"), lit("env::var")]),
        plant: Insert("crates/sim/src/fiber.rs", "use std::io;", "use std::env;") },
    Row { name: "Results leave a job by return", section: "§4",
        why: "`run_job` hands back each rank's value; nothing above `core` smuggles one out through shared state",
        files: &["crates/apps/src/**", "crates/bench/src/**", "crates/analyze/src/**", "crates/check/src/**",
            "examples/**"],
        rule: Absent(&[lit("std::sync"), lit("Recorder")]),
        plant: Insert("crates/apps/src/lib.rs", "pub mod bank;", "use std::sync::Mutex;") },
    Row { name: "wait_all is one timed scope", section: "§15.2",
        why: "one MPI call is one ε and one event, however many requests `wait_all` is handed",
        files: &["crates/core/src/api.rs:pub fn wait_all"], rule: Exactly(1, &[lit("self.timed(")]),
        plant: Insert(API, "if reqs.peek().is_none() {", "            return self.timed(|| Ok(()));") },
    Row { name: "No one-valued setting in JobConfig", section: "§2",
        why: "what every caller set to one value is a constant of the cost model",
        files: &["crates/core/src/config.rs"],
        rule: Absent(&[lit("pub overheads:"), lit("pub rndv_threshold:"), lit("pub stack_size:"),
            lit("pub event_cap:"), lit("pub ckpt_every:")]),
        plant: Insert("crates/core/src/config.rs", "pub struct JobConfig {", "    pub stack_size: usize,") },
    Row { name: "No tuning struct, slowdown or stack setter", section: "§11.2",
        why: "the paths only a test's value reached are gone: no reliability or overhead struct, no NIC slowdown",
        files: &["crates/*/src/**"],
        rule: Absent(&[lit("struct Reliability"), lit("struct Overheads"), lit("slowdown"),
            lit("set_stack_size")]),
        plant: Insert(NETWORK, "pub struct NetStats {", "    pub slowdown: f64,") },
    Row { name: "One ack path", section: "§11.2",
        why: "an ack is held for `ACK_DELAY`; no zero-delay path sends it at once",
        files: &["crates/core/src/engine/rel.rs"], rule: Absent(&[lit("ack_delay"), lit("as_nanos() == 0")]),
        plant: Insert("crates/core/src/engine/rel.rs", "ch.ack_due.mark(src);",
            "                let at_once = ACK_DELAY.as_nanos() == 0;") },
    Row { name: "An ack is marked due in one place", section: "§11.2",
        why: "an ack is marked due by its timer alone",
        files: &["crates/core/src/engine/rel.rs"], rule: Exactly(1, &[lit("ack_due.mark(")]),
        plant: Insert("crates/core/src/engine/rel.rs", "ch.ack_due.mark(src);",
            "                ch.ack_due.mark(src);") },
    Row { name: "No per-plant knob", section: "§8",
        why: "every runtime plant is a `core::Fault` armed by its name, and `sim` has one tie-break setting",
        files: &[ALL_CRATES],
        rule: Absent(&[lit("nondet_tiebreak"), lit("plant_stale"), lit("bad_recovery"), lit("RecoveryCfg"),
            lit("set_nondet_tiebreak"), lit("set_tiebreak_seed")]),
        plant: Insert("crates/core/src/config.rs", "pub struct JobConfig {", "    pub plant_stale: bool,") },
    Row { name: "Each fault name is spelled once in core", section: "§8",
        why: "a fault's name is spelled in `Fault::name` and nowhere else in `core`",
        files: &[CORE],
        rule: Exactly(1, &[lit(r#""skip-grant""#), lit(r#""double-acc""#), lit(r#""hb-race""#),
            lit(r#""nondet-exec""#), lit(r#""bad-recovery""#)]),
        plant: Insert("crates/core/src/config.rs", "pub fn injected(&self) -> Option<Fault> {",
            r#"        if self.fault.as_deref() == Some("hb-race") { return Some(Fault::HbRace); }"#) },
    Row { name: "The credit backlog is pushed in one place", section: "§15.3",
        why: "a returned credit sends at most one message, so a send joins the backlog in one place",
        files: &[NETWORK], rule: Exactly(1, &[lit("backlog.push_back(")]),
        plant: Insert(NETWORK, "fn return_credit(", "        inner.ranks[src.idx()].backlog.push_back(req);") },
    Row { name: "send_req is that place", section: "§15.3",
        why: "a send joins the backlog in `send_req`, where it finds no credit",
        files: &["crates/net/src/network.rs:fn send_req"], rule: Exactly(1, &[lit("backlog.push_back(")]),
        plant: Insert(NETWORK, "inner.stats.credit_stalls += 1;",
            "            inner.ranks[src.idx()].backlog.push_back(req);") },
    Row { name: "return_credit takes one entry out in place", section: "§15.3",
        why: "`return_credit` removes the first sendable entry instead of rebuilding the queue",
        files: &["crates/net/src/network.rs:fn return_credit"], rule: Absent(&[lit("pop_front")]),
        plant: Insert(NETWORK, "fn return_credit(",
            "        let next = inner.ranks[src.idx()].backlog.pop_front();") },
    Row { name: "A credit return is an event only under a backlog", section: "§15.3",
        why: "a return with no backlog to release is settled in place; `schedule_return` is its one event, used under a backlog",
        files: &[NETWORK],
        rule: OnlyIn(&[lit(".return_credit(")], &["crates/net/src/network.rs:fn schedule_return"]),
        plant: Insert(NETWORK, "self.credit_back(inner, src, dst, ack_at);",
            "            let net = self.clone(); self.handle.schedule_at(ack_at, move || net.return_credit(src, dst));") },
    Row { name: "No fault log", section: "§15.3",
        why: "injected faults are counted by kind in `NetStats`; the write-only log stays gone",
        files: &[ALL_CRATES], rule: Absent(&[lit("FaultLog"), lit("FaultRecord"), lit("fault_log")]),
        plant: Insert(NETWORK, "use std::sync::Arc;", "use crate::fault::FaultLog;") },
    Row { name: "One generator, oracle and executor of RMA programs", section: "§8.1",
        why: "random RMA programs are `check::generate`'s, checked by `check::verify`'s one oracle",
        files: &["tests/**", "crates/*/tests/**", "src/**", "examples/**"],
        rule: Absent(&[decl("enum Op"), decl("enum Epoch"), decl("fn oracle"), decl("pub enum Op"),
            decl("pub enum Epoch"), decl("pub fn oracle")]),
        plant: Insert("tests/full_stack.rs", "#[test]", "enum Op { Put(usize), Get(usize) }") },
    Row { name: "Data statements are decoded in shape.rs only", section: "§9.2",
        why: "`shape.rs` alone decodes a data statement; the passes read `Shape`",
        files: &["crates/analyze/src/deadlock.rs", "crates/analyze/src/slack.rs",
            "crates/analyze/src/rewrite.rs"],
        rule: Absent(&[word("Stmt::Put"), word("Stmt::PutVal"), word("Stmt::Acc"), word("Stmt::AccVal")]),
        plant: Insert("crates/analyze/src/slack.rs", "use crate::ir::{IrProgram, Stmt};",
            "fn is_put(s: &Stmt) -> bool { matches!(s, Stmt::Put { .. }) }") },
    Row { name: "Start/post occurrence counters live in shape.rs only", section: "§9.2",
        why: "`shape.rs` alone numbers starts and posts per peer and fills the pairing table, the FIFO matching rule",
        files: &["crates/analyze/src/*.rs"],
        rule: OnlyIn(&[word("pairings"), lit("Pairing {")], &["crates/analyze/src/shape.rs"]),
        plant: Insert("crates/analyze/src/deadlock.rs", "fn fixpoint_pass(sh: &Shape) -> Vec<Diagnostic> {",
            "    let pairings: Vec<usize> = Vec::new();") },
    Row { name: "The fixpoint resolves each wait once", section: "§9.4",
        why: "a wait's needs are resolved from the shape before the fixpoint runs; `sat` only checks them",
        files: &["crates/analyze/src/deadlock.rs:fn sat"],
        rule: Absent(&[lit(".pairing("), lit(".fences["), lit(".barriers"), lit(".accesses")]),
        plant: Insert("crates/analyze/src/deadlock.rs", "let (first, end) = &self.lists[l];",
            "        let post = sh.ranks[0].pairing(0)[0].with;") },
    Row { name: "The GATS pairing is resolved once", section: "§9.2",
        why: "`Shape::of` pairs every start and post once; no pass asks the FIFO rule again per question",
        files: &["crates/analyze/src/**"],
        rule: Absent(&[word("fn naming"), word("fn occurrence"), word("fn matching_post"),
            word("fn matching_start")]),
        plant: Insert("crates/analyze/src/shape.rs", "impl<'p> Shape<'p> {",
            "    pub fn matching_post(&self, o: usize, start: usize, t: usize) -> Option<usize> { None }") },
    Row { name: "No private re-derivation of the epoch structure", section: "§9.2",
        why: "the passes that used to re-derive the shape, the accesses or the closes stay readers",
        files: &["crates/analyze/src/**"],
        rule: Absent(&[word("fn build_shape"), word("fn collect_accesses"), word("fn data_iv"),
            word("fn find_close")]),
        plant: Insert("crates/analyze/src/rewrite.rs", "use crate::ir::{Close, IrProgram, Stmt};",
            "fn find_close(stmts: &[Stmt], open: usize) -> Option<usize> { None }") },
    Row { name: "One conflict sweep in the static layer", section: "§9.3",
        why: "which accesses overlap on conflicting bytes is `shape::conflicting_pairs`'s sweep; a pass hands it a predicate, and only the debug reference compares all pairs",
        files: &["crates/analyze/src/**"],
        rule: OnlyIn(&[lit("fn conflicting_pairs"), lit("[i + 1..]")],
            &["crates/analyze/src/shape.rs", "crates/analyze/src/analyzer.rs:mod all_pairs"]),
        plant: Insert("crates/analyze/src/slack.rs", "fn reorder_pinned(sh: &Shape) -> Vec<bool> {",
            "    let later = |accs: &[Access], i: usize| accs[i + 1..].iter().filter(counted).count();") },
    Row { name: "The figure scenarios run on one window scaffold", section: "§3",
        why: "`mpisim_bench::on_window` alone allocates, fences with barriers and frees a scenario's window",
        files: &["crates/bench/src/micro.rs", "crates/bench/src/flags.rs"],
        rule: Absent(&[lit("run_job("), lit("win_allocate"), lit("win_free")]),
        plant: Insert("crates/bench/src/micro.rs", "pub fn fig00_lock_put_latency() -> Table {",
            "    let win = env.win_allocate(MB).unwrap();") },
    Row { name: "Three figure binaries", section: "§3",
        why: "the figures that take no options are emitted by `run_all` from the one `FIGURES` list",
        files: &["crates/bench/src/bin"],
        rule: Holds(&["fig12_transactions.rs", "fig13_lu.rs", "run_all.rs"]),
        plant: Add("crates/bench/src/bin/rewrite_apps.rs") },
    Row { name: "A figure names a series through Series", section: "§3",
        why: "`mpisim_bench::Series` is the one table of series: label, strategy, nonblocking, A_A_A_R",
        files: &["crates/bench/src/**"], rule: OnlyIn(&[lit("SyncStrategy::")], &["crates/bench/src/series.rs"]),
        plant: Insert("crates/bench/src/fig12.rs", "pub fn run(opts: &Fig12Opts) -> Table {",
            r#"        ("MVAPICH", SyncStrategy::LazyBaseline, TxMode::Blocking, false),"#) },
    Row { name: "No shims/ directory", section: "§8",
        why: "no stand-in crate, a property-test one included: a check is a tier-1 test or a row of `mpisim-check`'s table",
        files: &["shims"], rule: NoPath,
        plant: Add("shims/proptest/Cargo.toml") },
    Row { name: "Every dependency is a path inside the repository", section: "§3",
        why: "the workspace and the benchmark depend on the `mpisim-*` crates and nothing else",
        files: &["Cargo.toml", "crates/*/Cargo.toml", "benchmark/Cargo.toml"], rule: InTreeDeps,
        plant: Insert("crates/sim/Cargo.toml", "description = ", "[dependencies]\nrand = \"0.8\"") },
    Row { name: "One SplitMix64", section: "§15.2",
        why: "every seeded stream in the workspace mixes through `mpisim_sim::splitmix64`",
        files: &[ALL_CRATES, "src/**", "tests/**", "examples/**"],
        rule: OnlyIn(&[lit("BF58_476D_1CE4_E5B9"), lit("bf58_476d_1ce4_e5b9")], &["crates/sim/src/rng.rs"]),
        plant: Insert("crates/net/tests/credit_backlog.rs", "impl Stream {",
            "        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);") },
    Row { name: "No manifest names proptest", section: "§8",
        why: "no package depends on a property-test crate",
        files: &["**/Cargo.toml", "Cargo.lock"], rule: Absent(&[lit("proptest")]),
        plant: Insert("Cargo.toml", "[dev-dependencies]", r#"proptest = { path = "shims/proptest" }"#) },
    Row { name: "No Rust source names proptest", section: "§8",
        why: "the seeded property-test stand-in stays gone from every target",
        files: &["crates/**/*.rs", "tests/**/*.rs", "src/**/*.rs", "examples/**/*.rs"],
        rule: Absent(&[lit("proptest")]),
        plant: Insert("tests/full_stack.rs", "#[test]", "use proptest::prelude::*;") },
    Row { name: "No crate depends on the conformance harness", section: "§3",
        why: "no crate, the figure crate included, reaches the IR interpreter through `mpisim-check`",
        files: &["crates/*/Cargo.toml"], rule: OnlyIn(&[lit("mpisim-check")], &["crates/check/Cargo.toml"]),
        plant: Insert("crates/bench/Cargo.toml", "[dependencies]", "mpisim-check.workspace = true") },
    Row { name: "The analyzer has no binary of its own", section: "§8",
        why: "its negative-corpus sweep is `mpisim-check`'s `static-corpus` row",
        files: &["crates/analyze/Cargo.toml"], rule: Absent(&[decl("[[bin]]")]),
        plant: Insert("crates/analyze/Cargo.toml", "[dependencies]", "[[bin]]") },
    Row { name: "Per-peer tables are sorted vectors", section: "§15.3",
        why: "a rank's per-peer tables are `VecMap`s that pay for the rows they hold, not B-tree nodes",
        files: &["crates/net/src/**", CORE], rule: Absent(&[word("BTreeMap<Rank"), word("BTreeMap<Slot")]),
        plant: Insert("crates/core/src/window.rs", "pub struct WinRank {",
            "    pub peers: BTreeMap<Rank, PeerOmega>,") },
    Row { name: "The walk keeps no slot fields of its own", section: "§9.2",
        why: "the analyzer's walk keeps its open epochs in `core::epoch::OpenSet`, as the engine does",
        files: &["crates/analyze/src/shape.rs"],
        rule: Absent(&[lit("fence: Option<usize>"), lit("gats: Option<usize>"), lit("exposure: Option<usize>"),
            lit("lock_all: Option<usize>"), lit("locks: BTreeMap")]),
        plant: Insert("crates/analyze/src/shape.rs", "struct Walk<'a, 'p> {", "    fence: Option<usize>,") },
    Row { name: "The routing order is written once", section: "§4.5",
        why: "which open epoch covers an operation is decided in one place for both layers",
        files: &[ALL_CRATES], rule: Exactly(1, &[lit("), Slot::LockAll, Slot::GatsAccess, Slot::Fence]")]),
        plant: Insert("crates/analyze/src/shape.rs", "fn clashes(",
            "        let order = [Slot::Lock(peer), Slot::LockAll, Slot::GatsAccess, Slot::Fence];") },
    Row { name: "The conflict rule is written once", section: "§4.5",
        why: "which opens clash is `Slot::excludes`, for the engine and the walk alike",
        files: &[ALL_CRATES], rule: Exactly(1, &[word("fn excludes")]),
        plant: Insert("crates/analyze/src/shape.rs", "fn clashes(",
            "        fn excludes(a: Slot, b: Slot) -> bool { a == b }") },
    Row { name: "One reorder rule", section: "§4.5",
        why: "§VI.B's flags are read by `WinInfo::overlaps` alone; the engine, the baseline and the walk ask it",
        files: &["crates/*/src/**"],
        rule: OnlyIn(&[lit(".access_after_access"), lit(".access_after_exposure"), lit(".exposure_after_exposure"),
            lit(".exposure_after_access"), lit(".unsafe_fence_reorder")],
            &["crates/core/src/config.rs:pub fn overlaps", "crates/analyze/src/ir.rs:pub fn info",
            "crates/analyze/src/corpus.rs:pub fn cases"]),
        plant: Insert("crates/core/src/engine/epochs.rs", "let Some(prev) = prev else { return true };",
            "        let aaar = w.info.access_after_access;") },
    Row { name: "The interpreter allocates with the IR's info", section: "§8.1",
        why: "the program analysed is the program run: windows get `IrProgram::info`, flags and fence extension alike",
        files: &["crates/analyze/src/**"],
        rule: OnlyIn(&[lit("WinInfo::all_reorder")], &["crates/analyze/src/ir.rs:pub fn info"]),
        plant: Insert("crates/analyze/src/exec.rs", "let info = p.info();",
            "        let info = if p.reorder { WinInfo::all_reorder() } else { info };") },
    Row { name: "Engine calls run on the driver's stack", section: "§15.1",
        why: "every engine call of `RankEnv` goes through `engine_call`, so no engine frame lands on a rank's fiber stack; the ledger's field borrow runs no engine code",
        files: &[API], rule: OnlyIn(&[word("self.eng")], &["crates/core/src/api.rs:fn engine_call",
            "crates/core/src/api.rs:fn ledger", "crates/core/src/api.rs:pub fn engine"]),
        plant: Insert(API, "pub fn ibarrier(&self) -> RmaResult<Req> {",
            "        let _ = self.eng.ibarrier(self.rank);") },
    Row { name: "One counting allocator", section: "§10.2",
        why: "every allocation count is `tests/support/alloc.rs`'s, included with `#[path]`, never a private copy",
        files: &[ALL_CRATES, "src/**", "tests/**", "examples/**"],
        rule: OnlyIn(&[lit("GlobalAlloc for")], &["tests/support/alloc.rs"]),
        plant: Insert("crates/net/src/vecmap.rs", "mod tests {", "    unsafe impl GlobalAlloc for Counting {}") },
    Row { name: "One FNV-1a in the tests", section: "§8.5",
        why: "every pinned digest is `tests/support/pin.rs`'s; `Body::digest` is the one production copy",
        files: &[ALL_CRATES, "src/**", "tests/**", "examples/**"],
        rule: OnlyIn(&[lit("0100_0000_01b3"), lit("0100_0000_01B3")],
            &["tests/support/pin.rs", "crates/core/src/msg.rs:pub fn digest"]),
        plant: Insert("crates/check/tests/analysis.rs", "fn positive_corpus_is_static_clean() {",
            "    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);") },
];

/// What the rules read: every file under the source roots by its path
/// from the repository root, and every directory on the way. Build
/// output is skipped, and so is this file, whose needles would match
/// themselves. The benchmark's manifest is the one file read from its
/// workspace.
#[derive(Clone)]
struct Tree {
    files: BTreeMap<String, String>,
    dirs: BTreeSet<String>,
}

const ROOTS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "tools",
    "Cargo.toml",
    "Cargo.lock",
    "benchmark/Cargo.toml",
];

const THIS_FILE: &str = "tests/structure.rs";

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

impl Tree {
    fn read() -> Tree {
        let mut tree = Tree {
            files: BTreeMap::new(),
            dirs: BTreeSet::new(),
        };
        for root in ROOTS {
            tree.walk(root);
        }
        tree
    }

    fn walk(&mut self, rel: &str) {
        let path = repo().join(rel);
        if path.is_dir() {
            self.dirs.insert(rel.to_string());
            for entry in fs::read_dir(&path).unwrap_or_else(|e| panic!("{rel}: {e}")) {
                let name = entry.unwrap().file_name().into_string().unwrap();
                if name != "target" {
                    self.walk(&format!("{rel}/{name}"));
                }
            }
        } else if rel != THIS_FILE {
            let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            self.files.insert(
                rel.to_string(),
                String::from_utf8_lossy(&bytes).into_owned(),
            );
        }
    }

    /// The names directly inside `dir`.
    fn entries(&self, dir: &str) -> Vec<&str> {
        let inside = self
            .files
            .keys()
            .chain(&self.dirs)
            .filter_map(|p| p.strip_prefix(dir)?.strip_prefix('/'));
        let names: BTreeSet<&str> = inside.map(|rest| rest.split('/').next().unwrap()).collect();
        names.into_iter().collect()
    }

    /// The lines a scope covers, as `(path, line number, text)`.
    fn lines(&self, scope: &'static str) -> Result<Vec<(&str, usize, &str)>, String> {
        let Some((path, sig)) = scope.split_once(':') else {
            let files = self.files.iter().filter(|(p, _)| glob(scope, p));
            let lines: Vec<_> = files
                .flat_map(|(p, text)| {
                    text.lines()
                        .enumerate()
                        .map(move |(i, l)| (p.as_str(), i + 1, l))
                })
                .collect();
            return if lines.is_empty() {
                Err(format!("`{scope}` matches no file"))
            } else {
                Ok(lines)
            };
        };
        let (path, text) = self
            .files
            .get_key_value(path)
            .ok_or_else(|| format!("no file {path}"))?;
        let all: Vec<&str> = text.lines().collect();
        let mut body = Vec::new();
        let mut i = 0;
        while i < all.len() {
            let line = all[i];
            if line.trim_start().starts_with("//") || !word(sig).on(line) {
                i += 1;
                continue;
            }
            let indent = &line[..line.len() - line.trim_start().len()];
            let end = if line.trim_end().ends_with('}') {
                Some(i)
            } else {
                (i + 1..all.len()).find(|&j| {
                    all[j]
                        .strip_prefix(indent)
                        .is_some_and(|rest| rest.starts_with('}'))
                })
            };
            let end = end.ok_or_else(|| format!("{path}:{}: `{sig}` never closes", i + 1))?;
            body.extend((i..=end).map(|j| (path.as_str(), j + 1, all[j])));
            i = end + 1;
        }
        if body.is_empty() {
            return Err(format!("no `{sig}` in {path}"));
        }
        Ok(body)
    }

    /// This tree with `plant` applied.
    fn planted(&self, plant: &Plant) -> Tree {
        let mut tree = self.clone();
        match *plant {
            Insert(file, anchor, line) => {
                let text = tree
                    .files
                    .get_mut(file)
                    .unwrap_or_else(|| panic!("plant: no file {file}"));
                let at = text
                    .find(anchor)
                    .unwrap_or_else(|| panic!("plant: no `{anchor}` in {file}"));
                let eol = text[at..].find('\n').map_or(text.len(), |n| at + n + 1);
                text.insert_str(eol, &format!("{line}\n"));
            }
            Add(path) => {
                tree.files.insert(path.to_string(), String::new());
                let mut dir = path;
                while let Some((parent, _)) = dir.rsplit_once('/') {
                    tree.dirs.insert(parent.to_string());
                    dir = parent;
                }
            }
        }
        tree
    }
}

/// Whether `path` matches `pattern`, component by component: `*` stands
/// for any run of characters within one component, `**` for any number
/// of whole components.
fn glob(pattern: &str, path: &str) -> bool {
    fn component(pat: &str, name: &str) -> bool {
        match pat.split_once('*') {
            None => pat == name,
            Some((head, tail)) => {
                name.len() >= head.len() + tail.len()
                    && name.starts_with(head)
                    && name.ends_with(tail)
            }
        }
    }
    fn from(pat: &[&str], path: &[&str]) -> bool {
        match (pat.first(), path.first()) {
            (Some(&"**"), _) => {
                from(&pat[1..], path) || (!path.is_empty() && from(pat, &path[1..]))
            }
            (Some(p), Some(c)) => component(p, c) && from(&pat[1..], &path[1..]),
            (p, c) => p.is_none() && c.is_none(),
        }
    }
    from(
        &pattern.split('/').collect::<Vec<_>>(),
        &path.split('/').collect::<Vec<_>>(),
    )
}

/// `Ok` when the row's rule holds on `tree`, else where and how it breaks.
fn check(tree: &Tree, row: &Row) -> Result<(), String> {
    let scan = || {
        row.files
            .iter()
            .map(|s| tree.lines(s))
            .collect::<Result<Vec<_>, _>>()
            .map(|v| v.concat())
    };
    match row.rule {
        Absent(needles) => {
            for (path, n, line) in scan()? {
                if let Some(needle) = needles.iter().find(|needle| needle.on(line)) {
                    return Err(format!("{path}:{n}: `{}`", needle.text));
                }
            }
        }
        Exactly(want, needles) => {
            let lines = scan()?;
            for needle in needles {
                let hits: Vec<String> = lines
                    .iter()
                    .filter(|l| needle.on(l.2))
                    .map(|(p, n, _)| format!("{p}:{n}"))
                    .collect();
                if hits.len() != want {
                    return Err(format!(
                        "`{}` on {} lines, not {want}: {}",
                        needle.text,
                        hits.len(),
                        hits.join(" ")
                    ));
                }
            }
        }
        OnlyIn(needles, inside) => {
            let allowed = inside
                .iter()
                .map(|s| tree.lines(s))
                .collect::<Result<Vec<_>, _>>()?;
            let allowed: BTreeSet<(&str, usize)> = allowed
                .concat()
                .into_iter()
                .map(|(p, n, _)| (p, n))
                .collect();
            for (path, n, line) in scan()? {
                if needles.iter().any(|needle| needle.on(line)) && !allowed.contains(&(path, n)) {
                    return Err(format!("{path}:{n}: outside {}", inside.join(", ")));
                }
            }
        }
        NoPath => {
            for path in row.files {
                if tree.files.contains_key(*path) || tree.dirs.contains(*path) {
                    return Err(format!("{path} exists"));
                }
            }
        }
        Holds(want) => {
            let have = tree.entries(row.files[0]);
            if have != want {
                return Err(format!("{} holds {have:?}, not {want:?}", row.files[0]));
            }
        }
        InTreeDeps => {
            // The table a line is in: its file and its header.
            let mut table = ("", "");
            for (path, n, line) in scan()? {
                let line = line.trim();
                if line.starts_with('[') || table.0 != path {
                    table = (path, if line.starts_with('[') { line } else { "" });
                    continue;
                }
                if !table.1.contains("dependencies") || line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let dir = path.rsplit_once('/').map_or("", |(dir, _)| dir);
                let target = line.split_once("path = \"").and_then(|(_, p)| p.split_once('"'));
                let in_tree = target.map(|(p, _)| resolve(dir, p)).is_some_and(|t| {
                    t.starts_with("crates/") && tree.files.contains_key(&format!("{t}/Cargo.toml"))
                });
                if !(in_tree || line.contains("workspace = true")) {
                    return Err(format!("{path}:{n}: not a workspace crate: `{line}`"));
                }
            }
        }
    }
    Ok(())
}

/// `rel`, a path relative to the directory `dir` of the tree, as a path
/// from the repository root.
fn resolve(dir: &str, rel: &str) -> String {
    let mut parts: Vec<&str> = dir.split('/').filter(|c| !c.is_empty()).collect();
    for c in rel.split('/') {
        match c {
            "" | "." => {}
            ".." => drop(parts.pop()),
            c => parts.push(c),
        }
    }
    parts.join("/")
}

#[test]
fn every_rule_holds_on_the_tree() {
    let tree = Tree::read();
    let broken: Vec<String> = ROWS
        .iter()
        .filter_map(|row| {
            check(&tree, row)
                .err()
                .map(|e| format!("{} ({}: {}): {e}", row.name, row.section, row.why))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "structure rules broken:\n{}",
        broken.join("\n")
    );
}

#[test]
fn every_rule_fails_on_its_plant() {
    let tree = Tree::read();
    let blind: Vec<&str> = ROWS
        .iter()
        .filter(|row| check(&tree.planted(&row.plant), row).is_ok())
        .map(|row| row.name)
        .collect();
    assert!(
        blind.is_empty(),
        "rules that hold on their own plant: {blind:?}"
    );
}

#[test]
fn a_scope_that_covers_nothing_fails() {
    let tree = Tree::read();
    let row = ROWS
        .iter()
        .find(|row| row.files == ["crates/net/src/network.rs:fn return_credit"])
        .unwrap();
    assert_eq!(check(&tree, row), Ok(()));
    let mut renamed = tree.clone();
    let network = renamed.files.get_mut(NETWORK).unwrap();
    *network = network.replace("fn return_credit(", "fn release_credit(");
    assert_eq!(
        check(&renamed, row),
        Err(format!("no `fn return_credit` in {NETWORK}"))
    );
    let mut moved = tree;
    moved
        .files
        .retain(|path, _| !path.starts_with("crates/analyze/src/"));
    let row = ROWS
        .iter()
        .find(|row| row.files == ["crates/analyze/src/*.rs"])
        .unwrap();
    assert!(check(&moved, row).is_err_and(|e| e.ends_with("matches no file")));
}

#[test]
fn a_stand_in_crate_in_the_root_manifest_fails() {
    let tree = Tree::read();
    let row = ROWS.iter().find(|row| matches!(row.rule, InTreeDeps)).unwrap();
    let plant = Insert("Cargo.toml", "[workspace.dependencies]", r#"rand = { path = "shims/rand" }"#);
    let planted = check(&tree.planted(&plant), row);
    assert!(planted.is_err_and(|e| e.ends_with(r#"not a workspace crate: `rand = { path = "shims/rand" }`"#)));
}

#[test]
fn globs_match_whole_components() {
    assert!(glob("crates/**", "crates/core/src/api.rs"));
    assert!(glob("crates/*/src/**", "crates/core/src/engine/mod.rs"));
    assert!(!glob("crates/*/src/**", "crates/core/tests/strided.rs"));
    assert!(glob(
        "crates/analyze/src/*.rs",
        "crates/analyze/src/shape.rs"
    ));
    assert!(!glob(
        "crates/analyze/src/*.rs",
        "crates/analyze/src/x/shape.rs"
    ));
    assert!(glob("**/Cargo.toml", "Cargo.toml") && glob("**/Cargo.toml", "crates/sim/Cargo.toml"));
    assert!(!glob(
        "crates/core/src/api.rs",
        "crates/core/src/api.rs.orig"
    ));
    assert!(word("fn rma").on("    fn rma(") && !word("fn rma").on("    fn rma_op("));
    assert!(decl("enum Op").on("    enum Op {") && !decl("enum Op").on("    pub(crate) enum Op {"));
}

#[test]
fn every_row_names_a_design_section() {
    let design = fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md");
    let numbered: BTreeSet<String> = design
        .lines()
        .filter(|l| l.starts_with("## ") || l.starts_with("### "))
        .filter_map(|l| l.split_whitespace().nth(1))
        .map(|n| format!("§{}", n.trim_end_matches('.')))
        .collect();
    for row in ROWS {
        assert!(
            numbered.contains(row.section),
            "{}: DESIGN.md has no {}",
            row.name,
            row.section
        );
    }
    let names: BTreeSet<&str> = ROWS.iter().map(|row| row.name).collect();
    assert_eq!(names.len(), ROWS.len(), "two rows share a name");
}

/// The table cannot drift back into YAML: the `test` job runs the whole
/// workspace's tests, this file among them, and no `lint` step searches
/// source text itself.
#[test]
fn ci_exercises_the_table() {
    let ci = fs::read_to_string(repo().join(".github/workflows/ci.yml")).expect("ci.yml");
    let job = |name: &str| -> Vec<&str> {
        let mut lines = ci.lines().skip_while(|l| *l != format!("  {name}:"));
        assert!(lines.next().is_some(), "ci.yml has no `{name}` job");
        let body = lines.take_while(|l| {
            !(l.starts_with("  ") && l.as_bytes().get(2).is_some_and(|b| *b != b' '))
        });
        body.filter(|l| !l.trim_start().starts_with('#')).collect()
    };
    assert!(
        job("test")
            .iter()
            .any(|l| l.contains("cargo test") && l.contains("--workspace")),
        "the `test` job no longer runs `cargo test --workspace`"
    );
    for line in job("lint") {
        assert!(
            !word("grep").on(line) && !word("sed").on(line),
            "a `lint` step searches source text: {line}"
        );
    }
}
