//! The application-facing API — the MPI-RMA surface of the paper, blocking
//! and nonblocking.
//!
//! Each simulated rank receives a [`RankEnv`] and programs against it the
//! way an MPI process programs against `MPI_*`:
//!
//! | MPI | here (blocking) | here (nonblocking, §V) |
//! |---|---|---|
//! | `MPI_WIN_FENCE` | [`RankEnv::fence`] | [`RankEnv::ifence`] |
//! | `MPI_WIN_POST` / `WAIT` / `TEST` | [`RankEnv::post`] / [`RankEnv::wait_epoch`] / [`RankEnv::test_epoch`] | [`RankEnv::ipost`] / [`RankEnv::iwait`] |
//! | `MPI_WIN_START` / `COMPLETE` | [`RankEnv::start`] / [`RankEnv::complete`] | [`RankEnv::istart`] / [`RankEnv::icomplete`] |
//! | `MPI_WIN_LOCK` / `UNLOCK` | [`RankEnv::lock`] / [`RankEnv::unlock`] | [`RankEnv::ilock`] / [`RankEnv::iunlock`] |
//! | `MPI_WIN_LOCK_ALL` / `UNLOCK_ALL` | [`RankEnv::lock_all`] / [`RankEnv::unlock_all`] | [`RankEnv::ilock_all`] / [`RankEnv::iunlock_all`] |
//! | `MPI_WIN_FLUSH*` | [`RankEnv::flush`] … | [`RankEnv::iflush`] … |
//! | `MPI_PUT` / `GET` / accumulates | [`RankEnv::put`] … | request-based [`RankEnv::rput`] … |
//!
//! Deviation from MPI for memory safety: `get`-style operations return a
//! data-bearing [`Req`] instead of writing into a caller-supplied buffer;
//! fetch the bytes with [`RankEnv::wait_data`] after synchronization.
//!
//! # What a call costs
//!
//! Every routine is one MPI call and pays one [`CALL_ENTRY`] (the paper's
//! ε) on the caller's clock, in the one `timed` scope that also counts
//! the call; an RMA communication call pays [`PER_OP`] on top. The
//! test/wait family is priced the same way — [`RankEnv::wait`], [`RankEnv::wait_data`],
//! [`RankEnv::test`], [`RankEnv::wait_any`] and [`RankEnv::wait_all`] are
//! one call each, `wait_all` whatever the number of requests it collects
//! (and free when handed none, so a blocking-series program that holds no
//! request pays nothing for it). A blocking epoch, flush or barrier routine
//! is its `i` twin plus the wait inside the same call: one ε, not two. The
//! exception is two-sided: [`RankEnv::send`] and [`RankEnv::recv`] (and the
//! collectives in `coll.rs` built on them) are `isend`/`irecv` followed by
//! `wait`/`wait_data` — two calls, two ε.
//!
//! # Where a rank's time goes
//!
//! A rank's clock moves at four sites, and each records its move in the
//! rank's [`RankStats`] beside it: `compute` adds its span, `timed` counts
//! the call (one ε), `rma` counts the op (one [`PER_OP`]) and
//! `blocked_park` adds its parked span and one park. Every park sits
//! inside a call, so [`RankStats::mpi_time`] is a view of the ledger, and
//! `compute_time + mpi_time()` is the rank's virtual time exactly
//! (`run_job` checks it when each rank returns, in debug builds).
//!
//! # How a call blocks
//!
//! On its request, and on nothing else (§VII.C). [`RankEnv::wait`] and its
//! siblings look the request up; if it is pending they leave this rank's
//! process id with it ([`crate::request::ReqTable::poll`]) and park, and
//! [`crate::request::ReqTable::complete`] — the one place the engine
//! completes a request — readies that process. `blocked_park` is the only
//! place in this crate a rank parks.
//!
//! # Where the engine runs
//!
//! A rank's fiber stack holds its own frames, and the engine's are deeper:
//! every engine call a routine makes goes through one choke point,
//! `engine_call`, which runs it on the driver's stack
//! ([`mpisim_sim::on_driver_stack`]), so a rank's fiber keeps one resident
//! stack page whatever the engine does. The parks stay on the fiber:
//! `blocked_park` and the clock's `advance` run between engine calls,
//! never inside one.

use std::cell::RefMut;
use std::rc::Rc;

use mpisim_net::{Bytes, Payload};
use mpisim_sim::{ProcCtx, SimTime};

use crate::config::WinInfo;
use crate::datatype::{Datatype, ReduceOp};
use crate::engine::{Engine, RankStats};
use crate::epoch::{EpochKind, Slot};
use crate::error::{RmaError, RmaResult};
use crate::msg::{FetchKind, Layout, OpKind};
use crate::types::{Group, LockKind, Rank, Req, WinId};

/// CPU cost charged on entry to every MPI call (the ε of §IV.C).
pub const CALL_ENTRY: SimTime = SimTime::from_nanos(300);

/// Extra CPU cost to post one RMA operation.
pub const PER_OP: SimTime = SimTime::from_nanos(150);

impl RankStats {
    /// Virtual time spent inside MPI calls, blocking waits included: one
    /// ε per call, one [`PER_OP`] per RMA op, and the parked spans.
    pub fn mpi_time(&self) -> SimTime {
        CALL_ENTRY * self.calls + PER_OP * self.ops + self.blocked
    }
}

/// The environment of one simulated MPI rank.
///
/// A rank runs on the simulation's driver thread, which owns the engine;
/// its environment is not `Send`:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<mpisim_core::RankEnv<'static>>();
/// ```
pub struct RankEnv<'a> {
    ctx: &'a ProcCtx,
    eng: Rc<Engine>,
    rank: Rank,
}

impl<'a> RankEnv<'a> {
    /// Construct the environment (done by the runtime).
    pub fn new(ctx: &'a ProcCtx, eng: Rc<Engine>, rank: Rank) -> Self {
        RankEnv { ctx, eng, rank }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Job size.
    pub fn n_ranks(&self) -> usize {
        self.engine_call(|eng| eng.cfg.n_ranks)
    }

    /// Current virtual time (`MPI_Wtime`).
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Model `d` of computation: virtual time advances, communications
    /// progress meanwhile.
    pub fn compute(&self, d: SimTime) {
        self.ctx.advance(d);
        self.ledger().compute_time += d;
    }

    /// Per-rank timing statistics so far.
    pub fn stats(&self) -> RankStats {
        self.engine_call(|eng| eng.rank_stats(self.rank))
    }

    /// The engine (for instrumentation, e.g. network stats).
    pub fn engine(&self) -> &Rc<Engine> {
        &self.eng
    }

    /// Every engine call this API makes, and nothing else: `f` runs on
    /// the driver's stack ([`mpisim_sim::on_driver_stack`]), so the engine's
    /// deep frames — sweeps, dispatches, transmits — never touch this rank's
    /// fiber stack, and a rank keeps one resident stack page. `f` must not
    /// park (it cannot: a park inside it panics).
    pub(crate) fn engine_call<T>(&self, f: impl FnOnce(&Rc<Engine>) -> T) -> T {
        mpisim_sim::on_driver_stack(|| f(&self.eng))
    }

    /// This rank's row of the time ledger. Its clock moves at four sites
    /// only — `compute`, `timed`, `rma` and `blocked_park` — and each one
    /// records the move here, so `compute_time + mpi_time()` is the rank's
    /// virtual time. A field borrow, no engine code: the one use of the
    /// engine outside `engine_call`.
    fn ledger(&self) -> RefMut<'_, RankStats> {
        RefMut::map(self.eng.st.borrow_mut(), |st| &mut st.stats[self.rank.idx()])
    }

    /// One MPI call: charge the per-call software overhead, then run `f`.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        self.ctx.advance(CALL_ENTRY);
        self.ledger().calls += 1;
        f()
    }

    /// One MPI call that returns at once: the engine call `f`, timed.
    fn nonblocking<T>(&self, f: impl FnOnce(&Rc<Engine>) -> T) -> T {
        self.timed(|| self.engine_call(f))
    }

    // ------------------------------------------------------------------
    // requests (test/wait family)
    // ------------------------------------------------------------------

    /// Block until `req` completes; consumes the request.
    pub fn wait(&self, req: Req) -> RmaResult<()> {
        self.timed(|| self.wait_inner(|_| Ok(req)).map(|_| ()))
    }

    /// Block until `req` completes and return its data (get/fetch/recv
    /// results). Errors if the request carries no data.
    pub fn wait_data(&self, req: Req) -> RmaResult<Bytes> {
        self.timed(|| {
            self.wait_inner(|_| Ok(req))?
                .ok_or(RmaError::DatatypeMismatch {
                    detail: "request carries no data",
                })
        })
    }

    /// Consume the request `make_req` returns if it is complete; otherwise
    /// register this rank as its waiter, park, and look again. `make_req` is
    /// an engine call (the nonblocking half of a blocking routine) or hands
    /// back a request the caller holds; it and the first look are one engine
    /// call.
    fn wait_inner(
        &self,
        make_req: impl FnOnce(&Rc<Engine>) -> RmaResult<Req>,
    ) -> RmaResult<Option<Bytes>> {
        let pid = Some(self.ctx.pid());
        let mut make_req = Some(make_req);
        let mut req = None;
        loop {
            let polled = self.engine_call(|eng| {
                let r = match req {
                    Some(r) => r,
                    None => *req.insert(make_req.take().expect("made once")(eng)?),
                };
                eng.poll_req(&mut eng.st.borrow_mut(), r, pid)
            })?;
            if let Some(data) = polled {
                return Ok(data);
            }
            self.blocked_park();
        }
    }

    /// Park until a request this rank registered on completes
    /// ([`crate::request::ReqTable::complete`] readies it), recording the
    /// park and its span in the ledger ([`RankStats::parks`],
    /// [`RankStats::blocked`]). Every blocking wait in the API funnels
    /// through here, inside its call's `timed` scope.
    fn blocked_park(&self) {
        let t0 = self.ctx.now();
        self.ctx.park();
        let mut s = self.ledger();
        s.blocked += self.ctx.now() - t0;
        s.parks += 1;
    }

    /// Nonblocking completion check; consumes the request when complete.
    pub fn test(&self, req: Req) -> RmaResult<bool> {
        self.nonblocking(|eng| Ok(eng.poll_req(&mut eng.st.borrow_mut(), req, None)?.is_some()))
    }

    /// `MPI_WAITALL`: one MPI call, whatever the number of requests — one
    /// `CALL_ENTRY`, then every request is waited for, in order, and
    /// consumed. A bad handle does not abandon the requests after it: all
    /// are waited for and the first error is returned. Handed no request it
    /// is free.
    pub fn wait_all(&self, reqs: impl IntoIterator<Item = Req>) -> RmaResult<()> {
        let mut reqs = reqs.into_iter().peekable();
        if reqs.peek().is_none() {
            return Ok(());
        }
        let pid = Some(self.ctx.pid());
        self.timed(|| {
            let mut first_error = None;
            loop {
                // Consume the requests in order up to the first pending one,
                // which learns whom to ready: one engine call per park.
                let pending = self.engine_call(|eng| {
                    let mut st = eng.st.borrow_mut();
                    while let Some(&r) = reqs.peek() {
                        match eng.poll_req(&mut st, r, pid) {
                            Ok(None) => return true,
                            Ok(Some(_)) => {}
                            Err(e) => {
                                first_error.get_or_insert(e);
                            }
                        }
                        reqs.next();
                    }
                    false
                });
                if !pending {
                    return first_error.map_or(Ok(()), Err);
                }
                self.blocked_park();
            }
        })
    }

    /// Block until *any* of the requests completes; consumes that request
    /// and returns its index (`MPI_WAITANY`). Errors if the slice is empty
    /// or a handle is stale. However it returns, this rank is registered on
    /// none of the requests it leaves behind.
    pub fn wait_any(&self, reqs: &[Req]) -> RmaResult<usize> {
        if reqs.is_empty() {
            return Err(RmaError::InvalidRequest);
        }
        let pid = self.ctx.pid();
        self.timed(|| loop {
            let hit = self.engine_call(|eng| {
                let mut st = eng.st.borrow_mut();
                // The first complete request in slice order wins; the
                // pending ones before it (all of them, if none is complete)
                // learn whom to ready.
                let mut poll = |r| eng.poll_req(&mut st, r, Some(pid));
                let hit = reqs.iter().enumerate().find_map(|(i, r)| match poll(*r) {
                    Ok(None) => None,
                    Ok(Some(_)) => Some(Ok(i)),
                    Err(stale_or_taken) => Some(Err(stale_or_taken)),
                });
                if hit.is_some() {
                    st.reqs.forget(reqs, pid);
                }
                hit
            });
            if let Some(outcome) = hit {
                return outcome;
            }
            self.blocked_park();
        })
    }

    // ------------------------------------------------------------------
    // windows
    // ------------------------------------------------------------------

    /// Collective window creation with `size` bytes of exposed memory
    /// (`MPI_WIN_ALLOCATE`); synchronizes all ranks.
    pub fn win_allocate(&self, size: usize) -> RmaResult<WinId> {
        self.win_allocate_with(size, WinInfo::default())
    }

    /// Window creation with explicit info flags (§VI.B reorder flags).
    pub fn win_allocate_with(&self, size: usize, info: WinInfo) -> RmaResult<WinId> {
        let w = self.nonblocking(|eng| eng.win_allocate(self.rank, size, info))?;
        self.barrier()?;
        Ok(w)
    }

    /// Collective window destruction; synchronizes all ranks.
    pub fn win_free(&self, win: WinId) -> RmaResult<()> {
        self.barrier()?;
        self.nonblocking(|eng| eng.win_free(self.rank, win))
    }

    /// Read `len` bytes from the local window copy (local load).
    pub fn read_local(&self, win: WinId, disp: usize, len: usize) -> RmaResult<Vec<u8>> {
        self.engine_call(|eng| eng.read_local(self.rank, win, disp, len))
    }

    /// Write into the local window copy (local store).
    pub fn write_local(&self, win: WinId, disp: usize, data: &[u8]) -> RmaResult<()> {
        self.engine_call(|eng| eng.write_local(self.rank, win, disp, data))
    }

    // ------------------------------------------------------------------
    // epochs and flushes: every routine is one engine call, wrapped as an
    // opening (returns at once), a nonblocking `i` call (returns the
    // request) or its blocking twin (waits on that request)
    // ------------------------------------------------------------------

    /// A blocking routine: make the nonblocking engine call `f`, then wait
    /// on the request it returns.
    fn blocking(&self, f: impl FnOnce(&Rc<Engine>) -> RmaResult<Req>) -> RmaResult<()> {
        self.timed(|| self.wait_inner(f).map(|_| ()))
    }

    /// An epoch-opening routine. All are nonblocking at middleware level.
    fn opening(&self, win: WinId, kind: EpochKind) -> RmaResult<()> {
        self.nonblocking(|eng| eng.open_epoch(self.rank, win, kind))
    }

    /// The `i` variant of an opening routine: the same call plus a dummy
    /// request, complete at creation (§VII.C).
    fn iopening(&self, win: WinId, kind: EpochKind) -> RmaResult<Req> {
        self.nonblocking(|eng| {
            eng.open_epoch(self.rank, win, kind)?;
            Ok(eng.dummy_open_req(self.rank))
        })
    }

    /// Blocking `MPI_WIN_FENCE`.
    pub fn fence(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.fence(self.rank, win))
    }

    /// `MPI_WIN_IFENCE` (§V): returns the closing request.
    pub fn ifence(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.fence(self.rank, win))
    }

    /// `MPI_WIN_START` (nonblocking by design in modern MPIs).
    pub fn start(&self, win: WinId, group: Group) -> RmaResult<()> {
        self.opening(win, EpochKind::GatsAccess { group })
    }

    /// `MPI_WIN_ISTART`: identical to [`RankEnv::start`] plus a dummy
    /// completed request (§VII.C).
    pub fn istart(&self, win: WinId, group: Group) -> RmaResult<Req> {
        self.iopening(win, EpochKind::GatsAccess { group })
    }

    /// `MPI_WIN_POST` (already nonblocking in MPI-3.0).
    pub fn post(&self, win: WinId, group: Group) -> RmaResult<()> {
        self.opening(win, EpochKind::GatsExposure { group })
    }

    /// `MPI_WIN_IPOST`: provided for uniformity (§V).
    pub fn ipost(&self, win: WinId, group: Group) -> RmaResult<Req> {
        self.iopening(win, EpochKind::GatsExposure { group })
    }

    /// Blocking `MPI_WIN_COMPLETE`.
    pub fn complete(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.close_epoch(self.rank, win, Slot::GatsAccess))
    }

    /// `MPI_WIN_ICOMPLETE` (§V).
    pub fn icomplete(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.close_epoch(self.rank, win, Slot::GatsAccess))
    }

    /// Blocking `MPI_WIN_WAIT`.
    pub fn wait_epoch(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.close_epoch(self.rank, win, Slot::Exposure))
    }

    /// `MPI_WIN_IWAIT` (§V): unlike `MPI_WIN_TEST`, this closes the epoch
    /// immediately, so a subsequent exposure can be opened wait-free.
    pub fn iwait(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.close_epoch(self.rank, win, Slot::Exposure))
    }

    /// `MPI_WIN_TEST`: nonblocking check that closes the exposure epoch
    /// only when it has completed.
    pub fn test_epoch(&self, win: WinId) -> RmaResult<bool> {
        self.nonblocking(|eng| eng.test_exposure(self.rank, win))
    }

    /// Blocking `MPI_WIN_LOCK` (returns when the epoch is open at the
    /// application level; acquisition happens inside the middleware).
    pub fn lock(&self, win: WinId, target: Rank, lock: LockKind) -> RmaResult<()> {
        self.opening(win, EpochKind::Lock { target, lock })
    }

    /// `MPI_WIN_ILOCK` (§V).
    pub fn ilock(&self, win: WinId, target: Rank, lock: LockKind) -> RmaResult<Req> {
        self.iopening(win, EpochKind::Lock { target, lock })
    }

    /// Blocking `MPI_WIN_UNLOCK`: returns when every RMA op of the epoch
    /// completed locally and remotely and the lock is released.
    pub fn unlock(&self, win: WinId, target: Rank) -> RmaResult<()> {
        self.blocking(|eng| eng.close_epoch(self.rank, win, Slot::Lock(target)))
    }

    /// `MPI_WIN_IUNLOCK` (§V).
    pub fn iunlock(&self, win: WinId, target: Rank) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.close_epoch(self.rank, win, Slot::Lock(target)))
    }

    /// Blocking `MPI_WIN_LOCK_ALL`.
    pub fn lock_all(&self, win: WinId) -> RmaResult<()> {
        self.opening(win, EpochKind::LockAll)
    }

    /// `MPI_WIN_ILOCK_ALL` (§V).
    pub fn ilock_all(&self, win: WinId) -> RmaResult<Req> {
        self.iopening(win, EpochKind::LockAll)
    }

    /// Blocking `MPI_WIN_UNLOCK_ALL`.
    pub fn unlock_all(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.close_epoch(self.rank, win, Slot::LockAll))
    }

    /// `MPI_WIN_IUNLOCK_ALL` (§V).
    pub fn iunlock_all(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.close_epoch(self.rank, win, Slot::LockAll))
    }

    /// Blocking `MPI_WIN_FLUSH` toward one target.
    pub fn flush(&self, win: WinId, target: Rank) -> RmaResult<()> {
        self.blocking(|eng| eng.iflush(self.rank, win, Some(target), false))
    }

    /// `MPI_WIN_IFLUSH` (§V).
    pub fn iflush(&self, win: WinId, target: Rank) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.iflush(self.rank, win, Some(target), false))
    }

    /// Blocking `MPI_WIN_FLUSH_LOCAL`.
    pub fn flush_local(&self, win: WinId, target: Rank) -> RmaResult<()> {
        self.blocking(|eng| eng.iflush(self.rank, win, Some(target), true))
    }

    /// `MPI_WIN_IFLUSH_LOCAL` (§V).
    pub fn iflush_local(&self, win: WinId, target: Rank) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.iflush(self.rank, win, Some(target), true))
    }

    /// Blocking `MPI_WIN_FLUSH_ALL`.
    pub fn flush_all(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.iflush(self.rank, win, None, false))
    }

    /// `MPI_WIN_IFLUSH_ALL` (§V).
    pub fn iflush_all(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.iflush(self.rank, win, None, false))
    }

    /// Blocking `MPI_WIN_FLUSH_LOCAL_ALL`.
    pub fn flush_local_all(&self, win: WinId) -> RmaResult<()> {
        self.blocking(|eng| eng.iflush(self.rank, win, None, true))
    }

    /// `MPI_WIN_IFLUSH_LOCAL_ALL` (§V).
    pub fn iflush_local_all(&self, win: WinId) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.iflush(self.rank, win, None, true))
    }

    // ------------------------------------------------------------------
    // RMA communication calls (nonblocking per MPI-3.0)
    // ------------------------------------------------------------------

    /// `MPI_PUT`.
    pub fn put(&self, win: WinId, target: Rank, disp: usize, data: &[u8]) -> RmaResult<()> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Put {
                payload: Payload::copy_from_slice(data),
                layout: Layout::Contig,
            },
            false,
        )
        .map(|_| ())
    }

    /// Strided put (`MPI_PUT` with a vector target datatype): `data` holds
    /// `count × blocklen` packed bytes, written as `count` blocks whose
    /// starts are `stride` bytes apart at the target.
    #[allow(clippy::too_many_arguments)]
    pub fn put_strided(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        count: usize,
        blocklen: usize,
        stride: usize,
        data: &[u8],
    ) -> RmaResult<()> {
        if stride < blocklen || count.checked_mul(blocklen) != Some(data.len()) {
            return Err(RmaError::DatatypeMismatch {
                detail: "vector layout: need stride ≥ blocklen and data = count × blocklen",
            });
        }
        self.rma(
            win,
            target,
            disp,
            OpKind::Put {
                payload: Payload::copy_from_slice(data),
                layout: Layout::Vector { count, blocklen, stride },
            },
            false,
        )
        .map(|_| ())
    }

    /// Size-only put for paper-scale workloads: times like a real put,
    /// moves no bytes.
    pub fn put_synthetic(&self, win: WinId, target: Rank, disp: usize, len: usize) -> RmaResult<()> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Put {
                payload: Payload::Synthetic(len),
                layout: Layout::Contig,
            },
            false,
        )
        .map(|_| ())
    }

    /// `MPI_RPUT`: request completes at local completion.
    pub fn rput(&self, win: WinId, target: Rank, disp: usize, data: &[u8]) -> RmaResult<Req> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Put {
                payload: Payload::copy_from_slice(data),
                layout: Layout::Contig,
            },
            true,
        )
        .map(|r| r.expect("request-based op returns a request"))
    }

    /// `MPI_GET`: returns a data-bearing request; the bytes are valid after
    /// the epoch synchronizes (or the request completes).
    pub fn get(&self, win: WinId, target: Rank, disp: usize, len: usize) -> RmaResult<Req> {
        self.rma(win, target, disp, OpKind::Get { len, layout: Layout::Contig }, true)
            .map(|r| r.expect("get returns a request"))
    }

    /// Strided get: gathers `count` blocks of `blocklen` bytes, `stride`
    /// apart, from the target into one packed data-bearing request.
    pub fn get_strided(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        count: usize,
        blocklen: usize,
        stride: usize,
    ) -> RmaResult<Req> {
        let Some(len) = count.checked_mul(blocklen).filter(|_| stride >= blocklen) else {
            return Err(RmaError::DatatypeMismatch {
                detail: "vector layout: need stride ≥ blocklen and count × blocklen to fit",
            });
        };
        self.rma(
            win,
            target,
            disp,
            OpKind::Get {
                len,
                layout: Layout::Vector { count, blocklen, stride },
            },
            true,
        )
        .map(|r| r.expect("get returns a request"))
    }

    /// `MPI_ACCUMULATE`.
    pub fn accumulate(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        data: &[u8],
    ) -> RmaResult<()> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Acc { dt, op, payload: Payload::copy_from_slice(data) },
            false,
        )
        .map(|_| ())
    }

    /// Size-only accumulate (skips target-side arithmetic).
    pub fn accumulate_synthetic(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        len: usize,
    ) -> RmaResult<()> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Acc { dt, op, payload: Payload::Synthetic(len) },
            false,
        )
        .map(|_| ())
    }

    /// `MPI_RACCUMULATE`.
    pub fn raccumulate(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        data: &[u8],
    ) -> RmaResult<Req> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Acc { dt, op, payload: Payload::copy_from_slice(data) },
            true,
        )
        .map(|r| r.expect("request-based op returns a request"))
    }

    /// `MPI_GET_ACCUMULATE`: atomically applies `op` and returns the
    /// previous target contents via the request.
    pub fn get_accumulate(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        data: &[u8],
    ) -> RmaResult<Req> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Fetch {
                fetch: FetchKind::GetAccumulate,
                dt,
                op,
                operand: Payload::copy_from_slice(data),
            },
            true,
        )
        .map(|r| r.expect("fetch op returns a request"))
    }

    /// `MPI_FETCH_AND_OP` (single element).
    pub fn fetch_and_op(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        operand: &[u8],
    ) -> RmaResult<Req> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Fetch {
                fetch: FetchKind::FetchAndOp,
                dt,
                op,
                operand: Payload::copy_from_slice(operand),
            },
            true,
        )
        .map(|r| r.expect("fetch op returns a request"))
    }

    /// `MPI_COMPARE_AND_SWAP` (single element): swaps in `new` iff the
    /// target equals `compare`; the request returns the previous contents.
    pub fn compare_and_swap(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        dt: Datatype,
        compare: &[u8],
        new: &[u8],
    ) -> RmaResult<Req> {
        self.rma(
            win,
            target,
            disp,
            OpKind::Fetch {
                fetch: FetchKind::CompareAndSwap {
                    compare: compare.to_vec(),
                },
                dt,
                op: ReduceOp::Replace,
                operand: Payload::copy_from_slice(new),
            },
            true,
        )
        .map(|r| r.expect("fetch op returns a request"))
    }

    fn rma(
        &self,
        win: WinId,
        target: Rank,
        disp: usize,
        kind: OpKind,
        want_req: bool,
    ) -> RmaResult<Option<Req>> {
        self.timed(|| {
            self.ctx.advance(PER_OP);
            self.ledger().ops += 1;
            self.engine_call(|eng| eng.rma_op(self.rank, win, target, disp, kind, want_req))
        })
    }

    // ------------------------------------------------------------------
    // two-sided and collectives
    // ------------------------------------------------------------------

    /// Blocking standard-mode send (returns when the buffer is reusable).
    pub fn send(&self, dst: Rank, tag: u64, data: &[u8]) -> RmaResult<()> {
        let r = self.isend(dst, tag, data)?;
        self.wait(r)
    }

    /// `MPI_ISEND`.
    pub fn isend(&self, dst: Rank, tag: u64, data: &[u8]) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.isend(self.rank, dst, tag, Payload::copy_from_slice(data)))
    }

    /// Size-only isend.
    pub fn isend_synthetic(&self, dst: Rank, tag: u64, len: usize) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.isend(self.rank, dst, tag, Payload::Synthetic(len)))
    }

    /// Blocking receive returning the message bytes.
    pub fn recv(&self, src: Rank, tag: u64) -> RmaResult<Bytes> {
        let r = self.irecv(src, tag)?;
        self.wait_data(r)
    }

    /// `MPI_IRECV`.
    pub fn irecv(&self, src: Rank, tag: u64) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.irecv(self.rank, src, tag))
    }

    /// Blocking dissemination barrier over all ranks.
    pub fn barrier(&self) -> RmaResult<()> {
        self.blocking(|eng| eng.ibarrier(self.rank))
    }

    /// Nonblocking barrier; refused while this rank's previous barrier is
    /// pending.
    pub fn ibarrier(&self) -> RmaResult<Req> {
        self.nonblocking(|eng| eng.ibarrier(self.rank))
    }
}
