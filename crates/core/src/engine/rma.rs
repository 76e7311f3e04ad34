//! RMA communication calls: recording, issuing (sweep steps 2/4), the
//! data-plane message handlers, and per-operation completion tracking.
//!
//! A recorded [`OpKind`] is never re-spelled on its way: `rma_op` records
//! it, `send_op` classifies it (eager, or the rendezvous handshake of a
//! large accumulate) and `post_op` moves it into the one [`Body::Op`]; at
//! the target the one `handle_op` applies it, and `handle_op_resp` takes
//! the answer of the kinds that read the target. What differs per kind is
//! asked of the kind itself (`msg.rs`).

use std::rc::Rc;

use mpisim_net::{Packet, Payload};

use crate::datatype;
use crate::engine::{EngState, Engine, Notice, Phase, TokenInfo, RNDV_THRESHOLD};
use crate::epoch::{EpochKind, LiveOp, OpDesc};
use crate::error::{RmaError, RmaResult};
use crate::msg::{Body, EpochTag, FetchKind, OpKind};
use crate::request::ReqKind;
use crate::trace::{AccessKind, Plane, SyncEvent, TraceEvent};
use crate::types::{EpochId, Rank, Req, WinId};

impl Engine {
    // ------------------------------------------------------------------
    // recording (application-side entry)
    // ------------------------------------------------------------------

    /// Record an RMA operation into the open access epoch covering
    /// `target`. Returns the result request for get/fetch ops (always) and
    /// for request-based put/accumulate variants (`want_req`).
    pub fn rma_op(
        self: &Rc<Self>,
        rank: Rank,
        win: WinId,
        target: Rank,
        disp: usize,
        kind: OpKind,
        want_req: bool,
    ) -> RmaResult<Option<Req>> {
        let req = {
            let mut st = self.st.borrow_mut();
            let w = self.api_win(&st, win, rank, Some(&[target]))?;
            // Validate element sizes early (API-level error).
            if let OpKind::Acc { dt, payload, .. } = &kind {
                dt.check_len(payload.len())?;
            }
            if let OpKind::Fetch { fetch, dt, operand, .. } = &kind {
                dt.check_len(operand.len())?;
                match fetch {
                    FetchKind::FetchAndOp => {
                        if operand.len() != dt.size() {
                            return Err(RmaError::DatatypeMismatch {
                                detail: "fetch_and_op operates on exactly one element",
                            });
                        }
                    }
                    FetchKind::CompareAndSwap { compare } => {
                        if operand.len() != dt.size() || compare.len() != dt.size() {
                            return Err(RmaError::DatatypeMismatch {
                                detail: "compare_and_swap operates on exactly one element",
                            });
                        }
                    }
                    FetchKind::GetAccumulate => {}
                }
            }
            let covering = w.open.covering(target, |id| w.epoch(*id).covers_target(target));
            let eid = *covering.ok_or(RmaError::NoEpoch { win, target })?;
            // An erroneous range is the caller's error here, not a panic in
            // the target's sweep when the op arrives.
            let (len, layout) = kind.shape();
            let extent = layout.extent(len);
            let room = st.win(win, target).mem.len();
            if disp.checked_add(extent).is_none_or(|end| end > room) {
                return Err(RmaError::OutOfBounds { win, target, disp, len: extent });
            }
            let age = st.win_mut(win, rank).alloc_age();
            let req = if kind.expects_response() || want_req {
                Some(self.alloc_req(&mut st, rank, ReqKind::Comm, false))
            } else {
                None
            };
            let e = st.win_mut(win, rank).epoch_mut(eid);
            e.record_op(target);
            e.pending_ops.push_back(OpDesc {
                age,
                target,
                disp,
                kind,
                req,
            });
            st.mark_ops_dirty(rank, win, eid);
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    // ------------------------------------------------------------------
    // issuing (sweep steps 2 and 4)
    // ------------------------------------------------------------------

    /// Post every eligible recorded op for this rank in the given phase.
    /// Epochs that still hold ops the *other* phase could issue right now
    /// are re-queued: internode step 2 hands intranode leftovers to step 4,
    /// and step 4 hands internode leftovers to the next pass's step 2 (the
    /// sweep loops until quiescent).
    pub(crate) fn issue_phase(self: &Rc<Self>, st: &mut EngState, rank: Rank, phase: Phase) {
        let scans = st.drain(
            |st| &mut st.sweep[rank.idx()].dirty_ops,
            |st, (win, eid)| {
                if st.live_epoch(win, rank, eid).is_some()
                    && self.issue_ops(st, rank, win, eid, phase)
                {
                    st.mark_ops_dirty(rank, win, eid);
                }
            },
        );
        st.eng_stats.issue_scans += scans;
    }

    /// Issue eligible ops of one epoch; returns whether ops remain that the
    /// *other* phase could issue right now.
    fn issue_ops(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        eid: EpochId,
        phase: Phase,
    ) -> bool {
        let lazy = self.lazy();
        let topo = self.net.topology().clone();
        {
            let e = st.win(win, rank).epoch(eid);
            if !e.is_active() {
                return false;
            }
            // Lazy baseline (§VIII.B): nothing is issued before the
            // epoch-closing routine — unless a flush forced the epoch out
            // of deferral, in which case recorded ops must drain now so
            // the flush can complete. All internode targets must be
            // granted before any internode issue; all targets must be
            // granted before intranode issue.
            if lazy {
                if !e.issues_lazily() {
                    return false;
                }
                let internode_only = phase == Phase::Internode;
                debug_assert_eq!(
                    e.all_granted(internode_only),
                    e.targets().iter().all(|(t, ts)| {
                        ts.granted || (internode_only && topo.same_node(rank, *t))
                    }),
                    "lazy-gate counters out of step with the targets"
                );
                if !e.all_granted(internode_only) {
                    return false;
                }
            }
        }
        // Drain issueable ops, preserving order of the rest. Ready ops are
        // sent as they are found (`send_op` never touches `pending_ops`);
        // the survivors accumulate in a recycled scratch deque, so the
        // steady state allocates nothing.
        let mut leftovers_other_phase = false;
        let mut rest = std::mem::take(&mut st.sweep[rank.idx()].pending_scratch);
        let mut pending = std::mem::take(&mut st.win_mut(win, rank).epoch_mut(eid).pending_ops);
        while let Some(op) = pending.pop_front() {
            let granted = {
                let e = st.win(win, rank).epoch(eid);
                e.targets().get(&op.target).is_some_and(|t| t.granted)
            };
            let intranode = topo.same_node(rank, op.target);
            let phase_ok = match phase {
                Phase::Internode => !intranode,
                Phase::Intranode => intranode,
            };
            if granted && phase_ok {
                self.send_op(st, rank, win, eid, op);
            } else {
                if granted && !phase_ok {
                    leftovers_other_phase = true;
                }
                rest.push_back(op);
            }
        }
        st.win_mut(win, rank).epoch_mut(eid).pending_ops = rest;
        st.sweep[rank.idx()].pending_scratch = pending;
        st.mark_complete_dirty(rank, win, eid);
        leftovers_other_phase
    }

    /// Build the epoch tag for data heading to `target`.
    fn epoch_tag(&self, st: &EngState, rank: Rank, win: WinId, eid: EpochId, target: Rank) -> EpochTag {
        let e = st.win(win, rank).epoch(eid);
        match &e.kind {
            EpochKind::GatsAccess { .. } => EpochTag::Gats {
                access_id: e.targets()[&target].access_id,
            },
            EpochKind::Lock { .. } | EpochKind::LockAll => EpochTag::Lock {
                access_id: e.targets()[&target].access_id,
            },
            EpochKind::Fence { seq } => EpochTag::Fence { seq: *seq },
            EpochKind::GatsExposure { .. } => unreachable!("exposure epochs issue no RMA"),
        }
    }

    /// Issue one recorded op: enter it in the epoch's live set, then either
    /// put it on the wire or — a large accumulate — open its rendezvous.
    fn send_op(self: &Rc<Self>, st: &mut EngState, rank: Rank, win: WinId, eid: EpochId, op: OpDesc) {
        st.eng_stats.ops_issued += 1;
        let e = st.win_mut(win, rank).epoch_mut(eid);
        let is_passive = e.kind.is_passive();
        let responds = op.kind.expects_response();
        e.add_live(
            op.age,
            LiveOp {
                target: op.target,
                needs_local: op.kind.sends_payload(),
                needs_resp: responds,
                // The response of a get or fetch is its remote completion.
                needs_ack: is_passive && !responds,
                req: op.req,
            },
        );
        let plane = if is_passive { Plane::Lock } else { Plane::Gats };
        // Target byte range + access kind travel with the trace record so
        // the race detector needs no side channel into the op stream.
        let event = SyncEvent::DataIssued {
            epoch: eid.0,
            disp: op.disp,
            len: op.kind.extent(),
            access: op.kind.access(),
        };
        self.trace(st, rank, TraceEvent::Sync { win, peer: op.target, plane, event });
        if matches!(op.kind, OpKind::Acc { .. }) && op.kind.wire_len() > RNDV_THRESHOLD {
            // Rendezvous: the target must stage an intermediate buffer for
            // the operand (§VIII.A) — RTS now, data on CTS. `unsent` stays
            // up so done/unlock packets cannot overtake the data.
            let dst = op.target;
            let token = st.tokens.insert(TokenInfo::AccRndv {
                rank,
                win,
                epoch: eid,
                op,
            });
            let body = Body::AccRts { token };
            self.send_framed(st, Packet { src: rank, dst, body }, None, None);
            return;
        }
        let token = responds.then(|| {
            let req = op
                .req
                .expect("get and fetch ops always carry a result request");
            st.tokens.insert(TokenInfo::Resp {
                rank,
                win,
                epoch: eid,
                age: op.age,
                req,
            })
        });
        self.post_op(st, rank, win, eid, op, token);
    }

    /// Put a live op on the wire as the one [`Body::Op`], with
    /// local-completion tracking for the kinds that send a payload and,
    /// in passive epochs, remote-ack tracking for the kinds no response
    /// acknowledges.
    fn post_op(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        eid: EpochId,
        op: OpDesc,
        token: Option<u64>,
    ) {
        let tag = self.epoch_tag(st, rank, win, eid, op.target);
        let e = st.win_mut(win, rank).epoch_mut(eid);
        e.op_sent(op.target);
        let age = op.age;
        let ack = (e.kind.is_passive() && !op.kind.expects_response()).then_some(Notice::Acked {
            win,
            epoch: eid,
            age,
        });
        let local = op.kind.sends_payload().then(|| {
            let me = self.clone();
            let notice = Notice::LocalComplete {
                win,
                epoch: eid,
                age,
            };
            Box::new(move || me.post_notice(rank, notice)) as Box<dyn FnOnce()>
        });
        let body = Body::Op {
            win,
            tag,
            disp: op.disp,
            token,
            kind: op.kind,
        };
        self.send_framed(
            st,
            Packet {
                src: rank,
                dst: op.target,
                body,
            },
            local,
            ack,
        );
    }

    /// Enqueue a completion notice and run the owner's sweep (called from
    /// scheduler events).
    pub(crate) fn post_notice(self: &Rc<Self>, rank: Rank, n: Notice) {
        {
            let mut st = self.st.borrow_mut();
            st.sweep[rank.idx()].notices.push_back(n);
        }
        self.sweep(rank);
    }

    // ------------------------------------------------------------------
    // per-op state transitions
    // ------------------------------------------------------------------

    /// Apply `f` to a live op and process the resulting transitions:
    /// request completion at local completion, flush-counter decrements,
    /// and removal when fully done.
    pub(crate) fn op_update(
        self: &Rc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        eid: EpochId,
        age: u64,
        f: impl FnOnce(&mut LiveOp),
    ) {
        if st.live_epoch(win, rank, eid).is_none() {
            return; // epoch already retired (op was not needed for completion)
        }
        let (became_local, became_done, target, req) = {
            let e = st.win_mut(win, rank).epoch_mut(eid);
            let Some(op) = e.live_op_mut(age) else {
                return;
            };
            let was_local = op.locally_done();
            f(op);
            let became_local = !was_local && op.locally_done();
            let became_done = op.done();
            let target = op.target;
            let req = op.req;
            if became_done {
                e.finish_live(age);
            }
            (became_local, became_done, target, req)
        };
        if became_local {
            if let Some(r) = req {
                // Request-based put/accumulate semantics: the request
                // completes at local completion. Get/fetch requests are
                // completed with data by the response handler; completing
                // here is a no-op for them because `complete` is idempotent.
                self.complete_req(st, r, None);
            }
        }
        self.flush_note_op(st, rank, win, eid, age, target, became_local, became_done);
        st.mark_complete_dirty(rank, win, eid);
    }

    // ------------------------------------------------------------------
    // data-plane handlers (target side unless noted)
    // ------------------------------------------------------------------

    /// `hb-race` fault injection: the target reads the bytes an arriving
    /// write just touched, with no synchronization ordering the read
    /// against the origin's epoch — the planted race the `mpisim-analyze`
    /// detector must catch. Memory is unchanged and no protocol counter
    /// moves, so the oracle and the ω-triple auditor both stay green.
    fn plant_local_read(
        &self,
        st: &mut EngState,
        me: Rank,
        win: WinId,
        tag: EpochTag,
        disp: usize,
        len: usize,
    ) {
        if self.fault != Some(crate::engine::Fault::HbRace) {
            return;
        }
        let plane = match tag {
            EpochTag::Lock { .. } => Plane::Lock,
            EpochTag::Gats { .. } | EpochTag::Fence { .. } => Plane::Gats,
        };
        let event = SyncEvent::LocalAccess { disp, len, access: AccessKind::Read };
        self.trace(st, me, TraceEvent::Sync { win, peer: me, plane, event });
    }

    /// Target side of every RMA operation: bounds-check it against the
    /// window, read what the origin gets back (a get's data, a fetch's
    /// previous contents), apply what it writes, journal the write, count
    /// it toward its fence, and answer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_op(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        win: WinId,
        tag: EpochTag,
        disp: usize,
        token: Option<u64>,
        kind: OpKind,
    ) {
        self.freshen_crashed_mem(st, me, win);
        let (len, layout) = kind.shape();
        let extent = layout.extent(len);
        let mem = &mut st.win_mut(win, me).mem;
        assert!(
            disp + extent <= mem.len(),
            "erroneous program: {:?} of {len} bytes (extent {extent}) at disp {disp} \
             exceeds window ({} bytes) at {me}",
            kind.access(),
            mem.len()
        );
        let reply = kind.expects_response().then(|| {
            let mut packed = Vec::with_capacity(len);
            for (d, n) in layout.blocks(disp, len) {
                packed.extend_from_slice(&mem[d..d + n]);
            }
            // `from_vec` adopts the packed buffer without a copy.
            Payload::from_vec(packed)
        });
        // A synthetic payload times like real data but writes nothing.
        let wrote = match &kind {
            OpKind::Get { .. } => None,
            OpKind::Put { payload, .. } => payload.bytes().map(|bytes| {
                let mut at = 0;
                for (d, n) in layout.blocks(disp, len) {
                    mem[d..d + n].copy_from_slice(&bytes[at..at + n]);
                    at += n;
                }
            }),
            OpKind::Acc { dt, op, payload } => payload.bytes().map(|bytes| {
                // Applied elementwise in one step: this is what makes the
                // operation atomic with respect to other accumulates. The
                // injected `double-acc` safety bug applies it twice.
                let times = if self.fault == Some(crate::engine::Fault::DoubleAcc) {
                    2
                } else {
                    1
                };
                for _ in 0..times {
                    datatype::apply(*dt, *op, &mut mem[disp..disp + len], bytes)
                        .expect("erroneous program: accumulate datatype mismatch at target");
                }
            }),
            OpKind::Fetch {
                fetch,
                dt,
                op,
                operand,
            } => operand.bytes().map(|bytes| {
                let cell = &mut mem[disp..disp + len];
                match fetch {
                    FetchKind::GetAccumulate | FetchKind::FetchAndOp => {
                        datatype::apply(*dt, *op, cell, bytes)
                            .expect("erroneous program: fetch datatype mismatch");
                    }
                    FetchKind::CompareAndSwap { compare } => {
                        if cell == compare.as_slice() {
                            cell.copy_from_slice(bytes);
                        }
                    }
                }
            }),
        };
        if wrote.is_some() {
            for (d, n) in layout.blocks(disp, len) {
                self.log_win_write(st, me, win, d, n);
            }
        }
        if reply.is_none() {
            self.plant_local_read(st, me, win, tag, disp, extent);
        }
        if let EpochTag::Fence { seq } = tag {
            self.fence_arrival(st, me, win, seq, src, |p| p.got += 1);
        }
        if let Some(payload) = reply {
            let token = token.expect("an op that expects a response carries its token");
            let body = Body::OpResp { token, payload };
            self.send_framed(
                st,
                Packet {
                    src: me,
                    dst: src,
                    body,
                },
                None,
                None,
            );
        }
    }

    /// Origin side: the data a get or fetch-style op read has arrived.
    pub(crate) fn handle_op_resp(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        token: u64,
        payload: Payload,
    ) {
        let Some(TokenInfo::Resp {
            rank,
            win,
            epoch,
            age,
            req,
        }) = st.tokens.remove(token)
        else {
            self.orphan_response(st, "OpResp");
            return;
        };
        debug_assert_eq!(rank, me);
        self.complete_req(st, req, Some(payload.into_data()));
        self.op_update(st, me, win, epoch, age, |o| o.needs_resp = false);
    }

    pub(crate) fn handle_acc_rts(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        token: u64,
    ) {
        // The target stages an intermediate buffer and replies CTS.
        self.send_framed(
            st,
            Packet {
                src: me,
                dst: src,
                body: Body::AccCts { token },
            },
            None,
            None,
        );
    }

    /// Origin side: CTS arrived, send the staged accumulate.
    pub(crate) fn handle_acc_cts(self: &Rc<Self>, st: &mut EngState, me: Rank, token: u64) {
        let Some(TokenInfo::AccRndv {
            rank,
            win,
            epoch,
            op,
        }) = st.tokens.remove(token)
        else {
            self.orphan_response(st, "AccCts");
            return;
        };
        debug_assert_eq!(rank, me);
        if st.live_epoch(win, me, epoch).is_none() {
            return;
        }
        self.post_op(st, me, win, epoch, op, None);
        st.mark_complete_dirty(me, win, epoch);
    }
}
