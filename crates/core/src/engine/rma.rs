//! RMA communication calls: recording, issuing (sweep steps 2/4), the
//! data-plane message handlers, and per-operation completion tracking.

use std::sync::Arc;

use mpisim_net::{Packet, Payload};

use crate::datatype::{self, Datatype, ReduceOp};
use crate::engine::{EngState, Engine, Notice, Phase, TokenInfo};
use crate::epoch::{EpochKind, LiveOp, OpDesc, OpKind};
use crate::error::{RmaError, RmaResult};
use crate::msg::{Body, EpochTag, FetchKind, Layout};
use crate::request::ReqKind;
use crate::types::{EpochId, Rank, Req, WinId};

impl Engine {
    // ------------------------------------------------------------------
    // recording (application-side entry)
    // ------------------------------------------------------------------

    /// Record an RMA operation into the open access epoch covering
    /// `target`. Returns the result request for get/fetch ops (always) and
    /// for request-based put/accumulate variants (`want_req`).
    pub fn rma_op(
        self: &Arc<Self>,
        rank: Rank,
        win: WinId,
        target: Rank,
        disp: usize,
        kind: OpKind,
        want_req: bool,
    ) -> RmaResult<Option<Req>> {
        let req = {
            let mut st = self.st.lock();
            if target.idx() >= self.cfg.n_ranks {
                return Err(RmaError::InvalidRank(target.idx()));
            }
            if win.0 as usize >= st.wins.len() {
                return Err(RmaError::InvalidWindow(win));
            }
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
            let w = st.win_mut(win, rank);
            let eid = w
                .open_access_covering(target)
                .ok_or(RmaError::NoEpoch { win, target })?;
            let age = w.alloc_age();
            let req = if kind.expects_response() || want_req {
                Some(st.reqs.alloc(ReqKind::Comm))
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
    pub(crate) fn issue_phase(self: &Arc<Self>, st: &mut EngState, rank: Rank, phase: Phase) {
        let sw = &mut st.sweep[rank.idx()];
        let dirty = std::mem::replace(&mut sw.dirty_ops, std::mem::take(&mut sw.ops_scratch));
        st.eng_stats.issue_scans += dirty.len() as u64;
        for &(win, eid) in &dirty {
            if !st.win(win, rank).epochs.contains_key(&eid.0) {
                continue;
            }
            if self.issue_ops(st, rank, win, eid, phase) {
                // Re-queue via the marker so it dedupes against entries
                // enqueued while issuing.
                st.mark_ops_dirty(rank, win, eid);
            }
        }
        let mut dirty = dirty;
        dirty.clear();
        st.sweep[rank.idx()].ops_scratch = dirty;
    }

    /// Issue eligible ops of one epoch; returns whether ops remain that the
    /// *other* phase could issue right now.
    fn issue_ops(
        self: &Arc<Self>,
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

    /// Put one recorded op on the wire.
    fn send_op(self: &Arc<Self>, st: &mut EngState, rank: Rank, win: WinId, eid: EpochId, op: OpDesc) {
        st.eng_stats.ops_issued += 1;
        let tag = self.epoch_tag(st, rank, win, eid, op.target);
        let is_passive = st.win(win, rank).epoch(eid).kind.is_passive();
        let plane = if is_passive {
            crate::trace::Plane::Lock
        } else {
            crate::trace::Plane::Gats
        };
        // Target byte range + access kind travel with the trace record so
        // the race detector needs no side channel into the op stream.
        let (len, access) = match &op.kind {
            OpKind::Put { payload, layout } => {
                (layout.extent(payload.len()), crate::trace::AccessKind::Write)
            }
            OpKind::Get { len, layout } => {
                (layout.extent(*len), crate::trace::AccessKind::Read)
            }
            OpKind::Acc { op: rop, payload, .. } => {
                (payload.len(), crate::trace::AccessKind::Atomic(*rop))
            }
            OpKind::Fetch { fetch, op: rop, operand, .. } => (
                operand.len(),
                match fetch {
                    FetchKind::CompareAndSwap { .. } => crate::trace::AccessKind::AtomicCas,
                    _ => crate::trace::AccessKind::Atomic(*rop),
                },
            ),
        };
        self.sync_event(
            st,
            rank,
            op.target,
            win,
            plane,
            crate::trace::SyncEvent::DataIssued { epoch: eid.0, disp: op.disp, len, access },
        );
        let OpDesc {
            age,
            target,
            disp,
            kind,
            req,
        } = op;
        match kind {
            OpKind::Put { payload, layout } => {
                self.track_send(
                    st,
                    rank,
                    win,
                    eid,
                    age,
                    target,
                    is_passive,
                    req,
                    Body::PutData {
                        win,
                        tag,
                        disp,
                        layout,
                        payload,
                    },
                );
                st.win_mut(win, rank).epoch_mut(eid).op_sent(target);
            }
            OpKind::Acc { dt, op: rop, payload } => {
                if payload.len() > self.cfg.rndv_threshold {
                    // Rendezvous: the target must stage an intermediate
                    // buffer for the operand (§VIII.A) — RTS now, data on
                    // CTS. `unsent` stays up so done/unlock packets cannot
                    // overtake the data.
                    let token = st.alloc_token();
                    let size = payload.len();
                    st.win_mut(win, rank).epoch_mut(eid).add_live(
                        age,
                        LiveOp {
                            target,
                            needs_local: true,
                            needs_resp: false,
                            needs_ack: is_passive,
                            req,
                        },
                    );
                    st.tokens.insert(
                        token,
                        TokenInfo::AccRndv {
                            rank,
                            win,
                            epoch: eid,
                            op: OpDesc {
                                age,
                                target,
                                disp,
                                kind: OpKind::Acc { dt, op: rop, payload },
                                req,
                            },
                        },
                    );
                    self.send_framed(
                        st,
                        Packet {
                            src: rank,
                            dst: target,
                            body: Body::AccRts { win, size, token },
                        },
                        None,
                        None,
                    );
                } else {
                    self.track_send(
                        st,
                        rank,
                        win,
                        eid,
                        age,
                        target,
                        is_passive,
                        req,
                        Body::AccData {
                            win,
                            tag,
                            disp,
                            dt,
                            op: rop,
                            payload,
                        },
                    );
                    st.win_mut(win, rank).epoch_mut(eid).op_sent(target);
                }
            }
            OpKind::Get { len, layout } => {
                let token = st.alloc_token();
                st.tokens.insert(
                    token,
                    TokenInfo::Get {
                        rank,
                        win,
                        epoch: eid,
                        age,
                        req: req.expect("get ops always carry a result request"),
                    },
                );
                st.win_mut(win, rank).epoch_mut(eid).add_live(
                    age,
                    LiveOp {
                        target,
                        needs_local: false,
                        needs_resp: true,
                        needs_ack: false,
                        req,
                    },
                );
                st.win_mut(win, rank).epoch_mut(eid).op_sent(target);
                self.send_framed(
                    st,
                    Packet {
                        src: rank,
                        dst: target,
                        body: Body::GetReq {
                            win,
                            tag,
                            disp,
                            len,
                            layout,
                            token,
                        },
                    },
                    None,
                    None,
                );
            }
            OpKind::Fetch {
                fetch,
                dt,
                op: rop,
                operand,
            } => {
                let token = st.alloc_token();
                st.tokens.insert(
                    token,
                    TokenInfo::Fetch {
                        rank,
                        win,
                        epoch: eid,
                        age,
                        req: req.expect("fetch ops always carry a result request"),
                    },
                );
                st.win_mut(win, rank).epoch_mut(eid).add_live(
                    age,
                    LiveOp {
                        target,
                        needs_local: true,
                        needs_resp: true,
                        needs_ack: false,
                        req,
                    },
                );
                st.win_mut(win, rank).epoch_mut(eid).op_sent(target);
                let me = self.clone();
                self.send_framed(
                    st,
                    Packet {
                        src: rank,
                        dst: target,
                        body: Body::FetchReq {
                            win,
                            tag,
                            fetch,
                            disp,
                            dt,
                            op: rop,
                            operand,
                            token,
                        },
                    },
                    Some(Box::new(move || {
                        me.post_notice(rank, Notice::LocalComplete { win, epoch: eid, age })
                    })),
                    None,
                );
            }
        }
    }

    /// Send a payload-bearing data message with local-completion (and, for
    /// passive epochs, remote-ack) tracking.
    #[allow(clippy::too_many_arguments)]
    fn track_send(
        self: &Arc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        eid: EpochId,
        age: u64,
        target: Rank,
        is_passive: bool,
        req: Option<Req>,
        body: Body,
    ) {
        st.win_mut(win, rank).epoch_mut(eid).add_live(
            age,
            LiveOp {
                target,
                needs_local: true,
                needs_resp: false,
                needs_ack: is_passive,
                req,
            },
        );
        let pkt = Packet {
            src: rank,
            dst: target,
            body,
        };
        let me = self.clone();
        let local = Box::new(move || {
            me.post_notice(rank, Notice::LocalComplete { win, epoch: eid, age })
        });
        let ack = is_passive.then_some(Notice::Acked { win, epoch: eid, age });
        self.send_framed(st, pkt, Some(local), ack);
    }

    /// Enqueue a completion notice and run the owner's sweep (called from
    /// scheduler events).
    pub(crate) fn post_notice(self: &Arc<Self>, rank: Rank, n: Notice) {
        {
            let mut st = self.st.lock();
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
        self: &Arc<Self>,
        st: &mut EngState,
        rank: Rank,
        win: WinId,
        eid: EpochId,
        age: u64,
        f: impl FnOnce(&mut LiveOp),
    ) {
        if !st.win(win, rank).epochs.contains_key(&eid.0) {
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
                st.reqs.complete(r, None);
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
            EpochTag::Lock { .. } => crate::trace::Plane::Lock,
            EpochTag::Gats { .. } | EpochTag::Fence { .. } => crate::trace::Plane::Gats,
        };
        self.sync_event(
            st,
            me,
            me,
            win,
            plane,
            crate::trace::SyncEvent::LocalAccess {
                disp,
                len,
                access: crate::trace::AccessKind::Read,
            },
        );
    }

    fn apply_fence_arrival(&self, st: &mut EngState, me: Rank, win: WinId, src: Rank, tag: EpochTag) {
        if let EpochTag::Fence { seq } = tag {
            self.fence_arrival(st, me, win, seq, src, |p| p.got += 1);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_put(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        win: WinId,
        tag: EpochTag,
        disp: usize,
        layout: Layout,
        payload: Payload,
    ) {
        self.freshen_crashed_mem(st, me, win);
        {
            let w = st.win_mut(win, me);
            let len = payload.len();
            let extent = layout.extent(len);
            assert!(
                disp + extent <= w.mem.len(),
                "erroneous program: put of {len} bytes (extent {extent}) at disp {disp}                  exceeds window ({} bytes) at {me}",
                w.mem.len()
            );
            if let Some(bytes) = payload.bytes() {
                match layout {
                    Layout::Contig => {
                        w.mem[disp..disp + len].copy_from_slice(bytes);
                    }
                    Layout::Vector { count, blocklen, stride } => {
                        debug_assert_eq!(len, count * blocklen);
                        for b in 0..count {
                            let d = disp + b * stride;
                            w.mem[d..d + blocklen]
                                .copy_from_slice(&bytes[b * blocklen..(b + 1) * blocklen]);
                        }
                    }
                }
            }
        }
        if payload.bytes().is_some() {
            match layout {
                Layout::Contig => self.log_win_write(st, me, win, disp, payload.len()),
                Layout::Vector { count, blocklen, stride } => {
                    for b in 0..count {
                        self.log_win_write(st, me, win, disp + b * stride, blocklen);
                    }
                }
            }
        }
        self.plant_local_read(st, me, win, tag, disp, layout.extent(payload.len()));
        self.apply_fence_arrival(st, me, win, src, tag);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_acc(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        win: WinId,
        tag: EpochTag,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        payload: Payload,
    ) {
        self.freshen_crashed_mem(st, me, win);
        {
            let w = st.win_mut(win, me);
            let len = payload.len();
            assert!(
                disp + len <= w.mem.len(),
                "erroneous program: accumulate exceeds window bounds at {me}"
            );
            if let Some(bytes) = payload.bytes() {
                // Applied elementwise in one step: this is what makes the
                // operation atomic with respect to other accumulates.
                datatype::apply(dt, op, &mut w.mem[disp..disp + len], bytes)
                    .expect("erroneous program: accumulate datatype mismatch at target");
                if self.fault == Some(crate::engine::Fault::DoubleAcc) {
                    // Injected safety bug: the reduction is applied twice.
                    datatype::apply(dt, op, &mut w.mem[disp..disp + len], bytes)
                        .expect("erroneous program: accumulate datatype mismatch at target");
                }
            }
        }
        if payload.bytes().is_some() {
            self.log_win_write(st, me, win, disp, payload.len());
        }
        self.plant_local_read(st, me, win, tag, disp, payload.len());
        self.apply_fence_arrival(st, me, win, src, tag);
    }

    pub(crate) fn handle_acc_rts(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        _win: WinId,
        _size: usize,
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

    /// Origin side: CTS arrived, send the staged accumulate payload.
    pub(crate) fn handle_acc_cts(self: &Arc<Self>, st: &mut EngState, me: Rank, token: u64) {
        let Some(TokenInfo::AccRndv { rank, win, epoch, op }) = st.tokens.remove(&token) else {
            self.orphan_response(st, "AccCts");
            return;
        };
        debug_assert_eq!(rank, me);
        if !st.win(win, me).epochs.contains_key(&epoch.0) {
            return;
        }
        let tag = self.epoch_tag(st, me, win, epoch, op.target);
        let is_passive = st.win(win, me).epoch(epoch).kind.is_passive();
        let OpDesc {
            age,
            target,
            disp,
            kind,
            req: _,
        } = op;
        let OpKind::Acc { dt, op: rop, payload } = kind else {
            unreachable!("AccRndv holds accumulate ops only")
        };
        st.win_mut(win, me).epoch_mut(epoch).op_sent(target);
        let pkt = Packet {
            src: me,
            dst: target,
            body: Body::AccData {
                win,
                tag,
                disp,
                dt,
                op: rop,
                payload,
            },
        };
        let m1 = self.clone();
        let local = Box::new(move || {
            m1.post_notice(me, Notice::LocalComplete { win, epoch, age })
        });
        let ack = is_passive.then_some(Notice::Acked { win, epoch, age });
        self.send_framed(st, pkt, Some(local), ack);
        st.mark_complete_dirty(me, win, epoch);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_get_req(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        win: WinId,
        tag: EpochTag,
        disp: usize,
        len: usize,
        layout: Layout,
        token: u64,
    ) {
        self.freshen_crashed_mem(st, me, win);
        let payload = {
            let w = st.win(win, me);
            let extent = layout.extent(len);
            assert!(
                disp + extent <= w.mem.len(),
                "erroneous program: get exceeds window bounds at {me}"
            );
            match layout {
                Layout::Contig => Payload::copy_from_slice(&w.mem[disp..disp + len]),
                Layout::Vector { count, blocklen, stride } => {
                    let mut packed = Vec::with_capacity(count * blocklen);
                    for b in 0..count {
                        let d = disp + b * stride;
                        packed.extend_from_slice(&w.mem[d..d + blocklen]);
                    }
                    // `from_vec` adopts the packed buffer without a copy.
                    Payload::from_vec(packed)
                }
            }
        };
        self.apply_fence_arrival(st, me, win, src, tag);
        self.send_framed(
            st,
            Packet {
                src: me,
                dst: src,
                body: Body::GetResp { win, token, payload },
            },
            None,
            None,
        );
    }

    /// Origin side: get data arrived.
    pub(crate) fn handle_get_resp(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        _win: WinId,
        token: u64,
        payload: Payload,
    ) {
        let Some(TokenInfo::Get { rank, win, epoch, age, req }) = st.tokens.remove(&token) else {
            self.orphan_response(st, "GetResp");
            return;
        };
        debug_assert_eq!(rank, me);
        let len = payload.len();
        let data = payload
            .into_bytes()
            .unwrap_or_else(|| bytes::Bytes::from(vec![0u8; len]));
        st.reqs.complete(req, Some(data));
        self.op_update(st, me, win, epoch, age, |o| o.needs_resp = false);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_fetch_req(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        win: WinId,
        tag: EpochTag,
        fetch: FetchKind,
        disp: usize,
        dt: Datatype,
        op: ReduceOp,
        operand: Payload,
        token: u64,
    ) {
        self.freshen_crashed_mem(st, me, win);
        let old = {
            let w = st.win_mut(win, me);
            let len = operand.len();
            assert!(
                disp + len <= w.mem.len(),
                "erroneous program: fetch op exceeds window bounds at {me}"
            );
            let old = Payload::copy_from_slice(&w.mem[disp..disp + len]);
            if let Some(bytes) = operand.bytes() {
                match &fetch {
                    FetchKind::GetAccumulate | FetchKind::FetchAndOp => {
                        datatype::apply(dt, op, &mut w.mem[disp..disp + len], bytes)
                            .expect("erroneous program: fetch datatype mismatch");
                    }
                    FetchKind::CompareAndSwap { compare } => {
                        if &w.mem[disp..disp + len] == compare.as_slice() {
                            w.mem[disp..disp + len].copy_from_slice(bytes);
                        }
                    }
                }
            }
            old
        };
        if operand.bytes().is_some() {
            self.log_win_write(st, me, win, disp, operand.len());
        }
        self.apply_fence_arrival(st, me, win, src, tag);
        self.send_framed(
            st,
            Packet {
                src: me,
                dst: src,
                body: Body::FetchResp {
                    win,
                    token,
                    payload: old,
                },
            },
            None,
            None,
        );
    }

    /// Origin side: fetch result arrived.
    pub(crate) fn handle_fetch_resp(
        self: &Arc<Self>,
        st: &mut EngState,
        me: Rank,
        _win: WinId,
        token: u64,
        payload: Payload,
    ) {
        let Some(TokenInfo::Fetch { rank, win, epoch, age, req }) = st.tokens.remove(&token) else {
            self.orphan_response(st, "FetchResp");
            return;
        };
        debug_assert_eq!(rank, me);
        let len = payload.len();
        let data = payload
            .into_bytes()
            .unwrap_or_else(|| bytes::Bytes::from(vec![0u8; len]));
        st.reqs.complete(req, Some(data));
        self.op_update(st, me, win, epoch, age, |o| o.needs_resp = false);
    }
}
