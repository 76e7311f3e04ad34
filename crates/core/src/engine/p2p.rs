//! Two-sided messaging (eager + rendezvous) and the dissemination barrier.
//!
//! The middleware needs a two-sided substrate both for applications (the
//! paper's Late Post microbenchmark interleaves an RMA epoch with a
//! two-sided transfer) and for collective bootstrap (barriers around window
//! creation).

use std::collections::VecDeque;
use std::rc::Rc;

use mpisim_net::{Packet, Payload};

use crate::engine::{EngState, Engine, TokenInfo, RNDV_THRESHOLD};
use crate::error::{RmaError, RmaResult};
use crate::msg::Body;
use crate::request::ReqKind;
use crate::types::{Rank, Req};

/// A posted (not yet matched) receive.
pub(crate) struct PostedRecv {
    pub src: Rank,
    pub tag: u64,
    pub req: Req,
}

/// What a two-sided message brings to its receive.
pub(crate) enum Arrival {
    Eager(Payload),
    Rndv { token: u64 },
}

/// An arrived-but-unmatched message.
pub(crate) struct UnexpMsg {
    pub src: Rank,
    pub tag: u64,
    pub content: Arrival,
}

/// Per-rank two-sided state.
#[derive(Default)]
pub(crate) struct P2pRank {
    pub posted: VecDeque<PostedRecv>,
    pub unexpected: VecDeque<UnexpMsg>,
}

/// Per-rank dissemination-barrier state.
#[derive(Default)]
pub(crate) struct BarrierRank {
    /// Current barrier generation (increments per ibarrier).
    pub seq: u64,
    /// Current round within the active barrier.
    pub round: u32,
    /// Request completed when the barrier finishes.
    pub req: Option<Req>,
    /// Arrivals not yet consumed, one bit per round, for the two
    /// generations that can be in flight: row `seq % 2`. A peer is never
    /// more than one `ibarrier` ahead — finishing generation `s + 1` takes a
    /// message from every rank's `s + 1`, which this rank enters only after
    /// finishing `s` — so the row of `s + 2` is the drained row of `s`.
    pub arrived: [u32; 2],
}

impl EngState {
    /// Barriers do not overlap: refuse a call that starts one while this
    /// rank's previous barrier is pending.
    pub(crate) fn no_pending_barrier(&self, rank: Rank) -> RmaResult<()> {
        match self.barrier[rank.idx()].req {
            Some(_) => Err(RmaError::BarrierPending),
            None => Ok(()),
        }
    }
}

fn barrier_rounds(n: usize) -> u32 {
    let mut r = 0u32;
    let mut span = 1usize;
    while span < n {
        span *= 2;
        r += 1;
    }
    r
}

impl Engine {
    // ------------------------------------------------------------------
    // two-sided
    // ------------------------------------------------------------------

    /// `MPI_ISEND`: the request completes at local completion (buffer
    /// reusable).
    pub fn isend(self: &Rc<Self>, rank: Rank, dst: Rank, tag: u64, payload: Payload) -> RmaResult<Req> {
        if dst.idx() >= self.cfg.n_ranks {
            return Err(RmaError::InvalidRank(dst.idx()));
        }
        let req = {
            let mut st = self.st.borrow_mut();
            let req = self.alloc_req(&mut st, rank, ReqKind::P2p, false);
            if payload.len() <= RNDV_THRESHOLD {
                let me = self.clone();
                self.send_framed(
                    &mut st,
                    Packet {
                        src: rank,
                        dst,
                        body: Body::P2pEager { tag, payload },
                    },
                    Some(Box::new(move || me.complete_req_and_sweep(rank, req))),
                    None,
                );
            } else {
                let token = st.tokens.insert(TokenInfo::P2pSend { rank, payload, req });
                self.send_framed(
                    &mut st,
                    Packet {
                        src: rank,
                        dst,
                        body: Body::P2pRts { tag, token },
                    },
                    None,
                    None,
                );
            }
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    /// `MPI_IRECV` (matched by exact source and tag): the request completes
    /// with the message data.
    pub fn irecv(self: &Rc<Self>, rank: Rank, src: Rank, tag: u64) -> RmaResult<Req> {
        if src.idx() >= self.cfg.n_ranks {
            return Err(RmaError::InvalidRank(src.idx()));
        }
        let req = {
            let mut st = self.st.borrow_mut();
            let req = self.alloc_req(&mut st, rank, ReqKind::P2p, false);
            // FIFO search of the unexpected queue preserves per-(src, tag)
            // ordering, matching MPI's non-overtaking rule.
            let hit = st.p2p[rank.idx()]
                .unexpected
                .iter()
                .position(|m| m.src == src && m.tag == tag);
            match hit {
                Some(i) => {
                    let msg = st.p2p[rank.idx()].unexpected.remove(i).unwrap();
                    self.answer_recv(&mut st, rank, msg.src, req, msg.content);
                }
                None => {
                    st.p2p[rank.idx()].posted.push_back(PostedRecv { src, tag, req });
                }
            }
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    /// A two-sided message from `src` arrived at `me`: the first posted
    /// receive with the same `(src, tag)` takes it, or it waits in the
    /// unexpected queue.
    pub(crate) fn handle_p2p_arrival(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        src: Rank,
        tag: u64,
        content: Arrival,
    ) {
        let hit = st.p2p[me.idx()]
            .posted
            .iter()
            .position(|p| p.src == src && p.tag == tag);
        match hit {
            Some(i) => {
                let posted = st.p2p[me.idx()].posted.remove(i).unwrap();
                self.answer_recv(st, me, src, posted.req, content);
            }
            None => st.p2p[me.idx()].unexpected.push_back(UnexpMsg { src, tag, content }),
        }
    }

    /// Answer `me`'s receive `req`, matched to a message from `src`: eager
    /// data completes it; a rendezvous request is answered with a CTS.
    fn answer_recv(self: &Rc<Self>, st: &mut EngState, me: Rank, src: Rank, req: Req, content: Arrival) {
        match content {
            Arrival::Eager(payload) => self.complete_req(st, req, Some(payload.into_data())),
            Arrival::Rndv { token } => {
                let data_token = st.tokens.insert(TokenInfo::P2pRecv { req });
                self.send_framed(
                    st,
                    Packet {
                        src: me,
                        dst: src,
                        body: Body::P2pCts { token, data_token },
                    },
                    None,
                    None,
                );
            }
        }
    }

    /// Sender side: CTS arrived from `cts_src` — ship the staged payload.
    pub(crate) fn handle_p2p_cts_from(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        cts_src: Rank,
        token: u64,
        data_token: u64,
    ) {
        let Some(TokenInfo::P2pSend { rank, payload, req }) = st.tokens.remove(token) else {
            self.orphan_response(st, "P2pCts");
            return;
        };
        debug_assert_eq!(rank, me);
        let m = self.clone();
        self.send_framed(
            st,
            Packet {
                src: me,
                dst: cts_src,
                body: Body::P2pData { data_token, payload },
            },
            Some(Box::new(move || m.complete_req_and_sweep(me, req))),
            None,
        );
    }

    /// Receiver side: rendezvous data arrived.
    pub(crate) fn handle_p2p_data(
        self: &Rc<Self>,
        st: &mut EngState,
        _me: Rank,
        data_token: u64,
        payload: Payload,
    ) {
        let Some(TokenInfo::P2pRecv { req }) = st.tokens.remove(data_token) else {
            self.orphan_response(st, "P2pData");
            return;
        };
        self.complete_req(st, req, Some(payload.into_data()));
    }

    /// Complete a request from a scheduler event and run the rank's sweep.
    pub(crate) fn complete_req_and_sweep(self: &Rc<Self>, rank: Rank, req: Req) {
        self.complete_req(&mut self.st.borrow_mut(), req, None);
        self.sweep(rank);
    }

    // ------------------------------------------------------------------
    // barrier
    // ------------------------------------------------------------------

    /// Nonblocking dissemination barrier over all ranks. Barriers do not
    /// overlap: a second one while this rank's previous one is pending is
    /// refused before it takes a request.
    pub fn ibarrier(self: &Rc<Self>, rank: Rank) -> RmaResult<Req> {
        let n = self.cfg.n_ranks;
        let req = {
            let mut st = self.st.borrow_mut();
            st.no_pending_barrier(rank)?;
            let req = self.alloc_req(&mut st, rank, ReqKind::Barrier, false);
            let b = &mut st.barrier[rank.idx()];
            b.seq += 1;
            b.round = 0;
            b.req = Some(req);
            if n == 1 {
                let r = b.req.take().unwrap();
                self.complete_req(&mut st, r, None);
            } else {
                let seq = st.barrier[rank.idx()].seq;
                let peer = Rank((rank.idx() + 1) % n);
                self.send_framed(
                    &mut st,
                    Packet {
                        src: rank,
                        dst: peer,
                        body: Body::BarrierMsg { seq, round: 0 },
                    },
                    None,
                    None,
                );
                self.barrier_try_advance(&mut st, rank);
            }
            req
        };
        self.sweep(rank);
        Ok(req)
    }

    pub(crate) fn handle_barrier_msg(
        self: &Rc<Self>,
        st: &mut EngState,
        me: Rank,
        seq: u64,
        round: u32,
    ) {
        let b = &mut st.barrier[me.idx()];
        debug_assert!(seq <= b.seq + 1, "a peer ran more than one ibarrier ahead");
        // A duplicate of a message this rank already consumed (fault
        // injection below the reliability sublayer) releases nothing.
        let consumed = seq < b.seq || (seq == b.seq && (b.req.is_none() || round < b.round));
        if !consumed {
            b.arrived[(seq % 2) as usize] |= 1 << round;
        }
        self.barrier_try_advance(st, me);
    }

    fn barrier_try_advance(self: &Rc<Self>, st: &mut EngState, me: Rank) {
        let n = self.cfg.n_ranks;
        let total = barrier_rounds(n);
        loop {
            let b = &mut st.barrier[me.idx()];
            if b.req.is_none() {
                return;
            }
            let row = &mut b.arrived[(b.seq % 2) as usize];
            if *row & (1 << b.round) == 0 {
                return;
            }
            *row &= !(1 << b.round);
            b.round += 1;
            if b.round == total {
                debug_assert_eq!(b.arrived[(b.seq % 2) as usize], 0, "row not drained for seq + 2");
                let r = b.req.take().unwrap();
                self.complete_req(st, r, None);
                return;
            }
            let round = b.round;
            let seq = b.seq;
            let peer = Rank((me.idx() + (1 << round)) % n);
            self.send_framed(
                st,
                Packet {
                    src: me,
                    dst: peer,
                    body: Body::BarrierMsg { seq, round },
                },
                None,
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds() {
        assert_eq!(barrier_rounds(1), 0);
        assert_eq!(barrier_rounds(2), 1);
        assert_eq!(barrier_rounds(3), 2);
        assert_eq!(barrier_rounds(4), 2);
        assert_eq!(barrier_rounds(5), 3);
        assert_eq!(barrier_rounds(8), 3);
        assert_eq!(barrier_rounds(9), 4);
    }
}
