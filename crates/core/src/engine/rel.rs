//! Ack/retransmit reliability sublayer for internode traffic.
//!
//! When [`crate::config::JobConfig::reliability`] is on, every internode
//! message travels as a sequence-numbered [`Body::Rel`] frame on its
//! `(src, dst)` channel. The receiver delivers frames in sequence order
//! exactly once (buffering reordered frames, dropping duplicates),
//! acknowledges cumulatively with raw [`Body::RelAck`] packets held for
//! [`ACK_DELAY`], and drops frames whose checksum disagrees with the inner
//! body. The sender keeps a clean copy of every unacknowledged frame and
//! retransmits it after [`RTO`], doubling per retry up to [`MAX_BACKOFF`];
//! a frame still unacknowledged after [`MAX_RETRIES`] retransmits is
//! abandoned, surfaces as a [`Degradation`] and arms the epoch stall
//! watchdog so the job still terminates (see DESIGN.md §11).
//!
//! The sublayer rides the existing seven-step sweep (§VII.D): step 1 grows
//! the retransmit timer scan, step 2 grows the ack flush, and step 5 grows
//! the in-order delivery queue. At quiescence the channel invariant
//! `pushed == acked + retransmit-pending` holds: every frame ever framed
//! is either covered by the peer's cumulative ack or still sitting in the
//! sender's unacked window.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use mpisim_net::{Packet, VecMap};
use mpisim_sim::SimTime;

use crate::engine::{EngState, Engine, Notice, ProtocolError};
use crate::msg::Body;
use crate::types::Rank;
use crate::worklist::WorkList;

/// Initial retransmit timeout, ≈13× the calibrated one-way latency
/// (doubled per retry).
pub const RTO: SimTime = SimTime::from_micros(20);

/// Backoff ceiling: the per-retry delay never exceeds this. Seven doublings
/// of [`RTO`] reach it, so the retry budget rides out a 2 ms partition.
pub(crate) const MAX_BACKOFF: SimTime = SimTime::from_millis(2);

/// Retransmits before a frame is abandoned and surfaced as a
/// `RetriesExhausted` (or `PeerCrash`) degradation: with [`RTO`] and the
/// 2 ms backoff cap (`MAX_BACKOFF`), ≈14.5 ms after the first send.
pub const MAX_RETRIES: u32 = 12;

/// Delayed-ack window (TCP-style): after the first unacknowledged delivery
/// the receiver holds its cumulative ack this long, so a burst of frames is
/// covered by a single ack instead of one per frame. 1/20 of [`RTO`]:
/// bursts coalesce, retransmit timers don't notice.
pub(crate) const ACK_DELAY: SimTime = SimTime::from_micros(1);

/// One unacknowledged outbound frame: a clean copy of the inner body for
/// retransmission plus the notice to post once the peer's cumulative ack
/// covers it.
pub(crate) struct RelFrame {
    /// Clean copy of the framed message (retransmissions re-frame this).
    pub inner: Body,
    /// Virtual time at which the frame times out and is retransmitted.
    pub deadline: SimTime,
    /// Retransmissions performed so far.
    pub retries: u32,
    /// Completion notice posted when the frame is acknowledged
    /// end-to-end. Plain data, not a closure: acks are processed while
    /// the engine lock is held, so the notice is pushed straight onto the
    /// owner's sweep queue.
    pub ack_notice: Option<Notice>,
}

/// Sender side of one reliability channel (this rank toward one peer).
pub(crate) struct RelOut {
    /// Next sequence number to assign (1-based).
    pub next_seq: u64,
    /// Highest cumulative ack received from the peer.
    pub acked: u64,
    /// Sent-but-unacknowledged frames by sequence number.
    pub unacked: BTreeMap<u64, RelFrame>,
}

impl Default for RelOut {
    fn default() -> Self {
        RelOut { next_seq: 1, acked: 0, unacked: BTreeMap::new() }
    }
}

/// Receiver side of one reliability channel (one peer toward this rank).
pub(crate) struct RelIn {
    /// Next in-order sequence expected (1-based).
    pub next_expected: u64,
    /// Reordered frames received ahead of the in-order point.
    pub ooo: BTreeMap<u64, Body>,
    /// Highest cumulative ack this side has flushed toward the peer,
    /// tracked to measure how many frames each flushed ack covers
    /// (`acks_coalesced`).
    pub last_cum_acked: u64,
}

impl Default for RelIn {
    fn default() -> Self {
        RelIn { next_expected: 1, ooo: BTreeMap::new(), last_cum_acked: 0 }
    }
}

/// One rank's reliability state: its channels plus the sweep work lists
/// the sublayer adds (retransmit timer, pending acks, in-order delivery).
#[derive(Default)]
pub(crate) struct RelRank {
    /// Outbound channels by destination. Ordered: the retransmit scan
    /// resends in iteration order, and a run must repeat exactly.
    pub out: VecMap<Rank, RelOut>,
    /// Inbound channels by source.
    pub inn: VecMap<Rank, RelIn>,
    /// Peers owed a cumulative ack (flushed by step 2).
    pub ack_due: WorkList<Rank>,
    /// Peers whose ack is being *held* inside the delayed-ack window;
    /// moved to `ack_due` when the ack timer fires. Deliberately not
    /// sweep work: the hold ends on the timer, not on progress.
    pub ack_pending: Vec<Rank>,
    /// When the pending delayed ack fires, if armed.
    pub ack_timer_at: Option<SimTime>,
    /// Generation counter invalidating superseded delayed-ack events.
    pub ack_timer_gen: u64,
    /// In-order messages awaiting dispatch (drained by step 5).
    pub deliver: VecDeque<(Rank, Body)>,
    /// The retransmit timer fired: step 1 must scan `out` for expired
    /// frames.
    pub timer_due: bool,
    /// Earliest scheduled timer wake-up, if any.
    pub timer_at: Option<SimTime>,
    /// Generation counter invalidating superseded timer events.
    pub timer_gen: u64,
}

impl RelRank {
    /// Whether the sublayer has sweep work pending for this rank.
    pub(crate) fn has_work(&self) -> bool {
        self.timer_due || !self.ack_due.is_empty() || !self.deliver.is_empty()
    }

    /// The oldest unacknowledged (peer, seq) across every outbound
    /// channel, for stall diagnostics.
    pub(crate) fn oldest_unacked(&self) -> Option<(Rank, u64)> {
        self.out
            .iter()
            .filter_map(|(dst, o)| o.unacked.keys().next().map(|s| (*dst, *s)))
            .min_by_key(|(_, s)| *s)
    }
}

/// A degraded-but-survived event: something went wrong on the unreliable
/// fabric (or a peer stalled) and the middleware absorbed it instead of
/// hanging or aborting. Collected on [`crate::runtime::JobReport`].
#[derive(Debug, Clone)]
pub enum Degradation {
    /// A corrupt 64-bit intranode sync packet failed to decode (the
    /// pre-existing [`ProtocolError`] surface).
    FifoDecode(ProtocolError),
    /// A reliability frame arrived with a checksum that disagrees with
    /// its body and was dropped for retransmit.
    ChecksumFail {
        /// Rank that received the corrupt frame.
        rank: Rank,
        /// Peer the frame came from.
        src: Rank,
        /// Channel sequence number of the dropped frame.
        seq: u64,
    },
    /// A frame exhausted its retransmit budget toward a live peer and was
    /// abandoned.
    RetriesExhausted {
        /// Sending rank.
        rank: Rank,
        /// Unreachable destination.
        dst: Rank,
        /// Abandoned sequence number.
        seq: u64,
        /// Retransmissions performed before giving up.
        retries: u32,
    },
    /// A frame was abandoned while its destination's (or the sender's own)
    /// NIC was down.
    PeerCrash {
        /// Sending rank.
        rank: Rank,
        /// The crashed peer.
        peer: Rank,
        /// Abandoned sequence number.
        seq: u64,
    },
    /// The stall watchdog cancelled an epoch that stopped making progress
    /// (see [`crate::engine::StallReport`]).
    EpochStall(crate::engine::StallReport),
    /// A crashed rank was restarted from its epoch-aligned checkpoint and
    /// its window state recovered (see
    /// [`crate::engine::RecoveryReport`]). Unlike every other variant
    /// this records a *successful* repair, but it still marks the run as
    /// degraded: the final state converged through recovery, not through
    /// the undisturbed protocol.
    Recovered(crate::engine::RecoveryReport),
}

impl Degradation {
    /// Short stable label for the degradation class.
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::FifoDecode(_) => "fifo-decode",
            Degradation::ChecksumFail { .. } => "checksum-fail",
            Degradation::RetriesExhausted { .. } => "retries-exhausted",
            Degradation::PeerCrash { .. } => "peer-crash",
            Degradation::EpochStall(_) => "epoch-stall",
            Degradation::Recovered(_) => "recovered",
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::FifoDecode(e) => write!(f, "fifo-decode: {e}"),
            Degradation::ChecksumFail { rank, src, seq } => {
                write!(f, "checksum-fail: rank {rank} dropped corrupt frame #{seq} from {src}")
            }
            Degradation::RetriesExhausted { rank, dst, seq, retries } => write!(
                f,
                "retries-exhausted: rank {rank} abandoned frame #{seq} to {dst} after {retries} retransmits"
            ),
            Degradation::PeerCrash { rank, peer, seq } => {
                write!(f, "peer-crash: rank {rank} abandoned frame #{seq}; {peer} is down")
            }
            Degradation::EpochStall(r) => write!(f, "epoch-stall: {r}"),
            Degradation::Recovered(r) => write!(f, "recovered: {r}"),
        }
    }
}

/// The per-retry backoff: `RTO << retries`, capped at [`MAX_BACKOFF`].
fn backoff(retries: u32) -> SimTime {
    let shifted = RTO.as_nanos().saturating_mul(1u64.checked_shl(retries).unwrap_or(u64::MAX));
    SimTime::from_nanos(shifted.min(MAX_BACKOFF.as_nanos()))
}

impl Engine {
    /// Whether traffic from `src` to `dst` travels framed (sublayer on and
    /// the channel is internode).
    pub(crate) fn framed(&self, src: Rank, dst: Rank) -> bool {
        self.cfg.reliability && !self.net.topology().same_node(src, dst)
    }

    /// Whether the engine must tolerate protocol anomalies (orphan
    /// responses after a cancelled epoch, late duplicates) instead of
    /// asserting: any of the fault model, the sublayer, or the watchdog is
    /// active.
    pub(crate) fn resilient(&self) -> bool {
        self.cfg.reliability
            || self.cfg.watchdog.is_some()
            || self.cfg.recovery
            || self.cfg.net.faults.as_ref().is_some_and(|f| f.is_active())
    }

    /// Send `pkt`, tracking local completion and (optionally) end-to-end
    /// acknowledgement.
    ///
    /// With the sublayer off — or on an intranode channel — this is the
    /// legacy fabric path: `on_local` fires when the origin buffer is
    /// reusable and `ack_notice` is posted at the fabric-level
    /// acknowledgement. With the sublayer on, the body is wrapped in a
    /// [`Body::Rel`] frame, a clean copy is retained for retransmission,
    /// and `ack_notice` is posted only when the peer's cumulative ack
    /// covers the frame (a true end-to-end acknowledgement that lost
    /// messages can never fake).
    pub(crate) fn send_framed(
        self: &Rc<Self>,
        st: &mut EngState,
        pkt: Packet<Body>,
        on_local: Option<Box<dyn FnOnce() + 'static>>,
        ack_notice: Option<Notice>,
    ) {
        let (src, dst) = (pkt.src, pkt.dst);
        if !self.framed(src, dst) {
            let on_remote = ack_notice.map(|n| {
                let me = self.clone();
                Box::new(move || me.post_notice(src, n)) as Box<dyn FnOnce()>
            });
            self.net.send_tracked(pkt, on_local, on_remote);
            return;
        }
        let deadline = self.sim.now() + RTO;
        let out = st.rel[src.idx()].out.entry(dst).or_default();
        let seq = out.next_seq;
        out.next_seq += 1;
        let checksum = pkt.body.digest();
        out.unacked
            .insert(seq, RelFrame { inner: pkt.body.clone(), deadline, retries: 0, ack_notice });
        st.eng_stats.rel_frames_sent += 1;
        let frame =
            Packet { src, dst, body: Body::Rel { seq, checksum, inner: Box::new(pkt.body) } };
        self.net.send_tracked(frame, on_local, None);
        self.schedule_rel_timer(st, src, deadline);
    }

    /// Ensure a retransmit-timer event is scheduled at or before `at`.
    pub(crate) fn schedule_rel_timer(self: &Rc<Self>, st: &mut EngState, rank: Rank, at: SimTime) {
        let ch = &mut st.rel[rank.idx()];
        if ch.timer_at.is_some_and(|t| t <= at) {
            return;
        }
        ch.timer_gen += 1;
        ch.timer_at = Some(at);
        let gen = ch.timer_gen;
        let me = self.clone();
        let delay = at.saturating_sub(self.sim.now());
        self.sim.schedule(delay, move || me.rel_timer_fire(rank, gen));
    }

    /// Retransmit-timer event: mark the scan due and run a sweep. A stale
    /// generation means a closer wake-up superseded this event.
    fn rel_timer_fire(self: &Rc<Self>, rank: Rank, gen: u64) {
        {
            let mut st = self.st.borrow_mut();
            let ch = &mut st.rel[rank.idx()];
            if ch.timer_gen != gen {
                return;
            }
            ch.timer_at = None;
            ch.timer_due = true;
        }
        self.sweep(rank);
    }

    /// Sweep step 1 growth: scan outbound channels for expired frames,
    /// retransmit them with exponential backoff, abandon frames past the
    /// retry cap, and re-arm the timer at the earliest surviving deadline.
    pub(crate) fn rel_retransmit_scan(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        st.rel[rank.idx()].timer_due = false;
        let now = self.sim.now();
        let mut next: Option<SimTime> = None;
        let mut resend: Vec<Packet<Body>> = Vec::new();
        let mut abandoned: Vec<(Rank, u64, u32)> = Vec::new();
        {
            let ch = &mut st.rel[rank.idx()];
            for (&dst, out) in ch.out.iter_mut() {
                let mut dead: Vec<u64> = Vec::new();
                for (&seq, frame) in out.unacked.iter_mut() {
                    if frame.deadline <= now {
                        if frame.retries >= MAX_RETRIES {
                            dead.push(seq);
                            continue;
                        }
                        frame.retries += 1;
                        frame.deadline = now + backoff(frame.retries);
                        resend.push(Packet {
                            src: rank,
                            dst,
                            body: Body::Rel {
                                seq,
                                checksum: frame.inner.digest(),
                                inner: Box::new(frame.inner.clone()),
                            },
                        });
                    }
                    next = Some(next.map_or(frame.deadline, |t: SimTime| t.min(frame.deadline)));
                }
                for seq in dead {
                    let frame = out.unacked.remove(&seq).expect("dead seq present");
                    // The ack notice is dropped, not posted: the op will
                    // never be remotely acknowledged. Terminating the
                    // epoch is the watchdog's job.
                    abandoned.push((dst, seq, frame.retries));
                }
            }
        }
        st.eng_stats.rel_retransmits += resend.len() as u64;
        for pkt in resend {
            self.net.send(pkt);
        }
        for (dst, seq, retries) in abandoned {
            st.eng_stats.retries_exhausted += 1;
            let crashed = self.net.nic_is_down(rank) || self.net.nic_is_down(dst);
            st.degradations.push(if crashed {
                Degradation::PeerCrash { rank, peer: dst, seq }
            } else {
                Degradation::RetriesExhausted { rank, dst, seq, retries }
            });
            self.arm_watchdog(st);
        }
        if let Some(at) = next {
            self.schedule_rel_timer(st, rank, at);
        }
    }

    /// Sweep step 2 growth: flush one cumulative ack to every peer owed
    /// one. The ack was held for [`ACK_DELAY`], so one flush typically
    /// covers several frames; every frame beyond the first is counted as a
    /// coalesced ack.
    pub(crate) fn rel_flush_acks(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        st.drain(
            |st| &mut st.rel[rank.idx()].ack_due,
            |st, dst| {
                let ch = &mut st.rel[rank.idx()];
                let (cum, covered) = match ch.inn.get_mut(&dst) {
                    Some(i) => {
                        let cum = i.next_expected - 1;
                        let covered = cum.saturating_sub(i.last_cum_acked);
                        i.last_cum_acked = cum;
                        (cum, covered)
                    }
                    None => (0, 0),
                };
                if covered > 1 {
                    st.eng_stats.acks_coalesced += covered - 1;
                }
                st.eng_stats.rel_acks_sent += 1;
                // Acks ride the fabric raw: a lost ack is repaired by the
                // retransmit it provokes (which re-queues the ack), so framing
                // them would only add a second unbounded channel. A zero-new-
                // coverage ack is still sent — it re-acks a duplicate so the
                // sender's window advances past a lost ack.
                self.net.send(Packet {
                    src: rank,
                    dst,
                    body: Body::RelAck { cum },
                });
            },
        );
    }

    /// Receive one reliability frame: checksum validation, duplicate
    /// suppression, reorder buffering, and in-order queueing for step 5.
    pub(crate) fn rel_receive(
        self: &Rc<Self>,
        st: &mut EngState,
        dst: Rank,
        src: Rank,
        seq: u64,
        checksum: u64,
        inner: Body,
    ) {
        debug_assert!(
            !matches!(inner, Body::Rel { .. } | Body::RelAck { .. }),
            "reliability frames never nest"
        );
        if inner.digest() != checksum {
            // Drop the frame without acknowledging it: the sender's
            // retransmit timer recovers the message from its clean copy.
            st.eng_stats.rel_checksum_drops += 1;
            st.degradations.push(Degradation::ChecksumFail { rank: dst, src, seq });
            return;
        }
        let inn = st.rel[dst.idx()].inn.entry(src).or_default();
        if seq < inn.next_expected {
            // Duplicate of an already-delivered frame (retransmit racing
            // the ack, or a fabric-level duplication fault): drop it, but
            // still re-ack so the sender's window advances.
            st.eng_stats.rel_dups_dropped += 1;
        } else if seq == inn.next_expected {
            inn.next_expected += 1;
            let mut bodies = vec![inner];
            while let Some(b) = inn.ooo.remove(&inn.next_expected) {
                inn.next_expected += 1;
                bodies.push(b);
            }
            let q = &mut st.rel[dst.idx()].deliver;
            for b in bodies {
                q.push_back((src, b));
            }
        } else if st.rel[dst.idx()].inn.get_mut(&src).expect("channel").ooo.insert(seq, inner).is_some()
        {
            st.eng_stats.rel_dups_dropped += 1;
        } else {
            st.eng_stats.rel_ooo_buffered += 1;
        }
        // Hold the ack for the coalescing window so the rest of the burst
        // lands under the same cumulative ack.
        let ch = &mut st.rel[dst.idx()];
        if !ch.ack_pending.contains(&src) {
            ch.ack_pending.push(src);
        }
        if ch.ack_timer_at.is_none() {
            ch.ack_timer_gen += 1;
            let gen = ch.ack_timer_gen;
            ch.ack_timer_at = Some(self.sim.now() + ACK_DELAY);
            let me = self.clone();
            self.sim.schedule(ACK_DELAY, move || me.rel_ack_timer_fire(dst, gen));
        }
    }

    /// Delayed-ack timer: promote held acks to due and run a sweep so
    /// step 2 flushes them. A stale generation means the state was torn
    /// down and rebuilt under this event.
    fn rel_ack_timer_fire(self: &Rc<Self>, rank: Rank, gen: u64) {
        {
            let mut st = self.st.borrow_mut();
            let ch = &mut st.rel[rank.idx()];
            if ch.ack_timer_gen != gen {
                return;
            }
            ch.ack_timer_at = None;
            while let Some(src) = ch.ack_pending.pop() {
                ch.ack_due.mark(src);
            }
        }
        self.sweep(rank);
    }

    /// Sweep step 5 growth: dispatch queued in-order deliveries.
    pub(crate) fn rel_deliver(self: &Rc<Self>, st: &mut EngState, rank: Rank) {
        while let Some((src, body)) = st.rel[rank.idx()].deliver.pop_front() {
            st.eng_stats.rel_delivered += 1;
            self.dispatch_body(st, rank, src, body);
        }
    }

    /// Process a cumulative ack: retire covered frames and post their
    /// completion notices onto the owner's sweep queue.
    pub(crate) fn rel_handle_ack(
        self: &Rc<Self>,
        st: &mut EngState,
        dst: Rank,
        src: Rank,
        cum: u64,
    ) {
        let Some(out) = st.rel[dst.idx()].out.get_mut(&src) else {
            return;
        };
        if cum <= out.acked {
            return; // stale or duplicate ack
        }
        out.acked = cum;
        let mut notices: Vec<Notice> = Vec::new();
        while let Some((&seq, _)) = out.unacked.first_key_value() {
            if seq > cum {
                break;
            }
            let frame = out.unacked.remove(&seq).expect("first key present");
            if let Some(n) = frame.ack_notice {
                notices.push(n);
            }
        }
        for n in notices {
            st.sweep[dst.idx()].notices.push_back(n);
        }
    }

    /// Record an orphan response (token retired by a cancelled epoch, or
    /// a message outliving its correlation state) when the engine runs in
    /// a resilient configuration; panic otherwise — without faults this is
    /// an engine bug.
    pub(crate) fn orphan_response(&self, st: &mut EngState, what: &'static str) {
        if self.resilient() {
            st.eng_stats.orphan_responses += 1;
        } else {
            panic!("{what} with unknown token");
        }
    }
}
