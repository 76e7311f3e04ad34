//! The simulated interconnect.
//!
//! Store-and-forward cost model per message of `s` wire bytes between ranks
//! `src → dst`:
//!
//! * egress serialization occupies the source NIC for `s/β`, starting when
//!   the NIC is free (`egress_free`);
//! * the message then travels one hop of latency `α`;
//! * reception occupies the destination NIC for `s/β` and finishes at the
//!   delivery time (`ingress_free` tracks this);
//! * messages on the same `(src, dst)` channel deliver in order;
//! * internode channels carry finite *credits* (send-queue depth); a rank
//!   also has a global outstanding cap. Exhausted credits queue the send in
//!   a backlog drained as acknowledgements return — this is the mechanism
//!   behind the flow-control ceiling the paper hits at 512 processes
//!   (§VIII.B). A returned credit is an event only while its rank has a
//!   backlog for it to release; otherwise it is settled in place
//!   ([`NetStats::lazy_credit_returns`]).
//!
//! Local completion (origin buffer reusable) is reported when the last byte
//! leaves the source NIC, distinct from delivery at the target.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use mpisim_sim::{mix64, seeded_rng, Rng, SimHandle, SimTime, Stamp};

use crate::fault::{FaultKind, FaultPlan};
use crate::params::{
    serialization, NetParams, Rank, Topology, HEADER_BYTES, INTER_BW, INTER_LATENCY, INTRA_BW,
    INTRA_LATENCY,
};
use crate::vecmap::VecMap;

/// Implemented by the middleware's message body type so the network can
/// price it (and, under a fault plan, corrupt or duplicate it).
pub trait Wire: 'static {
    /// Payload bytes carried beyond the fixed header.
    fn payload_len(&self) -> usize;

    /// Flip bits in transit (bit-corruption fault). The default is a
    /// no-op: bodies that cannot express corruption are simply immune.
    fn corrupt_in_transit(&mut self) {}

    /// Clone the body for a duplicate delivery. The default (`None`)
    /// makes the body immune to duplication faults.
    fn duplicate(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// An addressed message.
#[derive(Debug)]
pub struct Packet<M> {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Middleware-defined body.
    pub body: M,
}

/// Aggregate counters exposed for instrumentation and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Messages delivered to the handler.
    pub msgs_delivered: u64,
    /// Total wire bytes transmitted (header + payload).
    pub bytes_sent: u64,
    /// Sends that had to wait in a credit backlog.
    pub credit_stalls: u64,
    /// Largest backlog depth observed on any rank.
    pub max_backlog: usize,
    /// Backlog entries a returned credit examined for one it could send.
    pub backlog_visits: u64,
    /// Credit returns that were never events: due while their rank had no
    /// backlog, so all they did was give the credit back, settled in place
    /// when the rank next sent (or pending when the run ended). The kernel
    /// would have executed this many more events had every return been
    /// one.
    pub lazy_credit_returns: u64,
    /// Total faults injected by the active [`FaultPlan`].
    pub faults_injected: u64,
    /// Random drops injected.
    pub fault_drops: u64,
    /// Duplicate deliveries injected.
    pub fault_dups: u64,
    /// Bodies corrupted in transit.
    pub fault_corrupts: u64,
    /// Messages held back past later channel traffic.
    pub fault_reorders: u64,
    /// Order-preserving extra delays injected.
    pub fault_delays: u64,
    /// Messages cut by a transient partition.
    pub fault_partition_drops: u64,
    /// Messages discarded at a crashed NIC.
    pub fault_crash_drops: u64,
}

struct SendReq<M> {
    pkt: Packet<M>,
    on_local: Option<Box<dyn FnOnce()>>,
    on_remote: Option<Box<dyn FnOnce()>>,
}

#[derive(Default)]
struct ChannelState {
    last_delivery: SimTime,
    in_flight: u32,
}

/// One message's drawn fault outcome.
#[derive(Default)]
struct FaultDraw {
    /// Discarded in the fabric (drop / partition / crash).
    lost: Option<FaultKind>,
    /// Deliver a second copy.
    dup: bool,
    /// Offset of the duplicate after the primary delivery.
    dup_extra: SimTime,
    /// Corrupt the body before delivery.
    corrupt: bool,
    /// Late handoff past the in-order clamp (reordering).
    reorder_extra: SimTime,
    /// Order-preserving extra latency.
    delay_extra: SimTime,
}

/// One rank as a source. The per-destination rows appear on first use, so
/// a rank pays for the peers it talks to, not for the job size.
struct RankState<M> {
    egress_free: SimTime,
    ingress_free: SimTime,
    in_flight: u32,
    backlog: VecDeque<SendReq<M>>,
    /// Credit returns due while the backlog was empty, by the place each
    /// holds in the event order, with the channel it frees: the earliest
    /// on top. Empty while the backlog is not.
    lazy_returns: BinaryHeap<Reverse<(Stamp, Rank)>>,
    /// Credit returns scheduled as events and not yet run.
    scheduled_returns: u32,
    /// Channel state toward each destination this rank has sent to.
    channels: VecMap<Rank, ChannelState>,
    /// Fault decision stream per destination, lazily seeded from
    /// `(plan.seed, src, dst)` so a plan replays identically.
    fault_rngs: VecMap<Rank, Rng>,
}

impl<M> Default for RankState<M> {
    fn default() -> Self {
        RankState {
            egress_free: SimTime::ZERO,
            ingress_free: SimTime::ZERO,
            in_flight: 0,
            backlog: VecDeque::new(),
            lazy_returns: BinaryHeap::new(),
            scheduled_returns: 0,
            channels: VecMap::new(),
            fault_rngs: VecMap::new(),
        }
    }
}

struct NetInner<M> {
    ranks: Vec<RankState<M>>,
    stats: NetStats,
    jitter_rng: Rng,
    /// NICs currently off the fabric: the one record of "this rank is
    /// down", set by the engine's crash and restart
    /// ([`Network::nic_down`] / [`Network::nic_up`]).
    downs: Vec<bool>,
}

impl NetStats {
    /// Count one injected fault.
    fn record(&mut self, kind: FaultKind) {
        self.faults_injected += 1;
        match kind {
            FaultKind::Drop => self.fault_drops += 1,
            FaultKind::Duplicate => self.fault_dups += 1,
            FaultKind::Corrupt => self.fault_corrupts += 1,
            FaultKind::Reorder => self.fault_reorders += 1,
            FaultKind::Delay => self.fault_delays += 1,
            FaultKind::PartitionDrop => self.fault_partition_drops += 1,
            FaultKind::CrashDrop => self.fault_crash_drops += 1,
        }
    }
}

type Handler<M> = Rc<dyn Fn(Packet<M>)>;

/// The simulated network fabric. Cheap to share (`Arc`), and owned by the
/// simulation's driver thread like the kernel under it: its state is a
/// `RefCell`, so the network is neither `Send` nor `Sync`.
pub struct Network<M: Wire> {
    inner: RefCell<NetInner<M>>,
    handler: RefCell<Option<Handler<M>>>,
    handle: SimHandle,
    params: NetParams,
    topo: Topology,
}

impl<M: Wire> Network<M> {
    /// Create a network over `topo` with the flow control, jitter and
    /// faults of `params`.
    // `Arc` although nothing crosses a thread: callers outside this
    // workspace name the type (`benchmark/src/probes.rs`).
    #[allow(clippy::arc_with_non_send_sync)]
    pub fn new(handle: SimHandle, params: NetParams, topo: Topology) -> Arc<Self> {
        let n = topo.n_ranks();
        Arc::new(Network {
            inner: RefCell::new(NetInner {
                ranks: (0..n).map(|_| RankState::default()).collect(),
                stats: NetStats::default(),
                jitter_rng: seeded_rng(handle.seed(), 0x0021_77E2),
                downs: vec![false; n],
            }),
            handler: RefCell::new(None),
            handle,
            params,
            topo,
        })
    }

    /// Install the delivery handler (called once per delivered packet, by
    /// the driver, with no network borrow held).
    pub fn set_handler(&self, h: impl Fn(Packet<M>) + 'static) {
        *self.handler.borrow_mut() = Some(Rc::new(h));
    }

    /// The topology this network spans.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cost-model parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Take rank's NIC off the fabric: every internode message to or from
    /// it is discarded (counted as [`FaultKind::CrashDrop`]) until
    /// [`Network::nic_up`] brings it back.
    pub fn nic_down(&self, rank: Rank) {
        self.inner.borrow_mut().downs[rank.idx()] = true;
    }

    /// Bring a downed NIC back onto the fabric.
    pub fn nic_up(&self, rank: Rank) {
        self.inner.borrow_mut().downs[rank.idx()] = false;
    }

    /// Is this rank's NIC currently down?
    pub fn nic_is_down(&self, rank: Rank) -> bool {
        self.inner.borrow().downs[rank.idx()]
    }

    /// Send a packet, fire-and-forget.
    pub fn send(self: &Arc<Self>, pkt: Packet<M>) {
        self.send_req(SendReq {
            pkt,
            on_local: None,
            on_remote: None,
        });
    }

    /// Send a packet with its completion callbacks, each optional:
    /// `on_local` when the origin buffer is reusable (the last byte left
    /// the source NIC), and `on_remote` when the origin learns of remote
    /// completion (the hardware acknowledgement: delivery plus one return
    /// latency internode, delivery time intranode).
    pub fn send_tracked(
        self: &Arc<Self>,
        pkt: Packet<M>,
        on_local: Option<Box<dyn FnOnce()>>,
        on_remote: Option<Box<dyn FnOnce()>>,
    ) {
        self.send_req(SendReq { pkt, on_local, on_remote });
    }

    fn send_req(self: &Arc<Self>, req: SendReq<M>) {
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        inner.stats.msgs_sent += 1;
        let src = req.pkt.src;
        let internode = !self.topo.same_node(src, req.pkt.dst);
        if internode {
            self.settle(&mut inner, src);
            if !self.has_credits(&inner, src, req.pkt.dst) {
                inner.stats.credit_stalls += 1;
                let from = &mut inner.ranks[src.idx()];
                from.backlog.push_back(req);
                let depth = from.backlog.len();
                if depth == 1 {
                    // The backlog starts: from here on a return may release
                    // a send, so every one still due becomes an event, at
                    // the place it reserved.
                    let lazy = std::mem::take(&mut from.lazy_returns);
                    inner.stats.lazy_credit_returns -= lazy.len() as u64;
                    for Reverse((stamp, dst)) in lazy {
                        self.schedule_return(&mut inner, stamp, src, dst);
                    }
                }
                inner.stats.max_backlog = inner.stats.max_backlog.max(depth);
                return;
            }
        }
        self.transmit(&mut inner, now, req);
    }

    /// Take off `src`'s counters every lazy return whose place in the event
    /// order has gone by: as an event it would have found no backlog, so
    /// giving the credit back was all it did. Until then the counters
    /// overstate what is in flight, so this runs before each internode
    /// send reads them; a return reads them only under a backlog, when
    /// there is no lazy return.
    fn settle(&self, inner: &mut NetInner<M>, src: Rank) {
        let from = &mut inner.ranks[src.idx()];
        while let Some(&Reverse((stamp, dst))) = from.lazy_returns.peek() {
            if !self.handle.passed(stamp) {
                break;
            }
            from.lazy_returns.pop();
            Self::take_back(from, dst);
        }
        debug_assert_eq!(
            from.in_flight as usize,
            from.lazy_returns.len() + from.scheduled_returns as usize,
            "{src:?}: credits in flight are not the returns still to come"
        );
    }

    /// One credit comes back on the channel `from → dst` and on the rank.
    fn take_back(from: &mut RankState<M>, dst: Rank) {
        if let Some(c) = from.channels.get_mut(&dst) {
            debug_assert!(c.in_flight > 0);
            c.in_flight -= 1;
        }
        debug_assert!(from.in_flight > 0);
        from.in_flight -= 1;
    }

    /// Give back the credit `src → dst` at `at`, the acknowledgement time.
    /// With no backlog on `src` the return can release nothing, so it is no
    /// event: its place in the order is reserved and [`Network::settle`]
    /// takes it once that place has gone by. Under a backlog it is an
    /// event, as is every lazy one still due when a backlog starts.
    fn credit_back(self: &Arc<Self>, inner: &mut NetInner<M>, src: Rank, dst: Rank, at: SimTime) {
        let stamp = self.handle.reserve(at);
        let from = &mut inner.ranks[src.idx()];
        if from.backlog.is_empty() {
            from.lazy_returns.push(Reverse((stamp, dst)));
            inner.stats.lazy_credit_returns += 1;
        } else {
            self.schedule_return(inner, stamp, src, dst);
        }
    }

    /// Schedule the return of the credit `src → dst` at its reserved place.
    fn schedule_return(
        self: &Arc<Self>,
        inner: &mut NetInner<M>,
        stamp: Stamp,
        src: Rank,
        dst: Rank,
    ) {
        inner.ranks[src.idx()].scheduled_returns += 1;
        let net = self.clone();
        self.handle.schedule_stamped(stamp, move || net.return_credit(src, dst));
    }

    fn has_credits(&self, inner: &NetInner<M>, src: Rank, dst: Rank) -> bool {
        let chan_ok = self.params.channel_credits == 0
            || inner.ranks[src.idx()]
                .channels
                .get(&dst)
                .is_none_or(|c| c.in_flight < self.params.channel_credits);
        let rank_ok = self.params.rank_credits == 0
            || inner.ranks[src.idx()].in_flight < self.params.rank_credits;
        chan_ok && rank_ok
    }

    /// Compute the timing of one message and schedule its local-completion,
    /// delivery, and (internode) credit-return events.
    ///
    /// The packet moves by value from the sender into the delivery
    /// closure and on into the handler: the network never clones or
    /// copies a payload in transit (payload sharing, where it happens,
    /// is a refcount bump on its [`Bytes`](crate::Bytes)).
    fn transmit(self: &Arc<Self>, inner: &mut NetInner<M>, now: SimTime, req: SendReq<M>) {
        let SendReq {
            mut pkt,
            on_local,
            on_remote,
        } = req;
        let (src, dst) = (pkt.src, pkt.dst);
        let internode = !self.topo.same_node(src, dst);
        let wire = HEADER_BYTES + pkt.body.payload_len();

        // Fault decisions, drawn before timing: internode channels only,
        // never self-sends, from the per-channel replayable stream.
        let plan = self
            .params
            .faults
            .as_ref()
            .filter(|p| internode && src != dst && p.is_active());
        let faults = plan.map(|p| Self::decide_faults(inner, now, src, dst, p));
        let mut faults = faults.unwrap_or_default();

        // A downed NIC (a planned crash, or the engine's crash/restart)
        // discards every internode message touching it.
        if internode
            && src != dst
            && faults.lost.is_none()
            && (inner.downs[src.idx()] || inner.downs[dst.idx()])
        {
            faults.lost = Some(FaultKind::CrashDrop);
            inner.stats.record(FaultKind::CrashDrop);
        }

        let (alpha, ser) = if internode {
            (INTER_LATENCY, serialization(wire, INTER_BW))
        } else {
            (INTRA_LATENCY, serialization(wire, INTRA_BW))
        };

        inner.stats.bytes_sent += wire as u64;

        let start = now.max(inner.ranks[src.idx()].egress_free);
        let local_complete = start + ser;
        inner.ranks[src.idx()].egress_free = local_complete;

        let mut arrive = local_complete + alpha + faults.delay_extra;
        if !self.params.jitter.is_zero() {
            let j = inner.jitter_rng.gen_range(0..=self.params.jitter.as_nanos());
            arrive += SimTime::from_nanos(j);
        }

        if internode {
            let from = &mut inner.ranks[src.idx()];
            from.channels.entry(dst).or_default().in_flight += 1;
            from.in_flight += 1;
        }

        // Origin-side effects happen regardless of in-fabric loss: the
        // message did leave the NIC, and the credit slot is reclaimed at
        // the nominal acknowledgement time (a NIC-level timeout) so a
        // lossy fabric can never deadlock flow control.
        if let Some(cb) = on_local {
            self.handle.schedule_at(local_complete, cb);
        }

        if let Some(kind) = faults.lost {
            // The message vanishes in the fabric: no delivery, no remote
            // acknowledgement, destination clamps untouched.
            drop(on_remote);
            if internode {
                self.credit_back(inner, src, dst, arrive + INTER_LATENCY);
            }
            debug_assert!(matches!(
                kind,
                FaultKind::Drop | FaultKind::PartitionDrop | FaultKind::CrashDrop
            ));
            return;
        }

        if faults.corrupt {
            pkt.body.corrupt_in_transit();
        }

        // Per-channel order clamps always use the *nominal* delivery time;
        // a reordered message is then handed to the handler late, so later
        // channel traffic can legally overtake it.
        let ingress_ready = inner.ranks[dst.idx()].ingress_free + ser;
        let chan = inner.ranks[src.idx()].channels.entry(dst).or_default();
        let delivery = arrive.max(ingress_ready).max(chan.last_delivery);
        chan.last_delivery = delivery;
        inner.ranks[dst.idx()].ingress_free = delivery;
        let handoff = delivery + faults.reorder_extra;

        if faults.dup {
            if let Some(body) = pkt.body.duplicate() {
                let net = self.clone();
                let twin = Packet { src, dst, body };
                self.handle.schedule_at(handoff + faults.dup_extra, move || net.deliver(twin));
            }
        }

        let net = self.clone();
        self.handle.schedule_at(handoff, move || net.deliver(pkt));

        let ack_at = if internode {
            handoff + INTER_LATENCY
        } else {
            handoff
        };
        if let Some(cb) = on_remote {
            self.handle.schedule_at(ack_at, cb);
        }
        if internode {
            // Credits return after the acknowledgement travels back.
            self.credit_back(inner, src, dst, ack_at);
        }
    }

    /// Hand one packet to the installed handler (delivery time).
    fn deliver(self: &Arc<Self>, pkt: Packet<M>) {
        let handler = {
            self.inner.borrow_mut().stats.msgs_delivered += 1;
            self.handler.borrow().clone()
        };
        if let Some(h) = handler {
            h(pkt);
        }
    }

    /// Draw this message's fault outcome from the channel's seeded stream,
    /// counting every injection in the stats.
    fn decide_faults(
        inner: &mut NetInner<M>,
        now: SimTime,
        src: Rank,
        dst: Rank,
        plan: &FaultPlan,
    ) -> FaultDraw {
        let mut draw = FaultDraw::default();
        if plan.partitioned(src, dst, now) {
            draw.lost = Some(FaultKind::PartitionDrop);
            inner.stats.record(FaultKind::PartitionDrop);
            return draw;
        }

        let seed = plan.seed;
        let stats = &mut inner.stats;
        let rng = inner.ranks[src.idx()]
            .fault_rngs
            .entry(dst)
            .or_insert_with(|| {
                seeded_rng(seed, mix64(0xFA17, ((src.idx() as u64) << 32) | dst.idx() as u64))
            });
        if plan.drop_p > 0.0 && rng.gen_bool(plan.drop_p) {
            draw.lost = Some(FaultKind::Drop);
            stats.record(FaultKind::Drop);
            return draw;
        }
        if plan.dup_p > 0.0 && rng.gen_bool(plan.dup_p) {
            draw.dup = true;
            draw.dup_extra = SimTime::from_nanos(rng.gen_range(1..=2_000));
            stats.record(FaultKind::Duplicate);
        }
        if plan.corrupt_p > 0.0 && rng.gen_bool(plan.corrupt_p) {
            draw.corrupt = true;
            stats.record(FaultKind::Corrupt);
        }
        if plan.reorder_p > 0.0 && rng.gen_bool(plan.reorder_p) {
            let window = plan.reorder_window.as_nanos().max(1);
            draw.reorder_extra = SimTime::from_nanos(rng.gen_range(1..=window));
            stats.record(FaultKind::Reorder);
        } else if plan.delay_p > 0.0 && rng.gen_bool(plan.delay_p) {
            let cap = plan.max_delay.as_nanos().max(1);
            draw.delay_extra = SimTime::from_nanos(rng.gen_range(1..=cap));
            stats.record(FaultKind::Delay);
        }
        draw
    }

    fn return_credit(self: &Arc<Self>, src: Rank, dst: Rank) {
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        let from = &mut inner.ranks[src.idx()];
        from.scheduled_returns -= 1;
        Self::take_back(from, dst);

        // One credit came back on one channel and on the rank, and a
        // transmission takes one of each. Before the return no backlogged
        // send could go (or the rank was full), so now at most one can:
        // the first in FIFO order that has credits. Taking it out in place
        // keeps every channel's order.
        let backlog = &inner.ranks[src.idx()].backlog;
        let pick = backlog
            .iter()
            .position(|r| self.has_credits(&inner, src, r.pkt.dst));
        inner.stats.backlog_visits += pick.map_or(backlog.len(), |i| i + 1) as u64;
        if let Some(i) = pick {
            let from = &mut inner.ranks[src.idx()];
            let req = from.backlog.remove(i).expect("position is in the backlog");
            if from.backlog.is_empty() {
                // A drained backlog gives its buffer back, so a burst's
                // peak depth does not stay resident for the rest of the job.
                from.backlog = VecDeque::new();
            }
            self.transmit(&mut inner, now, req);
        }
        debug_assert!(
            inner.ranks[src.idx()]
                .backlog
                .iter()
                .all(|r| !self.has_credits(&inner, src, r.pkt.dst)),
            "a returned credit left a sendable message in the backlog"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use mpisim_sim::Sim;

    struct Body {
        tag: u64,
        payload: Payload,
    }

    impl Wire for Body {
        fn payload_len(&self) -> usize {
            self.payload.len()
        }
    }

    fn ctrl(tag: u64) -> Body {
        Body {
            tag,
            payload: Payload::empty(),
        }
    }

    fn data(tag: u64, n: usize) -> Body {
        Body {
            tag,
            payload: Payload::Synthetic(n),
        }
    }

    type Log = Rc<RefCell<Vec<(u64, u64)>>>; // (tag, time ns)

    fn collect_deliveries(net: &Arc<Network<Body>>, h: &SimHandle) -> Log {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let h = h.clone();
        net.set_handler(move |pkt: Packet<Body>| {
            l.borrow_mut().push((pkt.body.tag, h.now().as_nanos()));
        });
        log
    }

    #[test]
    fn single_message_timing() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(h.clone(), NetParams::qdr_infiniband(), Topology::all_internode(2));
        let log = collect_deliveries(&net, &h);
        net.send(Packet {
            src: Rank(0),
            dst: Rank(1),
            body: ctrl(7),
        });
        sim.run().unwrap();
        let expected = (serialization(HEADER_BYTES, INTER_BW) + INTER_LATENCY).as_nanos();
        assert_eq!(*log.borrow(), vec![(7, expected)]);
    }

    #[test]
    fn intranode_is_faster_than_internode() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(
            h.clone(),
            NetParams::qdr_infiniband(),
            Topology::new(4, 2), // ranks 0,1 on node 0; 2,3 on node 1
        );
        let log = collect_deliveries(&net, &h);
        net.send(Packet {
            src: Rank(0),
            dst: Rank(1),
            body: data(1, 4096),
        });
        net.send(Packet {
            src: Rank(2),
            dst: Rank(0),
            body: data(2, 4096),
        });
        sim.run().unwrap();
        let log = log.borrow();
        let t_intra = log.iter().find(|e| e.0 == 1).unwrap().1;
        let t_inter = log.iter().find(|e| e.0 == 2).unwrap().1;
        assert!(t_intra < t_inter, "intra {t_intra} should beat inter {t_inter}");
    }

    #[test]
    fn per_channel_delivery_is_in_order() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(
            h.clone(),
            NetParams::unlimited(),
            Topology::all_internode(2),
        );
        let log = collect_deliveries(&net, &h);
        // A large message followed by small ones: order must hold.
        net.send(Packet {
            src: Rank(0),
            dst: Rank(1),
            body: data(0, 1 << 20),
        });
        for i in 1..5 {
            net.send(Packet {
                src: Rank(0),
                dst: Rank(1),
                body: ctrl(i),
            });
        }
        sim.run().unwrap();
        let tags: Vec<u64> = log.borrow().iter().map(|e| e.0).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn egress_bandwidth_serializes_two_large_sends() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(h.clone(), NetParams::unlimited(), Topology::all_internode(3));
        let log = collect_deliveries(&net, &h);
        // Rank 0 sends 1MB to two different targets back to back: the second
        // must wait for the first to leave the NIC.
        net.send(Packet {
            src: Rank(0),
            dst: Rank(1),
            body: data(1, 1 << 20),
        });
        net.send(Packet {
            src: Rank(0),
            dst: Rank(2),
            body: data(2, 1 << 20),
        });
        sim.run().unwrap();
        let log = log.borrow();
        let t1 = log.iter().find(|e| e.0 == 1).unwrap().1;
        let t2 = log.iter().find(|e| e.0 == 2).unwrap().1;
        let ser = serialization((1 << 20) + HEADER_BYTES, INTER_BW).as_nanos();
        assert_eq!(t2 - t1, ser, "second transfer delayed by one serialization");
    }

    #[test]
    fn local_completion_precedes_delivery() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(
            h.clone(),
            NetParams::qdr_infiniband(),
            Topology::all_internode(2),
        );
        let log = collect_deliveries(&net, &h);
        let local_t = Rc::new(RefCell::new(0u64));
        let (lt, hh) = (local_t.clone(), h.clone());
        net.send_tracked(
            Packet {
                src: Rank(0),
                dst: Rank(1),
                body: data(9, 1 << 16),
            },
            Some(Box::new(move || *lt.borrow_mut() = hh.now().as_nanos())),
            None,
        );
        sim.run().unwrap();
        let deliver = log.borrow()[0].1;
        let local = *local_t.borrow();
        assert!(local > 0 && local < deliver);
    }

    #[test]
    fn channel_credits_throttle_and_recover() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 2;
        p.rank_credits = 0;
        let net = Network::new(h.clone(), p, Topology::all_internode(2));
        let log = collect_deliveries(&net, &h);
        for i in 0..10 {
            net.send(Packet {
                src: Rank(0),
                dst: Rank(1),
                body: ctrl(i),
            });
        }
        sim.run().unwrap();
        // All ten must eventually deliver, in order, despite only 2 credits.
        let tags: Vec<u64> = log.borrow().iter().map(|e| e.0).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
        assert!(net.stats().credit_stalls >= 8);
    }

    #[test]
    fn rank_credits_cap_total_outstanding() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 0;
        p.rank_credits = 1;
        let net = Network::new(h.clone(), p, Topology::all_internode(4));
        let log = collect_deliveries(&net, &h);
        for (i, dst) in [1usize, 2, 3, 1, 2, 3].iter().enumerate() {
            net.send(Packet {
                src: Rank(0),
                dst: Rank(*dst),
                body: ctrl(i as u64),
            });
        }
        sim.run().unwrap();
        assert_eq!(log.borrow().len(), 6);
        assert!(net.stats().credit_stalls >= 5);
    }

    #[test]
    fn backlog_skips_blocked_channel_but_keeps_its_order() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 1;
        p.rank_credits = 0;
        let net = Network::new(h.clone(), p, Topology::all_internode(3));
        let log = collect_deliveries(&net, &h);
        // Channel 0->1 gets three sends (two will queue); 0->2 one send that
        // must not be blocked behind them forever.
        for i in 0..3 {
            net.send(Packet {
                src: Rank(0),
                dst: Rank(1),
                body: ctrl(i),
            });
        }
        net.send(Packet {
            src: Rank(0),
            dst: Rank(2),
            body: ctrl(100),
        });
        sim.run().unwrap();
        let to1: Vec<u64> = log
            .borrow()
            .iter()
            .map(|e| e.0)
            .filter(|t| *t < 100)
            .collect();
        assert_eq!(to1, vec![0, 1, 2]);
        assert_eq!(log.borrow().len(), 4);
    }

    #[test]
    fn a_returned_credit_examines_only_the_send_it_releases() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 0;
        p.rank_credits = 3;
        let net = Network::new(h.clone(), p, Topology::all_internode(9));
        let log = collect_deliveries(&net, &h);
        // Eight peers, three rank credits: five sends wait, and each
        // returned credit finds the next one at the head of the backlog.
        for dst in 1..9 {
            net.send(Packet {
                src: Rank(0),
                dst: Rank(dst),
                body: ctrl(dst as u64),
            });
        }
        sim.run().unwrap();
        let s = net.stats();
        assert_eq!(log.borrow().len(), 8);
        assert_eq!(s.credit_stalls, 5);
        assert_eq!(s.backlog_visits, s.credit_stalls);
    }

    /// `(tag, 'l'ocal or 'r'emote completion, ns)` of rank 0's sends.
    type Done = Rc<RefCell<Vec<(u64, char, u64)>>>;

    /// Send `body` from rank 0 to `dst`, logging both its completions.
    fn send_logged(net: &Arc<Network<Body>>, done: &Done, dst: usize, body: Body) {
        let at = |kind| {
            let (done, h, tag) = (done.clone(), net.handle.clone(), body.tag);
            Some(Box::new(move || done.borrow_mut().push((tag, kind, h.now().as_nanos())))
                as Box<dyn FnOnce()>)
        };
        let (local, remote) = (at('l'), at('r'));
        net.send_tracked(Packet { src: Rank(0), dst: Rank(dst), body }, local, remote);
    }

    /// One credit per channel. Three sends leave three lazy returns
    /// pending; a fourth on a full channel starts a backlog, which turns
    /// them into events at their reserved places. The first one frees the
    /// fourth send at the same instant as a send that was scheduled after
    /// the return's place was taken, so the backlogged send gets the NIC
    /// first, as it did when every return was an event.
    #[test]
    fn lazy_returns_become_events_at_their_places_when_a_backlog_starts() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 1;
        p.rank_credits = 0;
        let net = Network::new(h.clone(), p, Topology::all_internode(5));
        let log = collect_deliveries(&net, &h);
        let done = Done::default();
        let s = serialization(HEADER_BYTES, INTER_BW).as_nanos();
        let big = serialization(HEADER_BYTES + 4096, INTER_BW).as_nanos();
        let a = INTER_LATENCY.as_nanos();
        for dst in 1..=3 {
            send_logged(&net, &done, dst, ctrl(dst as u64));
        }
        assert_eq!(net.stats().lazy_credit_returns, 3);
        // The credit 0 → 1 comes back at s + 2α; a send toward rank 4,
        // scheduled now, competes for the NIC then.
        let (n2, d2) = (net.clone(), done.clone());
        h.schedule_at(SimTime::from_nanos(s + 2 * a), move || {
            send_logged(&n2, &d2, 4, data(5, 4096));
        });
        send_logged(&net, &done, 1, ctrl(4));
        let st = net.stats();
        assert_eq!((st.credit_stalls, st.lazy_credit_returns), (1, 0));
        let stats = sim.run().unwrap();
        // Delivery α after the last byte leaves: tags 1–3 back to back
        // from 0; tag 4 when its credit returns at s + 2α; tag 5 after it.
        let t4 = s + 2 * a;
        let t5 = t4 + s;
        assert_eq!(
            *log.borrow(),
            [(1, s + a), (2, 2 * s + a), (3, 3 * s + a), (4, t4 + s + a), (5, t5 + big + a)]
        );
        let mut done = done.borrow().clone();
        done.retain(|&(tag, _, _)| tag >= 4);
        assert_eq!(
            done,
            [
                (4, 'l', t4 + s),
                (5, 'l', t5 + big),
                (4, 'r', t4 + s + 2 * a),
                (5, 'r', t5 + big + 2 * a),
            ]
        );
        // The three pending returns ran as events; tags 4 and 5 left with
        // the backlog empty again, so theirs did not.
        let st = net.stats();
        assert_eq!(st.lazy_credit_returns, 2);
        assert_eq!(stats.events_executed, 5 * 3 + 3 + 1);
        assert_eq!(stats.final_time.as_nanos(), t5 + big + 2 * a);
    }

    #[test]
    fn incast_serializes_at_the_receiver_nic() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(h.clone(), NetParams::unlimited(), Topology::all_internode(4));
        let log = collect_deliveries(&net, &h);
        // Three senders hit rank 0 with 256 KB each at t=0.
        for s in 1..4u64 {
            net.send(Packet {
                src: Rank(s as usize),
                dst: Rank(0),
                body: data(s, 256 * 1024),
            });
        }
        sim.run().unwrap();
        let mut times: Vec<u64> = log.borrow().iter().map(|e| e.1).collect();
        times.sort_unstable();
        let ser = serialization(256 * 1024 + HEADER_BYTES, INTER_BW).as_nanos();
        // Receiver link occupancy: consecutive deliveries at least one
        // serialization apart.
        assert!(times[1] - times[0] >= ser);
        assert!(times[2] - times[1] >= ser);
    }

    #[test]
    fn self_send_is_delivered() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(
            h.clone(),
            NetParams::qdr_infiniband(),
            Topology::all_internode(1),
        );
        let log = collect_deliveries(&net, &h);
        net.send(Packet {
            src: Rank(0),
            dst: Rank(0),
            body: ctrl(5),
        });
        sim.run().unwrap();
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn jitter_perturbs_but_keeps_channel_order_and_determinism() {
        fn run(seed: u64, jitter_us: u64) -> Vec<(u64, u64)> {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let mut p = NetParams::unlimited();
            p.jitter = SimTime::from_micros(jitter_us);
            let net = Network::new(h.clone(), p, Topology::all_internode(3));
            let log = collect_deliveries(&net, &h);
            for i in 0..6 {
                net.send(Packet {
                    src: Rank(0),
                    dst: Rank(1 + (i as usize % 2)),
                    body: ctrl(i),
                });
            }
            sim.run().unwrap();
            log.take()
        }
        let jittered = run(42, 50);
        // Per-channel order preserved despite jitter.
        let chan1: Vec<u64> = jittered.iter().map(|e| e.0).filter(|t| t % 2 == 0).collect();
        assert_eq!(chan1, vec![0, 2, 4]);
        // Deterministic: same seed, same schedule.
        assert_eq!(jittered, run(42, 50));
        // And jitter actually changes timing vs the clean run.
        let clean = run(42, 0);
        assert_ne!(
            jittered.iter().map(|e| e.1).collect::<Vec<_>>(),
            clean.iter().map(|e| e.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drop_storm_loses_messages_but_returns_credits() {
        let sim = Sim::new(11);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.channel_credits = 2;
        p.faults = Some(crate::FaultPlan::drop_storm(5));
        let net = Network::new(h.clone(), p, Topology::all_internode(2));
        let log = collect_deliveries(&net, &h);
        for i in 0..40 {
            net.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(i) });
        }
        sim.run().unwrap();
        let s = net.stats();
        assert!(s.fault_drops > 0, "a 35% storm over 40 sends must drop something");
        assert_eq!(log.borrow().len() as u64, 40 - s.fault_drops);
        let by_kind = s.fault_drops
            + s.fault_dups
            + s.fault_corrupts
            + s.fault_reorders
            + s.fault_delays
            + s.fault_partition_drops
            + s.fault_crash_drops;
        assert_eq!(by_kind, s.faults_injected);
        // Dropped messages still return their credit: everything launched.
        assert_eq!(s.msgs_sent, 40);
    }

    #[test]
    fn duplicates_need_body_support_and_deliver_twice() {
        struct CloneBody(u64);
        impl Wire for CloneBody {
            fn payload_len(&self) -> usize {
                0
            }
            fn duplicate(&self) -> Option<Self> {
                Some(CloneBody(self.0))
            }
        }
        let sim = Sim::new(3);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.faults = Some(crate::FaultPlan::dup_storm(9));
        let net = Network::new(h.clone(), p, Topology::all_internode(2));
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (l, hh) = (log.clone(), h.clone());
        net.set_handler(move |pkt: Packet<CloneBody>| {
            l.borrow_mut().push((pkt.body.0, hh.now().as_nanos()));
        });
        for i in 0..30 {
            net.send(Packet { src: Rank(0), dst: Rank(1), body: CloneBody(i) });
        }
        sim.run().unwrap();
        let s = net.stats();
        assert!(s.fault_dups > 0);
        assert_eq!(log.borrow().len() as u64, 30 + s.fault_dups);
    }

    #[test]
    fn partition_cuts_only_inside_its_window() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let mut p = NetParams::qdr_infiniband();
        p.faults = Some(crate::FaultPlan::transient_partition(1));
        let net = Network::new(h.clone(), p, Topology::all_internode(2));
        let log = collect_deliveries(&net, &h);
        // One message before the cut, one inside it, one after the heal.
        net.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(0) });
        let n2 = net.clone();
        h.schedule_at(SimTime::from_micros(100), move || {
            n2.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(1) });
        });
        let n3 = net.clone();
        h.schedule_at(SimTime::from_micros(3_000), move || {
            n3.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(2) });
        });
        sim.run().unwrap();
        let tags: Vec<u64> = log.borrow().iter().map(|e| e.0).collect();
        assert_eq!(tags, vec![0, 2]);
        assert_eq!(net.stats().fault_partition_drops, 1);
    }

    #[test]
    fn reorder_lets_later_traffic_overtake_but_replays_identically() {
        fn run(seed: u64) -> Vec<u64> {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let mut p = NetParams::qdr_infiniband();
            p.faults = Some(crate::FaultPlan::heavy_dup_reorder(13));
            let net = Network::new(h.clone(), p, Topology::all_internode(2));
            let log = collect_deliveries(&net, &h);
            for i in 0..40 {
                net.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(i) });
            }
            sim.run().unwrap();
            assert!(net.stats().fault_reorders > 0);
            let v = log.borrow().iter().map(|e| e.0).collect();
            v
        }
        let a = run(21);
        assert_ne!(a, (0..40).collect::<Vec<u64>>(), "reorders must be visible");
        assert_eq!(a, run(21), "same seeds must replay the same schedule");
    }

    #[test]
    fn dynamic_nic_down_drops_and_up_restores_delivery() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(
            h.clone(),
            NetParams::qdr_infiniband(),
            Topology::all_internode(3),
        );
        let log = collect_deliveries(&net, &h);
        // Before the outage: delivered.
        net.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(0) });
        let n2 = net.clone();
        h.schedule_at(SimTime::from_micros(50), move || n2.nic_down(Rank(1)));
        let n3 = net.clone();
        h.schedule_at(SimTime::from_micros(60), move || {
            n3.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(1) });
            n3.send(Packet { src: Rank(1), dst: Rank(2), body: ctrl(2) });
            n3.send(Packet { src: Rank(0), dst: Rank(2), body: ctrl(3) });
        });
        // Mid-outage, just before the heal.
        let (n, l, mid) = (net.clone(), log.clone(), Rc::new(RefCell::new(None)));
        let m = mid.clone();
        h.schedule_at(SimTime::from_micros(499), move || {
            let tags: Vec<u64> = l.borrow().iter().map(|e| e.0).collect();
            *m.borrow_mut() = Some((tags, n.stats().fault_crash_drops));
        });
        let n4 = net.clone();
        h.schedule_at(SimTime::from_micros(500), move || n4.nic_up(Rank(1)));
        let n5 = net.clone();
        h.schedule_at(SimTime::from_micros(600), move || {
            n5.send(Packet { src: Rank(0), dst: Rank(1), body: ctrl(4) });
        });
        sim.run().unwrap();
        let crashed = mid.take();
        assert_eq!(crashed, Some((vec![0, 3], 2)), "post-crash traffic touching rank 1 is gone");
        let tags: Vec<u64> = log.borrow().iter().map(|e| e.0).collect();
        assert_eq!(tags, vec![0, 3, 4], "outage drops both directions, heal restores");
        assert_eq!(net.stats().fault_crash_drops, 2);
        assert!(!net.nic_is_down(Rank(1)));
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let net = Network::new(h.clone(), NetParams::unlimited(), Topology::all_internode(2));
        let _log = collect_deliveries(&net, &h);
        net.send(Packet {
            src: Rank(0),
            dst: Rank(1),
            body: data(0, 1000),
        });
        sim.run().unwrap();
        let s = net.stats();
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.msgs_delivered, 1);
        assert_eq!(s.bytes_sent, (1000 + HEADER_BYTES) as u64);
    }
}
